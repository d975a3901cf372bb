"""sha256 digests of simulated trajectories, every sample bit for bit.

The golden CSVs compare numbers to 1e-12 and cover few plans; these digests
cover the simulation paths they miss (gnhi at m = 8, weighted gnhi, weighted
Jacobi on both intervals, both attitude modes) at the 4000 steps of the
steer-verify path, and any change of one bit in t, a state or an input
column fails them.  A plan's digest hashes every phase trajectory and the
merged one.  A second table hashes the CSV text ``nhsteer simulate`` writes
for the same simulation, so any change of one output byte fails it too.

The digests pin the numpy, libm and BLAS build they were made with:
transcendental functions may round differently on another CPU or build.
There, regenerate them from the commit before a change
(``PYTHONPATH=src python tests/test_trajectory_digests.py`` prints both
tables) and compare the change against those.
"""

import hashlib
import io
import json
import sys

import numpy as np
import pytest

from nhsteer.dynamics import GnhiState, Rotation, exp_rotation
from nhsteer.optimal_energy import cheb_optimal_inputs, solution_to_plan
from nhsteer.so3_control import constant_omega_plan, simulate_attitude, underactuated_plan
from nhsteer.steering import SimulationResult, plan_gnhi, plan_nhi, simulate_plan

STEPS = 4000


def _digest(trajectories) -> str:
    sha = hashlib.sha256()
    for traj in trajectories:
        sha.update(np.ascontiguousarray(traj.t, dtype=float).tobytes())
        for name in (*traj.state_names, *traj.input_names):
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(traj.columns[name], dtype=float).tobytes())
    return sha.hexdigest()


def _simulation_digest(sim) -> str:
    if isinstance(sim, SimulationResult):
        return _digest([*sim.trajectories, sim.merged])
    return _digest([sim])


def _csv_digest(sim) -> str:
    """The digest of the CSV text ``nhsteer simulate`` writes for ``sim``."""
    buf = io.StringIO()
    sim.to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _nhi(family, interval=None, jacobi=None, x0=(0.3, -0.7, 0.2), xf=(-1.1, 0.4, 2.5)):
    return lambda: simulate_plan(plan_nhi(x0, xf, family=family, interval=interval, jacobi_params=jacobi), STEPS)


def _gnhi(m, family, from_zeros=False):
    rng = np.random.default_rng(m)
    s0 = GnhiState.from_flat(m, rng.uniform(-1.0, 1.0, m + m * (m - 1) // 2))
    sf = GnhiState.from_flat(m, rng.uniform(-2.0, 2.0, m + m * (m - 1) // 2))
    if from_zeros:  # the direct phase leaves every cross coordinate at zero: zero channels, skipped pairs
        s0 = GnhiState.zeros(m)
    return lambda: simulate_plan(plan_gnhi(s0, sf, family=family), STEPS)


def _optimal(a, split):
    return lambda: simulate_plan(
        solution_to_plan(cheb_optimal_inputs(a, split=split), x0=(0.5, -0.25, 1.0)), STEPS
    )


def _so3(planner, duration):
    g0 = Rotation(exp_rotation(np.array([0.2, -0.5, 0.9])))
    g1 = Rotation(exp_rotation(np.array([-0.3, 0.4, 0.25])) @ g0.matrix)
    return lambda: simulate_attitude(planner(g0, g1, duration), steps=STEPS)[0]


CASES = {
    "nhi legendre": _nhi("legendre"),
    "nhi legendre 0,1": _nhi("legendre", (0.0, 1.0)),
    "nhi chebyshev_first": _nhi("chebyshev_first"),
    "nhi chebyshev_second": _nhi("chebyshev_second"),
    "nhi chebyshev_second 0,1": _nhi("chebyshev_second", (0.0, 1.0)),
    "nhi trig": _nhi("trig"),
    "nhi trig 0,1": _nhi("trig", (0.0, 1.0)),
    # signed zeros: the start is sample 0 of every column, and a plan with no phases runs zero inputs
    "nhi legendre from -0,0,-0": _nhi("legendre", x0=(-0.0, 0.0, -0.0)),
    "nhi no phases at -0,0,-0": _nhi("legendre", x0=(-0.0, 0.0, -0.0), xf=(-0.0, 0.0, -0.0)),
    "nhi jacobi 1.7": _nhi("jacobi", jacobi=(1.7, 1.7)),
    "nhi jacobi 1.7 0,1": _nhi("jacobi", (0.0, 1.0), (1.7, 1.7)),
    "nhi jacobi 0.3": _nhi("jacobi", jacobi=(0.3, 0.3)),
    "nhi jacobi 0.3 0,1": _nhi("jacobi", (0.0, 1.0), (0.3, 0.3)),
    "nhi jacobi -0.45": _nhi("jacobi", jacobi=(-0.45, -0.45)),
    "nhi optimal": _optimal(1.0, 0.0),
    "nhi optimal split": _optimal(-2.5, 0.3),
    "gnhi m3 legendre": _gnhi(3, "legendre"),
    "gnhi m3 chebyshev_second": _gnhi(3, "chebyshev_second"),
    "gnhi m3 trig": _gnhi(3, "trig"),
    "gnhi m8 legendre": _gnhi(8, "legendre"),
    "gnhi m8 legendre from zeros": _gnhi(8, "legendre", from_zeros=True),
    "gnhi m8 chebyshev_second": _gnhi(8, "chebyshev_second"),
    "gnhi m8 trig": _gnhi(8, "trig"),
    "so3 constant": _so3(constant_omega_plan, 2.0),
    "so3 underactuated": _so3(underactuated_plan, 2.0),
}

DIGESTS = {
    "gnhi m3 chebyshev_second": "31b19c88ee5f6ae44da8b2f471f551bfaa572030ba5ef4cea8cd513dc12ee109",
    "gnhi m3 legendre": "58f7433cd70617df7d6211cebd018d7dd6107daa75e82dec72fdd09fe6e949be",
    "gnhi m3 trig": "21e6f19249330f51cbf18417785df42de7e55efef4d16bc6f037a2fb5864d7dc",
    "gnhi m8 chebyshev_second": "a25f68b16f3c6a84196018eeb1c809f3f6ea9b50da7a4de342e5fcaf300b5899",
    "gnhi m8 legendre": "4a0d50d7e4c3adb5e523e642a180ebe14d17d3e3322d770067858c312a58e7c1",
    "gnhi m8 legendre from zeros": "ec56ca510272c633f4ef9e08b0cd0bc99d2398265b9fa81fd7f7262adea15bc2",
    "gnhi m8 trig": "06a18e8705ab4d64c4631f03359a0f07243c2dd7edf9d8c8113f8f7634c865d8",
    "nhi chebyshev_first": "95969a8cdf3de215a519aed405926ceb3a8efaf28cdd3ad04b50826bde62f3ec",
    "nhi chebyshev_second": "b5b1c1530f75b4e8e6a5b53bdb994d8e72d4ad16b507cf74aa89f8015f2b8e56",
    "nhi chebyshev_second 0,1": "848e80bd36e27e335d0e60e9f41300e99db4030fff55be29873cbca538ae1636",
    "nhi jacobi -0.45": "f95d51dd1d3785c7d0d03e27a7ead19cd9f95dcf82530bee47e4687ecb35d43e",
    "nhi jacobi 0.3": "ef1a974b10e2bef7fb428b69a9ccd4298c6dedf157b31f40e351135b74538224",
    "nhi jacobi 0.3 0,1": "2730922bfefe16f606b9b6c17c08ccd804be505550bdb9cf59728f100517d6b5",
    "nhi jacobi 1.7": "9f1ed8484009d8697aea58ebdb28d328afc57d46d787a2ed05d67bff08be4622",
    "nhi jacobi 1.7 0,1": "b10177e7f14498fbcfd8428610986398a5094127beab659b62d41854ad7f1353",
    "nhi legendre": "e01beff208dc1f382676624ec8e7bf90e70dd7a83c49a50a404343fed16faa61",
    "nhi legendre 0,1": "cce77d46e15feed7146c4509ed09acec5291f5beebd6ac17fcfe1cc5b7e52e03",
    "nhi legendre from -0,0,-0": "a11ca2ef92f17d3a69ce015c260ef0f58f0ff1ea27529d5cc6ad00c105f26add",
    "nhi no phases at -0,0,-0": "0a426c1c5e1bd371bff6a2583bd508a4cb420ec5837dc17b6cab5948f5b35d49",
    "nhi optimal": "49846bfcf0059311d151755fcb7a42f97bf4652de9f24b3c316eca3e2635a71e",
    "nhi optimal split": "9fa0e5fb76db5201d507dd449eaf04f6fe748430c28f8385f712e174e00a4b76",
    "nhi trig": "852671c19e6c19a8ad5bf0533efa2c7360531f477e498855cd036192425f3106",
    "nhi trig 0,1": "53af96a906cdd8ca510b2568ff857e7773d26fbd7f70c549e25641164d3883b4",
    "so3 constant": "b3d613881d9967eaab785658b2c9f8617f7bff33be59b9d04d28427a917e4443",
    "so3 underactuated": "3943e7e5218e43965481f8cffa0109d6a54952b24d54c0de3f77416ea5258cc9",
}

CSV_DIGESTS = {
    "gnhi m3 chebyshev_second": "ec385c43a2696be7355120bcb1234aadcbe7050b1aad69a5dcd42eeaa7b7d017",
    "gnhi m3 legendre": "142c3c8f7363f5599cdb17e65d453479e293f333b745772dbd1e5dc4e0195a8c",
    "gnhi m3 trig": "975853af92ca66794cd5dc58515706f81ac81aec5cdf06da5dbb985821aa7108",
    "gnhi m8 chebyshev_second": "d1cf5237523a45145e9ef147d4beee5f2d552c4fc531ab3eddbcd95708a7a25e",
    "gnhi m8 legendre": "9a457b2ef326eeefbc5f9bce38a45579d66409658f957c0e237a932e4e410e15",
    "gnhi m8 legendre from zeros": "8894f24433d99fb8a01b58aeb2c6c561f0b21327079d7ad1e88952a624c3c0e0",
    "gnhi m8 trig": "afb3053d5c7eabb8634fb4e06fea2760ff5845186fa45c92ab4400eae9faf2b6",
    "nhi chebyshev_first": "9ab553a4abb435b0eb512ed2969542e8af9e6d9978516688405a1533509c5f23",
    "nhi chebyshev_second": "1a020308f8b38cd8ba5ff501bae46acfdfcf2181fa99b0a6b39462f3ff3560ff",
    "nhi chebyshev_second 0,1": "8c3c0c52f16364b0a25f3e88e0ccdbbff340f23ad6d4fd780b74cd44a303ded9",
    "nhi jacobi -0.45": "5ccc7b410980c0792c37a9814e36b1c014bfef6538424930d2019605edc3e478",
    "nhi jacobi 0.3": "69ae4a4096e6d10534ef5c9c2550a877c220c12d5b492aff59813692219ee15d",
    "nhi jacobi 0.3 0,1": "3f2c01cc9d941bde555db6c7884aed70c061320c131bcaae979c148dd14a863b",
    "nhi jacobi 1.7": "8115a91d5975c914b0b3ed0624837f46f30c8375fcba876e15b045c64cb0c9cd",
    "nhi jacobi 1.7 0,1": "db8ea9d455cf6a8538cc9a2648cb9bcb4fe46576d1d9a32dcc2cf38ec9067c1a",
    "nhi legendre": "98bd2cee646292a469f08f3adf4ac53844439615e49b45ceddacb3ceb1de2b27",
    "nhi legendre 0,1": "68bd25a00a1c88b1e9da3b1b9a15a1cc8499d75f23ce019d5593fa8f2b95a5ce",
    "nhi legendre from -0,0,-0": "7f0600bd2a12f5bfb99848b477a533e98db2925211df58fa5e393631cf27c1f7",
    "nhi no phases at -0,0,-0": "b748ff34645e76999c23c7b0bdb15524e270c186ba235a4891bba6afacd6ed2d",
    "nhi optimal": "1f61462f398f9539e4318a7b02d7b3e4449097953906e748ab03a5ce802cc920",
    "nhi optimal split": "b0d4065aba3b64b86ae6d7bf03bdad7d977451a66379ec5d7296ffeb9426d438",
    "nhi trig": "f2f088944731ac40b59e25c7d25b58dd4d4964d34889f6fc6baabb851045861e",
    "nhi trig 0,1": "a4618ecca4abf7482b6c4963bfbfc0479ed28538e946c42011b61e4b04fc1e73",
    "so3 constant": "595f25550e35c5367345d63bfe4d89f810b4ee526f5c54f7851dee0b4033853a",
    "so3 underactuated": "63b424843d801ef266e753fc8be81f1a54b70b33f347e119ca70c2ccf830ea81",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_trajectory_is_bit_identical(name):
    assert _simulation_digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_csv_is_byte_identical(name):
    assert _csv_digest(CASES[name]()) == CSV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_plan_of_a_case_loads_and_writes_its_own_bytes(name, monkeypatch):
    # the simulators are swapped for functions that hand back the plan they were given
    monkeypatch.setattr(sys.modules[__name__], "simulate_plan", lambda plan, steps: plan)
    monkeypatch.setattr(sys.modules[__name__], "simulate_attitude", lambda plan, steps: (plan,))
    plan = CASES[name]()
    text = plan.to_json()
    assert type(plan).from_json_dict(json.loads(text)).to_json() == text


if __name__ == "__main__":
    tables = {"DIGESTS": {}, "CSV_DIGESTS": {}}
    for case in sorted(CASES):
        sim = CASES[case]()
        tables["DIGESTS"][case] = _simulation_digest(sim)
        tables["CSV_DIGESTS"][case] = _csv_digest(sim)
    for table, digests in tables.items():
        print(f"{table} = {{")
        for case, digest in digests.items():
            print(f'    "{case}": "{digest}",')
        print("}")
