"""sha256 digests of simulated trajectories, every sample bit for bit.

The golden CSVs compare numbers to 1e-12 and cover few plans; these digests
cover the simulation paths they miss (gnhi at m = 8, weighted gnhi, weighted
Jacobi on both intervals, both attitude modes) at the 4000 steps of the
steer-verify path, and any change of one bit in t, a state or an input
column fails them.  A plan's digest hashes every phase trajectory and the
merged one.

The digests pin the numpy, libm and BLAS build they were made with:
transcendental functions may round differently on another CPU or build.
There, regenerate them from the commit before a change
(``PYTHONPATH=src python tests/test_trajectory_digests.py`` prints the
table) and compare the change against those.
"""

import hashlib

import numpy as np
import pytest

from nhsteer.dynamics import GnhiState, Rotation, exp_rotation
from nhsteer.optimal_energy import cheb_optimal_inputs, solution_to_plan
from nhsteer.so3_control import constant_omega_plan, simulate_attitude, underactuated_plan
from nhsteer.steering import plan_gnhi, plan_nhi, simulate_plan

STEPS = 4000


def _digest(trajectories) -> str:
    sha = hashlib.sha256()
    for traj in trajectories:
        sha.update(np.ascontiguousarray(traj.t, dtype=float).tobytes())
        for name in (*traj.state_names, *traj.input_names):
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(traj.columns[name], dtype=float).tobytes())
    return sha.hexdigest()


def _plan_digest(plan) -> str:
    result = simulate_plan(plan, steps=STEPS)
    return _digest([*result.trajectories, result.merged])


def _nhi(family, interval=None, jacobi=None):
    x0, xf = (0.3, -0.7, 0.2), (-1.1, 0.4, 2.5)
    return lambda: _plan_digest(plan_nhi(x0, xf, family=family, interval=interval, jacobi_params=jacobi))


def _gnhi(m, family):
    rng = np.random.default_rng(m)
    s0 = GnhiState.from_flat(m, rng.uniform(-1.0, 1.0, m + m * (m - 1) // 2))
    sf = GnhiState.from_flat(m, rng.uniform(-2.0, 2.0, m + m * (m - 1) // 2))
    return lambda: _plan_digest(plan_gnhi(s0, sf, family=family))


def _optimal(a, split):
    return lambda: _plan_digest(solution_to_plan(cheb_optimal_inputs(a, split=split), x0=(0.5, -0.25, 1.0)))


def _so3(planner, duration):
    g0 = Rotation(exp_rotation(np.array([0.2, -0.5, 0.9])))
    g1 = Rotation(exp_rotation(np.array([-0.3, 0.4, 0.25])) @ g0.matrix)
    return lambda: _digest([simulate_attitude(planner(g0, g1, duration), steps=STEPS)[0]])


CASES = {
    "nhi legendre": _nhi("legendre"),
    "nhi legendre 0,1": _nhi("legendre", (0.0, 1.0)),
    "nhi chebyshev_first": _nhi("chebyshev_first"),
    "nhi chebyshev_second": _nhi("chebyshev_second"),
    "nhi chebyshev_second 0,1": _nhi("chebyshev_second", (0.0, 1.0)),
    "nhi trig": _nhi("trig"),
    "nhi trig 0,1": _nhi("trig", (0.0, 1.0)),
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
    "nhi optimal": "49846bfcf0059311d151755fcb7a42f97bf4652de9f24b3c316eca3e2635a71e",
    "nhi optimal split": "9fa0e5fb76db5201d507dd449eaf04f6fe748430c28f8385f712e174e00a4b76",
    "nhi trig": "852671c19e6c19a8ad5bf0533efa2c7360531f477e498855cd036192425f3106",
    "nhi trig 0,1": "53af96a906cdd8ca510b2568ff857e7773d26fbd7f70c549e25641164d3883b4",
    "so3 constant": "b3d613881d9967eaab785658b2c9f8617f7bff33be59b9d04d28427a917e4443",
    "so3 underactuated": "3943e7e5218e43965481f8cffa0109d6a54952b24d54c0de3f77416ea5258cc9",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_trajectory_is_bit_identical(name):
    assert CASES[name]() == DIGESTS[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{CASES[case]()}",')
