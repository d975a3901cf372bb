"""The benchmark's workloads: seeded rounds of nhsteer operations, each with a check.

A round is a fixed list of operation kinds; the seed only draws their
parameters (targets, attitudes, fresh Jacobi exponents, shape families), so
every round of a workload costs about the same and a run can stop after any
whole round.  Each operation is timed on its own, and its output is checked
afterwards, outside the timed region, against ``oracle`` (numpy only, no
nhsteer) and against the target the benchmark itself requested.

The three workloads and the layers they stress:

* ``steer-verify``: plan, simulate 4000 steps, compare the endpoint with the
  requested target.  Time goes to the planners, the bilinear RK4 core, the
  SO(3) integrator and the shooting solver.
* ``shape-fuel``: ``fuel_constants`` -> ``fuel_min`` for shape pairs of degree
  1 to 48, plus Lp fuel, family comparisons and cold Jacobi couplings.  Time
  goes to quadrature, root bracketing and ``l1_norm``.
* ``export-cli``: in-process ``nhsteer.cli.main`` calls writing plans and
  CSV trajectories to files.  Time goes to serialisation and file output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nhsteer
from nhsteer import cli, so3_control, steering
from nhsteer.optimal_energy import cheb_cost

import oracle

STEPS = 4000
CANONICAL = (-1.0, 1.0)
SHIFTED = (0.0, 1.0)
INTERVALS = (CANONICAL, SHIFTED)

# Fresh Jacobi exponents alpha = beta come from this band.  Cold planning
# cost depends strongly on alpha (17-25 ms inside the band against 0.1-18 s
# below alpha = 0.45), so a narrow band keeps runs comparable.
JACOBI_ALPHA = (1.45, 2.2)

# Seeded underactuated targets stay within these rotation angles (radians)
# of the start, where shooting converged on every one of thousands of probe
# draws per duration.  The targets on which it fails are the fixed probe
# cases below, so the failed count is the same in every round.
UNDERACTUATED_MAX_ANGLE = {0.3: 0.3, 1.0: 0.5, 2.0: 0.5, 5.0: 0.5}

# The ROADMAP probe: seed-0 unit quaternions, identity -> q_k, duration
# cycling through 0.3, 1, 2, 5.  Shooting stalls with ConvergenceError on
# these three (defect (b)); they do not depend on the benchmark seed.
PROBE_FAILING = (43, 125, 159)
PROBE_DURATIONS = (0.3, 1.0, 2.0, 5.0)

# Relative tolerances, scaled by the size of the target.
TOL_EXACT = 1e-12  # a planner's predicted endpoint against the request
TOL_SIM = 1e-9  # a simulated endpoint against the request
TOL_ORACLE = 1e-9  # package constants against the oracle
TOL_IDENTITY = 1e-12  # algebraic identities of a fuel report
TOL_SO3 = 1e-9  # simulated terminal attitude (Frobenius) against the target
TOL_DRIFT = 1e-10  # orthogonality drift of a terminal attitude

WARMUP_ROUND = 2**32  # the warm-up round is drawn from its own seed stream


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, round_index])


def _signed_decades(rng, lo_exp: float, hi_exp: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * 10.0 ** rng.uniform(lo_exp, hi_exp)


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Checks shared by several operations


def endpoint_problems(target: dict, got: dict, tol: float, what: str) -> list:
    """Coordinates of ``got`` against ``target``, tolerance scaled by its size."""
    scale = max(1.0, max(abs(v) for v in target.values()))
    if set(got) != set(target):
        return [f"{what}: coordinates {sorted(got)} != {sorted(target)}"]
    err = max(abs(got[k] - target[k]) for k in target)
    if not err <= tol * scale:
        return [f"{what}: endpoint error {err:.3e} exceeds {tol:.0e} x {scale:.3g}"]
    return []


def attitude_problems(g_end, g_target, what: str) -> list:
    g_end = np.asarray(g_end, dtype=float)
    problems = []
    err = float(np.linalg.norm(g_end - np.asarray(g_target)))
    if not err <= TOL_SO3:
        problems.append(f"{what}: terminal attitude error {err:.3e}")
    drift = float(np.max(np.abs(g_end.T @ g_end - np.eye(3))))
    if not drift <= TOL_DRIFT:
        problems.append(f"{what}: orthogonality drift {drift:.3e}")
    return problems


def fuel_report_problems(report, family, pair, a, interval, alpha=None) -> list:
    """A FuelReport against oracle norms, the oracle coupling and its identities."""
    n_odd, n_even = oracle.odd_even(family, pair)
    io_, ie_ = (("sin", n_odd), ("cos", n_even)) if family == "trig" else (n_odd, n_even)
    c1 = oracle.shape_lp(family, io_, 1, interval, alpha)
    c2 = oracle.shape_lp(family, ie_, 1, interval, alpha)
    c = a / oracle.coupling(family, n_odd, n_even, interval, alpha)
    problems = []
    for name, got, want, tol in (
        ("c1", report.c1, c1, TOL_ORACLE),
        ("c2", report.c2, c2, TOL_ORACLE),
        ("c", report.c, c, TOL_ORACLE),
        ("b1*b2", report.b1 * report.b2, report.c, TOL_IDENTITY),
        ("J*", report.min_fuel, 2.0 * math.sqrt(abs(report.c) * report.c1 * report.c2), TOL_IDENTITY),
        ("|b1|c1+|b2|c2", abs(report.b1) * report.c1 + abs(report.b2) * report.c2, report.min_fuel, TOL_IDENTITY),
        ("J* (oracle)", report.min_fuel, 2.0 * math.sqrt(abs(c) * c1 * c2), TOL_ORACLE),
    ):
        if not _rel_err(got, want) <= tol:
            problems.append(f"{family} {pair}: {name} = {got!r}, expected {want!r}")
    if not report.min_fuel * (1.0 - TOL_IDENTITY) <= report.grid_min_fuel <= report.min_fuel * (1.0 + 1e-6):
        problems.append(f"{family} {pair}: grid minimum {report.grid_min_fuel!r} vs {report.min_fuel!r}")
    return problems


# ---------------------------------------------------------------------------
# steer-verify


def _pair_for(rng, family: str):
    n = int(rng.integers(1, 4))
    return (n, n) if family == "trig" else (n, n + 1)


def nhi_op(rng, family: str, interval, alpha=None) -> Op:
    x0 = _floats(rng.uniform(-1.0, 1.0, 3))
    xf = _floats((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), _signed_decades(rng, -1.0, 1.5)))
    pair = (1, 2) if family == "jacobi" else _pair_for(rng, family)
    params = None if alpha is None else (alpha, alpha)
    target = dict(zip(("x1", "x2", "x3"), xf))

    def run():
        plan = nhsteer.plan_nhi(x0, xf, family=family, pair=pair, interval=interval, jacobi_params=params)
        return plan.predicted_endpoint, nhsteer.simulate_plan(plan, steps=STEPS).terminal

    def check(out):
        predicted, terminal = out
        return endpoint_problems(target, predicted, TOL_EXACT, "plan") + endpoint_problems(
            target, terminal, TOL_SIM, "simulation"
        )

    label = f"plan_nhi {family} {interval} pair={pair} jacobi={params} x0={_fmt(x0)} xf={_fmt(xf)}"
    return Op(f"plan_nhi/{family}", label, run, check)


def optimal_op(rng) -> Op:
    x0 = _floats(rng.uniform(-1.0, 1.0, 3))
    a = _signed_decades(rng, -1.0, 1.5)
    split = float(rng.uniform(-1.0, 1.0))
    target = {"x1": x0[0], "x2": x0[1], "x3": x0[2] + a}

    def run():
        solution = nhsteer.cheb_optimal_inputs(a, split=split)
        plan = nhsteer.solution_to_plan(solution, x0=x0)
        cost = nhsteer.weighted_cost(solution.u1, solution.u2, cheb_cost())
        return cost, plan.predicted_endpoint, nhsteer.simulate_plan(plan, steps=STEPS).terminal

    def check(out):
        cost, predicted, terminal = out
        problems = endpoint_problems(target, predicted, TOL_EXACT, "plan")
        problems += endpoint_problems(target, terminal, TOL_SIM, "simulation")
        # the order-one extremal's weighted energy is |a| in closed form
        if not _rel_err(cost, abs(a)) <= TOL_ORACLE:
            problems.append(f"weighted cost {cost!r} != |a| = {abs(a)!r}")
        return problems

    label = f"optimal a={a!r} split={split!r} x0={_fmt(x0)}"
    return Op("optimal", label, run, check)


GNHI_FAMILIES = ("legendre", "chebyshev_first", "chebyshev_second", "trig")


def gnhi_op(rng, m: int) -> Op:
    family = GNHI_FAMILIES[int(rng.integers(len(GNHI_FAMILIES)))]
    interval = CANONICAL if family == "chebyshev_first" else INTERVALS[int(rng.integers(2))]
    size = m + m * (m - 1) // 2
    x0 = _floats(rng.uniform(-1.0, 1.0, size))
    xf = _floats(rng.uniform(-2.0, 2.0, size))
    names = [f"x{i + 1}" for i in range(m)] + [
        f"x{i + 1}{j + 1}" for i in range(m) for j in range(i + 1, m)
    ]
    target = dict(zip(names, xf))

    def run():
        s0 = nhsteer.GnhiState.from_flat(m, x0)
        sf = nhsteer.GnhiState.from_flat(m, xf)
        plan = nhsteer.plan_gnhi(s0, sf, family=family, interval=interval)
        return plan.predicted_endpoint, nhsteer.simulate_plan(plan, steps=STEPS).terminal

    def check(out):
        predicted, terminal = out
        return endpoint_problems(target, predicted, TOL_EXACT, "plan") + endpoint_problems(
            target, terminal, TOL_SIM, "simulation"
        )

    label = f"plan_gnhi m={m} {family} {interval} x0={_fmt(x0)} xf={_fmt(xf)}"
    return Op(f"plan_gnhi/m{m}", label, run, check)


def _terminal_attitude(traj) -> np.ndarray:
    return np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])


def so3_constant_op(rng) -> Op:
    g0 = oracle.random_rotation(rng)
    g1 = oracle.random_rotation(rng)
    duration = float(rng.uniform(0.5, 5.0))

    def run():
        plan = nhsteer.constant_omega_plan(g0, g1, duration)
        traj, _ = so3_control.simulate_attitude(plan, steps=STEPS)
        return plan.params, _terminal_attitude(traj)

    def check(out):
        params, g_end = out
        w = np.array([params["w1"], params["w2"], params["w3"]])
        problems = attitude_problems(g_end, g1, "simulation")
        err = float(np.linalg.norm(oracle.rodrigues(duration * w) @ g0 - g1))
        if not err <= TOL_SO3:
            problems.append(f"constant rate misses the target by {err:.3e} (closed form)")
        return problems

    label = f"so3_constant T={duration!r} g0={_fmt(g0.ravel())} g1={_fmt(g1.ravel())}"
    return Op("so3_constant", label, run, check)


def _underactuated(g0, g1, duration: float, kind: str, label: str) -> Op:
    def run():
        plan = nhsteer.underactuated_plan(g0, g1, duration)
        traj, _ = so3_control.simulate_attitude(plan, steps=STEPS)
        return plan.params, _terminal_attitude(traj)

    def check(out):
        params, g_end = out
        problems = attitude_problems(g_end, g1, "simulation")
        closed = oracle.underactuated_endpoint(params["r"], params["phi"], params["c"], duration, g0)
        err = float(np.linalg.norm(closed - g1))
        if not err <= TOL_SO3:
            problems.append(f"shooting parameters miss the target by {err:.3e} (closed form)")
        return problems

    return Op(kind, label, run, check)


def so3_underactuated_op(rng, duration: float) -> Op:
    g0 = oracle.random_rotation(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = float(rng.uniform(0.0, UNDERACTUATED_MAX_ANGLE[duration]))
    g1 = oracle.rodrigues(angle * axis) @ g0
    label = f"so3_underactuated T={duration!r} angle={angle!r} g0={_fmt(g0.ravel())} axis={_fmt(axis)}"
    return _underactuated(g0, g1, duration, "so3_underactuated", label)


_PROBE_QUATERNIONS = np.random.default_rng(0).normal(size=(200, 4))


def probe_op(k: int) -> Op:
    q = _PROBE_QUATERNIONS[k] / np.linalg.norm(_PROBE_QUATERNIONS[k])
    duration = PROBE_DURATIONS[k % 4]
    return _underactuated(
        np.eye(3), oracle.quat_to_rot(q), duration, "so3_probe", f"so3_probe k={k} T={duration!r}"
    )


NHI_CASES = (
    ("legendre", CANONICAL),
    ("legendre", SHIFTED),
    ("chebyshev_first", CANONICAL),
    ("chebyshev_second", CANONICAL),
    ("chebyshev_second", SHIFTED),
    ("trig", CANONICAL),
    ("trig", SHIFTED),
)


def steer_verify_round(rng, ctx=None) -> list:
    ops = []
    for _ in range(3):
        ops += [nhi_op(rng, family, interval) for family, interval in NHI_CASES]
        ops += [optimal_op(rng), gnhi_op(rng, 3)]
    ops += [nhi_op(rng, "jacobi", interval, float(rng.uniform(*JACOBI_ALPHA))) for interval in INTERVALS]
    ops.append(gnhi_op(rng, 8))
    ops += [so3_constant_op(rng) for _ in range(2)]
    ops += [so3_underactuated_op(rng, duration) for duration in PROBE_DURATIONS]
    ops += [probe_op(k) for k in PROBE_FAILING]
    return ops


# ---------------------------------------------------------------------------
# shape-fuel

FUEL_FAMILIES = ("legendre", "chebyshev_first", "chebyshev_second", "trig")
# Lower pair index; the pair is (n, n+1), or (n, n) for trig.  Stops at 48:
# l1_norm misses sign changes above degree 56 (defect (a)).
FUEL_DEGREES = (1, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)


def _slot_interval(family: str, slot: int):
    """Intervals alternate by slot; singular first-kind shapes stay on [-1, 1]."""
    return CANONICAL if family == "chebyshev_first" else INTERVALS[slot % 2]


def fuel_op(rng, family: str, n: int, interval, alpha=None) -> Op:
    pair = (n, n) if family == "trig" else (n, n + 1)
    a = _signed_decades(rng, -3.0, 3.0)
    params = None if alpha is None else (alpha, alpha)

    def run():
        odd, even = steering.pair_signals(family, pair, interval=interval, jacobi_params=params)
        return nhsteer.fuel_min(nhsteer.fuel_constants(odd, even, a), family=family, pair=pair)

    def check(report):
        return fuel_report_problems(report, family, pair, a, interval, alpha)

    label = f"fuel {family} pair={pair} {interval} jacobi={params} a={a!r}"
    return Op(f"fuel/{family}", label, run, check)


def fuel_lp_op(rng, family: str, pair, p: int, interval) -> Op:
    a = _signed_decades(rng, -3.0, 3.0)

    def run():
        odd, even = steering.pair_signals(family, pair, interval=interval)
        return nhsteer.fuel_min_lp(odd, even, a, p)

    def check(rep):
        n_odd, n_even = oracle.odd_even(family, pair)
        io_, ie_ = (("sin", n_odd), ("cos", n_even)) if family == "trig" else (n_odd, n_even)
        c1p = oracle.shape_lp(family, io_, p, interval)
        c2p = oracle.shape_lp(family, ie_, p, interval)
        c = a / oracle.coupling(family, n_odd, n_even, interval)
        best = 2.0 * abs(c) ** (0.5 * p) * math.sqrt(c1p * c2p)
        problems = []
        for name, got, want, tol in (
            ("c1p", rep.c1p, c1p, TOL_ORACLE),
            ("c2p", rep.c2p, c2p, TOL_ORACLE),
            ("c", rep.c, c, TOL_ORACLE),
            ("b1*b2", rep.b1 * rep.b2, rep.c, TOL_IDENTITY),
            ("min", rep.min_value, best, TOL_ORACLE),
        ):
            if not _rel_err(got, want) <= tol:
                problems.append(f"Lp {family} {pair} p={p}: {name} = {got!r}, expected {want!r}")
        return problems

    label = f"fuel_lp {family} pair={pair} {interval} p={p} a={a!r}"
    return Op("fuel_lp", label, run, check)


def compare_op(rng, specs) -> Op:
    specs = list(specs)
    a = _signed_decades(rng, -2.0, 2.0)

    def run():
        return nhsteer.compare_families(specs, a)

    def check(reports):
        problems = []
        if sorted((r.family, r.pair) for r in reports) != sorted(specs):
            return [f"compare returned {[(r.family, r.pair) for r in reports]} for {specs}"]
        for r in reports:
            problems += fuel_report_problems(r, r.family, r.pair, a, CANONICAL)
            if not (r.sim_error is not None and r.sim_error <= 1e-6 * max(1.0, abs(a))):
                problems.append(f"compare {r.family}: simulated error {r.sim_error!r}")
        fuels = [r.min_fuel for r in reports]
        if fuels != sorted(fuels):
            problems.append("compare: reports are not sorted by fuel")
        return problems

    label = f"compare {specs} a={a!r}"
    return Op(f"compare/{len(specs)}", label, run, check)


def jacobi_coupling_op(rng, n: int) -> Op:
    alpha = float(rng.uniform(*JACOBI_ALPHA))
    pair = (n, n + 1)

    def run():
        odd, even = steering.pair_signals("jacobi", pair, jacobi_params=(alpha, alpha))
        return nhsteer.coupling_displacement(odd, even)

    def check(value):
        want = oracle.coupling("jacobi", *oracle.odd_even("jacobi", pair), CANONICAL, alpha)
        if not _rel_err(value, want) <= TOL_ORACLE:
            return [f"jacobi coupling {pair} alpha={alpha!r}: {value!r}, expected {want!r}"]
        return []

    return Op("jacobi_coupling", f"jacobi_coupling pair={pair} alpha={alpha!r}", run, check)


# (family, pair, p) of the Lp operations and the family sets compared; the
# same in every round, so that only targets and Jacobi exponents vary.
LP_SPECS = (("legendre", (2, 3), 3), ("chebyshev_second", (1, 2), 4), ("trig", (2, 2), 2))
COMPARE_SPECS = (
    (("trig", (1, 1)), ("legendre", (1, 2)), ("chebyshev_first", (1, 2))),
    (("trig", (2, 2)), ("legendre", (2, 3)), ("chebyshev_first", (2, 3)), ("chebyshev_second", (2, 3))),
)


def shape_fuel_round(rng, ctx=None) -> list:
    ops = [
        fuel_op(rng, family, n, _slot_interval(family, slot))
        for family in FUEL_FAMILIES
        for slot, n in enumerate(FUEL_DEGREES)
    ]
    ops += [fuel_op(rng, "jacobi", n, INTERVALS[n - 1], float(rng.uniform(*JACOBI_ALPHA))) for n in (1, 2)]
    ops += [fuel_lp_op(rng, family, pair, p, INTERVALS[slot % 2]) for slot, (family, pair, p) in enumerate(LP_SPECS)]
    ops += [compare_op(rng, specs) for specs in COMPARE_SPECS]
    ops += [jacobi_coupling_op(rng, n) for n in (1, 2)]
    return ops


# ---------------------------------------------------------------------------
# export-cli


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


class CliError(Exception):
    """The command exited with a nonzero status."""


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliResult(rc, out.getvalue(), err.getvalue())


# README schema of simulated trajectories
def csv_header(system: str, m: int = 2) -> str:
    if system == "so3":
        return ",".join(["t"] + [f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["w1", "w2", "w3"])
    if system == "nhi":
        return "t,x1,x2,x3,u1,u2"
    states = [f"x{i + 1}" for i in range(m)] + [f"x{i + 1}{j + 1}" for i in range(m) for j in range(i + 1, m)]
    return ",".join(["t"] + states + [f"u{i + 1}" for i in range(m)])


def _cli_op(kind: str, argv, check, ctx: Path, out_name=None, repeat=False) -> Op:
    """An operation that is one ``cli.main`` call; ``repeat`` re-runs it untimed for byte equality."""

    def run():
        res = run_cli(argv)
        if res.rc != 0:
            raise CliError(f"exit {res.rc}: {res.stderr.strip()}")
        return res

    def full_check(res: CliResult):
        data = (ctx / out_name).read_bytes() if out_name else res.stdout.encode()
        problems = check(res, data)
        if repeat:
            again = run_cli(argv)
            data2 = (ctx / out_name).read_bytes() if out_name else again.stdout.encode()
            if again.rc != 0 or data2 != data:
                problems.append(f"{' '.join(argv)}: repeated command gave different bytes")
        return problems

    label = " ".join(argv).replace(str(ctx), "$NHSTEER_OUT_DIR")
    return Op(kind, label, run, full_check)


def _plan_check(target_names, target_values):
    target = dict(zip(target_names, target_values))

    def check(res, data):
        plan = json.loads(data)
        return endpoint_problems(target, plan["predicted_endpoint"], TOL_EXACT, "plan")

    return check


def _csv_check(ctx: Path, plan_name: str, system: str, m: int, target):
    """Header, row count and last row of a simulated trajectory CSV."""

    def check(res, data):
        plan = json.loads((ctx / plan_name).read_text())
        header = csv_header(system, m)
        first_nl = data.index(b"\n")
        problems = []
        if data[:first_nl].decode() != header:
            problems.append(f"csv header {data[:first_nl][:80]!r} != {header[:80]!r}")
        rows = data.count(b"\n") - 1
        phases = 1 if system == "so3" else max(1, len(plan["phases"]))
        if rows != phases * STEPS + 1:
            problems.append(f"csv has {rows} rows, expected {phases * STEPS + 1}")
        last = [float(v) for v in data[data.rindex(b"\n", 0, len(data) - 1) + 1 :].split(b",")]
        names = header.split(",")
        values = dict(zip(names, last))
        if system == "so3":
            g_end = np.array([[values[f"g{i}{j}"] for j in (1, 2, 3)] for i in (1, 2, 3)])
            problems += attitude_problems(g_end, target, "csv")
        else:
            problems += endpoint_problems(target, {k: values[k] for k in target}, TOL_SIM, "csv")
        return problems

    return check


def _verify_check(res, data):
    lines = res.stdout.splitlines()
    try:
        err = float(lines[0].split(":")[1])
    except (IndexError, ValueError):
        return [f"verify printed {res.stdout!r}"]
    if not (err <= 1e-6 and lines[1] == "within tolerance 1e-06"):
        return [f"verify reported {res.stdout!r}"]
    return []


def _fuel_csv_check(specs, a):
    def check(res, data):
        lines = data.decode().splitlines()
        if lines[0] != "family,odd,even,c1,c2,c,b1,b2,min_fuel,grid_min_fuel,sim_error":
            return [f"fuel csv header {lines[0]!r}"]
        problems = []
        fuels = []
        seen = []
        for line in lines[1:]:
            cells = line.split(",")
            family, odd, even = cells[0], int(cells[1]), int(cells[2])
            c1, c2, c, b1, b2, j, grid, sim = (float(v) for v in cells[3:])
            report = _Report(c1, c2, c, b1, b2, j, grid)
            pair = dict(specs)[family]
            if (odd, even) != oracle.odd_even(family, pair):
                problems.append(f"fuel csv {family}: odd,even = {odd},{even} for pair {pair}")
            problems += fuel_report_problems(report, family, pair, a, CANONICAL)
            if not sim <= 1e-6 * max(1.0, abs(a)):
                problems.append(f"fuel csv {family}: simulated error {sim!r}")
            fuels.append(j)
            seen.append(family)
        if sorted(seen) != sorted(f for f, _ in specs) or fuels != sorted(fuels):
            problems.append(f"fuel csv rows {seen} unsorted or not {specs}")
        return problems

    return check


@dataclass
class _Report:
    c1: float
    c2: float
    c: float
    b1: float
    b2: float
    min_fuel: float
    grid_min_fuel: float


def _paper_repro_check(res, data):
    rows = {}
    for line in res.stdout.splitlines()[1:]:
        parts = line.rsplit(maxsplit=4)
        if len(parts) == 5 and parts[4] in ("ok", "paper-deviation", "FAIL"):
            rows[parts[0]] = (float(parts[2]), parts[4])
    problems = [f"paper-repro row {k!r} is {v[1]}" for k, v in rows.items() if v[1] not in ("ok", "paper-deviation")]
    trig_c = 1.0 / oracle.coupling("trig", 1, 1)
    expected = {
        "coupling, Legendre (1,2) on [0,1]": oracle.coupling("legendre", 1, 2, SHIFTED),
        "coupling, first-kind pair (1,2)": oracle.coupling("chebyshev_first", 1, 2),
        "fuel c1, Legendre": oracle.shape_lp("legendre", 1),
        "fuel min J, trig": 2.0 * math.sqrt(abs(trig_c) * oracle.shape_lp("trig", ("sin", 1)) ** 2),
    }
    for label, want in expected.items():
        got = rows.get(label, (math.nan,))[0]
        # the table prints ten significant digits
        if not _rel_err(got, want) <= 1e-9:
            problems.append(f"paper-repro {label!r}: {got!r}, expected {want!r}")
    if not res.stdout.rstrip().endswith(" 0 fail"):
        problems.append("paper-repro summary reports failures")
    return problems


def _rotation_arg(g) -> str:
    return _fmt(np.asarray(g).ravel())


# Per slot: planar family, three-input family, attitude mode, families compared.
# Fixed, so that only targets and attitudes vary with the seed; each slot
# runs twice per round so the one large export below is a minority of the time.
EXPORT_SLOTS = (
    ("legendre", "trig", "constant", ("trig", "legendre", "chebyshev_first")),
    ("chebyshev_second", "legendre", "underactuated", ("legendre", "chebyshev_first", "chebyshev_second", "trig")),
    ("trig", "chebyshev_first", "constant", ("chebyshev_second", "trig", "legendre")),
) * 2


def export_cli_round(rng, ctx: Path) -> list:
    ops = []
    for slot, (family, g_family, mode, families) in enumerate(EXPORT_SLOTS):
        nhi, opt, g3, so3 = (f"s{slot}_{name}" for name in ("nhi", "opt", "g3", "so3"))
        # planar plan
        x0 = _floats(rng.uniform(-1.0, 1.0, 3))
        xf = _floats(rng.uniform(-2.0, 2.0, 3))
        ops.append(
            _cli_op(
                "cli_plan/nhi",
                ["plan", "nhi", "--from", _fmt(x0), "--to", _fmt(xf), "--family", family, "--out", nhi + ".json"],
                _plan_check(("x1", "x2", "x3"), xf),
                ctx,
                nhi + ".json",
                repeat=True,
            )
        )
        # closed-form minimum-energy plan
        a = float(rng.uniform(0.2, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        x3 = float(rng.uniform(-1.0, 1.0))
        opt_target = (0.0, 0.0, x3 + a)
        ops.append(
            _cli_op(
                "cli_plan/optimal",
                ["plan", "nhi", "--from", _fmt((0.0, 0.0, x3)), "--to", _fmt(opt_target), "--optimal", "--out", opt + ".json"],
                _plan_check(("x1", "x2", "x3"), opt_target),
                ctx,
                opt + ".json",
            )
        )
        # three-input plan
        g0v = _floats(rng.uniform(-1.0, 1.0, 6))
        g3t = _floats(rng.uniform(-2.0, 2.0, 6))
        g3_names = ("x1", "x2", "x3", "x12", "x13", "x23")
        ops.append(
            _cli_op(
                "cli_plan/gnhi",
                ["plan", "gnhi", "--m", "3", "--from", _fmt(g0v), "--to", _fmt(g3t), "--family", g_family, "--out", g3 + ".json"],
                _plan_check(g3_names, g3t),
                ctx,
                g3 + ".json",
            )
        )
        # attitude plan
        g0 = oracle.random_rotation(rng)
        duration = float(rng.choice((2.0, 5.0))) if mode == "underactuated" else float(rng.uniform(0.5, 5.0))
        if mode == "underactuated":
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            g1 = oracle.rodrigues(float(rng.uniform(0.0, UNDERACTUATED_MAX_ANGLE[duration])) * axis) @ g0
        else:
            g1 = oracle.random_rotation(rng)

        def so3_plan_check(res, data, g0=g0, g1=g1, duration=duration, mode=mode):
            plan = json.loads(data)
            problems = attitude_problems(np.array(plan["g1"]), g1, "plan target")
            p = plan["params"]
            if mode == "constant":
                w = np.array([p["w1"], p["w2"], p["w3"]])
                reached = oracle.rodrigues(duration * w) @ g0
            else:
                reached = oracle.underactuated_endpoint(p["r"], p["phi"], p["c"], duration, g0)
            err = float(np.linalg.norm(reached - g1))
            if not err <= TOL_SO3:
                problems.append(f"so3 {mode} plan misses the target by {err:.3e} (closed form)")
            return problems

        ops.append(
            _cli_op(
                f"cli_plan/so3_{mode}",
                ["plan", "so3", "--from", _rotation_arg(g0), "--to", _rotation_arg(g1), "--duration", repr(duration), "--mode", mode, "--out", so3 + ".json"],
                so3_plan_check,
                ctx,
                so3 + ".json",
            )
        )
        # simulate each plan to CSV
        for name, system, m, target, repeat in (
            (nhi, "nhi", 2, dict(zip(("x1", "x2", "x3"), xf)), True),
            (opt, "nhi", 2, dict(zip(("x1", "x2", "x3"), opt_target)), False),
            (g3, "gnhi", 3, dict(zip(g3_names, g3t)), False),
            (so3, "so3", 0, g1, False),
        ):
            ops.append(
                _cli_op(
                    f"cli_simulate/{system}",
                    ["simulate", "--plan", str(ctx / (name + ".json")), "--steps", str(STEPS), "--out", name + ".csv"],
                    _csv_check(ctx, name + ".json", system, m, target),
                    ctx,
                    name + ".csv",
                    repeat=repeat,
                )
            )
        # verify
        for name, system in ((nhi, "nhi"), (g3, "gnhi"), (so3, "so3")):
            ops.append(
                _cli_op(
                    f"cli_verify/{system}",
                    ["verify", "--plan", str(ctx / (name + ".json")), "--steps", str(STEPS)],
                    _verify_check,
                    ctx,
                )
            )
        # fuel comparison with default pairs
        specs = [(f, (1, 1) if f == "trig" else (1, 2)) for f in families]
        fa = float(rng.uniform(0.2, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        ops.append(
            _cli_op(
                "cli_fuel",
                ["fuel", "--target", repr(fa), "--compare", ",".join(families), "--out", f"s{slot}_fuel.csv"],
                _fuel_csv_check(specs, fa),
                ctx,
                f"s{slot}_fuel.csv",
            )
        )
        ops.append(_cli_op("cli_paper_repro", ["paper-repro"], _paper_repro_check, ctx, repeat=slot == 0))
    # one large export per round: eight inputs, 36 coordinates, ~20 MB of CSV
    g8t = _floats(rng.uniform(-2.0, 2.0, 36))
    g8_names = [f"x{i + 1}" for i in range(8)] + [f"x{i + 1}{j + 1}" for i in range(8) for j in range(i + 1, 8)]
    g8_family = ("legendre", "trig")[int(rng.integers(2))]
    ops.append(
        _cli_op(
            "cli_plan/gnhi8",
            ["plan", "gnhi", "--m", "8", "--from", _fmt([0.0] * 36), "--to", _fmt(g8t), "--family", g8_family, "--out", "g8.json"],
            _plan_check(g8_names, g8t),
            ctx,
            "g8.json",
        )
    )
    ops.append(
        _cli_op(
            "cli_simulate/gnhi8",
            ["simulate", "--plan", str(ctx / "g8.json"), "--steps", str(STEPS), "--out", "g8.csv"],
            _csv_check(ctx, "g8.json", "gnhi", 8, dict(zip(g8_names, g8t))),
            ctx,
            "g8.csv",
        )
    )
    return ops


# ---------------------------------------------------------------------------
# Rounds and the cold operation


ROUNDS = {
    "steer-verify": steer_verify_round,
    "shape-fuel": shape_fuel_round,
    "export-cli": export_cli_round,
}


def build_round(workload: str, seed: int, round_index: int, ctx=None) -> list:
    return ROUNDS[workload](round_rng(seed, round_index), ctx)


def cold_op(workload: str, ctx=None) -> Op:
    """The fixed first operation timed by ``setup_s``; it does not depend on the seed."""
    rng = np.random.default_rng(2020)
    if workload == "steer-verify":
        return nhi_op(rng, "legendre", CANONICAL)
    if workload == "shape-fuel":
        return fuel_op(rng, "legendre", 1, CANONICAL)
    return _cli_op(
        "cli_plan/nhi",
        ["plan", "nhi", "--from", "0,0,0", "--to", "0.5,-1,2", "--out", "cold.json"],
        _plan_check(("x1", "x2", "x3"), (0.5, -1.0, 2.0)),
        ctx,
        "cold.json",
    )


def smoke_subset(ops: list) -> list:
    """The first operation of each kind, in round order."""
    seen = set()
    out = []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out
