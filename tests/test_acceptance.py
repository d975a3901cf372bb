"""End-to-end acceptance suite.

Each test checks one numbered behavior of the finished library at its stated
tolerance and records a single PASS/FAIL line (printed in the terminal
summary).  The checks favor independent routes over trusting stored
constants: closed forms are compared against simulations, grid searches,
alternative substitutions, and differential-equation residuals.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
from conftest import record_criterion

from nhsteer.cli import main
from nhsteer.dynamics import (
    GnhiState,
    NhiState,
    Rotation,
    coupling_displacement,
    exp_rotation,
    integrate_nhi,
)
from nhsteer.fuel_l1 import fuel_constants, fuel_min
from nhsteer.optimal_energy import (
    cheb_cost,
    cheb_extremal_inputs,
    el_residual,
    solution_to_plan,
    unit_cost,
    weighted_cost,
)
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    Harmonic,
    basis_signal,
    combine_signals,
    evaluate,
    inner_product,
    integrate_smooth,
    scale_signal,
    weight_fn,
)
from nhsteer.so3_control import (
    constant_omega_plan,
    costate_residual,
    simulate_attitude,
    underactuated_plan,
)
from nhsteer.steering import pair_signals, plan_gnhi, plan_nhi, simulate_plan
from nhsteer.sturm import (
    certify_pair,
    chebyshev_nodes,
    family_sl_problem,
    jacobi_pairing,
    sl_residual,
)


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_unit_interval_coupling():
    u1 = basis_signal(LEGENDRE, 1, interval=SHIFTED_INTERVAL)  # 2t - 1
    u2 = basis_signal(LEGENDRE, 2, interval=SHIFTED_INTERVAL)  # 6t^2 - 6t + 1
    err = abs(coupling_displacement(u1, u2) - 1.0 / 15.0)
    ok = err < 1e-10
    line = record_criterion(
        1, ok, f"shifted-Legendre pair coupling on [0,1] = 1/15 (err {err:.2e})"
    )
    assert ok, line


def test_criterion_02_published_input_sets():
    s = math.sqrt(15.0) / 2.0
    b = math.sqrt(2.0 / math.pi)
    input_sets = {
        "legendre": (
            basis_signal(LEGENDRE, 1, scale=s),
            basis_signal(LEGENDRE, 2, scale=s),
        ),
        "chebyshev": (
            basis_signal(CHEBYSHEV_FIRST, 2, scale=b, weighted=True),
            basis_signal(CHEBYSHEV_SECOND, 1, scale=-b),
        ),
    }
    worst = 0.0
    for pair in input_sets.values():
        end = integrate_nhi(pair, NhiState(0.0, 0.0, 0.0), steps=4000).terminal
        worst = max(worst, abs(end["x1"]), abs(end["x2"]), abs(end["x3"] - 1.0))
    ok = worst < 1e-6
    line = record_criterion(
        2, ok, f"both published input sets steer (0,0,0)->(0,0,1) (worst err {worst:.2e})"
    )
    assert ok, line


def test_criterion_03_cost_displacement_law():
    worst_disp = 0.0
    worst_cost = 0.0
    monotone = True
    for a in (0.5, 1.0, 2.0):
        costs = {}
        for lam in (1, 2):
            sol = cheb_extremal_inputs(a, lam=lam)
            end = simulate_plan(solution_to_plan(sol), steps=4000).terminal
            worst_disp = max(worst_disp, abs(end["x3"] - a))
            measured = weighted_cost(sol.u1, sol.u2, cheb_cost())
            worst_cost = max(worst_cost, abs(measured - lam * a))
            costs[lam] = measured
        monotone = monotone and costs[1] < costs[2]
    ok = worst_disp < 1e-6 and worst_cost < 1e-6 and monotone
    line = record_criterion(
        3,
        ok,
        "closed-form inputs: displacement a, weighted cost lam*a, order one cheapest "
        f"(disp err {worst_disp:.2e}, cost err {worst_cost:.2e})",
    )
    assert ok, line


def test_criterion_04_stationarity_certificate():
    nodes = chebyshev_nodes(50)
    worst = 0.0
    cost = cheb_cost()
    for a in (0.5, 1.0, 2.0):
        for lam in (1, 2):
            for split in (0.0, 0.35):
                sol = cheb_extremal_inputs(a, lam=lam, split=split)
                worst = max(
                    worst,
                    max(
                        max(abs(r) for r in el_residual(sol.u1, sol.u2, cost, lam, t))
                        for t in nodes
                    ),
                )
    # circular sinusoids against the unweighted energy
    flat = unit_cost()
    for c in (math.pi, 2.0 * math.pi):
        u1 = Harmonic("cos", c, 0.0, 1.0)
        u2 = Harmonic("sin", c, 0.0, 1.0)
        worst = max(
            worst,
            max(
                max(abs(r) for r in el_residual(u1, u2, flat, c / 2.0, t))
                for t in nodes
            ),
        )
    ok = worst < 1e-6
    line = record_criterion(
        4, ok, f"Euler-Lagrange residuals vanish at 50 interior nodes (max {worst:.2e})"
    )
    assert ok, line


def test_criterion_05_legendre_fuel():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    report = fuel_min(fuel_constants(odd, even, 1.0))
    checks = [
        abs(report.c1 - 1.0) < 1e-9,
        abs(report.c2 - 0.7698) < 1e-3,
        abs(abs(report.c) - 3.75) < 1e-9,
        abs(report.min_fuel - 3.3981) < 1e-3,
        abs(report.grid_min_fuel - report.min_fuel) < 1e-6,
    ]
    ok = all(checks)
    line = record_criterion(
        5,
        ok,
        "Legendre fuel constants c1=1, c2=0.7698, |c|=3.75, minJ=3.3981; grid agrees "
        f"(minJ {report.min_fuel:.10f})",
    )
    assert ok, line


def test_criterion_06_trig_fuel_adjudicated():
    odd, even = pair_signals("trig", (1, 1))
    report = fuel_min(fuel_constants(odd, even, 1.0))
    truth = 2.0 * math.sqrt(8.0 / math.pi)
    checks = [
        abs(abs(report.c) - math.pi / 2.0) < 1e-9,
        abs(report.min_fuel - truth) < 1e-6,
        abs(report.grid_min_fuel - truth) < 1e-6,
    ]
    code, out = _run_cli(["paper-repro"])
    for label in ("fuel |c|, trig", "fuel min J, trig"):
        row = next(ln for ln in out.splitlines() if ln.startswith(label))
        checks.append(row.rstrip().endswith("paper-deviation"))
    checks.append(code == 0)
    ok = all(checks)
    line = record_criterion(
        6,
        ok,
        "trig fuel |c|=pi/2, minJ=2*sqrt(8/pi) by closed form and grid; printed "
        f"3.1407/4.5135 flagged as deviations (minJ {report.min_fuel:.10f})",
    )
    assert ok, line


def test_criterion_07_first_kind_coupling_adjudicated():
    odd, even = pair_signals(CHEBYSHEV_FIRST, (1, 2))
    generic = coupling_displacement(odd, even)
    theta = integrate_smooth(
        lambda s: np.cos(s) * np.cos(2.0 * s) + 0.5 * np.sin(2.0 * s) * np.sin(s),
        -math.pi / 2.0,
        math.pi / 2.0,
    )
    checks = [
        abs(generic - 4.0 / 3.0) < 1e-9,
        abs(theta - 4.0 / 3.0) < 1e-9,
        abs(generic - theta) < 1e-9,
    ]
    code, out = _run_cli(["paper-repro"])
    row = next(
        ln for ln in out.splitlines() if ln.startswith("coupling, first-kind pair (1,2)")
    )
    checks.append(row.rstrip().endswith("paper-deviation"))
    checks.append(code == 0)
    ok = all(checks)
    line = record_criterion(
        7,
        ok,
        "first-kind pair integral = 4/3 by substitution and adaptive routes; printed "
        f"5/3 flagged (routes differ by {abs(generic - theta):.2e})",
    )
    assert ok, line


def test_criterion_08_orthogonality_suite():
    worst_offdiag = 0.0
    worst_norm = 0.0
    cases = [
        (LEGENDRE, None, None),
        (CHEBYSHEV_FIRST, weight_fn(CHEBYSHEV_FIRST), None),
        (CHEBYSHEV_SECOND, weight_fn(CHEBYSHEV_SECOND), None),
        (JACOBI, weight_fn(JACOBI, jacobi_params=(0.5, 0.5)), (0.5, 0.5)),
    ]
    for family, w, params in cases:
        for n in range(11):
            for m in range(n):
                fn = BasisElement(family, n, jacobi_params=params)
                fm = BasisElement(family, m, jacobi_params=params)
                worst_offdiag = max(worst_offdiag, abs(inner_product(fn, fm, w)))
    for n in range(11):
        norm = inner_product(BasisElement(LEGENDRE, n), BasisElement(LEGENDRE, n))
        worst_norm = max(worst_norm, abs(norm - 2.0 / (2.0 * n + 1.0)))
    # trig channels: unit norms and full cross-orthogonality
    for n in range(1, 11):
        worst_norm = max(
            worst_norm,
            abs(inner_product(BasisElement(TRIG_SIN, n), BasisElement(TRIG_SIN, n)) - 1.0),
            abs(inner_product(BasisElement(TRIG_COS, n), BasisElement(TRIG_COS, n)) - 1.0),
        )
        for m in range(1, n):
            worst_offdiag = max(
                worst_offdiag,
                abs(inner_product(BasisElement(TRIG_SIN, n), BasisElement(TRIG_SIN, m))),
                abs(inner_product(BasisElement(TRIG_COS, n), BasisElement(TRIG_COS, m))),
            )
        for m in range(11):
            worst_offdiag = max(
                worst_offdiag,
                abs(inner_product(BasisElement(TRIG_SIN, n), BasisElement(TRIG_COS, m))),
            )
    ok = worst_offdiag < 1e-9 and worst_norm < 1e-9
    line = record_criterion(
        8,
        ok,
        "orthogonality to n,m<=10 across families; Legendre norms 2/(2n+1) "
        f"(worst offdiag {worst_offdiag:.2e}, worst norm err {worst_norm:.2e})",
    )
    assert ok, line


def test_criterion_09_sl_residuals_and_pairings():
    nodes = chebyshev_nodes(50)
    worst = 0.0
    for family in (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, LEGENDRE):
        for n in range(9):
            prob = family_sl_problem(family, n)
            shape = BasisElement(family, n)
            worst = max(worst, max(abs(sl_residual(prob, shape, t)) for t in nodes))
    for alpha in (-0.5, 0.0, 0.5):
        for beta in (-0.5, 0.0, 0.5):
            for n in range(9):
                prob = family_sl_problem(JACOBI, n, (alpha, beta))
                shape = BasisElement(JACOBI, n, jacobi_params=(alpha, beta))
                worst = max(worst, max(abs(sl_residual(prob, shape, t)) for t in nodes))
    # the second-shape construction at the two classical parameter points
    pairing_ok = True
    for n in (2, 3, 4):
        chevy = jacobi_pairing(-0.5, -0.5, n)
        report = certify_pair(chevy)
        pairing_ok = pairing_ok and chevy.k2 is not None and chevy.k2.index == n
        pairing_ok = pairing_ok and report.residual_k1 < 1e-6
        pairing_ok = pairing_ok and report.residual_k2 is not None and report.residual_k2 < 1e-6
        legendre = jacobi_pairing(0.0, 0.0, n)
        report = certify_pair(legendre)
        pairing_ok = pairing_ok and legendre.k2 is None and report.residual_k1 < 1e-6
    ok = worst < 1e-6 and pairing_ok
    line = record_criterion(
        9,
        ok,
        "self-adjoint residuals for T, U, P and the Jacobi grid vanish for n<=8; "
        f"pairings certified (max residual {worst:.2e})",
    )
    assert ok, line


def test_criterion_10_randomized_planning():
    rng = np.random.default_rng(2024)
    families = (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, "trig")
    worst = 0.0
    for _ in range(50):
        xf = tuple(rng.uniform(-5.0, 5.0, size=3))
        for family in families:
            plan = plan_nhi((0.0, 0.0, 0.0), xf, family=family)
            end = simulate_plan(plan, steps=4000).terminal
            worst = max(worst, max(abs(end[k] - v) for k, v in plan.predicted_endpoint.items()))
    for _ in range(20):
        target = GnhiState.from_flat(3, rng.uniform(-5.0, 5.0, size=6))
        for family in families:
            plan = plan_gnhi(GnhiState.zeros(3), target, family=family)
            end = simulate_plan(plan, steps=4000).terminal
            worst = max(worst, max(abs(end[k] - v) for k, v in plan.predicted_endpoint.items()))
    ok = worst < 1e-6
    line = record_criterion(
        10,
        ok,
        "50 random planar and 20 random three-input targets reached by all four "
        f"families (worst coordinate err {worst:.2e})",
    )
    assert ok, line


def test_criterion_11_attitude_planning():
    rng = np.random.default_rng(31)
    eye = np.eye(3)
    worst_frob = 0.0
    worst_drift = 0.0
    for _ in range(100):
        g0 = Rotation(exp_rotation(rng.normal(size=3)))
        g1 = Rotation(exp_rotation(rng.normal(size=3)))
        duration = float(rng.uniform(0.5, 3.0))
        plan = constant_omega_plan(g0, g1, duration)
        traj, err = simulate_attitude(plan, steps=400)
        frames = np.stack(
            [
                np.array(
                    [[traj.columns[f"g{i}{j}"][k] for j in (1, 2, 3)] for i in (1, 2, 3)]
                )
                for k in range(0, len(traj.t), 40)
            ]
        )
        worst_drift = max(
            worst_drift,
            float(np.max(np.abs(np.einsum("kij,kil->kjl", frames, frames) - eye))),
        )
        worst_frob = max(worst_frob, err)
    worst_shoot = 0.0
    worst_costate = 0.0
    for _ in range(20):
        g0 = Rotation(exp_rotation(rng.normal(size=3) * 0.8))
        duration = float(rng.uniform(1.0, 2.5))
        drift = exp_rotation(duration * np.array([0.0, 0.0, 1.0])) @ g0.matrix
        kick = rng.normal(size=3)
        kick *= rng.uniform(0.1, 0.8) / np.linalg.norm(kick)
        g1 = Rotation(exp_rotation(kick) @ drift)
        plan = underactuated_plan(g0, g1, duration)
        _, err = simulate_attitude(plan, steps=4000)
        worst_shoot = max(worst_shoot, err)
        worst_costate = max(
            worst_costate, costate_residual(plan, np.linspace(0.0, duration, 11))
        )
    ok = (
        worst_frob < 1e-8
        and worst_drift < 1e-9
        and worst_shoot < 1e-8
        and worst_costate < 1e-6
    )
    line = record_criterion(
        11,
        ok,
        "100 constant-rate and 20 shooting attitude transfers land on target "
        f"(frob {worst_frob:.2e}, drift {worst_drift:.2e}, shoot {worst_shoot:.2e})",
    )
    assert ok, line


def test_criterion_12_property_bundle():
    rng = np.random.default_rng(77)
    # bilinearity and antisymmetry of the displacement pairing
    u1 = basis_signal(LEGENDRE, 1)
    u2 = basis_signal(LEGENDRE, 2)
    u3 = basis_signal(LEGENDRE, 3)
    bilinear_ok = True
    for _ in range(10):
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)
        combo = combine_signals(scale_signal(u1, alpha), scale_signal(u2, beta))
        lhs = coupling_displacement(combo, u3)
        rhs = alpha * coupling_displacement(u1, u3) + beta * coupling_displacement(u2, u3)
        bilinear_ok = bilinear_ok and abs(lhs - rhs) < 1e-10
        anti = coupling_displacement(u3, combo)
        bilinear_ok = bilinear_ok and abs(lhs + anti) < 1e-10
    # parity of every family
    parity_ok = True
    ts = rng.uniform(0.0, 1.0, size=25)
    for family in (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND):
        for n in range(11):
            el = BasisElement(family, n)
            sign = 1.0 if n % 2 == 0 else -1.0
            parity_ok = parity_ok and bool(
                np.all(np.abs(evaluate(el, -ts) - sign * evaluate(el, ts)) < 1e-12)
            )
    for n in range(1, 6):
        sin_el = BasisElement(TRIG_SIN, n)
        cos_el = BasisElement(TRIG_COS, n)
        parity_ok = parity_ok and bool(
            np.all(np.abs(evaluate(sin_el, -ts) + evaluate(sin_el, ts)) < 1e-12)
        )
        parity_ok = parity_ok and bool(
            np.all(np.abs(evaluate(cos_el, -ts) - evaluate(cos_el, ts)) < 1e-12)
        )
    # fourth-order convergence of the fixed-step integrator
    u = (Harmonic("cos", 2.0, 0.4), Harmonic("sin", 3.0, -0.1))
    x0 = NhiState(0.3, -0.2, 0.1)
    ref = integrate_nhi(u, x0, interval=(0.0, 2.0), steps=12000).terminal
    errs = []
    for steps in (300, 600):
        end = integrate_nhi(u, x0, interval=(0.0, 2.0), steps=steps).terminal
        errs.append(max(abs(end[k] - ref[k]) for k in ("x1", "x2", "x3")))
    order_ok = errs[0] / errs[1] >= 8.0
    # the closed-form cost does not depend on the coefficient split
    base = weighted_cost(*_split_inputs(0.0), cheb_cost())
    split_ok = all(
        abs(weighted_cost(*_split_inputs(s), cheb_cost()) - base) < 1e-8
        for s in (0.6, 1.3, 2.2)
    )
    # CLI output is byte-deterministic
    argv = ["plan", "nhi", "--from", "0.1,0.2,0.3", "--to", "-1,2,-3", "--family", "trig"]
    deterministic = _run_cli(argv) == _run_cli(argv) and _run_cli(["paper-repro"]) == _run_cli(
        ["paper-repro"]
    )
    ok = bilinear_ok and parity_ok and order_ok and split_ok and deterministic
    line = record_criterion(
        12,
        ok,
        "pairing bilinearity/antisymmetry, family parity, integrator order, "
        "split-invariant cost, deterministic CLI "
        f"(bilinear {bilinear_ok}, parity {parity_ok}, order {order_ok}, "
        f"split {split_ok}, cli {deterministic})",
    )
    assert ok, line


def _split_inputs(split):
    sol = cheb_extremal_inputs(1.5, lam=2, split=split)
    return sol.u1, sol.u2
