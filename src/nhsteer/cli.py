"""Command-line surface: plan, simulate, verify, fuel, and paper-repro.

Outputs are deterministic: identical arguments produce byte-identical JSON
and CSV.  Files go to ``--out`` (relative paths land under ``$NHSTEER_OUT_DIR``
when that is set); without ``--out`` the data is written to stdout.

Exit codes: 0 success, 1 domain/planner error (message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .dynamics import GnhiState, Rotation, coupling_displacement
from .errors import NhsteerError
from .fuel_l1 import compare_families, fuel_constants, fuel_min
from .optimal_energy import (
    cheb_cost,
    cheb_optimal_inputs,
    solution_to_plan,
    weighted_cost,
)
from .orthopoly import (
    CHEBYSHEV_FIRST,
    LEGENDRE,
    SHIFTED_INTERVAL,
    basis_signal,
    integrate_smooth,
)
from .so3_control import AttitudePlan, constant_omega_plan, simulate_attitude, underactuated_plan
from .steering import (
    PLAN_FAMILIES,
    SteeringPlan,
    default_pair,
    pair_signals,
    plan_gnhi,
    plan_nhi,
    simulate_plan,
)

__all__ = ["main", "entry"]


# argparse treats a lone token like "-1,1" as an option name; joining such
# flag/value pairs with "=" keeps the minus sign part of the value.
_NEGATIVE_VALUE_FLAGS = (
    "--from",
    "--to",
    "--interval",
    "--target",
    "--split",
    "--jacobi",
)
_NEGATIVE_START = re.compile(r"^-\d|^-\.\d")


def _glue_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _NEGATIVE_VALUE_FLAGS
            and i + 1 < len(argv)
            and _NEGATIVE_START.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _float_triple(text: str) -> tuple[float, float, float]:
    vals = _floats(text)
    if len(vals) != 3:
        raise argparse.ArgumentTypeError("expected X1,X2,X3")
    return vals


def _float_pair(text: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    return vals


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError:
        vals = ()
    if len(vals) != 2:
        raise argparse.ArgumentTypeError("expected I,J")
    return vals


def _rotation_arg(text: str) -> np.ndarray:
    if text == "identity":
        return np.eye(3)
    vals = [float(x) for x in text.split(",")]
    if len(vals) != 9:
        raise ValueError("a rotation takes 9 comma-separated entries (row-major) or 'identity'")
    return np.array(vals).reshape(3, 3)


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get("NHSTEER_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        path = _resolve_out(args.out)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _traj_csv(traj) -> str:
    buf = io.StringIO()
    traj.to_csv(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# plan


def _cmd_plan_nhi(args) -> int:
    x0, xf = args.src, args.dst
    if args.optimal:
        if xf[0] != x0[0] or xf[1] != x0[1]:
            raise ValueError(
                "--optimal handles pure x3 transfers; the direct coordinates must not move"
            )
        if args.interval is not None and tuple(args.interval) != (-1.0, 1.0):
            raise ValueError("--optimal is defined on the interval -1,1")
        solution = cheb_optimal_inputs(xf[2] - x0[2], split=args.split)
        plan = solution_to_plan(solution, x0=x0)
    else:
        plan = plan_nhi(
            x0,
            xf,
            family=args.family,
            pair=args.pair,
            interval=args.interval,
            jacobi_params=args.jacobi,
        )
    _emit(args, plan.to_json())
    return 0


def _cmd_plan_gnhi(args) -> int:
    s0 = GnhiState.from_flat(args.m, args.src)
    sf = GnhiState.from_flat(args.m, args.dst)
    plan = plan_gnhi(
        s0,
        sf,
        family=args.family,
        interval=args.interval,
        pair=args.pair,
        jacobi_params=args.jacobi,
    )
    _emit(args, plan.to_json())
    return 0


def _cmd_plan_so3(args) -> int:
    g0 = Rotation(_rotation_arg(args.src))
    g1 = Rotation(_rotation_arg(args.dst))
    if args.mode == "constant":
        plan = constant_omega_plan(
            g0, g1, args.duration, accept_pi_tiebreak=args.accept_pi_tiebreak
        )
    else:
        plan = underactuated_plan(g0, g1, args.duration)
    _emit(args, plan.to_json())
    return 0


# ---------------------------------------------------------------------------
# simulate / verify


def _simulate_plan_file(args):
    """The simulated trajectory of the plan in the file ``args.plan`` and its endpoint error."""
    try:
        data = json.loads(Path(args.plan).read_text())
        plan_type = AttitudePlan if data.get("system") == "so3" else SteeringPlan
        plan = plan_type.from_json_dict(data)
    except OSError as exc:
        raise NhsteerError(f"cannot read plan file {args.plan}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise NhsteerError(f"plan file {args.plan} lacks the field {exc}") from exc
    except (TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise NhsteerError(f"malformed plan file {args.plan}: {exc}") from exc
    if isinstance(plan, AttitudePlan):
        return simulate_attitude(plan, steps=args.steps)
    traj = simulate_plan(plan, steps=args.steps).merged
    return traj, max(abs(traj.terminal[name] - value) for name, value in plan.predicted_endpoint.items())


def _cmd_simulate(args) -> int:
    _emit(args, _traj_csv(_simulate_plan_file(args)[0]))
    return 0


def _cmd_verify(args) -> int:
    err = _simulate_plan_file(args)[1]
    print(f"endpoint error: {err:.6e}")
    if err < 1e-6:
        print("within tolerance 1e-06")
        return 0
    print("exceeds tolerance 1e-06")
    return 1


# ---------------------------------------------------------------------------
# fuel


def _cmd_fuel(args) -> int:
    if args.compare:
        specs = []
        for name in args.compare.split(","):
            name = name.strip()
            specs.append((name, args.pair if args.pair else default_pair(name)))
        reports = compare_families(specs, args.target, interval=args.interval)
        lines = ["family,odd,even,c1,c2,c,b1,b2,min_fuel,grid_min_fuel,sim_error"]
        for r in reports:
            cells = [r.family, repr(r.pair[0]), repr(r.pair[1])]
            cells += [
                repr(v)
                for v in (r.c1, r.c2, r.c, r.b1, r.b2, r.min_fuel, r.grid_min_fuel, r.sim_error)
            ]
            lines.append(",".join(cells))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    interval = args.interval if args.interval is not None else (-1.0, 1.0)
    odd, even = pair_signals(
        args.family, args.pair, interval=interval, jacobi_params=args.jacobi
    )
    constants = fuel_constants(odd, even, args.target)
    report = fuel_min(
        constants,
        family=args.family,
        pair=args.pair if args.pair else default_pair(args.family),
    )
    _emit(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# paper-repro


def _cmd_paper_repro(args) -> int:
    rows: list[tuple[str, float, float, str]] = []

    def match(label: str, paper: float, computed: float, tol: float) -> None:
        status = "ok" if abs(paper - computed) <= tol else "FAIL"
        rows.append((label, paper, computed, status))

    def deviation(
        label: str, paper: float, computed: float, truth: float, tol: float, cross: bool = True
    ) -> None:
        status = "paper-deviation" if (abs(computed - truth) <= tol and cross) else "FAIL"
        rows.append((label, paper, computed, status))

    # displacement constant of the Legendre pair on the unit interval
    u1 = basis_signal(LEGENDRE, 1, interval=SHIFTED_INTERVAL)
    u2 = basis_signal(LEGENDRE, 2, interval=SHIFTED_INTERVAL)
    match("coupling, Legendre (1,2) on [0,1]", 1.0 / 15.0, coupling_displacement(u1, u2), 1e-10)

    # two-phase steering with Legendre shapes reaches (0, 0, 1)
    plan = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=LEGENDRE)
    end = simulate_plan(plan, steps=4000).terminal
    match("steering endpoint x3, Legendre pair", 1.0, end["x3"], 1e-6)

    # closed-form minimum-energy transfer: endpoint and weighted cost
    solution = cheb_optimal_inputs(1.0)
    closed_end = simulate_plan(solution_to_plan(solution), steps=4000).terminal
    match("closed-form endpoint x3", 1.0, closed_end["x3"], 1e-6)
    match(
        "closed-form weighted energy, a=1",
        1.0,
        weighted_cost(solution.u1, solution.u2, cheb_cost()),
        1e-6,
    )

    # first-kind pair coupling: printed 5/3, closed form gives 4/3 by two routes
    odd, even = pair_signals(CHEBYSHEV_FIRST, (1, 2))
    generic = coupling_displacement(odd, even)
    theta_route = integrate_smooth(
        lambda s: np.cos(s) * np.cos(2.0 * s) + 0.5 * np.sin(2.0 * s) * np.sin(s),
        -math.pi / 2.0,
        math.pi / 2.0,
    )
    deviation(
        "coupling, first-kind pair (1,2)",
        5.0 / 3.0,
        generic,
        4.0 / 3.0,
        1e-9,
        cross=abs(generic - theta_route) <= 1e-9,
    )

    # minimum fuel with Legendre shapes
    l_odd, l_even = pair_signals(LEGENDRE, (1, 2))
    l_report = fuel_min(fuel_constants(l_odd, l_even, 1.0), family=LEGENDRE, pair=(1, 2))
    match("fuel c1, Legendre", 1.0, l_report.c1, 1e-9)
    match("fuel c2, Legendre", 0.7698, l_report.c2, 1e-3)
    match("fuel |c|, Legendre", 3.75, abs(l_report.c), 1e-9)
    match("fuel min J, Legendre", 3.3981, l_report.min_fuel, 1e-3)

    # minimum fuel with trig shapes: the printed constants disagree with the
    # closed form; the grid search must agree with the closed form instead
    t_odd, t_even = pair_signals("trig", (1, 1))
    t_report = fuel_min(fuel_constants(t_odd, t_even, 1.0), family="trig", pair=(1, 1))
    deviation("fuel |c|, trig", 3.1407, abs(t_report.c), math.pi / 2.0, 1e-9)
    deviation(
        "fuel min J, trig",
        4.5135,
        t_report.min_fuel,
        2.0 * math.sqrt(8.0 / math.pi),
        1e-6,
        cross=abs(t_report.min_fuel - t_report.grid_min_fuel) <= 1e-6,
    )

    print(f"{'quantity':<38}{'paper':>12}{'computed':>16}{'|delta|':>12}  status")
    for label, paper, computed, status in rows:
        delta = abs(paper - computed)
        print(f"{label:<38}{paper:>12.6g}{computed:>16.10g}{delta:>12.3e}  {status}")
    n_ok = sum(1 for r in rows if r[3] == "ok")
    n_dev = sum(1 for r in rows if r[3] == "paper-deviation")
    n_fail = len(rows) - n_ok - n_dev
    print(f"\n{n_ok} ok, {n_dev} paper-deviation, {n_fail} fail")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# parser


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", default="legendre", choices=PLAN_FAMILIES, help="shape family"
    )
    parser.add_argument(
        "--pair", type=_int_pair, default=None, metavar="I,J", help="basis indices"
    )
    parser.add_argument(
        "--interval", type=_float_pair, default=None, metavar="LO,HI", help="time interval"
    )
    parser.add_argument(
        "--jacobi",
        type=_float_pair,
        default=None,
        metavar="ALPHA,BETA",
        help="Jacobi weight exponents (jacobi family only)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhsteer",
        description="Steer nonholonomic integrators and attitude models "
        "with orthogonal-shape inputs.",
        epilog="Relative --out paths are placed under $NHSTEER_OUT_DIR when it is set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="emit a steering plan as JSON")
    plan_sub = plan.add_subparsers(dest="system", required=True)

    nhi = plan_sub.add_parser("nhi", help="three-state two-input planar system")
    nhi.add_argument("--from", dest="src", type=_float_triple, required=True, metavar="X1,X2,X3")
    nhi.add_argument("--to", dest="dst", type=_float_triple, required=True, metavar="X1,X2,X3")
    _add_shape_flags(nhi)
    nhi.add_argument(
        "--optimal",
        action="store_true",
        help="use the closed-form weighted-minimum-energy inputs (pure x3 transfers)",
    )
    nhi.add_argument(
        "--split", type=float, default=0.0,
        help="angle in radians that rotates the --optimal (b1, b2) pair",
    )
    nhi.add_argument("--out", help="write JSON here instead of stdout")
    nhi.set_defaults(func=_cmd_plan_nhi)

    gnhi = plan_sub.add_parser("gnhi", help="m-input generalization")
    gnhi.add_argument("--m", type=int, required=True, help="number of direct coordinates")
    gnhi.add_argument(
        "--from",
        dest="src",
        type=_floats,
        required=True,
        metavar="X1,..,XM,X12,..",
        help="flat state: direct coordinates then cross terms in lexicographic order",
    )
    gnhi.add_argument("--to", dest="dst", type=_floats, required=True, metavar="X1,..,XM,X12,..")
    _add_shape_flags(gnhi)
    gnhi.add_argument("--out", help="write JSON here instead of stdout")
    gnhi.set_defaults(func=_cmd_plan_gnhi)

    so3 = plan_sub.add_parser("so3", help="kinematic attitude steering")
    so3.add_argument(
        "--from",
        dest="src",
        required=True,
        metavar="G11,..,G33",
        help="initial attitude: 9 row-major entries or 'identity'",
    )
    so3.add_argument("--to", dest="dst", required=True, metavar="G11,..,G33")
    so3.add_argument("--duration", "--T", dest="duration", type=float, required=True)
    so3.add_argument("--mode", choices=("constant", "underactuated"), default="constant")
    so3.add_argument(
        "--accept-pi-tiebreak",
        action="store_true",
        help="resolve half-turn axis ambiguity instead of failing",
    )
    so3.add_argument("--out", help="write JSON here instead of stdout")
    so3.set_defaults(func=_cmd_plan_so3)

    sim = sub.add_parser("simulate", help="integrate a plan file and emit a trajectory CSV")
    sim.add_argument("--plan", required=True, help="plan JSON produced by the plan command")
    sim.add_argument("--steps", type=int, default=4000)
    sim.add_argument("--out", help="write CSV here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="re-simulate a plan and check its endpoint")
    ver.add_argument("--plan", required=True)
    ver.add_argument("--steps", type=int, default=4000)
    ver.set_defaults(func=_cmd_verify)

    fuel = sub.add_parser("fuel", help="minimum-fuel coefficients for shape pairs")
    fuel.add_argument("--target", type=float, required=True, help="cross-coordinate displacement")
    _add_shape_flags(fuel)
    fuel.add_argument(
        "--compare",
        metavar="FAM1,FAM2,..",
        help="rank several families for the same target (CSV output)",
    )
    fuel.add_argument("--out", help="write output here instead of stdout")
    fuel.set_defaults(func=_cmd_fuel)

    repro = sub.add_parser(
        "paper-repro",
        help="check the published example values; deviations are flagged, not failed",
    )
    repro.set_defaults(func=_cmd_paper_repro)

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(raw))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (NhsteerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
