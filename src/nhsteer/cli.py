"""Command-line surface: plan, simulate, verify, fuel, and paper-repro.

Outputs are deterministic: identical arguments produce byte-identical JSON
and CSV.  One sink, ``_emit``, writes them to ``--out`` (relative paths land
under ``$NHSTEER_OUT_DIR`` when that is set), opened once the result is
computed, or else to stdout; a trajectory streams there from its columns.

Exit codes: 0 success, 1 domain/planner error or OSError (message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import _planfile
from .dynamics import GnhiState, Rotation, coupling_displacement
from .errors import NhsteerError
from .fuel_l1 import _pair_constants, compare_families, fuel_constants, fuel_min
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


def _float_fields(text: str, names: str) -> tuple[float, ...]:
    """As many comma-separated numbers as ``names`` has fields; the error names them."""
    vals = _floats(text)
    if len(vals) != names.count(",") + 1:
        raise argparse.ArgumentTypeError(f"expected {names}")
    return vals


def _float_triple(text: str) -> tuple[float, float, float]:
    return _float_fields(text, "X1,X2,X3")


def _float_pair(text: str) -> tuple[float, float]:
    return _float_fields(text, "LO,HI")


def _jacobi_pair(text: str) -> tuple[float, float]:
    return _float_fields(text, "ALPHA,BETA")


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
    if not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(args, write) -> None:
    """Call ``write`` with the output handle: the ``--out`` file, opened once, or stdout."""
    if not getattr(args, "out", None):
        write(sys.stdout)
        return
    path = _resolve_out(args.out)
    with open(path, "w", newline="") as fh:
        write(fh)
    print(f"wrote {path}", file=sys.stderr)


def _text(text: str):
    """A writer for ``_emit`` of ``text``, which is built before the output is opened."""
    return lambda fh: fh.write(text)


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
    _emit(args, _text(plan.to_json()))
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
    _emit(args, _text(plan.to_json()))
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
    _emit(args, _text(plan.to_json()))
    return 0


# ---------------------------------------------------------------------------
# simulate / verify


def _simulate_plan_file(args):
    """The simulation of the plan file ``args.plan`` and its endpoint error.

    The simulation is a ``SimulationResult``, or the ``Trajectory`` of an so3 plan.
    """
    try:
        data = json.loads(Path(args.plan).read_text())
    except json.JSONDecodeError as exc:
        raise NhsteerError(f"malformed plan file {args.plan}: {exc}") from exc
    data = _planfile.document(data, f"plan file {args.plan}")
    if data.choice("system", ("nhi", "gnhi", "so3")) == "so3":
        return simulate_attitude(AttitudePlan.from_json_dict(data), steps=args.steps)
    plan = SteeringPlan.from_json_dict(data)
    result = simulate_plan(plan, steps=args.steps)
    return result, max(abs(result.terminal[name] - value) for name, value in plan.predicted_endpoint.items())


def _cmd_simulate(args) -> int:
    _emit(args, _simulate_plan_file(args)[0].to_csv)
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
        reports = compare_families(specs, args.target, interval=args.interval, jacobi_params=args.jacobi)
        lines = ["family,odd,even,c1,c2,c,b1,b2,min_fuel,grid_min_fuel,sim_error"]
        for r in reports:
            cells = [r.family, repr(r.pair[0]), repr(r.pair[1])]
            cells += [
                repr(v)
                for v in (r.c1, r.c2, r.c, r.b1, r.b2, r.min_fuel, r.grid_min_fuel, r.sim_error)
            ]
            lines.append(",".join(cells))
        _emit(args, _text("\n".join(lines) + "\n"))
        return 0
    pair = args.pair if args.pair else default_pair(args.family)
    _, _, constants = _pair_constants(args.family, pair, args.target, args.interval, args.jacobi)
    report = fuel_min(constants, family=args.family, pair=pair)
    _emit(args, _text(json.dumps(report.to_json_dict(), indent=2) + "\n"))
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
        type=_jacobi_pair,
        default=None,
        metavar="ALPHA,BETA",
        help="Jacobi weight exponents (jacobi family only)",
    )


class _LazyParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that runs ``fill(self)`` once, when it first parses.

    Subparsers are built with their parent's class, so ``add_parser(..., fill=...)``
    defers a command's arguments until a command line names it: a call builds
    the arguments of its own command chain only.
    """

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _fill_plan(plan: argparse.ArgumentParser) -> None:
    plan_sub = plan.add_subparsers(dest="system", required=True)
    plan_sub.add_parser("nhi", help="three-state two-input planar system", fill=_fill_nhi)
    plan_sub.add_parser("gnhi", help="m-input generalization", fill=_fill_gnhi)
    plan_sub.add_parser("so3", help="kinematic attitude steering", fill=_fill_so3)


def _fill_nhi(nhi: argparse.ArgumentParser) -> None:
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


def _fill_gnhi(gnhi: argparse.ArgumentParser) -> None:
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


def _fill_so3(so3: argparse.ArgumentParser) -> None:
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


def _fill_simulate(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("--plan", required=True, help="plan JSON produced by the plan command")
    sim.add_argument("--steps", type=int, default=4000)
    sim.add_argument("--out", help="write CSV here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)


def _fill_verify(ver: argparse.ArgumentParser) -> None:
    ver.add_argument("--plan", required=True)
    ver.add_argument("--steps", type=int, default=4000)
    ver.set_defaults(func=_cmd_verify)


def _fill_fuel(fuel: argparse.ArgumentParser) -> None:
    fuel.add_argument("--target", type=float, required=True, help="cross-coordinate displacement")
    _add_shape_flags(fuel)
    fuel.add_argument(
        "--compare",
        metavar="FAM1,FAM2,..",
        help="rank several families for the same target (CSV output)",
    )
    fuel.add_argument("--out", help="write output here instead of stdout")
    fuel.set_defaults(func=_cmd_fuel)


def _build_parser() -> argparse.ArgumentParser:
    parser = _LazyParser(
        prog="nhsteer",
        description="Steer nonholonomic integrators and attitude models "
        "with orthogonal-shape inputs.",
        epilog="Relative --out paths are placed under $NHSTEER_OUT_DIR when it is set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plan", help="emit a steering plan as JSON", fill=_fill_plan)
    sub.add_parser("simulate", help="integrate a plan file and emit a trajectory CSV", fill=_fill_simulate)
    sub.add_parser("verify", help="re-simulate a plan and check its endpoint", fill=_fill_verify)
    sub.add_parser("fuel", help="minimum-fuel coefficients for shape pairs", fill=_fill_fuel)
    sub.add_parser(
        "paper-repro",
        help="check the published example values; deviations are flagged, not failed",
    ).set_defaults(func=_cmd_paper_repro)
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
    except (NhsteerError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
