"""Per-layer spans around nhsteer's public functions, installed from outside.

Each function in ``TRACED`` is wrapped wherever it is bound: in its defining
module, in every nhsteer module that imported it by name (for example
``fuel_l1.l1_norm``, ``steering.coupling_displacement``,
``cli.integrate_so3``) and in the package namespace.  Methods are wrapped on
their class.  Nothing in the package changes; ``uninstall`` puts every
original back.

A span is (name, binding module, start, end, parent span, operation id).
Spans stay in memory and are written out when the run ends.  A function's
self time is its span time minus the time covered by its child spans; both
are scaled by the normalisation factor of the operation they belong to
(see calibrate.py).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "nhsteer"
MODULES = ("orthopoly", "dynamics", "steering", "optimal_energy", "fuel_l1", "so3_control", "cli")

TRACED = {
    "orthopoly": (
        "l1_norm",
        "integrate",
        "integrate_smooth",
        "inner_product",
        "InputSignal.running_integral",
    ),
    "dynamics": (
        "coupling_displacement",
        "integrate_nhi",
        "integrate_gnhi",
        "integrate_so3",
        "exp_rotation",
        "Trajectory.to_csv",
    ),
    "steering": (
        "pair_signals",
        "plan_nhi",
        "plan_gnhi",
        "simulate_plan",
        "SteeringPlan.to_json",
        "SteeringPlan.from_json_dict",
    ),
    "optimal_energy": ("cheb_optimal_inputs", "weighted_cost", "solution_to_plan"),
    "fuel_l1": ("fuel_constants", "fuel_min", "fuel_min_lp", "compare_families"),
    "so3_control": (
        "constant_omega_plan",
        "underactuated_plan",
        "underactuated_flow",
        "simulate_attitude",
    ),
    "cli": ("main",),
}

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
# "<span>.self_ms" and "<span>.calls" are per completed operation.
PER_LAYER = (
    ("orthopoly.l1_norm.calls", "count", "lower"),
    ("orthopoly.l1_norm.self_ms", "ms", "lower"),
    ("orthopoly.integrate_smooth.calls", "count", "lower"),
    ("orthopoly.integrate_smooth.self_ms", "ms", "lower"),
    ("orthopoly.inner_product.self_ms", "ms", "lower"),
    ("orthopoly.InputSignal.running_integral.self_ms", "ms", "lower"),
    ("dynamics.coupling_displacement.calls", "count", "lower"),
    ("dynamics.coupling_displacement.self_ms", "ms", "lower"),
    ("steering.coupling_miss_ratio", "ratio", "lower"),
    ("steering.plan_nhi.self_ms", "ms", "lower"),
    ("steering.plan_gnhi.self_ms", "ms", "lower"),
    ("steering.simulate_plan.self_ms", "ms", "lower"),
    ("dynamics.integrate_nhi.self_ms", "ms", "lower"),
    ("dynamics.integrate_gnhi.self_ms", "ms", "lower"),
    ("dynamics.rk4_steps_per_s", "1/s", "higher"),
    ("dynamics.integrate_so3.self_ms", "ms", "lower"),
    ("dynamics.exp_rotation.calls", "count", "lower"),
    ("dynamics.exp_rotation.self_ms", "ms", "lower"),
    ("dynamics.so3_steps_per_s", "1/s", "higher"),
    ("so3_control.underactuated_plan.self_ms", "ms", "lower"),
    ("so3_control.underactuated_flow.calls", "count", "lower"),
    ("so3_control.shooting_iterations", "count", "lower"),
    ("so3_control.simulate_attitude.self_ms", "ms", "lower"),
    ("fuel_l1.fuel_constants.self_ms", "ms", "lower"),
    ("fuel_l1.fuel_min.self_ms", "ms", "lower"),
    ("fuel_l1.fuel_min_lp.self_ms", "ms", "lower"),
    ("fuel_l1.compare_families.self_ms", "ms", "lower"),
    ("optimal_energy.cheb_optimal_inputs.self_ms", "ms", "lower"),
    ("optimal_energy.weighted_cost.self_ms", "ms", "lower"),
    ("dynamics.Trajectory.to_csv.self_ms", "ms", "lower"),
    ("dynamics.csv_mb_per_s", "MB/s", "higher"),
    ("cli.bytes_out_mb", "MB", "lower"),
    ("steering.SteeringPlan.to_json.self_ms", "ms", "lower"),
    ("steering.SteeringPlan.from_json_dict.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _pair_phases(plan) -> int:
    """Phases of a plan driven by a non-constant pair (any term of index > 0)."""
    return sum(
        1
        for phase in plan.phases
        if any(term.element.index > 0 for sig in phase.inputs for term in sig.terms)
    )


def _csv_bytes(args, kwargs) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    if hasattr(path, "tell"):
        return path.tell()
    return os.path.getsize(path)


def _cli_out_bytes(args, kwargs) -> int:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" not in argv:
        return 0
    path = Path(argv[argv.index("--out") + 1])
    base = os.environ.get("NHSTEER_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path.stat().st_size if path.exists() else 0


# Counters taken from a call's arguments and result, after its span ends.
HOOKS = {
    "dynamics.integrate_nhi": lambda a, k, r: {"rk4_steps": len(r.t) - 1},
    "dynamics.integrate_gnhi": lambda a, k, r: {"rk4_steps": len(r.t) - 1},
    "dynamics.integrate_so3": lambda a, k, r: {"so3_steps": len(r.t) - 1},
    "so3_control.underactuated_plan": lambda a, k, r: {
        "shooting_iterations": r.params["iterations"],
        "shooting_plans": 1,
    },
    "steering.plan_nhi": lambda a, k, r: {"pair_phases": _pair_phases(r)},
    "steering.plan_gnhi": lambda a, k, r: {"pair_phases": _pair_phases(r)},
    "dynamics.Trajectory.to_csv": lambda a, k, r: {"csv_bytes": _csv_bytes(a, k)},
    "cli.main": lambda a, k, r: {"cli_bytes_out": _cli_out_bytes(a, k)},
}


class Tracer:
    """Records spans while ``recording`` is set; wrappers live between install and uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.recording = False
        self.op_id = -1
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, name: str, site: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, site, start, end, parent, self.op_id)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = dict(modules, **{PACKAGE: importlib.import_module(PACKAGE)})
        for mod_name, names in TRACED.items():
            home = modules[mod_name]
            for qual in names:
                span = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self._wrap(span, mod_name, fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    setattr(cls, attr, wrapped)
                    self._installed.append((cls, attr, raw))
                    continue
                fn = getattr(home, qual)
                for site, ns in namespaces.items():
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, self._wrap(span, site, fn))
                            self._installed.append((ns, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _durations(self, factors: dict) -> list:
        """Normalised duration of every span, scaled by its operation's factor."""
        return [(end - start) * factors.get(op, 1.0) for _, _, start, end, _, op in self.spans]

    def metrics(self, completed_ops: int, factors: dict, import_s: float, overhead_pct: float) -> dict:
        """Every PER_LAYER metric; functions a workload never calls read 0."""
        dur = self._durations(factors)
        child = defaultdict(float)
        busy = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, site, start, end, parent, op) in enumerate(self.spans):
            busy[name] += dur[idx]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur[idx]
        self_s = defaultdict(float)
        for idx, span in enumerate(self.spans):
            self_s[span[0]] += dur[idx] - child[idx]
        per_op = 1.0 / max(completed_ops, 1)
        c = self.counters

        def rate(amount, names):
            seconds = sum(busy[n] for n in names)
            return amount / seconds if seconds > 0 else 0.0

        planner_couplings = sum(
            1 for s in self.spans if s[0] == "dynamics.coupling_displacement" and s[1] == "steering"
        )
        special = {
            "steering.coupling_miss_ratio": planner_couplings / c["pair_phases"] if c["pair_phases"] else 0.0,
            "dynamics.rk4_steps_per_s": rate(c["rk4_steps"], ("dynamics.integrate_nhi", "dynamics.integrate_gnhi")),
            "dynamics.so3_steps_per_s": rate(c["so3_steps"], ("dynamics.integrate_so3",)),
            "so3_control.shooting_iterations": (
                c["shooting_iterations"] / c["shooting_plans"] if c["shooting_plans"] else 0.0
            ),
            "dynamics.csv_mb_per_s": rate(c["csv_bytes"] / 1e6, ("dynamics.Trajectory.to_csv",)),
            "cli.bytes_out_mb": c["cli_bytes_out"] / 1e6 * per_op,
            "setup.import_s": import_s,
            "trace.overhead_pct": overhead_pct,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in special:
                value = special[name]
            elif name.endswith(".self_ms"):
                value = self_s.get(name[: -len(".self_ms")], 0.0) * 1e3 * per_op
            else:
                value = calls.get(name[: -len(".calls")], 0) * per_op
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
