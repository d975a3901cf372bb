#!/usr/bin/env python3
"""Benchmark for nhsteer: one closed-loop caller, one process, seeded workloads.

    python3 bench/run.py --workload steer-verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; nhsteer is imported from ``src/`` there.
Workloads: steer-verify, shape-fuel, export-cli (see workloads.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (throughput, median and 90th-percentile latency, set-up
time, peak resident memory); with ``--trace 1`` it holds the per-layer
metrics of tracing.PER_LAYER instead.  ``--smoke`` runs one operation of
each kind, without the timing figures of an untraced run.

Times are normalised to a reference host pace (see calibrate.py); the
measured wall-clock figures go to stderr.  BLAS and OpenMP pools are pinned
to one thread here and in every child process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

WORKLOADS = ("steer-verify", "shape-fuel", "export-cli")
SETUP_SPAWNS = 11  # fresh interpreters per run for setup_s, after one discarded
IMPORT_SPAWNS = 7  # fresh interpreters per traced run for setup.import_s
MIN_OPS = 100  # so the 90th percentile has at least ten operations above it
WALL_LIMIT_S = 120.0  # stop after the current round once a run has taken this long

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_package():
    if not (SRC / "nhsteer" / "__init__.py").is_file():
        sys.exit(f"error: nhsteer sources not found under {SRC}")
    sys.path.insert(1, str(SRC))
    import nhsteer

    if Path(nhsteer.__file__).resolve().parent != (SRC / "nhsteer").resolve():
        sys.exit(f"error: imported nhsteer from {nhsteer.__file__}, not from {SRC}")
    return nhsteer


class _OutDir:
    """A scratch ``NHSTEER_OUT_DIR`` under the benchmark directory, removed on exit."""

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        os.environ["NHSTEER_OUT_DIR"] = str(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Child processes: set-up time, import time and peak memory


def _stamp() -> None:
    """Print the clock, then the reference pace right after it."""
    stamp = _now()
    import calibrate

    calibrate.sample()
    print(stamp, calibrate.sample())


def _child(kind: str, workload: str, seed: int) -> None:
    _import_package()
    if kind == "import":
        _stamp()
        return
    import workloads

    with _OutDir() as ctx:
        if kind == "setup":
            workloads.cold_op(workload, ctx).run()
            _stamp()
            return
        for op in workloads.build_round(workload, seed, 0, ctx):
            try:
                op.run()
            except Exception:  # failures are counted by the measuring run
                pass
    print(_peak_anonymous_mb())


def _peak_anonymous_mb() -> float:
    """Peak resident set less the file-backed pages resident at the end.

    File-backed pages are mostly shared-library text, and whether the host's
    page cache holds those as 2 MB pages changes the resident size by up to
    26 MB from one run to the next; the rest is what the process allocated.
    """
    status = dict(line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines())
    peak_kb = float(status["VmHWM"].split()[0])
    file_kb = float(status["RssFile"].split()[0])
    return (peak_kb - file_kb) / 1024.0


def _spawn(kind: str, workload: str, seed: int) -> list:
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", kind, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"child {kind} failed: {proc.stderr.strip()}")
    return [float(v) for v in proc.stdout.split()]


def _startup_seconds(kind: str, workload: str, seed: int, count: int) -> tuple[float, float]:
    """Median (normalised, measured) seconds from process start to the child's stamp."""
    import calibrate

    _spawn(kind, workload, seed)  # discarded: fills the page cache
    normalised, measured = [], []
    for _ in range(count):
        before = calibrate.sample()
        start = _now()
        stamp, after = _spawn(kind, workload, seed)
        measured.append(stamp - start)
        normalised.append((stamp - start) * calibrate.factor(before, after))
    return statistics.median(normalised), statistics.median(measured)


# ---------------------------------------------------------------------------
# The measuring loop


class Measurement:
    """Per-operation records of one run, split into untraced and traced rounds."""

    def __init__(self):
        self.labels: list = []
        self.seconds = {False: [], True: []}  # normalised
        self.measured = {False: [], True: []}  # wall clock
        self.factors: dict = {}  # operation id -> normalisation factor
        self.completed = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def timed(self, traced: bool) -> float:
        return sum(self.seconds[traced])

    def throughput(self, traced: bool) -> float:
        return self.completed[traced] / self.timed(traced)


def _execute(op, tracer, m: Measurement) -> None:
    import calibrate

    traced = tracer is not None
    m.attempted += 1
    m.labels.append(op.label)
    before = calibrate.sample()
    if traced:
        tracer.op_id = m.attempted
        tracer.recording = True
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # the loop must go on; the failure is counted
        error = exc
    elapsed = time.perf_counter() - start
    if traced:
        tracer.recording = False
    scale = calibrate.factor(before, calibrate.sample())
    m.factors[m.attempted] = scale
    m.seconds[traced].append(elapsed * scale)
    m.measured[traced].append(elapsed)
    if error is not None:
        m.failed += 1
        if op.kind != "so3_probe":
            print(f"failed: {op.label}", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr, limit=3)
        return
    problems = op.check(out)
    if problems:
        m.wrong += 1
        print(f"wrong: {op.label}: {problems}", file=sys.stderr)
    else:
        m.completed[traced] += 1


def measure(workload: str, seed: int, seconds: float, ctx, tracer=None, smoke=False, max_rounds=None) -> Measurement:
    """Run whole rounds until ``seconds`` of normalised operation time and MIN_OPS operations.

    Unless ``smoke``, a warm-up (one operation of each kind, drawn from a
    separate seed stream so the measured Jacobi exponents stay cold) runs
    first, untimed.  With a tracer, odd rounds are traced and even ones are
    not, and the run ends on a traced round.
    """
    import workloads

    pick = workloads.smoke_subset if smoke else list
    warmup = [] if smoke else workloads.build_round(workload, seed, workloads.WARMUP_ROUND, ctx)
    for op in workloads.smoke_subset(warmup):
        try:
            op.run()
        except Exception:
            pass
    m = Measurement()
    wall0 = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in pick(workloads.build_round(workload, seed, rounds, ctx)):
                _execute(op, tracer if traced else None, m)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if tracer is not None and rounds % 2:
            continue
        if max_rounds is not None:
            if rounds >= max_rounds:
                break
            continue
        enough = m.timed(False) + m.timed(True) >= seconds and m.attempted >= (0 if smoke else MIN_OPS)
        if enough or time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    return m


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the i-th weighted by the mass a
    Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n].  Rounds of
    fixed make-up repeat the same few operation costs, and a plain order
    statistic jumps between neighbouring ones from run to run; this estimate
    moves smoothly.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def _percentiles(values) -> tuple[float, float]:
    ms = [v * 1e3 for v in values]
    return harrell_davis(ms, 0.5), harrell_davis(ms, 0.9)


def _end_to_end(m: Measurement, workload: str, seed: int) -> dict:
    p50, p90 = _percentiles(m.seconds[False])
    setup, setup_measured = _startup_seconds("setup", workload, seed, SETUP_SPAWNS)
    values = {
        "throughput_rps": m.throughput(False),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": setup,
        "peak_rss_mb": _spawn("rss", workload, seed)[0],
    }
    raw50, raw90 = _percentiles(m.measured[False])
    print(
        f"measured: throughput_rps {m.completed[False] / sum(m.measured[False]):.4g} "
        f"latency_p50_ms {raw50:.4g} latency_p90_ms {raw90:.4g} setup_s {setup_measured:.4g} "
        f"(normalisation factor {m.timed(False) / sum(m.measured[False]):.3f})",
        file=sys.stderr,
    )
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def _per_layer(m: Measurement, tracer, workload: str, seed: int, smoke: bool) -> dict:
    import_s, _ = _startup_seconds("import", workload, seed, 1 if smoke else IMPORT_SPAWNS)
    untraced, traced = m.throughput(False), m.throughput(True)
    overhead = 100.0 * (untraced - traced) / untraced
    return tracer.metrics(m.completed[True], m.factors, import_s, overhead)


def _parse(argv):
    parser = argparse.ArgumentParser(description="nhsteer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation of each kind, no timing figures")
    parser.add_argument("--child", choices=("setup", "import", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        _child(args.child, args.workload, args.seed)
        return 0
    _import_package()
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    with _OutDir() as ctx:
        m = measure(
            args.workload,
            args.seed,
            args.seconds,
            ctx,
            tracer=tracer,
            smoke=args.smoke,
            max_rounds=(2 if args.trace else 1) if args.smoke else None,
        )
    if tracer is not None:
        metrics = _per_layer(m, tracer, args.workload, args.seed, args.smoke)
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    else:
        metrics = {} if args.smoke else _end_to_end(m, args.workload, args.seed)
    print(json.dumps({"correct": m.wrong == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
