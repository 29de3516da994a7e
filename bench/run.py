"""lrspp benchmark: one workload, one run, metrics as JSON on the last line.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` (sweep, curves, chain,
cat-phase).  The library is imported from ``src/``; nothing is installed.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the time until lrspp is
  imported, the workload's config validated and warm-up done;
* ``wall_s``: median wall time of one body (every op of the workload once);
* ``work_per_s``: the workload's work units per second of ``wall_s``;
* ``op_p50_ms`` / ``op_p90_ms``: latency of one op (one CLI invocation or
  one library call): percentiles over the workload's ops of each op's
  median latency in the run;
* ``peak_rss_mb``: peak resident memory of this process.

Times are scaled to the reference host speed: each is multiplied by
``CALIBRATION_REF_S`` over the time of a fixed pure-Python loop
(``workloads.calibrate``) run next to it, once before every body and in
every set-up probe.  The unscaled figures are printed on ``#`` lines.

``--trace 1`` alternates untraced and traced bodies and reports the
per-layer metrics of ``spans.py``: calls of one body (exact counts),
median self time per body, and ``trace.overhead_share``.  A ``#`` line
gives each layer's share of the summed self time of every wrapped function.

Outputs are checked on every run (``checks.py``); an op fails on a nonzero
exit code, an exception, a failed check, or output that differs from the
first body's.  ``failed`` / ``attempted`` is the failed share.

``--record-reference SOURCE`` instead runs one body at seed 0 and writes
``reference/<workload>.json``, labelled with SOURCE (the commit measured).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Functions whose calls and self time are reported by the traced run.
TRACED = (
    "materials.surface_plasma_frequency",
    "dispersion.solve_k",
    "dispersion.solve_omega",
    "dispersion.complex_wavenumber",
    "dispersion.group_velocity",
    "modes.four_layer_solve",
    "modes.overlap_integral",
    "modes.profile_norm",
    "modes.lrspp_profile",
    "coupling.optimize_d2",
    "propagation.mean_count",
    "statetransfer.propagate_cat",
    "fock.cat_mode_after_transfer",
    "fock.amplitude_damping_kraus",
    "fock.apply_channel",
    "fock.vn_entropy",
    "datasets.to_csv",
    "config.validate_config",
    "cli.run",
)
DERIVED_UNITS = {
    "coupling.optimize_d2.feasible_ratio": "ratio",
    "coupling.beta_evals_per_cell": "evals/cell",
    "fock.kraus_bytes": "B-computed",
    "datasets.to_csv.bytes": "B",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def is_count(metric: str) -> bool:
    """Per-layer metrics that must repeat exactly between runs: all but times."""
    return not metric.endswith(".self_s") and metric != "trace.overhead_share"


class Body:
    """Latencies, outputs and wall time of one pass over the ops."""

    def __init__(self, runner: workloads.Runner):
        self.latencies: list[float] = []
        self.outputs: list = []
        self.errors: dict[int, str] = {}
        clock = time.perf_counter
        gc.collect()  # start every body from the same heap state
        self.calibration = workloads.calibrate()
        start = clock()
        for i, op in enumerate(runner.ops):
            t0 = clock()
            try:
                ok, out = runner.run_op(op)
            except Exception as exc:  # any escaped exception fails the op, the run goes on
                ok, out = False, f"{type(exc).__name__}: {exc}"
            self.latencies.append(clock() - t0)
            self.outputs.append(out)
            if not ok:
                self.errors[i] = str(out)
        self.wall = clock() - start
        self.digests = [hashlib.sha256(repr(o).encode()).hexdigest() for o in self.outputs]


class Verifier:
    """Checks the first body in full and every later body against it."""

    def __init__(self, runner: workloads.Runner):
        self.runner = runner
        self.first: Body | None = None
        self.failed_ops = 0
        self.messages: list[str] = []

    def __call__(self, body: Body) -> None:
        bad = set(body.errors)
        self.messages += [f"op {i} failed: {e}" for i, e in body.errors.items()]
        if self.first is None:
            self.first = body
        else:
            changed = {i for i, (a, b) in enumerate(zip(body.digests, self.first.digests)) if a != b}
            self.messages += [f"op {i} output differs from the first body" for i in sorted(changed - bad)]
            bad |= changed
            body.outputs = None  # only digests are kept, so memory does not grow with the run
        self.failed_ops += len(bad)

    def check_first(self) -> None:
        """Full output checks on the first body; run after the measurement
        so the checker's memory and time stay out of it."""
        r, body = self.runner, self.first
        if body.errors:
            return
        failed, messages = checks.check(r.workload.name, r.seed, r.ops, body.outputs, r.lrspp.SILVER)
        self.failed_ops += len(failed)
        self.messages += messages


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall time from spawning a fresh interpreter to its ready line,
    calibration time measured by that interpreter) per probe."""
    probes = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=workloads.ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        probes.append((elapsed, float(out)))
    return probes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 < q < 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_untraced(runner, verify, seconds: float, setup_probes: list[tuple[float, float]]):
    bodies = []
    start = time.perf_counter()
    while not bodies or time.perf_counter() - start < seconds:
        body = Body(runner)
        verify(body)
        bodies.append(body)
    # Each op's typical latency is its median over the bodies; the
    # percentiles are taken over the ops, so they do not depend on how many
    # bodies fit into the run.
    per_op = [statistics.median(b.latencies[i] for b in bodies) for i in range(len(runner.ops))]
    wall = statistics.median(b.wall for b in bodies)
    calibration = statistics.median(b.calibration for b in bodies)
    scale = workloads.CALIBRATION_REF_S / calibration
    setup = statistics.median(t * workloads.CALIBRATION_REF_S / c for t, c in setup_probes)
    units = runner.workload.work_units(runner.ops, verify.first.outputs)
    metrics = {
        "setup_s": setup,
        "wall_s": wall * scale,
        "work_per_s": units / (wall * scale),
        "op_p50_ms": 1e3 * statistics.median(per_op) * scale,
        "op_p90_ms": 1e3 * percentile(per_op, 0.9) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"bodies: {len(bodies)}, ops per body: {len(per_op)}, work units per body: {units} "
        f"({runner.workload.work_unit})",
        f"unscaled: wall_s = {wall!r}, setup_s = {statistics.median(t for t, _ in setup_probes)!r} "
        f"({len(setup_probes)} probes); calibration {1e3 * calibration:.3f} ms, "
        f"reference {1e3 * workloads.CALIBRATION_REF_S} ms, scale {scale:.4f}",
    ]
    return metrics, len(bodies) * len(per_op), notes, True


def run_traced(runner, verify, seconds: float):
    plain, traced, summaries = [], [], []
    layers: dict[str, float] = defaultdict(float)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        body = Body(runner)
        verify(body)
        plain.append(body)
        tracer = spans.Tracer()
        with tracer:
            body = Body(runner)
        verify(body)
        traced.append(body)
        summaries.append(spans.summarize(tracer.spans, TRACED))
        for layer, t in spans.layer_self_times(tracer.spans).items():
            layers[layer] += t
    first = summaries[0]
    repeat = all(s[m] == first[m] for s in summaries for m in first if is_count(m))
    metrics = {m: (statistics.median(s[m] for s in summaries) if m.endswith(".self_s") else first[m]) for m in first}
    metrics["trace.overhead_share"] = (
        statistics.median(b.wall for b in traced) / statistics.median(b.wall for b in plain) - 1.0
    )
    total = sum(layers.values())
    shares = ", ".join(f"{layer} {t / total:.3f}" for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]))
    notes = [
        f"untraced bodies: {len(plain)}, traced bodies: {len(traced)}, counts repeat: {repeat}",
        f"layer shares of self time: {shares}",
    ]
    attempted = sum(len(b.latencies) for b in plain + traced)
    return metrics, attempted, notes, repeat


def record_reference(runner, source: str) -> None:
    body = Body(runner)
    if body.errors:
        raise RuntimeError(f"ops failed while recording: {body.errors}")
    name = runner.workload.name
    tables = checks.tables_of(name, runner.ops, body.outputs)
    failed, messages = checks.check_invariants(name, tables, runner.ops, runner.lrspp.SILVER)
    if failed:
        raise RuntimeError("invariants fail on the recorded outputs:\n" + "\n".join(messages))
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    path = checks.REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checks.record_reference(name, tables, source), fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", metavar="SOURCE")
    args = p.parse_args(argv)
    try:
        workloads.import_lrspp()
        setup_probes = [] if args.trace or args.record_reference else measure_setup(args.workload, args.seed)
        runner = workloads.setup(args.workload, args.seed)
    except (ImportError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(runner, args.record_reference)
        return 0
    verify = Verifier(runner)
    if args.trace:
        metrics, attempted, notes, repeat = run_traced(runner, verify, args.seconds)
        units = per_layer_units()
    else:
        metrics, attempted, notes, repeat = run_untraced(runner, verify, args.seconds, setup_probes)
        units = END_TO_END_UNITS
    verify.check_first()
    for line in notes + verify.messages[:20]:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": verify.failed_ops == 0 and repeat,
        "attempted": attempted,
        "failed": verify.failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
