"""Self-test of the benchmark: the traced run wraps what it claims, its
self times account for the whole body, its counts repeat exactly, the
bypass predictions hold, and the output checks catch a wrong number but
accept an added column.

Usage (from the repository root; under a minute)::

    python3 bench/selftest.py

Exits 0 when every check passes and 1 otherwise, printing one line per check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import checks
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent

#: Functions each workload must call (traced calls > 0).
EXPECTED_CALLS = {
    "sweep": (
        "materials.surface_plasma_frequency", "dispersion.solve_k", "dispersion.solve_omega",
        "modes.four_layer_solve", "modes.overlap_integral", "modes.profile_norm", "modes.lrspp_profile",
        "coupling.optimize_d2", "datasets.to_csv", "config.validate_config", "cli.run",
    ),
    "curves": (
        "materials.surface_plasma_frequency", "dispersion.solve_k", "dispersion.solve_omega",
        "dispersion.complex_wavenumber", "dispersion.group_velocity",
        "datasets.to_csv", "config.validate_config", "cli.run",
    ),
    "chain": (
        "materials.surface_plasma_frequency", "dispersion.solve_k", "dispersion.solve_omega",
        "dispersion.complex_wavenumber", "modes.four_layer_solve", "modes.overlap_integral",
        "modes.profile_norm", "modes.lrspp_profile", "coupling.optimize_d2",
        "statetransfer.propagate_cat", "datasets.to_csv", "config.validate_config", "cli.run",
    ),
    "cat-phase": (
        "statetransfer.propagate_cat", "fock.cat_mode_after_transfer", "fock.amplitude_damping_kraus",
        "fock.apply_channel", "fock.vn_entropy",
    ),
}
#: Layers each workload must not reach (bypass predictions).
BYPASSED = {
    "sweep": ("fock",),
    "curves": ("modes", "fock"),
    "chain": ("fock",),
    "cat-phase": ("modes",),
}

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_bindings() -> None:
    """Every module binding of a wrapped function is patched, then restored."""
    workloads.import_lrspp()
    import lrspp
    from lrspp import cli, config, coupling, dispersion

    original = dispersion.solve_k
    tracer = spans.Tracer()
    with tracer:
        expect(set(run.TRACED) <= set(tracer.wrapped), "every reported function is wrapped")
        wrapped_k = tracer.wrapped["dispersion.solve_k"]
        expect(
            all(m.solve_k is wrapped_k for m in (lrspp, dispersion, coupling, cli)),
            "solve_k is patched in lrspp, dispersion, coupling and cli",
        )
        wrapped_spf = tracer.wrapped["materials.surface_plasma_frequency"]
        expect(
            dispersion.surface_plasma_frequency is wrapped_spf and config.surface_plasma_frequency is wrapped_spf,
            "surface_plasma_frequency is patched in dispersion and config",
        )
    expect(dispersion.solve_k is original and coupling.solve_k is original, "uninstall restores the originals")


def check_output_checks() -> None:
    """The reference comparison ignores an added column but not a wrong value."""
    runner = workloads.setup("sweep", 0)
    ok, text = runner.run_op(runner.ops[0])
    ref = checks.load_reference("sweep")
    (table,) = checks.tables_of("sweep", runner.ops, [text])
    g = table.index["g_tilde"]
    row = next(i for i, r in enumerate(table.rows) if r[g] is not None)

    widened = checks.Table(table.columns + ["reason"], [r + ["ok"] for r in table.rows])
    expect(checks.compare_reference("sweep", [widened], ref)[0] == set(), "an added reason column passes")

    table.rows[row][g] += 1e-6
    expect(checks.compare_reference("sweep", [table], ref)[0] == {0}, "a g~ off by 1e-6 fails")
    table.rows[row][g] = None
    expect(checks.compare_reference("sweep", [table], ref)[0] == {0}, "a new NA cell fails")


def check_chain_rows() -> None:
    """A wrong number in a chain row that the reference does not store fails."""
    runner = workloads.setup("chain", 0)
    outputs = [runner.run_op(op)[1] for op in runner.ops]
    tables = checks.tables_of("chain", runner.ops, outputs)
    expect(checks.check("chain", 0, runner.ops, outputs, runner.lrspp.SILVER)[0] == set(), "chain: outputs pass")
    expect(checks.load_reference("chain")["tables"][0]["stride"] > 1, "chain: propagate rows are sampled")
    m = tables[0].index["m_tilde"]
    tables[0].rows[1][m] *= 1.0 + 1e-6
    failed, _ = checks.check_invariants("chain", tables, runner.ops, runner.lrspp.SILVER)
    expect(0 in failed, "chain: an unstored m~ off by 1e-6 fails")


def check_self_time(workload: str) -> None:
    """Every root span of a traced body is a reported function, the reported
    self times add up to the root spans, and the ops' entry spans cover the body."""
    runner = workloads.setup(workload, 0)
    tracer = spans.Tracer()
    with tracer:
        body = run.Body(runner)
    roots = [(name, end - start) for _, parent, name, start, end, _ in tracer.spans if parent == -1]
    unreported = {name for name, _ in roots} - set(run.TRACED)
    expect(not unreported, f"{workload}: every root span is reported {unreported or ''}")
    root_s = math.fsum(t for _, t in roots)
    self_s = math.fsum(spans.self_times(tracer.spans, set(run.TRACED)).values())
    expect(
        abs(self_s - root_s) <= 1e-9 * root_s,
        f"{workload}: summed self_s {self_s:.4f} s = summed root spans {root_s:.4f} s",
    )
    entry = "statetransfer.propagate_cat" if workload == "cat-phase" else "cli.run"
    entry_s = math.fsum(t for name, t in roots if name == entry)
    expect(
        0.9 * body.wall <= entry_s <= body.wall,
        f"{workload}: {entry} spans cover {entry_s / body.wall:.1%} of the traced body",
    )


def main() -> int:
    check_bindings()
    check_output_checks()
    check_chain_rows()
    for workload in workloads.WORKLOADS:
        check_self_time(workload)
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for res in (first, second):
            expect(res["correct"] and res["failed"] == 0, f"{workload}: traced run correct")
        values = {m: v["value"] for m, v in first["metrics"].items()}
        counts = [m for m in values if run.is_count(m)]
        differ = [m for m in counts if second["metrics"][m]["value"] != values[m]]
        expect(not differ, f"{workload}: {len(counts)} counts repeat exactly {differ or ''}")
        missing = [f for f in EXPECTED_CALLS[workload] if values[f"{f}.calls"] <= 0]
        expect(not missing, f"{workload}: predicted spans have calls > 0 {missing or ''}")
        reached = [
            m for m in values
            if m.endswith(".calls") and m.split(".")[0] in BYPASSED[workload] and values[m] != 0
        ]
        expect(not reached, f"{workload}: no calls into {', '.join(BYPASSED[workload])} {reached or ''}")
        expect("trace.overhead_share" in values, f"{workload}: trace.overhead_share reported")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
