"""The four benchmark workloads and the seeded inputs they run on.

Each workload is a list of *ops*: one ``lrspp.cli.run`` invocation or one
public library call.  A *body* runs every op of the workload once, in
order; the runner repeats bodies for the measuring window.

Seed 0 runs the recorded grids.  Any other seed shifts the frequency,
thickness, wavevector and cat-amplitude grids by a seeded fraction of one
grid step, so a claim can be rechecked on inputs its author did not tune
on.  The program only ever sees the generated argv or call arguments.

The library is imported from ``src/`` of the checkout this file lives in,
never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_lrspp():
    """Import lrspp from this checkout's ``src/``; raise ImportError otherwise."""
    if not (SRC / "lrspp" / "__init__.py").is_file():
        raise ImportError(f"no lrspp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lrspp

    if Path(lrspp.__file__).resolve().parent != (SRC / "lrspp").resolve():
        raise ImportError(f"lrspp imported from {lrspp.__file__}, not from {SRC}")
    return lrspp


@dataclass(frozen=True)
class Offsets:
    """Sub-step grid offsets, each a fraction in [0, 1) of one grid step."""

    omega: float
    d1: float
    k: float
    alpha: float

    @classmethod
    def from_seed(cls, seed: int) -> "Offsets":
        if seed == 0:
            return cls(0.0, 0.0, 0.0, 0.0)
        rng = random.Random(seed)
        return cls(rng.random(), rng.random(), rng.random(), rng.random())


def _grid(lo: float, hi: float, steps: int, shift: float) -> tuple[float, float, int]:
    """(lo, hi, steps) moved up by ``shift`` grid steps."""
    delta = shift * (hi - lo) / (steps - 1)
    return lo + delta, hi + delta, steps


def _grid_flags(name: str, grid: tuple[float, float, int], nm: bool = False) -> list[str]:
    lo, hi, steps = grid
    unit = "-nm" if nm else ""
    return [f"--{name}-min{unit}", repr(lo), f"--{name}-max{unit}", repr(hi), f"--{name}-steps", str(steps)]


# Frequency window shared by the CLI workloads: inside the bound band of
# the default silver model with one grid step of headroom below the
# surface-mode limit (5.5088e15 rad/s), so no seed triggers the clip.
_OMEGA = (2.2e15, 5.2e15)
_D1_NM = (10.0, 100.0)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str

    def ops(self, seed: int) -> list:
        raise NotImplementedError

    def warmup_ops(self, ops: list) -> list:
        """Small ops, taken from the workload's own, that touch every layer
        it uses."""
        raise NotImplementedError

    def work_units(self, ops: list, outputs: list) -> int:
        """Work units of one body, counted from its ops and outputs."""
        return sum(_data_rows(text) for text in outputs)


def _data_rows(csv_text: str) -> int:
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    return max(len(lines) - 1, 0)


def _shrunk(argv: list[str]) -> list[str]:
    """``argv`` with every grid cut to two points, at one thread.

    ``lrspp.cli.run`` validates the op's own ranges and options at a small
    fraction of its cost.  One thread, because the pool is built per
    invocation: a warm-up pool would only add GIL hand-off jitter to setup_s.
    """
    out = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg.endswith("-steps"):
            out[i + 1] = "2"
        elif arg == "--threads":
            out[i + 1] = "1"
    return out


class CliWorkload(Workload):
    """Ops are argv lists for ``lrspp.cli.run``; outputs are CSV text."""

    def warmup_ops(self, ops: list) -> list:
        """The first op of each subcommand, shrunk."""
        first: dict[str, list[str]] = {}
        for op in ops:
            first.setdefault(op[0], op)
        return [_shrunk(op) for op in first.values()]

    @staticmethod
    def run_op(lrspp_cli, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lrspp_cli.run(argv)
        return code, out.getvalue(), err.getvalue()


class Sweep(CliWorkload):
    _D1_STEPS = 10
    _OMEGA_STEPS = 20
    _D2_STEPS = 40

    def _grids(self, seed: int):
        off = Offsets.from_seed(seed)
        return (
            _grid(*_OMEGA, self._OMEGA_STEPS, off.omega),
            _grid(*_D1_NM, self._D1_STEPS, off.d1),
        )

    def ops(self, seed: int) -> list:
        omega, d1 = self._grids(seed)
        return [
            ["optimize", "--branch", "both", "--threads", "2"]
            + _grid_flags("omega", omega)
            + _grid_flags("d1", d1, nm=True)
            + ["--d2-steps", str(self._D2_STEPS)]
        ]

    def work_units(self, ops: list, outputs: list) -> int:
        return 2 * self._OMEGA_STEPS * self._D1_STEPS


class Curves(CliWorkload):
    _K = (2e6, 1.8e7, 100)
    _ANGLE_D1_NM = (10.0, 105.0, 20)
    _ANGLE_OMEGA_STEPS = 60

    def ops(self, seed: int) -> list:
        off = Offsets.from_seed(seed)
        d1_step = (self._ANGLE_D1_NM[1] - self._ANGLE_D1_NM[0]) / (self._ANGLE_D1_NM[2] - 1)
        k = _grid(*self._K, off.k)
        ops = [
            ["dispersion", "--branch", "both", "--threads", "1", "--d1-nm", repr(d1 + off.d1 * d1_step)]
            + _grid_flags("k", k)
            for d1 in (20.0, 100.0)
        ]
        omega = _grid(*_OMEGA, self._ANGLE_OMEGA_STEPS, off.omega)
        lo, _, steps = _grid(*self._ANGLE_D1_NM, off.d1)
        for i in range(steps):
            ops.append(
                ["angle", "--branch", "both", "--threads", "1", "--d1-nm", repr(lo + i * d1_step)]
                + _grid_flags("omega", omega)
            )
        return ops


class Chain(CliWorkload):
    # A window where both branches couple on every seed's grid (checked on
    # seeds 0-199): a frequency that turns NA on some seeds would drop half
    # of a branch's rows.  Few coupling cells and a long x grid, so the
    # per-row emission carries the work.
    _OMEGA = (3.0e15, 3.6e15)
    _D1_NM = (15.0, 45.0)
    _OMEGA_STEPS = 2
    _D1_STEPS = 4
    _D2_STEPS = 20
    _X = ("0.0", "2e-05", "3000")
    _ALPHAS = (1.0, 1.5, 2.0, 3.0, 5.0)
    _ALPHA_STEP = 0.5

    def _args(self, seed: int) -> list[str]:
        off = Offsets.from_seed(seed)
        return (
            ["--threads", "1"]
            + _grid_flags("omega", _grid(*self._OMEGA, self._OMEGA_STEPS, off.omega))
            + _grid_flags("d1", _grid(*self._D1_NM, self._D1_STEPS, off.d1), nm=True)
            + ["--d2-steps", str(self._D2_STEPS)]
            + ["--x-min", self._X[0], "--x-max", self._X[1], "--x-steps", self._X[2]]
        )

    def alphas(self, seed: int) -> list[float]:
        shift = Offsets.from_seed(seed).alpha * self._ALPHA_STEP
        return [a + shift for a in self._ALPHAS]

    def ops(self, seed: int) -> list:
        # cat-entropy runs once per branch, which repeats no work, so the
        # op latencies are not split evenly between two kinds of op.
        grid = self._args(seed)
        alphas = ",".join(repr(a) for a in self.alphas(seed))
        return [["propagate", "--branch", "both"] + grid] + [
            ["cat-entropy", "--branch", branch] + grid + ["--alphas", alphas] for branch in ("plus", "minus")
        ]


@dataclass(frozen=True)
class CatCall:
    alpha: float
    phi: float
    g: float
    kappa0: float
    x: float


class CatPhase(Workload):
    """Ops are ``statetransfer.propagate_cat`` calls at phases other than 0,
    the only route into the number-basis ``fock`` layer."""

    # Conversion angle and loss constant of a well-coupled long-range mode
    # (g~ = 0.9); the two distances leave 82% and 14% of the intensity.
    G = 0.9 * math.pi / 2.0
    KAPPA0 = 2e4
    _X = (5e-6, 5e-5)
    _PHIS = (math.pi / 2.0, math.pi)
    _ALPHA = (1.0, 0.5, 15)  # first, step, count
    # Cost per state grows about as alpha^4 (dim^4 with dim ~ alpha^2), so a
    # full-step shift would change the work per body by up to a third; the
    # seeded offset moves alpha by at most a fifth of a step.
    _ALPHA_SHIFT = 0.1

    def ops(self, seed: int) -> list:
        first, step, count = self._ALPHA
        shift = Offsets.from_seed(seed).alpha * self._ALPHA_SHIFT
        return [
            CatCall(first + i * step + shift, phi, self.G, self.KAPPA0, x)
            for i in range(count)
            for phi in self._PHIS
            for x in self._X
        ]

    def warmup_ops(self, ops: list) -> list:
        """The middle op (alpha about 4.5): a mid-sized number basis."""
        return [ops[len(ops) // 2]]

    @staticmethod
    def run_op(statetransfer, call: CatCall):
        cat = statetransfer.CatState(call.alpha, call.phi)
        d = statetransfer.propagate_cat(cat, call.g, call.kappa0, call.x)
        return (d.lambda_plus, d.lambda_minus, d.entropy, d.a_eff, d.offdiag)

    def work_units(self, ops: list, outputs: list) -> int:
        return len(ops)


# Why each workload was chosen, and the layers it loads, is in BENCHMARK.json
# and MANIFEST.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Sweep("sweep", "(branch, omega, d1) optimisation cells"),
        Curves("curves", "dataset rows"),
        Chain("chain", "dataset rows"),
        CatPhase("cat-phase", "cat states"),
    )
}


class Runner:
    """Runs one workload's ops against the imported library."""

    def __init__(self, workload: Workload, seed: int):
        self.lrspp = import_lrspp()
        from lrspp import cli, config, statetransfer

        self.cli, self.configmod, self.statetransfer = cli, config, statetransfer
        self.workload = workload
        self.seed = seed
        self.ops = workload.ops(seed)

    def run_op(self, op):
        """Run one op; return (ok, output).  Output is CSV text or a tuple."""
        if isinstance(op, CatCall):
            return True, CatPhase.run_op(self.statetransfer, op)
        code, out, err = CliWorkload.run_op(self.cli, op)
        return code == 0, out if code == 0 else f"exit {code}: {err.strip()}"

    def warm_up(self) -> None:
        """Validate the configuration and finish lazy set-up: first
        numpy.linalg call and the workload's warm-up ops, so the measured
        bodies see a warm process.  A CLI warm-up op validates its own
        configuration inside ``cli.run``; cat-phase has no CLI, so its
        amplitudes go through ``lrspp.config`` here."""
        import numpy as np

        if isinstance(self.workload, CatPhase):
            alphas = sorted({op.alpha for op in self.ops})
            self.configmod.validate_config(self.configmod.config_from_dict({"alphas": alphas}))
        np.linalg.eigvalsh(np.eye(2))
        for op in self.workload.warmup_ops(self.ops):
            ok, out = self.run_op(op)
            if not ok:
                raise RuntimeError(f"warm-up op failed: {out}")


#: Median time of ``calibrate`` on the reference host (2-vCPU Xeon VM,
#: Python 3.11) in its usual state.  Timings are reported scaled by
#: CALIBRATION_REF_S / (calibration time measured in the same run).
CALIBRATION_REF_S = 0.007


def calibrate(iterations: int = 40000) -> float:
    """Seconds taken by a fixed pure-Python loop.

    The host this benchmark was built on runs the same code up to a third
    faster or slower for minutes at a time (shared CPUs).  lrspp is
    interpreter-bound like this loop, so timing the loop next to the
    workload measures the host's current speed, and dividing by it removes
    that drift from the reported times.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        acc += math.sqrt(i + 1.0) * (1 if i & 1 else -1)
    return time.perf_counter() - start


def setup(workload_name: str, seed: int) -> Runner:
    """Everything ``setup_s`` measures after interpreter start."""
    runner = Runner(WORKLOADS[workload_name], seed)
    runner.warm_up()
    return runner


if __name__ == "__main__":
    # Fresh-interpreter set-up probe for setup_s: python3 bench/workloads.py WORKLOAD SEED
    # prints "ready" when set up, then the host's calibration time.
    setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
    print(statistics.median(calibrate() for _ in range(5)), flush=True)
