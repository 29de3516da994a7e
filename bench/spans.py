"""In-memory span tracing of lrspp's public functions, from outside the library.

``Tracer.install`` wraps every public function defined in the layer
modules (``materials`` through ``cli``), except the two listed in
``UNTRACED``, and rebinds *every* module-level
name that refers to it in any loaded ``lrspp`` module.  ``solve_k`` for
example is bound separately in ``lrspp``, ``lrspp.dispersion``,
``lrspp.coupling`` and ``lrspp.cli``; a call through any of them is seen.
``install`` checks afterwards that no loaded lrspp module still refers to
an unwrapped original.

A span is ``(id, parent_id, name, start, end, value)``.  The parent is the
innermost open span of the same thread; spans opened in a worker thread
of ``coupling.optimize_path`` start a tree of their own.  Self time is
taken over a chosen set of *reported* functions: a reported span's
duration minus the durations of the reported spans nested in it with no
reported span between.  The time of an unreported span (``build_parser``
under ``cli.run``, say) thus counts to its nearest reported ancestor, and
the self times of one body add up to the durations of its root spans.
``value`` carries one number per call for the functions in ``VALUES`` (a
flag or a byte count), from which the derived per-layer counters are
computed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "materials", "dispersion", "modes", "coupling", "propagation",
    "statetransfer", "fock", "datasets", "config", "cli",
)
#: Scalar permittivity evaluations, called ~200 times per root search: a
#: span costs more than the call, so their time stays in the caller's self time.
UNTRACED = {"materials.eps_lossless", "materials.eps_lossy"}


def _lossy_flag(args, kwargs, result) -> int:
    lossy = kwargs.get("lossy", args[6] if len(args) > 6 else False)
    return int(bool(lossy))


def _kraus_bytes(args, kwargs, result) -> int:
    dim = kwargs.get("dim", args[1] if len(args) > 1 else None)
    return 16 * dim**3  # dim complex128 matrices of dim x dim


#: Per-call values recorded on the span, keyed by qualified function name.
VALUES = {
    "modes.four_layer_solve": _lossy_flag,
    "coupling.optimize_d2": lambda args, kwargs, result: int(result is not None),
    "fock.amplitude_damping_kraus": _kraus_bytes,
    "datasets.to_csv": lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, object] = {}

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn):
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, value))

        return wrapper

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lrspp.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrapper = self._wrap(name, obj)
                self.wrapped[name] = wrapper
                originals[id(obj)] = wrapper
        modules = [m for n, m in list(sys.modules.items()) if n == "lrspp" or n.startswith("lrspp.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for module in modules:
            for attr, obj in vars(module).items():
                if id(obj) in originals:
                    raise RuntimeError(f"{module.__name__}.{attr} still bound to the unwrapped function")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[tuple], reported=None) -> dict[str, float]:
    """Self time per reported function name (every name if ``reported`` is
    None); an unreported span's time counts to its nearest reported ancestor."""
    name_of = {sid: name for sid, _, name, _, _, _ in spans}
    if reported is None:
        reported = set(name_of.values())
    owner: dict[int, int] = {}  # nearest reported ancestor, -1 for none
    child_time: dict[int, float] = defaultdict(float)
    # A parent ends, and is appended, after its children: walking the list
    # backwards meets every parent before its children.
    for sid, parent, name, start, end, _ in reversed(spans):
        owner[sid] = parent if parent == -1 or name_of[parent] in reported else owner[parent]
        if name in reported:
            child_time[owner[sid]] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        if name in reported:
            out[name] += (end - start) - child_time[sid]
    return out


def summarize(spans: list[tuple], names) -> dict[str, float]:
    """Per-function ``calls`` and ``self_s`` plus the derived counters."""
    self_s = self_times(spans, set(names))
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    for sid, parent, name, _, _, _ in spans:
        parent_of[sid] = parent
        name_of[sid] = name
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, float] = defaultdict(float)
    lossy_in_optimize = 0
    for sid, parent, name, start, end, value in spans:
        calls[name] += 1
        if value is not None:
            values[name] += value
        if name == "modes.four_layer_solve" and value:
            p = parent
            while p != -1 and name_of.get(p) != "coupling.optimize_d2":
                p = parent_of.get(p, -1)
            lossy_in_optimize += p != -1
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    n_opt = calls["coupling.optimize_d2"]
    out["coupling.optimize_d2.feasible_ratio"] = values["coupling.optimize_d2"] / n_opt if n_opt else 0.0
    out["coupling.beta_evals_per_cell"] = lossy_in_optimize / n_opt if n_opt else 0.0
    out["fock.kraus_bytes"] = values["fock.amplitude_damping_kraus"]
    out["datasets.to_csv.bytes"] = values["datasets.to_csv"]
    return out


def layer_self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per layer, every wrapped function counted."""
    out: dict[str, float] = defaultdict(float)
    for name, t in self_times(spans).items():
        out[name.split(".")[0]] += t
    return out
