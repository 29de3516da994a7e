"""Run configuration: one table of parameters drives the CLI flags, the JSON
config keys and their validation.

All values are SI (meters, rad/s, rad/m).  A flag ending in ``-nm`` takes
nanometers and is scaled on the way in.  Defaults reproduce the reference
setup: prism eps1 = 1.51, wavepacket bandwidth 3.02e13 rad/s, detector
efficiency 0.65, frequency window [2e15, 5.4e15] rad/s, strip thickness
10-100 nm and prism gap 50 nm - 3 um.

A value comes from the first of: its flag, the ``--config`` JSON file,
the default.  A command takes only the parameters it reads (the
``commands`` of their PARAMS rows); a config-file key of another command
must be known and of its type, and is otherwise ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import re
from dataclasses import dataclass, field, fields, make_dataclass, replace
from typing import Any, Callable, NamedTuple

from .coupling import DEFAULT_DELTA_OMEGA, DEFAULT_EPS_PRISM
from .dispersion import OMEGA_WINDOW_TOP, BranchId
from .errors import ConfigError
from .materials import DielectricModel, SILVER, surface_plasma_frequency

#: Meters per nanometer: the scale of every ``-nm`` flag.
NM = 1e-9
#: Integers beyond 2**53 are not exact once a JSON reader takes them as doubles.
_INT_LIMIT = 2**53
_MATERIAL_KEYS = tuple(f.name for f in fields(DielectricModel))
_BRANCH_IDS = {"plus": BranchId.ANTISYMMETRIC, "minus": BranchId.SYMMETRIC}


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int

    def points(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        return [self.lo + (self.hi - self.lo) * i / (self.steps - 1) for i in range(self.steps)]


# Value kinds: each takes a decoded JSON value and returns it typed, or
# raises ValueError (OverflowError for an integer beyond the float range).
# Flag text is first read by the kind's _READERS entry.


def _integer(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or abs(v) > _INT_LIMIT:
        raise ValueError(f"expected an integer of magnitude at most 2**53, got {v!r}")
    return v


def _number(v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _numbers(v: Any) -> tuple[float, ...]:
    if not isinstance(v, list) or not v:
        raise ValueError(f"expected a non-empty list of numbers, got {v!r}")
    return tuple(_number(a) for a in v)


def _text(v: Any) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _material(v: Any) -> DielectricModel:
    """SILVER with the overrides of a JSON object."""
    if not isinstance(v, dict) or not set(v) <= set(_MATERIAL_KEYS):
        raise ValueError(f"expected an object with keys among {', '.join(_MATERIAL_KEYS)}")
    return replace(SILVER, **{key: _number(x) for key, x in v.items() if x is not None})


#: How flag text is read, by kind; lists are comma-separated.
_READERS = {_integer: int, _number: float, _numbers: lambda t: [float(a) for a in t.split(",") if a], _text: str}

# Checks: (predicate on a typed value, the rule it enforces).
_POSITIVE = (lambda v: v > 0.0, "must be positive")
# A frequency whose square underflows to 0 would divide by zero in the permittivity.
_FREQUENCY = (lambda v: v > 0.0 and v * v > 0.0, "must be positive, with a square that does not underflow to 0")
_COUNT = (lambda v: v >= 1, "must be a positive integer")
_STEPS = (lambda v: v >= 2, "needs at least 2 steps")


def _one_of(*options: str):
    return (lambda v: v in options, "must be " + "|".join(options))


class Param(NamedTuple):
    """One run parameter: its JSON key, flag, type, default and check.

    ``name`` is the JSON key (SI units).  The flag is ``--name`` with ``-``
    for ``_`` (``--flag`` when ``flag`` is set), plus ``-nm`` when ``scale``
    is set: the flag then takes nanometers, multiplied by ``scale``.
    ``attr`` is the RunConfig field when it differs from ``name``.  ``check``
    is a (predicate, rule) pair applied to values that are not None.
    ``commands`` lists the subcommands that read the value and take the
    flag (none: the key is JSON only).
    """

    name: str
    kind: Callable[[Any], Any]
    default: Any
    commands: tuple[str, ...]
    check: tuple[Callable[[Any], bool], str] | None = None
    scale: float | None = None
    flag: str | None = None
    attr: str | None = None
    help: str | None = None


def _grid(name: str, lo, hi, steps: int, commands: tuple[str, ...], check=None, scale=None) -> tuple[Param, ...]:
    """The rows <name>_min, <name>_max and <name>_steps of a sampling grid."""
    return (
        Param(f"{name}_min", _number, lo, commands, check, scale),
        Param(f"{name}_max", _number, hi, commands, check, scale),
        Param(f"{name}_steps", _integer, steps, commands, _STEPS),
    )


# Run settings (out, format, threads) go to every command: they never change the rows.
_ALL = ("material", "dispersion", "angle", "field", "constraints", "optimize", "propagate", "g2", "cat-entropy")
_OMEGA_GRID = ("material", "angle", "constraints", "optimize", "propagate", "cat-entropy")
_STRIP_GRIDS = ("constraints", "optimize", "propagate", "cat-entropy")
_BRANCHED = ("dispersion", "angle", "field", *_STRIP_GRIDS)
_X_GRID = ("propagate", "cat-entropy")

PARAMS: tuple[Param, ...] = (
    Param("material", _material, SILVER, ()),
    Param("out", _text, None, _ALL, (lambda v: "\0" not in v, "must not hold a NUL byte"), help="output path (default: stdout)"),
    Param("format", _text, "csv", _ALL, _one_of("csv", "json")),
    Param("threads", _integer, 1, _ALL, _COUNT, help="worker processes for gap searches (default: 1)"),
    Param("branch", _text, "both", _BRANCHED, _one_of(*_BRANCH_IDS, "both")),
    Param("delta_omega", _number, DEFAULT_DELTA_OMEGA, _STRIP_GRIDS, _POSITIVE),
    Param("eps_prism", _number, DEFAULT_EPS_PRISM, ("angle", "field", *_STRIP_GRIDS), (lambda v: v > 1.0, "must exceed 1")),
    Param("mu", _number, 0.65, ("propagate",), (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    *_grid("omega", 2e15, 5.4e15, 120, _OMEGA_GRID, _FREQUENCY),
    *_grid("k", 2e6, 1.8e7, 200, ("dispersion",), _POSITIVE),
    *_grid("d1", 10e-9, 100e-9, 60, _STRIP_GRIDS, _POSITIVE, NM),
    *_grid("d2", 50e-9, 3e-6, 80, _STRIP_GRIDS, _POSITIVE, NM),
    *_grid("x", 0.0, 10e-6, 50, _X_GRID, (lambda v: v >= 0.0, "must be non-negative")),
    # None: the field command spans the profile it samples.
    *_grid("z", None, None, 400, ("field",), None, NM),
    Param("omega", _number, 4e15, ("field",), _FREQUENCY, attr="fixed_omega"),
    Param("d1", _number, 20.0 * NM, ("dispersion", "angle", "field"), _POSITIVE, NM, attr="fixed_d1"),
    Param("d2", _number, None, ("field", "constraints"), _POSITIVE, NM, attr="fixed_d2",
          help="fixed gap; default: 500 nm for field, optimize over the gap grid for constraints"),
    Param("profile", _text, "lrspp", ("field",), _one_of("lrspp", "atr")),
    Param("n_photons", _integer, 1, ("g2",), _COUNT, flag="n"),
    Param("etas", _numbers, (1.0,), ("g2",), help="comma-separated total efficiencies",
          check=(lambda v: all(0.0 < e <= 1.0 for e in v), "efficiencies must lie in (0, 1]")),
    Param("alphas", _numbers, (2.0, 5.0), ("cat-entropy",), help="comma-separated cat amplitudes",
          check=(lambda v: all(a > 0.0 and math.isfinite(2.0 * a * a) for a in v),
                 "amplitudes must be positive, with 2 alpha^2 a finite float")),
)
_BY_NAME = {row.name: row for row in PARAMS}
GRIDS = ("omega", "d1", "d2", "k", "x")


def _grid_spec(name: str) -> property:
    """The fields <name>_min, <name>_max and <name>_steps as one GridSpec."""
    return property(lambda cfg: GridSpec(*(getattr(cfg, f"{name}_{part}") for part in ("min", "max", "steps"))))


def _branches(cfg) -> list[tuple[str, BranchId]]:
    """(name, branch) pairs to run: plus, then minus for 'both'."""
    return [(name, branch) for name, branch in _BRANCH_IDS.items() if cfg.branch in (name, "both")]


RunConfig = make_dataclass(
    "RunConfig",
    [(row.attr or row.name, Any, field(default=row.default)) for row in PARAMS],
    namespace={
        "__doc__": "Resolved run parameters: one field per PARAMS row.",
        "__module__": __name__,
        "branches": _branches,
        **{name: _grid_spec(name) for name in GRIDS},
    },
    frozen=True,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only '-12' and '-1.5' as values; '-4e15' would be taken for an option.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        """Report a malformed command line as one ConfigError, not usage text and exit 2."""
        raise ConfigError(message)


def build_parser(commands: dict[str, str | None], description: str = "") -> argparse.ArgumentParser:
    """One subparser per command with a flag for every PARAMS row naming it.

    Flag values stay text, and a flag that is not given leaves no attribute
    on the parsed namespace; config_from_args reads and checks them.  A
    flag has one spelling, its full name: an abbreviation is an unknown
    flag, so it cannot pass the echo's filter.  Command-line errors raise
    ConfigError.
    """
    parser = _Parser(prog="lrspp", description=description, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in commands.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for row in PARAMS:
            if command in row.commands:
                flag = "--" + (row.flag or row.name).replace("_", "-") + ("-nm" if row.scale else "")
                p.add_argument(flag, dest=row.name, help=row.help or (row.check and row.check[1]))
    return parser


def _read(row: Param, text: str) -> Any:
    """The value of a flag, scaled to SI."""
    try:
        value = _READERS[row.kind](text)
    except ValueError:
        raise ConfigError(f"{row.name}: cannot read {text!r} from the command line") from None
    return value * row.scale if row.scale else value


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags of build_parser laid over the --config file.
    A file key args.command does not take is type checked, then left at its
    default: it is not range checked and clips no grid."""
    raw = load_config_file(args.config) if getattr(args, "config", None) else {}
    for name, text in vars(args).items():
        if name in _BY_NAME:
            raw[name] = _read(_BY_NAME[name], text)
    config_from_dict(raw)
    return config_from_dict({k: v for k, v in raw.items() if k == "material" or args.command in _BY_NAME[k].commands})


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a flat dict of JSON keys (SI units).

    A missing or null key takes its default.  Raises ConfigError naming the
    key for an unknown key or a value of the wrong type; validate_config
    checks the ranges.
    """
    unknown = sorted(str(k) for k in raw if k not in _BY_NAME)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values: dict[str, Any] = {}
    for name, value in raw.items():
        if value is None:
            continue
        row = _BY_NAME[name]
        try:
            values[row.attr or name] = row.kind(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return RunConfig(**values)


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or text that is not UTF-8
        raise ConfigError(f"config: malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config: top level must be a JSON object")
    return payload


def validate_config(cfg: RunConfig, command: str | None = None) -> tuple[RunConfig, list[str]]:
    """Normalize and check a configuration.

    Returns the validated config plus warning records (currently only the
    frequency-grid clip against the surface-mode limit, made only when
    ``command`` samples the omega grid; any command when it is None).
    Raises ConfigError naming the offending key otherwise.
    """
    for row in PARAMS:
        value = getattr(cfg, row.attr or row.name)
        if row.check is not None and value is not None and not row.check[0](value):
            raise ConfigError(f"{row.name}: {row.check[1]}, got {value!r}")
    for name in GRIDS:
        grid: GridSpec = getattr(cfg, name)
        if not grid.lo < grid.hi:
            raise ConfigError(f"{name}: min must be below max, got [{grid.lo!r}, {grid.hi!r}]")

    try:
        w_cap = surface_plasma_frequency(cfg.material) * OMEGA_WINDOW_TOP
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"material: {exc}") from None
    warnings: list[str] = []
    if cfg.omega_max > w_cap and command in (None, *_OMEGA_GRID):
        if not cfg.omega_min < w_cap:
            raise ConfigError("omega: entire grid above the surface-mode limit")
        warnings.append(
            f"omega grid clipped to the surface-mode limit {w_cap!r} rad/s"
        )
        cfg = replace(cfg, omega_max=w_cap)
    return cfg, warnings
