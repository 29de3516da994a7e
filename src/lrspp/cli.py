"""Batch command-line front end.

Every subcommand emits one machine-readable dataset (CSV or JSON) with a
deterministic row order; infeasible cells are explicit ``NA``/``null``
markers.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure (diagnostic on stderr).

Subcommands::

    material     dielectric function over a frequency grid
    dispersion   (k, omega, decay constants, group velocity, loss) rows
    angle        phase-matching angle over a frequency grid
    field        sampled mode-profile components over a z grid
    constraints  (B, P, C) feasibility triple over an (omega, d1) grid
    optimize     constrained best coupling per frequency
    propagate    normalized detected counts along the strip
    g2           second-order coherence invariance table
    cat-entropy  cat-state eigenvalues and entropy along the strip

Lengths on the command line are nanometers where the flag says ``-nm``;
everything else is SI (rad/s, rad/m, meters).

A run is sized from its resolved configuration before any work: one that
visits more than MAX_POINTS grid points is a configuration error.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
import sys
from collections.abc import Iterator

from . import coupling, datasets, propagation, statetransfer
from .config import NM, GridSpec, RunConfig, build_parser, config_from_args, validate_config
from .constants import C_LIGHT
from .dispersion import (
    complex_wavenumber,
    coupling_angle,
    group_velocity,
    solve_k,
    solve_omega,
)
from .errors import ConfigError, LrsppError, NoBoundMode, NoMatchingAngle, StencilError
from .materials import eps_lossless, eps_lossy
from .modes import four_layer_solve, lrspp_profile


#: Largest run accepted, in grid points visited: the rows emitted plus the
#: (branch, omega, d1, d2) points of a gap search.  About 9 times the
#: largest documented run, the criterion-5 sweep: 240 rows and
#: 2 x 120 x 60 x 80 = 1,152,000 search points.
MAX_POINTS = 10**7

Rows = Iterator[list]


def _search_points(cfg: RunConfig) -> int:
    """(branch, omega, d1, d2) points of a gap search."""
    return len(cfg.branches()) * cfg.omega_steps * cfg.d1_steps * cfg.d2_steps


def _echo(argv: list[str]) -> str:
    """Command echo describing the computation: worker-count and output
    destination flags are stripped, so datasets are byte-identical across
    thread counts and output paths."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in ("--threads", "--out"):
            skip = True
            continue
        if arg.startswith(("--threads=", "--out=")):
            continue
        out.append(arg)
    return "lrspp " + " ".join(out)


def _optimize_config(cfg: RunConfig) -> coupling.OptimizeConfig:
    return coupling.OptimizeConfig(
        d2_min=cfg.d2.lo,
        d2_max=cfg.d2.hi,
        d2_steps=cfg.d2.steps,
        delta_omega=cfg.delta_omega,
        eps_prism=cfg.eps_prism,
    )


def _cmd_material(cfg: RunConfig) -> Rows:
    """dielectric function over a frequency grid"""
    for w in cfg.omega.points():
        e = eps_lossy(cfg.material, w)
        yield [w, eps_lossless(cfg.material, w), e.real, e.imag]


def _cmd_dispersion(cfg: RunConfig) -> Rows:
    """dispersion rows over a wavevector grid"""
    d1 = cfg.fixed_d1
    for name, branch in cfg.branches():
        for k in cfg.k.points():
            try:
                sol = solve_omega(branch, k, d1, cfg.material)
            except NoBoundMode:
                yield [name, d1, k, None, None, None, None, None]
                continue
            window = max(2.0, 1.1 * C_LIGHT * k / sol.omega)
            try:
                vg = group_velocity(branch, sol.omega, d1, cfg.material, kmax_factor=window)
            except (StencilError, NoBoundMode):
                vg = None
            try:
                kappa = complex_wavenumber(branch, sol.omega, d1, cfg.material, kmax_factor=window).kappa
            except LrsppError:
                kappa = None
            yield [name, d1, k, sol.omega, sol.nu_m, sol.nu_0, vg, kappa]


def _cmd_angle(cfg: RunConfig) -> Rows:
    """phase-matching angle over a frequency grid"""
    d1 = cfg.fixed_d1
    for name, branch in cfg.branches():
        for w in cfg.omega.points():
            try:
                sol = solve_k(branch, w, d1, cfg.material)
                theta = coupling_angle(w, sol.k, cfg.eps_prism)
            except (NoBoundMode, NoMatchingAngle):
                yield [name, d1, w, None, None]
                continue
            yield [name, d1, w, sol.k, theta]


def _cmd_field(cfg: RunConfig) -> Rows:
    """sampled profile components over a z grid (single branch; 'both' falls back to 'plus')"""
    d1 = cfg.fixed_d1
    d2 = cfg.fixed_d2 if cfg.fixed_d2 is not None else 500.0 * NM
    w = cfg.fixed_omega
    _name, branch = cfg.branches()[0]
    sol = solve_k(branch, w, d1, cfg.material)
    if cfg.profile == "lrspp":
        profile = lrspp_profile(branch, sol, cfg.material)
        z_lo_default = -3.0 / sol.nu_0
    else:
        theta = coupling_angle(w, sol.k, cfg.eps_prism)
        profile = four_layer_solve(w, theta, d1, d2, cfg.eps_prism, cfg.material, lossy=True).profile
        z_lo_default = -d2
    z_lo = cfg.z_min if cfg.z_min is not None else z_lo_default
    z_hi = cfg.z_max if cfg.z_max is not None else d1 + 3.0 / sol.nu_0
    if not z_lo < z_hi:
        raise ConfigError("z: min must be below max")
    for z in GridSpec(z_lo, z_hi, cfg.z_steps).points():
        if z < profile.z_lo:
            yield [z, None, None, None, None]
            continue
        ex = profile.eval_x(z)
        ez = profile.eval_z(z)
        yield [z, ex.real, ex.imag, ez.real, ez.imag]


def _cmd_constraints(cfg: RunConfig) -> Rows:
    """feasibility triple over an (omega, d1) grid"""
    opt_cfg = _optimize_config(cfg)
    d2 = cfg.fixed_d2
    for name, branch in cfg.branches():
        for w in cfg.omega.points():
            for d1 in cfg.d1.points():
                if cfg.fixed_d2 is not None:
                    try:
                        cons = coupling.constraint_set(branch, w, d1, d2, cfg.delta_omega, cfg.material)
                    except NoBoundMode:
                        cons = None
                else:  # optimize_d2 returns feasible points only
                    pt = coupling.optimize_d2(branch, w, d1, opt_cfg, cfg.material)
                    d2, cons = (None, None) if pt is None else (pt.d2, pt.constraints)
                if cons is None:
                    yield [name, w, d1, d2, None, None, None, 0]
                    continue
                yield [
                    name, w, d1, d2,
                    cons.bandwidth_B, cons.penetration_P, cons.coupled_surfaces_C,
                    int(cons.feasible),
                ]


def _paths(cfg: RunConfig):
    opt_cfg = _optimize_config(cfg)
    for name, branch in cfg.branches():
        path = coupling.optimize_path(branch, cfg.omega.points(), cfg.d1.points(), opt_cfg, cfg.material)
        yield name, branch, path


def _propagating(cfg: RunConfig):
    """(branch name, omega, best point, kappa0) per frequency of the best
    paths; point and kappa0 are None where no point is feasible."""
    for name, branch, path in _paths(cfg):
        for rec in path.records:
            pt = rec.point
            kappa0 = None if pt is None else complex_wavenumber(branch, rec.omega, pt.d1, cfg.material).kappa
            yield name, rec.omega, pt, kappa0


def _cmd_optimize(cfg: RunConfig) -> Rows:
    """constrained best coupling per frequency"""
    for name, _branch, path in _paths(cfg):
        for rec in path.records:
            if rec.point is None:
                yield [name, rec.omega] + [None] * 8
                continue
            pt = rec.point
            c = pt.constraints
            yield [
                name, rec.omega, pt.g_tilde, pt.d1, pt.d2, pt.theta, abs(pt.beta),
                c.bandwidth_B, c.penetration_P, c.coupled_surfaces_C,
            ]


def _cmd_propagate(cfg: RunConfig) -> Rows:
    """normalized detected counts along the strip"""
    xs = cfg.x.points()
    for name, w, pt, kappa0 in _propagating(cfg):
        if pt is None:
            for x in xs:
                yield [name, w, x, None]
            continue
        beta_sq = abs(pt.beta) ** 2
        for x in xs:
            yield [name, w, x, propagation.detected_mean(cfg.mu, kappa0, x, beta_sq)]


def _cmd_g2(cfg: RunConfig) -> Rows:
    """second-order coherence invariance table"""
    n = cfg.n_photons
    for eta in cfg.etas:
        yield [n, eta, propagation.g2_zero(n, beta_sq=eta)]


def _cmd_cat_entropy(cfg: RunConfig) -> Rows:
    """cat-state eigenvalues and entropy along the strip"""
    xs = cfg.x.points()
    for name, w, pt, kappa0 in _propagating(cfg):
        for alpha in cfg.alphas:
            cat = statetransfer.CatState(alpha)
            if pt is None:
                for x in xs:
                    yield [name, w, x, alpha, None, None, None]
                continue
            for x, dens in zip(xs, statetransfer.propagate_cat_along(cat, pt.g, kappa0, xs)):
                yield [name, w, x, alpha, dens.lambda_plus, dens.lambda_minus, dens.entropy]


def _constraints_points(cfg: RunConfig) -> int:
    cells = len(cfg.branches()) * cfg.omega_steps * cfg.d1_steps
    return cells if cfg.fixed_d2 is not None else cells + _search_points(cfg)


#: name -> (handler yielding the rows, columns, grid points the run visits)
_COMMANDS = {
    "material": (
        _cmd_material,
        ["omega", "eps_lossless", "eps_lossy_re", "eps_lossy_im"],
        lambda cfg: cfg.omega_steps,
    ),
    "dispersion": (
        _cmd_dispersion,
        ["branch", "d1", "k", "omega", "nu_m", "nu_0", "v_group", "kappa"],
        lambda cfg: len(cfg.branches()) * cfg.k_steps,
    ),
    "angle": (
        _cmd_angle,
        ["branch", "d1", "omega", "k", "theta"],
        lambda cfg: len(cfg.branches()) * cfg.omega_steps,
    ),
    "field": (
        _cmd_field,
        ["z", "ex_re", "ex_im", "ez_re", "ez_im"],
        lambda cfg: cfg.z_steps,
    ),
    "constraints": (
        _cmd_constraints,
        ["branch", "omega", "d1", "d2", "B", "P", "C", "feasible"],
        _constraints_points,
    ),
    "optimize": (
        _cmd_optimize,
        ["branch", "omega", "g_tilde", "d1", "d2", "theta", "beta_abs", "B", "P", "C"],
        lambda cfg: len(cfg.branches()) * cfg.omega_steps + _search_points(cfg),
    ),
    "propagate": (
        _cmd_propagate,
        ["branch", "omega", "x", "m_tilde"],
        lambda cfg: len(cfg.branches()) * cfg.omega_steps * cfg.x_steps + _search_points(cfg),
    ),
    "g2": (
        _cmd_g2,
        ["n", "eta", "g2"],
        lambda cfg: len(cfg.etas),
    ),
    "cat-entropy": (
        _cmd_cat_entropy,
        ["branch", "omega", "x", "alpha", "lambda_plus", "lambda_minus", "entropy"],
        lambda cfg: len(cfg.branches()) * cfg.omega_steps * cfg.x_steps * len(cfg.alphas) + _search_points(cfg),
    ),
}


@functools.cache
def _parser():
    """The argparse front end, built once per process: parsing leaves it unchanged."""
    return build_parser(
        {name: handler.__doc__ for name, (handler, _columns, _points) in _COMMANDS.items()},
        __doc__.splitlines()[0],
    )


def _write_out(path: str, text: str) -> None:
    """Write text to path.  A new file, or an earlier regular file the user
    may write, is written to a temporary file in the same directory, synced
    and renamed over path once complete: a failed or interrupted write leaves
    no partial file and an earlier file as it was.  A symlink is written
    through, and an earlier file keeps its permission bits.  Anything else
    (a device such as /dev/null, a pipe, a file the user may not write, a
    directory the user may not add to) is opened and written directly, with
    the errors that opening it gives."""
    try:
        mode = os.stat(path).st_mode  # through links, /dev/stdout's to a pipe too
    except FileNotFoundError:
        mode = None
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    replaceable = os.access(folder, os.W_OK | os.X_OK) and (
        mode is None or (stat.S_ISREG(mode) and os.access(target, os.W_OK))
    )
    if not replaceable:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = os.path.join(folder, f".lrspp-{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def run(argv: list[str]) -> int:
    """Parse argv, execute the subcommand, write the dataset.

    Returns 0 on success, 1 on configuration errors (including unknown
    flags, malformed config files and runs over MAX_POINTS), 2 on
    numerical failures and on running out of memory.  The rows stream
    from the handler into the writer; nothing is written unless all of
    them are.
    """
    try:
        args = _parser().parse_args(argv)
        cfg, warnings = validate_config(config_from_args(args))
        handler, columns, points = _COMMANDS[args.command]
        if (n := points(cfg)) > MAX_POINTS:
            raise ConfigError(f"grids: the run visits {n} grid points, more than the {MAX_POINTS} accepted")
        dataset = datasets.Dataset(_echo(argv), columns, handler(cfg), warnings)
        text = datasets.to_json(dataset) if cfg.format == "json" else datasets.to_csv(dataset)
        if cfg.out:
            try:
                _write_out(cfg.out, text)
            except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
                raise ConfigError(f"out: cannot write {cfg.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except SystemExit:  # --help, the only exit argparse takes without an error
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LrsppError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return 2
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
