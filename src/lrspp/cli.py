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
"""

from __future__ import annotations

import functools
import sys

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


def _cmd_material(cfg: RunConfig) -> tuple[list[str], list]:
    """dielectric function over a frequency grid"""
    rows = []
    for w in cfg.omega.points():
        e = eps_lossy(cfg.material, w)
        rows.append([w, eps_lossless(cfg.material, w), e.real, e.imag])
    return ["omega", "eps_lossless", "eps_lossy_re", "eps_lossy_im"], rows


def _cmd_dispersion(cfg: RunConfig) -> tuple[list[str], list]:
    """dispersion rows over a wavevector grid"""
    d1 = cfg.fixed_d1
    rows = []
    for name, branch in cfg.branches():
        for k in cfg.k.points():
            try:
                sol = solve_omega(branch, k, d1, cfg.material)
            except NoBoundMode:
                rows.append([name, d1, k, None, None, None, None, None])
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
            rows.append([name, d1, k, sol.omega, sol.nu_m, sol.nu_0, vg, kappa])
    return ["branch", "d1", "k", "omega", "nu_m", "nu_0", "v_group", "kappa"], rows


def _cmd_angle(cfg: RunConfig) -> tuple[list[str], list]:
    """phase-matching angle over a frequency grid"""
    d1 = cfg.fixed_d1
    rows = []
    for name, branch in cfg.branches():
        for w in cfg.omega.points():
            try:
                sol = solve_k(branch, w, d1, cfg.material)
                theta = coupling_angle(w, sol.k, cfg.eps_prism)
            except (NoBoundMode, NoMatchingAngle):
                rows.append([name, d1, w, None, None])
                continue
            rows.append([name, d1, w, sol.k, theta])
    return ["branch", "d1", "omega", "k", "theta"], rows


def _cmd_field(cfg: RunConfig) -> tuple[list[str], list]:
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
    rows = []
    for z in GridSpec(z_lo, z_hi, cfg.z_steps).points():
        if z < profile.z_lo:
            rows.append([z, None, None, None, None])
            continue
        ex = profile.eval_x(z)
        ez = profile.eval_z(z)
        rows.append([z, ex.real, ex.imag, ez.real, ez.imag])
    return ["z", "ex_re", "ex_im", "ez_re", "ez_im"], rows


def _cmd_constraints(cfg: RunConfig) -> tuple[list[str], list]:
    """feasibility triple over an (omega, d1) grid"""
    opt_cfg = _optimize_config(cfg)
    d2 = cfg.fixed_d2
    rows = []
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
                    rows.append([name, w, d1, d2, None, None, None, 0])
                    continue
                rows.append([
                    name, w, d1, d2,
                    cons.bandwidth_B, cons.penetration_P, cons.coupled_surfaces_C,
                    int(cons.feasible),
                ])
    return ["branch", "omega", "d1", "d2", "B", "P", "C", "feasible"], rows


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


def _cmd_optimize(cfg: RunConfig) -> tuple[list[str], list]:
    """constrained best coupling per frequency"""
    rows = []
    for name, _branch, path in _paths(cfg):
        for rec in path.records:
            if rec.point is None:
                rows.append([name, rec.omega] + [None] * 8)
                continue
            pt = rec.point
            c = pt.constraints
            rows.append([
                name, rec.omega, pt.g_tilde, pt.d1, pt.d2, pt.theta, abs(pt.beta),
                c.bandwidth_B, c.penetration_P, c.coupled_surfaces_C,
            ])
    return ["branch", "omega", "g_tilde", "d1", "d2", "theta", "beta_abs", "B", "P", "C"], rows


def _cmd_propagate(cfg: RunConfig) -> tuple[list[str], list]:
    """normalized detected counts along the strip"""
    rows = []
    xs = cfg.x.points()
    for name, w, pt, kappa0 in _propagating(cfg):
        if pt is None:
            for x in xs:
                rows.append([name, w, x, None])
            continue
        beta_sq = abs(pt.beta) ** 2
        for x in xs:
            rows.append([name, w, x, propagation.detected_mean(cfg.mu, kappa0, x, beta_sq)])
    return ["branch", "omega", "x", "m_tilde"], rows


def _cmd_g2(cfg: RunConfig) -> tuple[list[str], list]:
    """second-order coherence invariance table"""
    n = cfg.n_photons
    rows = [[n, eta, propagation.g2_zero(n, beta_sq=eta)] for eta in cfg.etas]
    return ["n", "eta", "g2"], rows


def _cmd_cat_entropy(cfg: RunConfig) -> tuple[list[str], list]:
    """cat-state eigenvalues and entropy along the strip"""
    rows = []
    xs = cfg.x.points()
    for name, w, pt, kappa0 in _propagating(cfg):
        for alpha in cfg.alphas:
            cat = statetransfer.CatState(alpha)
            for x in xs:
                if pt is None:
                    rows.append([name, w, x, alpha, None, None, None])
                    continue
                dens = statetransfer.propagate_cat(cat, pt.g, kappa0, x)
                rows.append([name, w, x, alpha, dens.lambda_plus, dens.lambda_minus, dens.entropy])
    return ["branch", "omega", "x", "alpha", "lambda_plus", "lambda_minus", "entropy"], rows


_COMMANDS = {
    "material": _cmd_material,
    "dispersion": _cmd_dispersion,
    "angle": _cmd_angle,
    "field": _cmd_field,
    "constraints": _cmd_constraints,
    "optimize": _cmd_optimize,
    "propagate": _cmd_propagate,
    "g2": _cmd_g2,
    "cat-entropy": _cmd_cat_entropy,
}


@functools.cache
def _parser():
    """The argparse front end, built once per process: parsing leaves it unchanged."""
    return build_parser({name: cmd.__doc__ for name, cmd in _COMMANDS.items()}, __doc__.splitlines()[0])


def run(argv: list[str]) -> int:
    """Parse argv, execute the subcommand, write the dataset.

    Returns 0 on success, 1 on configuration errors (including unknown
    flags and malformed config files), 2 on numerical failures.
    """
    try:
        args = _parser().parse_args(argv)
        cfg, warnings = validate_config(config_from_args(args))
        columns, rows = _COMMANDS[args.command](cfg)
        dataset = datasets.Dataset(_echo(argv), columns, rows, warnings)
        text = datasets.to_json(dataset) if cfg.format == "json" else datasets.to_csv(dataset)
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
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
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
