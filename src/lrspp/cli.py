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

``--threads N`` runs the gap search of optimize, propagate, cat-entropy
and constraints without ``--d2-nm`` in up to N forked worker processes
(_fork_map); the datasets do not depend on N.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import coupling, datasets, propagation, statetransfer
from .config import NM, GridSpec, RunConfig, build_parser, config_from_args, validate_config
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

#: What a handler yields: datasets blocks.  A tuple of single cells is one
#: row; an along-strip handler gives each curve as list columns over the x
#: grid, cut into lists of at most datasets.BLOCK_ROWS points.
Blocks = Iterator[datasets.Block]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(t) for t in tasks], computed in min(workers, usable CPUs,
    len(tasks)) processes and returned in task order.

    Worker j takes tasks[j::workers]; the parent computes share 0 itself.
    Each other share runs in a plain os.fork() child, which sends one
    pickled (ok, result or exception) down its own pipe and always leaves
    by os._exit: it never returns into the caller, runs no atexit hook and
    flushes no inherited buffer (stdout, an open --out file).  The parent
    reads each pipe to EOF, then reaps that child.  A child's exception is
    raised again in the parent with its own type; a child that ends without
    a result is an LrsppError naming it and its wait status.  If anything
    raises in the parent, every child still running is killed and reaped
    first.  With one worker, or without os.fork, nothing forks.
    """
    workers = min(workers, _usable_cpus(), len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    # Only a forking run pays for these imports.
    import pickle
    import signal

    pids: dict[int, int] = {}  # worker -> pid, until reaped
    fds: dict[int, int] = {}  # worker -> read end of its pipe, until opened
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            fds[j] = r
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(w)
                raise LrsppError(f"worker {j} of {workers} did not start: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    try:
                        payload = (True, [fn(t) for t in tasks[j::workers]])
                    except Exception as exc:
                        payload = (False, exc)
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(payload))
                    code = 0
                finally:
                    os._exit(code)
            pids[j] = pid
            os.close(w)
        results: list = [None] * len(tasks)
        results[0::workers] = [fn(t) for t in tasks[0::workers]]
        for j in range(1, workers):
            with open(fds.pop(j), "rb") as fh:
                data = fh.read()
            _, status = os.waitpid(pids[j], 0)
            del pids[j]
            if status != 0 or not data:
                raise LrsppError(f"worker {j} of {workers} ended without a result (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[j::workers] = value
        return results
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for fd in fds.values():
            os.close(fd)
        for pid in pids.values():
            os.waitpid(pid, 0)
        raise


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


def _cmd_material(cfg: RunConfig) -> Blocks:
    """dielectric function over a frequency grid"""
    for w in cfg.omega.points():
        e = eps_lossy(cfg.material, w)
        yield w, eps_lossless(cfg.material, w), e.real, e.imag


def _cmd_dispersion(cfg: RunConfig) -> Blocks:
    """dispersion rows over a wavevector grid"""
    d1 = cfg.fixed_d1
    for name, branch in cfg.branches():
        for k in cfg.k.points():
            try:
                sol = solve_omega(branch, k, d1, cfg.material)
            except NoBoundMode:
                yield name, d1, k, None, None, None, None, None
                continue
            try:
                vg = group_velocity(sol, cfg.material)
            except StencilError:
                vg = None
            try:
                kappa = complex_wavenumber(sol, cfg.material).kappa
            except LrsppError:
                kappa = None
            yield name, d1, k, sol.omega, sol.nu_m, sol.nu_0, vg, kappa


def _cmd_angle(cfg: RunConfig) -> Blocks:
    """phase-matching angle over a frequency grid"""
    d1 = cfg.fixed_d1
    for name, branch in cfg.branches():
        for w in cfg.omega.points():
            try:
                sol = solve_k(branch, w, d1, cfg.material)
                theta = coupling_angle(w, sol.k, cfg.eps_prism)
            except (NoBoundMode, NoMatchingAngle):
                yield name, d1, w, None, None
                continue
            yield name, d1, w, sol.k, theta


def _cmd_field(cfg: RunConfig) -> Blocks:
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
            yield z, None, None, None, None
            continue
        ex = profile.eval_x(z)
        ez = profile.eval_z(z)
        yield z, ex.real, ex.imag, ez.real, ez.imag


def _cmd_constraints(cfg: RunConfig) -> Blocks:
    """feasibility triple over an (omega, d1) grid"""
    opt_cfg = _optimize_config(cfg)

    def row(cell):
        (name, branch), w, d1 = cell
        d2 = cfg.fixed_d2
        if d2 is not None:
            try:
                cons = coupling.constraint_set(branch, w, d1, d2, cfg.delta_omega, cfg.material)
            except NoBoundMode:
                cons = None
        else:  # optimize_d2 returns feasible points only
            pt = coupling.optimize_d2(branch, w, d1, opt_cfg, cfg.material)
            d2, cons = (None, None) if pt is None else (pt.d2, pt.constraints)
        if cons is None:
            return name, w, d1, d2, None, None, None, 0
        return (
            name, w, d1, d2,
            cons.bandwidth_B, cons.penetration_P, cons.coupled_surfaces_C,
            int(cons.feasible),
        )

    cells = itertools.product(cfg.branches(), cfg.omega.points(), cfg.d1.points())
    if cfg.fixed_d2 is not None:  # no gap search: each row streams as it is made
        yield from map(row, cells)
    else:
        yield from _fork_map(row, list(cells), cfg.threads)


def _rows(cfg: RunConfig) -> list[tuple[str, float, coupling.CouplingPoint | None]]:
    """(branch name, omega, best point or None) per (branch, omega) row of
    every requested branch, in grid order: the whole gap search, in one
    fork map."""
    opt_cfg = _optimize_config(cfg)
    d1s = cfg.d1.points()
    rows = [(name, branch, w) for name, branch in cfg.branches() for w in cfg.omega.points()]
    points = _fork_map(
        lambda row: coupling.best_over_d1(row[1], row[2], d1s, opt_cfg, cfg.material), rows, cfg.threads
    )
    return [(name, w, pt) for (name, _branch, w), pt in zip(rows, points)]


def _propagating(cfg: RunConfig):
    """(branch name, omega, best point, kappa0) per frequency of the best
    paths; point and kappa0 are None where no point is feasible."""
    for name, w, pt in _rows(cfg):
        yield name, w, pt, None if pt is None else complex_wavenumber(pt.solution, cfg.material).kappa


def _cmd_optimize(cfg: RunConfig) -> Blocks:
    """constrained best coupling per frequency"""
    for name, w, pt in _rows(cfg):
        if pt is None:
            yield (name, w) + (None,) * 8
            continue
        c = pt.constraints
        yield (
            name, w, pt.g_tilde, pt.d1, pt.d2, pt.theta, abs(pt.beta),
            c.bandwidth_B, c.penetration_P, c.coupled_surfaces_C,
        )


def _x_lists(cfg: RunConfig) -> list[list[float]]:
    """The x grid in lists of at most datasets.BLOCK_ROWS points: the x
    column of every along-strip block, the same objects for every curve."""
    xs, n = cfg.x.points(), datasets.BLOCK_ROWS
    return [xs[i:i + n] for i in range(0, len(xs), n)]


def _cmd_propagate(cfg: RunConfig) -> Blocks:
    """normalized detected counts along the strip"""
    x_lists = _x_lists(cfg)
    for name, w, pt, kappa0 in _propagating(cfg):
        if pt is None:
            for xs in x_lists:
                yield name, w, xs, None
            continue
        beta_sq = abs(pt.beta) ** 2
        for xs in x_lists:
            yield name, w, xs, [propagation.mean_count(cfg.mu, kappa0, x, beta_sq) for x in xs]


def _cmd_g2(cfg: RunConfig) -> Blocks:
    """second-order coherence invariance table"""
    n = cfg.n_photons
    for eta in cfg.etas:
        yield n, eta, propagation.g2_zero(n, beta_sq=eta)


def _cmd_cat_entropy(cfg: RunConfig) -> Blocks:
    """cat-state eigenvalues and entropy along the strip"""
    x_lists = _x_lists(cfg)
    cats = [statetransfer.CatState(alpha) for alpha in cfg.alphas]
    for name, w, pt, kappa0 in _propagating(cfg):
        # The factors that depend on x only, shared by every amplitude.
        decays = None if pt is None else [statetransfer.decay_along(kappa0, xs) for xs in x_lists]
        for cat in cats:
            for i, xs in enumerate(x_lists):
                if decays is None:
                    yield name, w, xs, cat.alpha, None, None, None
                else:
                    yield name, w, xs, cat.alpha, *statetransfer.cat_columns(cat, pt.g, decays[i])


def _constraints_points(cfg: RunConfig) -> int:
    cells = len(cfg.branches()) * cfg.omega_steps * cfg.d1_steps
    return cells if cfg.fixed_d2 is not None else cells + _search_points(cfg)


#: name -> (handler yielding the blocks, columns, grid points the run visits)
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


def _write_out(path: str, chunks: Iterable[str]) -> None:
    """Write the text of chunks to path.  A new file, or an earlier regular
    file the user may write, gets each chunk as it is made, in a temporary
    file in the same directory, synced and renamed over path once complete:
    a failed or interrupted run leaves no partial file and an earlier file
    as it was.  A symlink is written through, and an earlier file keeps its
    permission bits.  Anything else (a device such as /dev/null, a pipe, a
    file the user may not write, a directory the user may not add to) is
    opened once the whole text is made and written directly, with the
    errors that opening it gives."""
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
        text = "".join(chunks)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = os.path.join(folder, f".lrspp-{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            for chunk in chunks:
                fh.write(chunk)
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
    numerical failures and on running out of memory.  The blocks stream
    from the handler into the writer; nothing is written to stdout unless
    all of them are, and --out is written as set out in _write_out.
    """
    try:
        args = _parser().parse_args(argv)
        cfg, warnings = validate_config(config_from_args(args), args.command)
        handler, columns, points = _COMMANDS[args.command]
        if (n := points(cfg)) > MAX_POINTS:
            raise ConfigError(f"grids: the run visits {n} grid points, more than the {MAX_POINTS} accepted")
        dataset = datasets.Dataset(_echo(argv), columns, warnings=warnings, blocks=handler(cfg))
        json_format = cfg.format == "json"
        if cfg.out:
            try:
                _write_out(cfg.out, (datasets.json_chunks if json_format else datasets.csv_chunks)(dataset))
            except OSError as exc:
                raise ConfigError(f"out: cannot write {cfg.out}: {exc}") from exc
        else:
            sys.stdout.write(datasets.to_json(dataset) if json_format else datasets.to_csv(dataset))
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
