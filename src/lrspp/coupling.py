"""Photon to surface-mode conversion: overlap amplitude, feasibility
constraints, and the constrained (d2, d1, omega) optimization.

The conversion amplitude at a matched frequency is

    beta* = -tau(w) * Int [phi / sqrt(N1)]* . [psi / sqrt(N2)] dz

over z in [-d2, +inf): the reflection-dip amplitude tau of the lossy
four-layer stack times the normalized overlap of the strip mode with the
transmitted field.  Both norms use the same domain, so the overlap is
bounded by 1 and |beta| <= |tau|.

Three dimensionless feasibility parameters gate the optimization:

    B = (w_plus - w_minus) / (2 dw)   branch separation vs. bandwidth,
                                      evaluated at the matched wavevector
    P = 2 / (nu_0 d2)                 strip-mode penetration into the prism
    C = 4 / (nu_m d1)                 coupling between the strip's faces

with feasibility B >= 1, P <= 1 and C >= 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import modes
from .dispersion import BranchId, DispersionSolution, coupling_angle, solve_k, solve_omega
from .errors import NoBoundMode, NoMatchingAngle, NormalizationError
from .materials import DielectricModel, SILVER

_INF = math.inf

#: Bandwidth of the incoming Gaussian wavepacket (rad/s) used in B.
DEFAULT_DELTA_OMEGA = 3.02e13
#: Prism dielectric constant.
DEFAULT_EPS_PRISM = 1.51


@dataclass(frozen=True)
class ConstraintSet:
    """The (B, P, C) feasibility triple at one configuration."""

    bandwidth_B: float
    penetration_P: float
    coupled_surfaces_C: float

    @property
    def feasible(self) -> bool:
        return self.bandwidth_B >= 1.0 and self.penetration_P <= 1.0 and self.coupled_surfaces_C >= 1.0


@dataclass(frozen=True)
class CouplingPoint:
    """One optimized conversion point.

    g = arcsin|beta| is the mixing angle of the photon/surface-mode
    beamsplitter; g_tilde = 2g/pi normalizes it to [0, 1].
    """

    branch: BranchId
    omega: float
    d1: float
    d2: float
    theta: float
    beta: complex
    g: float
    g_tilde: float
    constraints: ConstraintSet
    feasible: bool


@dataclass(frozen=True)
class OptimizeConfig:
    """Search grids and tolerances for the constrained optimization."""

    d2_min: float = 50e-9
    d2_max: float = 3e-6
    d2_steps: int = 80
    d2_refine: float = 1e-10  # golden-section window, m
    delta_omega: float = DEFAULT_DELTA_OMEGA
    eps_prism: float = DEFAULT_EPS_PRISM
    threads: int = 1


@dataclass(frozen=True)
class PathRecord:
    """Best feasible point at one frequency, or the infeasible marker."""

    omega: float
    point: CouplingPoint | None

    @property
    def feasible(self) -> bool:
        return self.point is not None


@dataclass(frozen=True)
class OptimizationPath:
    branch: BranchId
    records: tuple[PathRecord, ...]

    def max_g_tilde(self) -> float:
        vals = [r.point.g_tilde for r in self.records if r.point is not None]
        return max(vals) if vals else 0.0


def overlap_beta(
    branch: BranchId,
    omega: float,
    d1: float,
    d2: float,
    eps_prism: float = DEFAULT_EPS_PRISM,
    model: DielectricModel = SILVER,
) -> complex:
    """Conversion amplitude beta at a matched frequency.

    Raises NoBoundMode / NoMatchingAngle when the branch or the
    phase-matching angle does not exist, and NormalizationError when the
    computed |beta| exceeds 1 beyond roundoff (inconsistent norms).
    """
    sol = solve_k(branch, omega, d1, model)
    beta, _, _ = _beta_from_solution(sol, branch, d2, eps_prism, model)
    return beta


def _beta_from_solution(
    sol: DispersionSolution,
    branch: BranchId,
    d2: float,
    eps_prism: float,
    model: DielectricModel,
):
    theta = coupling_angle(sol.omega, sol.k, eps_prism)
    phi = modes.lrspp_profile(branch, sol, model)
    fl = modes.four_layer_solve(sol.omega, theta, sol.d1, d2, eps_prism, model, lossy=True)
    n1 = modes.profile_norm(phi, -d2, _INF)
    n2 = modes.profile_norm(fl.profile, -d2, _INF)
    overlap = modes.overlap_integral(phi, fl.profile, -d2, _INF) / math.sqrt(n1 * n2)
    beta = -(fl.tau * overlap).conjugate()
    if abs(beta) > 1.0 + 1e-9:
        raise NormalizationError(
            f"|beta| = {abs(beta):.12f} > 1 at omega={sol.omega:.6g}, d1={sol.d1:.4g}, d2={d2:.4g}"
        )
    return beta, theta, fl


def constraint_set(
    branch: BranchId,
    omega: float,
    d1: float,
    d2: float,
    delta_omega: float = DEFAULT_DELTA_OMEGA,
    model: DielectricModel = SILVER,
) -> ConstraintSet:
    """(B, P, C) at the given configuration.

    B compares the branch separation at the *matched wavevector* with the
    wavepacket bandwidth: the other branch's frequency is evaluated at the
    same k the incoming beam phase-matches.  If the other branch has no
    bound mode at that k, simultaneous excitation is impossible and
    B = +inf.
    """
    if delta_omega <= 0.0:
        raise ValueError("delta_omega must be positive")
    sol = solve_k(branch, omega, d1, model)
    return _constraints_from_solution(sol, branch, d2, delta_omega, model)


def _constraints_from_solution(
    sol: DispersionSolution,
    branch: BranchId,
    d2: float,
    delta_omega: float,
    model: DielectricModel,
) -> ConstraintSet:
    try:
        other = solve_omega(branch.other, sol.k, sol.d1, model)
        if branch is BranchId.ANTISYMMETRIC:
            gap = sol.omega - other.omega
        else:
            gap = other.omega - sol.omega
        bandwidth = gap / (2.0 * delta_omega)
    except NoBoundMode:
        bandwidth = _INF
    penetration = 2.0 / (sol.nu_0 * d2)
    coupled = 4.0 / (sol.nu_m * sol.d1)
    return ConstraintSet(bandwidth_B=bandwidth, penetration_P=penetration, coupled_surfaces_C=coupled)


def coupling_point(
    branch: BranchId,
    omega: float,
    d1: float,
    d2: float,
    config: OptimizeConfig = OptimizeConfig(),
    model: DielectricModel = SILVER,
) -> CouplingPoint:
    """Full conversion record at an explicit (omega, d1, d2)."""
    return _point_from_solution(solve_k(branch, omega, d1, model), branch, d2, config, model)


def _point_from_solution(
    sol: DispersionSolution,
    branch: BranchId,
    d2: float,
    config: OptimizeConfig,
    model: DielectricModel,
) -> CouplingPoint:
    beta, theta, _ = _beta_from_solution(sol, branch, d2, config.eps_prism, model)
    cons = _constraints_from_solution(sol, branch, d2, config.delta_omega, model)
    g = math.asin(min(1.0, abs(beta)))
    return CouplingPoint(
        branch=branch,
        omega=sol.omega,
        d1=sol.d1,
        d2=d2,
        theta=theta,
        beta=beta,
        g=g,
        g_tilde=2.0 * g / math.pi,
        constraints=cons,
        feasible=cons.feasible,
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_d2(
    branch: BranchId,
    omega: float,
    d1: float,
    config: OptimizeConfig = OptimizeConfig(),
    model: DielectricModel = SILVER,
) -> CouplingPoint | None:
    """Maximize |beta| over the prism gap subject to B >= 1, P <= 1, C >= 1.

    Coarse scan on a log-spaced gap grid followed by golden-section
    refinement.  Returns None when no gap satisfies the constraints (the
    subtracted regions of the coupling maps).
    """
    try:
        sol = solve_k(branch, omega, d1, model)
    except NoBoundMode:
        return None
    try:
        coupling_angle(sol.omega, sol.k, config.eps_prism)
    except NoMatchingAngle:
        return None

    # B and C do not depend on d2; P <= 1 sets the lower gap bound.
    cons0 = _constraints_from_solution(sol, branch, config.d2_max, config.delta_omega, model)
    if cons0.bandwidth_B < 1.0 or cons0.coupled_surfaces_C < 1.0:
        return None
    d2_lo = max(config.d2_min, 2.0 / sol.nu_0)
    d2_hi = config.d2_max
    if d2_lo > d2_hi:
        return None

    def value(d2: float) -> float:
        beta, _, _ = _beta_from_solution(sol, branch, d2, config.eps_prism, model)
        return abs(beta)

    n = max(config.d2_steps, 4)
    ratio = d2_hi / d2_lo
    best_i, best_v = 0, -1.0
    grid = [d2_lo * ratio ** (i / (n - 1)) for i in range(n)]
    for i, d2 in enumerate(grid):
        v = value(d2)
        if v > best_v:
            best_i, best_v = i, v

    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, n - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = value(c), value(d)
    while b - a > config.d2_refine:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = value(d)
    d2_best = 0.5 * (a + b)
    if value(d2_best) < best_v:
        d2_best = grid[best_i]

    point = _point_from_solution(sol, branch, d2_best, config, model)
    return point if point.feasible else None


def _best_over_d1(
    branch: BranchId,
    omega: float,
    d1_grid: tuple[float, ...],
    config: OptimizeConfig,
    model: DielectricModel,
) -> PathRecord:
    best: CouplingPoint | None = None
    for d1 in d1_grid:
        pt = optimize_d2(branch, omega, d1, config, model)
        if pt is None:
            continue
        if best is None or abs(pt.beta) > abs(best.beta) + 1e-9:
            best = pt
        elif abs(abs(pt.beta) - abs(best.beta)) <= 1e-9 and pt.d1 < best.d1:
            best = pt  # equal coupling: prefer the thinner strip
    return PathRecord(omega=omega, point=best)


def optimize_path(
    branch: BranchId,
    omega_grid,
    d1_grid,
    config: OptimizeConfig = OptimizeConfig(),
    model: DielectricModel = SILVER,
) -> OptimizationPath:
    """Best feasible conversion point at each frequency, maximized over the
    strip-thickness grid (each thickness itself optimized over the gap).

    Cells are independent; with config.threads > 1 they are mapped over a
    thread pool and reduced in grid order, so the result does not depend
    on the worker count.
    """
    omegas = tuple(float(w) for w in omega_grid)
    d1s = tuple(float(d) for d in d1_grid)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(lambda w: _best_over_d1(branch, w, d1s, config, model), omegas))
    else:
        records = [_best_over_d1(branch, w, d1s, config, model) for w in omegas]
    return OptimizationPath(branch=branch, records=tuple(records))
