"""Photon to surface-mode conversion: overlap amplitude, feasibility
constraints, and the constrained (d2, d1, omega) optimization.

The conversion amplitude at a matched frequency is

    beta* = -tau(w) * Int [phi / sqrt(N1)]* . [psi / sqrt(N2)] dz

over z in [-d2, +inf): the reflection-dip amplitude tau of the lossy
four-layer stack times the normalized overlap of the strip mode with the
transmitted field.  Both norms use the same domain, so the overlap is
bounded by 1 and |beta| <= |tau|.  One closed form, built once per
(branch, omega, d1) as a function of d2 (_beta_of_gap), computes every beta
reported here: the gap search, optimize_d2's point and overlap_beta.

Three dimensionless feasibility parameters gate the optimization:

    B = (w_plus - w_minus) / (2 dw)   branch separation vs. bandwidth,
                                      evaluated at the matched wavevector
    P = 2 / (nu_0 d2)                 strip-mode penetration into the prism
    C = 4 / (nu_m d1)                 coupling between the strip's faces

with feasibility B >= 1, P <= 1 and C >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import modes
from .dispersion import BranchId, DispersionSolution, coupling_angle, solve_k, solve_omega
from .errors import ConfigError, NoBoundMode, NoMatchingAngle, NormalizationError
from .materials import DielectricModel, SILVER

_INF = math.inf

#: Bandwidth of the incoming Gaussian wavepacket (rad/s) used in B.
DEFAULT_DELTA_OMEGA = 3.02e13
#: Prism dielectric constant.
DEFAULT_EPS_PRISM = 1.51
#: Width (m) at which the golden-section refine of the gap stops.  It must
#: exceed the float spacing of d2, or the window never shrinks below it.
D2_REFINE = 1e-10


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
    solution: DispersionSolution  # the lossless bound point at (branch, omega, d1)


@dataclass(frozen=True)
class OptimizeConfig:
    """Search grids and tolerances for the constrained optimization.

    Raises ValueError naming the field unless 0 < d2_min < d2_max < inf,
    d2_steps is an integer of at least 2, delta_omega is positive and
    finite, and eps_prism is finite and exceeds 1.
    """

    d2_min: float = 50e-9
    d2_max: float = 3e-6
    d2_steps: int = 80
    delta_omega: float = DEFAULT_DELTA_OMEGA
    eps_prism: float = DEFAULT_EPS_PRISM

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("d2_min", 0.0 < self.d2_min < _INF, "must be positive and finite"),
            ("d2_max", self.d2_min < self.d2_max < _INF, "must be finite and exceed d2_min"),
            ("d2_steps", type(self.d2_steps) is int and self.d2_steps >= 2, "must be an integer of at least 2"),
            ("delta_omega", 0.0 < self.delta_omega < _INF, "must be positive and finite"),
            ("eps_prism", 1.0 < self.eps_prism < _INF, "must be finite and exceed 1"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")


def overlap_beta(
    branch: BranchId,
    omega: float,
    d1: float,
    d2: float,
    eps_prism: float = DEFAULT_EPS_PRISM,
    model: DielectricModel = SILVER,
) -> complex:
    """Conversion amplitude beta at a matched frequency.

    Raises ValueError unless d2 is positive and finite, NoBoundMode /
    NoMatchingAngle when the branch or the phase-matching angle does not
    exist, and NormalizationError when the computed |beta| exceeds 1 beyond
    roundoff (inconsistent norms).
    """
    _require_positive("d2", d2)
    if d2 == _INF:
        raise ValueError(f"d2 must be finite, got {d2!r}")
    sol = solve_k(branch, omega, d1, model)
    theta = coupling_angle(sol.omega, sol.k, eps_prism)
    return _beta_of_gap(sol, branch, theta, eps_prism, model)(d2)


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _beta_of_gap(sol: DispersionSolution, branch: BranchId, theta: float, eps_prism: float, model: DielectricModel):
    """beta as a function of the gap d2 at a fixed dispersion solution and
    its matching angle theta: the one beta formula of the library.

    Only the prism match and the [-d2, 0] part of the integrals depend on d2:
    the strip mode, the stack above z = 0 and the [0, inf) parts of N1, N2
    and the overlap are computed once here, with the transmitted field
    normalised at the metal's lower face.  Per gap the field is normalised
    at the prism (modes._prism_match): w0 = exp(-g0 d2) times that field
    above z = 0, and a1 exp(-g0 (z + d2)) (1, i kx/g0) +
    k2 w0 exp(g0 z) (1, -i kx/g0) in the gap, where the strip mode is
    exp(nu_0 z) (1, -i k/nu_0).  Each gap integral is the product of two
    terms at the face where it is largest times modes._segment_integral,
    so no amplitude or integral overflows for any d1 and finite d2.  The
    field for unit incidence is c times this one, so the normalized
    overlap gains the phase c/|c|.
    """
    phi = modes.lrspp_profile(branch, sol, model)
    st = modes._upper_stack(sol.omega, theta, sol.d1, eps_prism, model, lossy=True)
    psi = modes._upper_profile(st, sol.d1, 1.0)
    n1_up = modes.profile_norm(phi, 0.0, _INF)
    n2_up = modes.profile_norm(psi, 0.0, _INF)
    o_up = modes.overlap_integral(phi, psi, 0.0, _INF)

    segment = modes._segment_integral
    nu0, g0, a1, k2 = sol.nu_0, st.gamma_0, st.a1, st.k2
    k_nu, kx_g = sol.k / nu0, st.kx / g0
    # Weights of the gap integrals: dot products of the vector amplitudes.
    n1_w = 1.0 + k_nu * k_nu
    n2_w1 = (1.0 + kx_g * kx_g) * abs(a1) ** 2
    n2_w2 = (1.0 + kx_g * kx_g) * abs(k2) ** 2
    n2_cross_w = 2.0 * (1.0 - kx_g * kx_g) * (a1.conjugate() * k2).real
    o_w1 = (1.0 - k_nu * kx_g) * a1
    o_w2 = (1.0 + k_nu * kx_g) * k2
    # exp(nu0 z) exp(-g0 (z + d2)) is largest at the face of the slower rate.
    slow, apart = min(nu0, g0), abs(nu0 - g0)

    def beta(d2: float) -> complex:
        w0, c, _, tau = modes._prism_match(st, d2)
        g0_int = segment(2.0 * g0, d2)
        n1 = n1_up + n1_w * segment(2.0 * nu0, d2)
        n2 = n2_w1 * g0_int + w0 * w0 * (n2_up + n2_w2 * g0_int + n2_cross_w * d2)
        mixed = math.exp(-slow * d2) * segment(apart, d2)
        overlap = o_w1 * mixed + w0 * (o_up + o_w2 * segment(nu0 + g0, d2))
        value = -(tau * (c / abs(c)) * overlap / math.sqrt(n1 * n2)).conjugate()
        if abs(value) > 1.0 + 1e-9:  # inconsistent norms
            raise NormalizationError(
                f"|beta| = {abs(value):.12f} > 1 at omega={sol.omega:.6g}, d1={sol.d1:.4g}, d2={d2:.4g}"
            )
        return value

    return beta


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
    _require_positive("d2", d2)
    _require_positive("delta_omega", delta_omega)
    sol = solve_k(branch, omega, d1, model)
    return _constraints(sol, _bandwidth(sol, branch, delta_omega, model), d2)


def _bandwidth(sol: DispersionSolution, branch: BranchId, delta_omega: float, model: DielectricModel) -> float:
    """B at the solution's wavevector: one root solve on the other branch."""
    try:
        other = solve_omega(branch.other, sol.k, sol.d1, model)
    except NoBoundMode:
        return _INF
    gap = sol.omega - other.omega if branch is BranchId.ANTISYMMETRIC else other.omega - sol.omega
    return gap / (2.0 * delta_omega)


def _constraints(sol: DispersionSolution, bandwidth: float, d2: float) -> ConstraintSet:
    """(B, P, C) at gap d2, with B from _bandwidth: only P depends on d2."""
    return ConstraintSet(
        bandwidth_B=bandwidth,
        penetration_P=2.0 / (sol.nu_0 * d2),
        coupled_surfaces_C=4.0 / (sol.nu_m * sol.d1),
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
    subtracted regions of the coupling maps).  Raises ConfigError naming d2
    when the top of the gap grid overflows.
    """
    try:
        sol = solve_k(branch, omega, d1, model)
        theta = coupling_angle(sol.omega, sol.k, config.eps_prism)
    except (NoBoundMode, NoMatchingAngle):
        return None

    # C (B = inf here) and the gap window of P <= 1 go before the root solve of B.
    d2_lo = max(config.d2_min, 2.0 / sol.nu_0)
    d2_hi = config.d2_max
    if _constraints(sol, _INF, d2_hi).coupled_surfaces_C < 1.0 or d2_lo > d2_hi:
        return None
    bandwidth = _bandwidth(sol, branch, config.delta_omega, model)
    if bandwidth < 1.0:
        return None

    beta = _beta_of_gap(sol, branch, theta, config.eps_prism, model)

    def value(d2: float) -> float:
        return abs(beta(d2))

    n = config.d2_steps
    ratio = d2_hi / d2_lo
    best_i, best_v = 0, -1.0
    grid = [d2_lo * ratio ** (i / (n - 1)) for i in range(n)]
    if grid[-1] == _INF:  # the ratio, or its product with d2_lo, overflows
        raise ConfigError(f"d2: the gap grid from {d2_lo!r} to {d2_hi!r} overflows")
    for i, d2 in enumerate(grid):
        v = value(d2)
        if v > best_v:
            best_i, best_v = i, v

    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, n - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = value(c), value(d)
    while b - a > D2_REFINE:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = value(d)
    d2_best = 0.5 * a + 0.5 * b  # the bits of 0.5 (a + b), which can overflow
    beta_best = beta(d2_best)
    if abs(beta_best) < best_v:
        d2_best = grid[best_i]
        beta_best = beta(d2_best)

    cons = _constraints(sol, bandwidth, d2_best)
    if not cons.feasible:
        return None
    g = math.asin(min(1.0, abs(beta_best)))
    return CouplingPoint(
        branch=branch, omega=sol.omega, d1=sol.d1, d2=d2_best, theta=theta,
        beta=beta_best, g=g, g_tilde=2.0 * g / math.pi, constraints=cons, solution=sol,
    )


def best_over_d1(
    branch: BranchId,
    omega: float,
    d1_grid: list[float],
    config: OptimizeConfig,
    model: DielectricModel,
) -> CouplingPoint | None:
    """Best feasible point at one frequency over the strip-thickness grid,
    each thickness optimized over the gap (None: no feasible point).  The
    row function of optimize, propagate and cat-entropy: cli._rows maps it
    over the (branch, omega) rows, in worker processes under --threads."""
    best: CouplingPoint | None = None
    for d1 in d1_grid:
        pt = optimize_d2(branch, omega, d1, config, model)
        if pt is None:
            continue
        if best is None or abs(pt.beta) > abs(best.beta) + 1e-9:
            best = pt
        elif abs(abs(pt.beta) - abs(best.beta)) <= 1e-9 and pt.d1 < best.d1:
            best = pt  # equal coupling: prefer the thinner strip
    return best
