"""Photon to surface-mode conversion: overlap amplitude, feasibility
constraints, and the constrained (d2, d1, omega) optimization.

The conversion amplitude at a matched frequency is

    beta* = -tau(w) * Int [phi / sqrt(N1)]* . [psi / sqrt(N2)] dz

over z in [-d2, +inf): the reflection-dip amplitude tau of the lossy
four-layer stack times the normalized overlap of the strip mode with the
transmitted field.  Both norms use the same domain, so the overlap is
bounded by 1 and |beta| <= |tau|.  One closed form, built once per bound
point (a DispersionSolution, in its own model) as a function of d2
(_beta_of_gap), computes every beta reported here: the gap search,
optimize_d2's point and overlap_beta.

The gap search scans a log-spaced grid of d2 and stops at the first point
past which no gap can beat the best |beta| found so far.  Two facts bound
every later gap.  First, |beta| <= |tau| (above).  Second, |tau| falls for
every d2 >= d2* = ln|k2/a1| / (2 g0), critical coupling, where the gap
field at the metal is a1 exp(-g0 z) + k2 exp(g0 z): with u =
exp(-2 g0 d2), v = (k2/a1) u, g = 1/g0 and the prism admittance q purely
imaginary, the prism match gives r = ((q-g) v + (q+g)) / ((q+g) v + (q-g)),
so 1 - |r|^2 = K u / (a u^2 - 2 b u + c) with constant K, a, b, c, which
rises with u up to |a1/k2| and falls above it; u falls as d2 grows and is
at most |a1/k2| from d2* on.  So the closure returns, with beta, the ceiling
|tau(d2)| once d2 >= d2* (else 1), and the scan ends at the first point
whose ceiling, plus CEILING_MARGIN for tau's rounding, lies below the best
|beta| so far: no later point can pass the scan's strict v > best test,
and the result keeps every bit of the full scan.

Three dimensionless feasibility parameters gate the optimization:

    B = (w_plus - w_minus) / (2 dw)   branch separation vs. bandwidth,
                                      evaluated at the matched wavevector
    P = 2 / (nu_0 d2)                 strip-mode penetration into the prism
    C = 4 / (nu_m d1)                 coupling between the strip's faces

with feasibility B >= 1, P <= 1 and C >= 1.  The gap search decides
B >= 1 from the bracket of the other branch's root; B itself is solved on
the first read of a point's constraints, once per row in best_over_d1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import modes
from .dispersion import (
    BranchId, DispersionSolution, _omega_window, _window_root, coupling_angle, solve_k, solve_omega,
)
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
#: Margin of the gap scan's stop: far above the absolute resolution of
#: |tau| = sqrt(max(0, 1 - |r|^2)), about 1.5e-8, and the rounding of |beta|.
CEILING_MARGIN = 1e-6


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
    """One optimized conversion point: the lossless bound point it was
    searched at, whose branch, omega, d1 and model are the point's, and
    what the gap search adds to it, with the bandwidth it searched under.

    g = arcsin|beta| is the mixing angle of the photon/surface-mode
    beamsplitter; g_tilde = 2g/pi normalizes it to [0, 1].
    """

    d2: float
    theta: float
    beta: complex
    g: float
    g_tilde: float
    solution: DispersionSolution
    delta_omega: float

    @functools.cached_property
    def constraints(self) -> ConstraintSet:
        """(B, P, C) at the point: constraint_set(solution, d2, delta_omega).
        The search decided B >= 1 from a bracket; B's root is solved on the
        first read, and the value is kept (and pickled) with the point."""
        return constraint_set(self.solution, self.d2, self.delta_omega)


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


def overlap_beta(sol: DispersionSolution, d2: float, eps_prism: float = DEFAULT_EPS_PRISM) -> complex:
    """Conversion amplitude beta at the bound point sol, matched through the
    prism, at gap d2, in the solution's model.

    Raises ValueError unless d2 is positive and finite, NoMatchingAngle
    when the phase-matching angle does not exist, and NormalizationError
    when the computed |beta| exceeds 1 beyond roundoff (inconsistent norms).
    """
    _require_positive("d2", d2)
    theta = coupling_angle(sol.omega, sol.k, eps_prism)
    return _beta_of_gap(sol, theta, eps_prism)(d2)[1]


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if value == _INF:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _beta_of_gap(sol: DispersionSolution, theta: float, eps_prism: float):
    """(|beta|, beta, ceiling) as a function of the gap d2 at a fixed
    dispersion solution and its matching angle theta: the one beta formula
    of the library.  The ceiling bounds |beta| at d2 and at every larger
    gap, up to tau's rounding: |tau(d2)| once d2 >= d2* (critical coupling,
    where |tau| peaks), else 1.

    Only the prism match and the [-d2, 0] part of the integrals depend on d2:
    the strip mode, the stack above z = 0 and the [0, inf) parts of N1, N2
    and the overlap are computed once here, with the transmitted field
    normalised at the metal's lower face.  Per gap the field is normalised
    at the prism (modes._prism_match): w0 = exp(-g0 d2) times that field
    above z = 0, and a1 exp(-g0 (z + d2)) (1, i kx/g0) +
    k2 w0 exp(g0 z) (1, -i kx/g0) in the gap, where the strip mode is
    exp(nu_0 z) (1, -i k/nu_0).  Each gap integral is the product of two
    terms at the face where it is largest times modes._segment_integral,
    so no amplitude or integral overflows for any d1 and finite d2.  All
    four gap rates are real, and the closure writes that case of the
    segment integral out in place.  The field for unit incidence is c
    times this one, so the normalized overlap gains the phase c/|c| that
    modes._prism_match returns.
    """
    phi = modes.lrspp_profile(sol)
    st = modes._upper_stack(sol.omega, theta, sol.d1, eps_prism, sol.model)
    psi = modes._upper_profile(st, sol.d1, 1.0)
    n1_up = modes.profile_norm(phi, 0.0, _INF)
    n2_up = modes.profile_norm(psi, 0.0, _INF)
    o_up = modes.overlap_integral(phi, psi, 0.0, _INF)

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
    # The rates of the four gap integrals, and the calls of the closure, as locals.
    two_g0, two_nu0, nu0_g0 = 2.0 * g0, 2.0 * nu0, nu0 + g0
    exp, expm1, sqrt, prism_match = math.exp, math.expm1, math.sqrt, modes._prism_match
    # Critical coupling: |tau| falls for every d2 >= d2*.  Where a1 or k2 is
    # 0, no gap is taken to be past it (d2* = inf: the scan runs in full).
    d2_star = (math.log(abs(k2)) - math.log(abs(a1))) / two_g0 if a1 and k2 else _INF

    def beta(d2: float) -> tuple[float, complex, float]:
        w0, _, phase, _, tau = prism_match(st, d2)
        # Each "-expm1(-p) / rate if p else d2", p = rate d2, is
        # modes._segment_integral(rate, d2) for a real rate, bit for bit.
        p = two_g0 * d2
        g0_int = -expm1(-p) / two_g0 if p else d2
        p = two_nu0 * d2
        n1 = n1_up + n1_w * (-expm1(-p) / two_nu0 if p else d2)
        n2 = n2_w1 * g0_int + w0 * w0 * (n2_up + n2_w2 * g0_int + n2_cross_w * d2)
        p = apart * d2
        mixed = exp(-slow * d2) * (-expm1(-p) / apart if p else d2)
        p = nu0_g0 * d2
        overlap = o_w1 * mixed + w0 * (o_up + o_w2 * (-expm1(-p) / nu0_g0 if p else d2))
        value = -(tau * phase * overlap / sqrt(n1 * n2)).conjugate()
        size = abs(value)
        if size > 1.0 + 1e-9:  # inconsistent norms
            raise NormalizationError(
                f"|beta| = {size:.12f} > 1 at omega={sol.omega:.6g}, d1={sol.d1:.4g}, d2={d2:.4g}"
            )
        return size, value, (abs(tau) if d2 >= d2_star else 1.0)

    return beta


def constraint_set(sol: DispersionSolution, d2: float, delta_omega: float = DEFAULT_DELTA_OMEGA) -> ConstraintSet:
    """(B, P, C) at the bound point sol and gap d2, in the solution's model.

    B compares the branch separation at the *matched wavevector* with the
    wavepacket bandwidth: the other branch's frequency is evaluated at the
    same k the incoming beam phase-matches.  If the other branch has no
    bound mode at that k, simultaneous excitation is impossible and
    B = +inf.  Raises ValueError naming d2 or delta_omega unless it is
    positive and finite.
    """
    _require_positive("d2", d2)
    _require_positive("delta_omega", delta_omega)
    return _constraints(sol, _bandwidth(sol, delta_omega), d2)


def _bandwidth(sol: DispersionSolution, delta_omega: float) -> float:
    """B at the solution's wavevector: one root solve on the other branch.
    0.5 gap / delta_omega is gap / (2 delta_omega) bit for bit wherever
    2 delta_omega is finite, and no 0 beyond."""
    try:
        other = solve_omega(sol.branch.other, sol.k, sol.d1, sol.model)
    except NoBoundMode:
        return _INF
    gap = sol.omega - other.omega if sol.branch is BranchId.ANTISYMMETRIC else other.omega - sol.omega
    return 0.5 * gap / delta_omega


#: Margin of _bandwidth_at_least_one, a fraction of the other branch's window
#: top: far above the rounding of B and of the root's polish.
GATE_MARGIN = 1e-9


def _bandwidth_at_least_one(sol: DispersionSolution, delta_omega: float) -> bool:
    """Whether B >= 1, from the bracket of the other branch's root w': B >= 1
    where w' <= t = w - 2 delta_omega (plus branch), w' >= t = w + 2 delta_omega
    (minus).  The bisection of solve_omega's window stops once its bracket
    lies wholly beyond t -/+ m, m = GATE_MARGIN of the window top; a t that
    overflows to -/+inf gives the tiny B's answer.  No bound mode is B = inf.
    A bracket that closes within the margin, or an exact zero of H, falls
    back to _bandwidth."""
    other = sol.branch.other
    try:
        lo, hi = _omega_window(other, sol.k, sol.d1, sol.model)
    except NoBoundMode:
        return True
    sign = sol.branch.sign
    t = sol.omega - sign * 2.0 * delta_omega
    m = GATE_MARGIN * hi
    side = _window_root(other.sign, sol.k, None, sol.d1, sol.model, lo, hi, t - m, t + m)
    if side is None:
        return True
    if math.isinf(side):  # w' wholly below t - m (-inf) passes on plus, above t + m (+inf) on minus
        return side * sign < 0.0
    return _bandwidth(sol, delta_omega) >= 1.0


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
    refinement.  The scan stops at the first grid point at or past
    critical coupling whose |tau| + CEILING_MARGIN lies below the best
    |beta| so far: |beta| <= |tau| and |tau| only falls from there, so no
    later point can win and the result is that of the full scan, bit for
    bit.  The points are computed one at a time, so d2_steps sizes no
    list.  A NormalizationError or SingularSystemError that beta would
    raise at a gap past the stop is not raised.  Returns None when no gap
    satisfies the constraints (the subtracted regions of the coupling
    maps).  Raises ConfigError naming d2 when the top of the gap grid
    overflows.  B >= 1 is decided from a bracket; the point's constraints
    are computed on their first read.
    """
    try:
        sol = solve_k(branch, omega, d1, model)
        theta = coupling_angle(sol.omega, sol.k, config.eps_prism)
    except (NoBoundMode, NoMatchingAngle):
        return None

    # C (B = inf here) and the gap window of P <= 1 go before B >= 1 is decided.
    d2_lo = max(config.d2_min, 2.0 / sol.nu_0)
    d2_hi = config.d2_max
    if _constraints(sol, _INF, d2_hi).coupled_surfaces_C < 1.0 or d2_lo > d2_hi:
        return None
    if not _bandwidth_at_least_one(sol, config.delta_omega):
        return None

    beta = _beta_of_gap(sol, theta, config.eps_prism)
    n = config.d2_steps
    ratio = d2_hi / d2_lo

    def grid(i: int) -> float:
        return d2_lo * ratio ** (i / (n - 1))

    if grid(n - 1) == _INF:  # the ratio, or its product with d2_lo, overflows
        raise ConfigError(f"d2: the gap grid from {d2_lo!r} to {d2_hi!r} overflows")
    best_i, best_v, best_beta = 0, -1.0, None
    for i in range(n):
        v, z, ceiling = beta(grid(i))
        if v > best_v:
            best_i, best_v, best_beta = i, v, z
        elif ceiling + CEILING_MARGIN < best_v:  # no later gap can win
            break

    a = grid(max(best_i - 1, 0))
    b = grid(min(best_i + 1, n - 1))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = beta(c)[0], beta(d)[0]
    while b - a > D2_REFINE:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = beta(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = beta(d)[0]
    d2_best = 0.5 * a + 0.5 * b  # the bits of 0.5 (a + b), which can overflow
    v_best, beta_best, _ = beta(d2_best)
    if v_best < best_v:  # the best grid point, with the scan's beta
        d2_best, v_best, beta_best = grid(best_i), best_v, best_beta

    if not _constraints(sol, _INF, d2_best).feasible:  # B >= 1 is decided above
        return None
    g = math.asin(min(1.0, v_best))
    return CouplingPoint(
        d2=d2_best, theta=theta, beta=beta_best, g=g, g_tilde=2.0 * g / math.pi, solution=sol,
        delta_omega=config.delta_omega,
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
    over the (branch, omega) rows, in worker processes under --threads.
    The returned point's constraints are read here: the row's one full root
    of B runs in the worker and travels back with the point."""
    best: CouplingPoint | None = None
    for d1 in d1_grid:
        pt = optimize_d2(branch, omega, d1, config, model)
        if pt is None:
            continue
        v = abs(pt.beta)
        # A larger |beta| wins; within 1e-9, equal coupling, the thinner strip.
        if best is None or v > best_v + 1e-9 or (abs(v - best_v) <= 1e-9 and pt.solution.d1 < best.solution.d1):
            best, best_v = pt, v
    if best is not None:
        best.constraints  # solves B in full, cached on the point
    return best
