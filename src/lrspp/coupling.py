"""Photon to surface-mode conversion: overlap amplitude, feasibility
constraints, and the constrained (d2, d1, omega) optimization.

The conversion amplitude beta at a matched frequency is a property of the
four-layer stack: modes.beta_of_gap builds it once per bound point (a
DispersionSolution, in its own model) as a function of the gap d2, and
computes every beta reported here: the gap search, optimize_d2's point
and overlap_beta.  With beta it returns a ceiling that bounds |beta| at
d2 and at every larger gap.

The gap search scans a log-spaced grid of d2 and stops at the first point
whose ceiling lies below the best |beta| so far: no later point can pass
the scan's strict v > best test, and the result keeps every bit of the
full scan.

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
from .errors import ConfigError, NoBoundMode, NoMatchingAngle
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
    return modes.beta_of_gap(sol, theta, eps_prism)(d2)[1]


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if value == _INF:
        raise ValueError(f"{name} must be finite, got {value!r}")


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
    refinement.  The scan stops at the first grid point whose ceiling
    (modes.beta_of_gap: |tau| + CEILING_MARGIN at or past critical
    coupling) lies below the best |beta| so far: no later point can win,
    and the result is that of the full scan, bit for bit.  The points are computed one at a time, so d2_steps sizes no
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

    beta = modes.beta_of_gap(sol, theta, config.eps_prism)
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
        elif ceiling < best_v:  # no later gap can win
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
