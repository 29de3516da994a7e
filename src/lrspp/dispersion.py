"""Thin-film surface mode dispersion for a metal strip in air.

A strip of thickness d1 supports two transverse-magnetic bound modes whose
frequencies obey

    exp(-nu_m d1) = +/- (nu_m + eps_m nu_0) / (nu_m - eps_m nu_0),

with decay constants nu_m^2 = k^2 - eps_m (w/c)^2 into the metal and
nu_0^2 = k^2 - (w/c)^2 into the air.  The '+' sign selects the
antisymmetric (higher-frequency, low-loss) branch, the '-' sign the
symmetric branch.  Both solvers below work on the lossless dielectric
function, and the bound point they return carries the model it was solved
in; the complex propagation constant of the damped mode is obtained
separately by continuing that root into the complex plane with the lossy
dielectric function of the same model.

Both directions, k at fixed omega (solve_k) and omega at fixed k
(solve_omega), go through one root routine: the search window is the
bracket when a pole-free form H of the equation changes sign across it
(else the branch has no bound mode there).  One kernel, _window_root,
evaluates H inline and bisects the window; a few Newton steps then polish
the root on the log residual

    G = -nu_m d1 - ln[ +/- (nu_m + eps_m nu_0)/(nu_m - eps_m nu_0) ],

whose slopes along k and omega follow by the chain rule.  Each solve
computes the terms fixed along its unknown (eps_m and (w/c)^2 for k, k^2
for omega) once, and H keeps the float operations of computing them per
evaluation, so the roots are the same bit for bit.  Given bounds, the same
bisection stops as soon as its bracket lies wholly beyond one and says
which: coupling decides B >= 1 that way, on solve_omega's window
(_omega_window), without polishing the root.  The polish keeps the
relative residual of the defining equation near machine precision up to
nu_m d1 of about 13.  Beyond that exp(-nu_m d1) drops below the rounding
of the right-hand side: both branches coincide with the single-interface
mode to double precision, and the residual can no longer be resolved.

One slope formula (_slopes; _h_slope for H) serves the polish, the group
velocity -(dH/dk)/(dH/domega) and the complex continuation K = k + i kappa
(Newton on H in complex k with the lossy eps_m).  The last two start from
the bound point the caller holds and solve no root.  At a root H's ratio
equals G's, but it stays well conditioned once rounding swamps G's
numerator (nu_m d1 beyond about 36).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .constants import C_LIGHT
from .errors import ConvergenceError, NoBoundMode, NoMatchingAngle, StencilError
from .materials import (
    _OMEGA_SQUARE_UNDERFLOW, DielectricModel, _eps_derivative, eps_lossless, eps_lossy, surface_plasma_frequency,
)

#: Top of the inverse-problem search window, k in (w/c, K_WINDOW_TOP * w/c].
#: Roots beyond this window correspond to strongly electrostatic modes the
#: prism-coupled setup cannot reach (the phase-matching angle does not
#: exist), and are reported as NoBoundMode.
K_WINDOW_TOP = 2.0
#: Top of the forward-problem window as a fraction of w_sp: solve_omega
#: searches below it, and the commands' frequency grids are clipped there.
OMEGA_WINDOW_TOP = 1.0 - 1e-6

#: Stopping rules of the bisection (bracket / its top) and of the complex
#: Newton iteration.  A complex step's move is counted in units in the last
#: place of k and of kappa, the larger count: once a step moves both by at
#: most COMPLEX_SETTLED_ULPS (about 1e-9 of each), the iteration ends at
#: the first step that moves them no less than the step before, the
#: rounding floor of H.
BISECT_REL_TOL, BISECT_MAX_ITER = 1e-15, 200
COMPLEX_SETTLED_ULPS, COMPLEX_MAX_ITER = 2**22, 100


class BranchId(enum.Enum):
    """The two bound branches: charge oscillations on the strip's faces
    out of phase (antisymmetric, '+') or in phase (symmetric, '-')."""

    ANTISYMMETRIC = "plus"
    SYMMETRIC = "minus"

    @property
    def sign(self) -> int:
        return +1 if self is BranchId.ANTISYMMETRIC else -1

    @property
    def other(self) -> "BranchId":
        return BranchId.SYMMETRIC if self is BranchId.ANTISYMMETRIC else BranchId.ANTISYMMETRIC


@dataclass(frozen=True)
class DispersionSolution:
    """One bound-mode point: (branch, k, omega), decay constants, and the
    metal model it was solved in, which everything evaluated at it uses."""

    branch: BranchId
    k: float
    omega: float
    nu_m: float
    nu_0: float
    d1: float
    model: DielectricModel

    def relative_residual(self) -> float:
        """|lhs - rhs| / |lhs| of the dispersion equation at this point."""
        gd = _log_residual(self.branch.sign, self.k, self.omega, self.d1, self.model)
        if gd is None:
            return math.inf
        return abs(math.expm1(gd[0]))


@dataclass(frozen=True)
class ComplexWavenumber:
    """Complex propagation constant K = k + i*kappa of the damped mode."""

    k: float
    kappa: float


def _decay_constants(k: float, omega: float, em: float) -> tuple[float, float] | None:
    """(nu_m, nu_0) for a candidate bound point, or None above the light line."""
    woc2 = (omega / C_LIGHT) ** 2
    n02 = k * k - woc2
    nm2 = k * k - em * woc2
    if n02 <= 0.0 or nm2 <= 0.0:
        return None
    return math.sqrt(nm2), math.sqrt(n02)


def _log_residual(
    sign: int, k: float, omega: float, d1: float, model: DielectricModel, along_omega: bool = False
) -> tuple[float, float] | None:
    """(G, dG/dx) with G = ln(lhs) - ln(rhs) and x = omega or k; None where
    rhs has the wrong sign."""
    em = eps_lossless(model, omega)
    nus = _decay_constants(k, omega, em)
    if nus is None:
        return None
    nu_m, nu_0 = nus
    num = sign * (nu_m + em * nu_0)
    den = nu_m - em * nu_0
    if num <= 0.0 or den <= 0.0:
        return None
    g = -nu_m * d1 - math.log(num) + math.log(den)
    dnu_m, dnum, dden = _slopes(k, omega, em, nu_m, nu_0, model, along_omega)
    return g, -d1 * dnu_m - dnum / (nu_m + em * nu_0) + dden / den


def _slopes(
    k: float, omega: float, em: float, nu_m: float, nu_0: float, model: DielectricModel, along_omega: bool
) -> tuple[float, float, float]:
    """The slopes of nu_m, nu_m + eps_m nu_0 and nu_m - eps_m nu_0 along
    x = omega or k at a bound point.  eps_m does not depend on k, so along
    k the same formula holds for complex k, eps_m and decay constants."""
    if along_omega:
        emp = _eps_derivative(model, omega)
        dnu_m = -(emp * omega * omega + 2.0 * em * omega) / (2.0 * C_LIGHT**2 * nu_m)
        dnu_0 = -omega / (C_LIGHT**2 * nu_0)
    else:
        emp = 0.0
        dnu_m = k / nu_m
        dnu_0 = k / nu_0
    return dnu_m, dnu_m + emp * nu_0 + em * dnu_0, dnu_m - emp * nu_0 - em * dnu_0


def _h_slope(sign: int, k, omega: float, em, nu_m, nu_0, u, d1: float, model: DielectricModel, along_omega: bool):
    """The slope of H = u (nu_m - em nu_0) - sign (nu_m + em nu_0), with
    u = exp(-nu_m d1), along x = omega or k at (k, omega): real, or along k
    complex, with complex k, em, decay constants and u."""
    dnu_m, dnum, dden = _slopes(k, omega, em, nu_m, nu_0, model, along_omega)
    du = -u * d1 if u else 0.0  # du/dnu_m of u = exp(-nu_m d1); 0, not NaN, at d1 = inf
    return u * dden + du * dnu_m * (nu_m - em * nu_0) - sign * dnum


def _window_root(sign: int, k: float | None, omega: float | None, d1: float, model: DielectricModel,
                 lo: float, hi: float, below: float = -math.inf, above: float = math.inf) -> float | None:
    """The root, along the unknown k or omega (passed as None), of the
    pole-free residual H = e^{-nu_m d1} (nu_m - eps_m nu_0) - sign (nu_m +
    eps_m nu_0) in the window [lo, hi]: lo itself where H(lo) is 0, else
    the end point of a bisection; None unless H changes sign across the
    window.  H is 0 exactly at branch roots, +inf outside the bound-mode
    domain, and evaluated inline at lo, at hi and at every midpoint.
    Given bounds, it returns +inf once the bracket lies wholly above
    `above` and -inf once wholly below `below`: the end that just moved
    has passed the bound.  The solvers pass none.
    """
    sqrt, exp, c, tol = math.sqrt, math.exp, C_LIGHT, BISECT_REL_TOL
    minus_d1 = -d1  # exp(nu_m * -d1) is exp(-nu_m * d1) bit for bit
    along_omega = omega is None
    if along_omega:
        kk = k * k
    else:
        em = eps_lossless(model, omega)
        woc2 = (omega / c) ** 2
        emw = em * woc2
    x, lo_negative = lo, False
    for i in range(BISECT_MAX_ITER + 2):  # lo, hi, then the midpoints
        if along_omega:
            woc2 = (x / c) ** 2
            em = eps_lossless(model, x)
            emw = em * woc2
        else:
            kk = x * x
        n02 = kk - woc2
        nm2 = kk - emw
        if n02 <= 0.0 or nm2 <= 0.0:
            h = math.inf
        else:
            nu_m, nu_0 = sqrt(nm2), sqrt(n02)
            h = exp(nu_m * minus_d1) * (nu_m - em * nu_0) - sign * (nu_m + em * nu_0)
        if h == 0.0 and i != 1:  # the low end or a midpoint is a root
            return x
        if i > 1:  # a midpoint
            if (h < 0.0) == lo_negative:
                lo = x
                if lo > above:
                    return math.inf
            else:
                hi = x
                if hi < below:
                    return -math.inf
            if hi - lo <= tol * hi:  # hi > 0 in both windows
                break
        elif i == 0:  # the window's low end
            lo_negative, x = h < 0.0, hi
            continue
        elif (h < 0.0) == lo_negative:  # its top: no sign change
            return None
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _solve(
    branch: BranchId, k: float | None, omega: float | None, d1: float, model: DielectricModel,
    lo: float, hi: float, no_root,
) -> DispersionSolution:
    """The branch's bound point whose unknown, k or omega (passed as None),
    is the root of the pole-free residual H in the window [lo, hi].

    The window is the bracket: unless H(lo) is 0 or H changes sign across
    it, raises NoBoundMode with the message no_root().  The bisection's
    end point (_window_root) takes at most 6 Newton steps on the log
    residual G, kept in the window widened by half and, for omega, below
    the light line c k.  A polished point whose eps_m overflows to -inf
    (omega^2 tiny), so that nu_m is not finite, is NoBoundMode.
    """
    along_omega = omega is None
    x = _window_root(branch.sign, k, omega, d1, model, lo, hi)
    if x is None:
        raise NoBoundMode(no_root())
    x_max = min(hi * 1.5, C_LIGHT * k) if along_omega else hi * 1.5

    def point(x: float) -> tuple[float, float]:
        return (k, x) if along_omega else (x, omega)

    for _ in range(6):
        gd = _log_residual(branch.sign, *point(x), d1, model, along_omega)
        if gd is None:
            break
        g, dg = gd
        if dg == 0.0 or not math.isfinite(dg):
            break
        step = g / dg
        x_new = x - step
        if not (lo * 0.5 <= x_new <= x_max):
            break
        x = x_new
        if abs(step) <= 2.3e-16 * x:
            break
    k, omega = point(x)
    nus = _decay_constants(k, omega, eps_lossless(model, omega))
    if nus is None:
        raise ConvergenceError(f"root polished outside the bound-mode domain at k={k:.6g}")
    if not math.isfinite(nus[0]):  # eps_m = -inf: nu_m is inf, or nan where (omega/c)^2 is 0
        raise NoBoundMode(
            f"{branch.value} branch has no finite bound mode at k={k:.6g} rad/m, omega={omega:.6g} rad/s: "
            "eps_m overflows"
        )
    return DispersionSolution(branch=branch, k=k, omega=omega, nu_m=nus[0], nu_0=nus[1], d1=d1, model=model)


def solve_omega(branch: BranchId, k: float, d1: float, model: DielectricModel) -> DispersionSolution:
    """Frequency of the given branch at propagation constant k.

    Searches w in (0, min(c k, w_surface)); raises NoBoundMode when the
    branch has no bound solution below the surface-mode limit at this k
    (the antisymmetric branch sits above it for intermediate k at small d1),
    and when k is so small that omega^2 underflows in the window.
    """
    lo, hi = _omega_window(branch, k, d1, model)
    return _solve(branch, k, None, d1, model, lo, hi, lambda: (
        f"{branch.value} branch has no bound mode below the surface-mode "
        f"limit at k={k:.6g} rad/m, d1={d1:.4g} m"
    ))


def _omega_window(branch: BranchId, k: float, d1: float, model: DielectricModel) -> tuple[float, float]:
    """solve_omega's window (lo, hi) at k, below the light line and w_sp.
    Raises ValueError unless k and d1 are positive, and NoBoundMode where
    omega^2 underflows in it."""
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    if not d1 > 0.0:
        raise ValueError(f"d1 must be positive, got {d1!r}")
    w_sp = surface_plasma_frequency(model)
    hi = min(C_LIGHT * k * (1.0 - 1e-9), w_sp * OMEGA_WINDOW_TOP)
    lo = 1e-3 * hi
    if not 0.5 * lo > _OMEGA_SQUARE_UNDERFLOW:  # the Newton polish may reach lo / 2
        raise NoBoundMode(f"{branch.value} branch at k={k:.6g} rad/m: omega^2 underflows in the search window")
    return lo, hi


def solve_k(branch: BranchId, omega: float, d1: float, model: DielectricModel) -> DispersionSolution:
    """Propagation constant of the given branch at frequency omega.

    Searches k in (w/c, K_WINDOW_TOP * w/c].  Raises NoBoundMode when the
    branch does not reach omega inside the window; at small d1 the
    symmetric branch needs exponentially large k near the surface-mode
    limit, which is reported as unreachable.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    if not d1 > 0.0:
        raise ValueError(f"d1 must be positive, got {d1!r}")
    w_sp = surface_plasma_frequency(model)
    if not omega < w_sp:
        raise NoBoundMode(
            f"omega={omega:.6g} rad/s outside the bound-mode band (0, {w_sp:.6g})"
        )
    k_lo = omega / C_LIGHT * (1.0 + 1e-9)
    k_hi = omega / C_LIGHT * K_WINDOW_TOP
    return _solve(branch, None, omega, d1, model, k_lo, k_hi, lambda: (
        f"{branch.value} branch cannot reach omega={omega:.6g} rad/s at "
        f"d1={d1:.4g} m within k <= {K_WINDOW_TOP:g} w/c"
    ))


def complex_wavenumber(solution: DispersionSolution) -> ComplexWavenumber:
    """Complex root K = k + i*kappa of H with the lossy dielectric function
    of the solution's model, by Newton steps in complex k from the lossless
    bound point solution.

    The stopping rule (see COMPLEX_SETTLED_ULPS) resolves kappa to its own
    precision, not only to that of |K|.  Raises ConvergenceError with
    diagnostics if it takes more than COMPLEX_MAX_ITER steps, and where
    the root is a growing mode.
    """
    branch, omega, d1, model = solution.branch, solution.omega, solution.d1, solution.model
    sign = branch.sign
    em = eps_lossy(model, omega)
    woc = omega / C_LIGHT
    woc2 = woc**2
    kc, last = complex(solution.k, 0.0), math.inf
    for _ in range(COMPLEX_MAX_ITER):
        nu_m = cmath.sqrt(kc * kc - em * woc2)
        nu_0 = cmath.sqrt((kc - woc) * (kc + woc))  # no cancellation near the light line k = w/c
        u = cmath.exp(-nu_m * d1)
        dh = _h_slope(sign, kc, omega, em, nu_m, nu_0, u, d1, model, False)
        if dh == 0:
            raise ConvergenceError(f"flat residual slope at K={kc!r}")
        new = kc - (u * (nu_m - em * nu_0) - sign * (nu_m + em * nu_0)) / dh
        moved = max(abs(new.real - kc.real) / math.ulp(new.real), abs(new.imag - kc.imag) / math.ulp(new.imag))
        kc = new
        if moved >= last and last <= COMPLEX_SETTLED_ULPS:
            break
        last = moved
    else:
        raise ConvergenceError(
            f"complex root iteration did not converge: K={kc!r}, last step {last:.3g} ulps, "
            f"omega={omega:.6g}, d1={d1:.4g}, branch={branch.value}"
        )
    kappa = kc.imag
    if abs(kappa) < 1e-12 * abs(kc.real):
        kappa = max(kappa, 0.0)
    if kappa < 0.0:
        raise ConvergenceError(
            f"complex root converged to a growing mode (kappa={kappa:.3e}) at "
            f"omega={omega:.6g}, d1={d1:.4g}, branch={branch.value}"
        )
    return ComplexWavenumber(k=kc.real, kappa=kappa)


def group_velocity(solution: DispersionSolution) -> float:
    """d(omega)/dk = -(dH/dk)/(dH/domega) at the bound point solution, from
    the analytic slopes of the pole-free residual H in its model.

    Raises StencilError where the slopes give no velocity in the physical
    range (0, c).
    """
    s = solution
    em = eps_lossless(s.model, s.omega)
    at = (s.branch.sign, s.k, s.omega, em, s.nu_m, s.nu_0, math.exp(-s.nu_m * s.d1), s.d1, s.model)
    dh_dw = _h_slope(*at, True)
    v = -_h_slope(*at, False) / dh_dw if dh_dw else math.nan
    if not 0.0 < v < C_LIGHT:
        raise StencilError(f"group velocity {v:.6g} m/s outside (0, c) at omega={s.omega:.6g}")
    return v


def coupling_angle(omega: float, k: float, eps_prism: float) -> float:
    """Prism incidence angle that phase-matches k along the surface.

    theta = arcsin(c k / (w sqrt(eps_prism))); exceeds the critical angle
    for any bound mode since c k / w > 1.  Raises NoMatchingAngle when the
    prism index is too low to reach k.
    """
    if not 1.0 < eps_prism < math.inf:
        raise ValueError(f"eps_prism must be finite and exceed 1, got {eps_prism!r}")
    if not (0.0 < omega < math.inf and 0.0 < k < math.inf):
        raise ValueError("omega and k must be positive and finite")
    s = C_LIGHT * k / (omega * math.sqrt(eps_prism))
    if s > 1.0:
        raise NoMatchingAngle(
            f"ck/(w sqrt(eps1)) = {s:.6f} > 1: no incidence angle reaches k={k:.6g}"
        )
    return math.asin(s)
