"""Thin-film surface mode dispersion for a metal strip in air.

A strip of thickness d1 supports two transverse-magnetic bound modes whose
frequencies obey

    exp(-nu_m d1) = +/- (nu_m + eps_m nu_0) / (nu_m - eps_m nu_0),

with decay constants nu_m^2 = k^2 - eps_m (w/c)^2 into the metal and
nu_0^2 = k^2 - (w/c)^2 into the air.  The '+' sign selects the
antisymmetric (higher-frequency, low-loss) branch, the '-' sign the
symmetric branch.  Both solvers below work on the lossless dielectric
function; the complex propagation constant of the damped mode is obtained
separately by continuing the root into the complex plane with the lossy
dielectric function.

Both directions, k at fixed omega (solve_k) and omega at fixed k
(solve_omega), go through one root routine: bracket a sign change of a
pole-free form of the equation, bisect it, then polish with a few Newton
steps on the log residual

    G = -nu_m d1 - ln[ +/- (nu_m + eps_m nu_0)/(nu_m - eps_m nu_0) ],

whose slope along k or omega follows by the chain rule.  The polish keeps
the relative residual of the defining equation near machine precision up
to nu_m d1 of about 13.  Beyond that exp(-nu_m d1) drops below the rounding
of the right-hand side: both branches coincide with the single-interface
mode to double precision, and the residual can no longer be resolved.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .constants import C_LIGHT
from .errors import ConvergenceError, NoBoundMode, NoMatchingAngle, StencilError
from .materials import DielectricModel, _eps_derivative, eps_lossless, eps_lossy, surface_plasma_frequency

#: Default inverse-problem search window: k in (w/c, KMAX_FACTOR * w/c].
#: Roots beyond this window correspond to strongly electrostatic modes the
#: prism-coupled setup cannot reach (the phase-matching angle does not
#: exist), and are reported as NoBoundMode.
KMAX_FACTOR = 2.0


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
    """One bound-mode point: (branch, k, omega) plus decay constants."""

    branch: BranchId
    k: float
    omega: float
    nu_m: float
    nu_0: float
    d1: float

    def relative_residual(self, model: DielectricModel) -> float:
        """|lhs - rhs| / |lhs| of the dispersion equation at this point."""
        gd = _log_residual(self.branch.sign, self.k, self.omega, self.d1, model)
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


def _poly_residual(sign: int, k: float, omega: float, d1: float, model: DielectricModel) -> float:
    """Pole-free residual H = e^{-nu_m d1}(nu_m - em nu_0) - sign*(nu_m + em nu_0).

    Vanishes exactly at branch roots; safe for bisection.  +inf outside the
    bound-mode domain.
    """
    em = eps_lossless(model, omega)
    nus = _decay_constants(k, omega, em)
    if nus is None:
        return math.inf
    nu_m, nu_0 = nus
    u = math.exp(-nu_m * d1)
    return u * (nu_m - em * nu_0) - sign * (nu_m + em * nu_0)


def _log_residual(
    sign: int, k: float, omega: float, d1: float, model: DielectricModel, along_omega: bool = False
) -> tuple[float, float] | None:
    """(G, dG/dx) with G = ln(lhs) - ln(rhs) and x = omega or k; None where
    rhs has the wrong sign.  eps does not depend on k, so its term drops out
    of the k slope."""
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
    if along_omega:
        emp = _eps_derivative(model, omega)
        dnu_m = -(emp * omega * omega + 2.0 * em * omega) / (2.0 * C_LIGHT**2 * nu_m)
        dnu_0 = -omega / (C_LIGHT**2 * nu_0)
    else:
        emp = 0.0
        dnu_m = k / nu_m
        dnu_0 = k / nu_0
    dnum = dnu_m + emp * nu_0 + em * dnu_0
    dden = dnu_m - emp * nu_0 - em * dnu_0
    return g, -d1 * dnu_m - dnum / (nu_m + em * nu_0) + dden / den


def _bisect(f, lo: float, hi: float, rel_tol: float = 1e-15, max_iter: int = 200) -> float:
    flo = f(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= rel_tol * abs(hi):
            break
    return 0.5 * (lo + hi)


def _solve(
    branch: BranchId, k: float | None, omega: float | None, d1: float, model: DielectricModel,
    f, lo: float, hi: float, no_root,
) -> DispersionSolution:
    """The branch's bound point whose unknown, k or omega (passed as None),
    is the root of the pole-free residual f in [lo, hi].

    The bracket is the window itself when f changes sign across it, else
    one interval of a 64-interval sign-change scan: the last for omega, the
    first for k.  Without one, raises NoBoundMode with the message no_root().
    Bisection of f is followed by at most 6 Newton steps on the log
    residual G, kept inside the bracket widened by half and, for omega,
    below the light line c k.
    """
    along_omega = omega is None
    flo, fhi = f(lo), f(hi)
    if (flo < 0.0) != (fhi < 0.0):
        bracket = (lo, hi)
    else:
        xs = [lo + (hi - lo) * i / 64 for i in range(65)]
        vals = [f(x) for x in xs]
        intervals = []
        for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
            if fa == 0.0 or (fa < 0.0) != (fb < 0.0):
                intervals.append((a, b))
        if not intervals:
            raise NoBoundMode(no_root())
        bracket = intervals[-1 if along_omega else 0]
    x = _bisect(f, *bracket)
    x_max = min(bracket[1] * 1.5, C_LIGHT * k) if along_omega else bracket[1] * 1.5

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
        if not (bracket[0] * 0.5 <= x_new <= x_max):
            break
        x = x_new
        if abs(step) <= 2.3e-16 * x:
            break
    k, omega = point(x)
    em = eps_lossless(model, omega)
    nus = _decay_constants(k, omega, em)
    if nus is None:
        raise ConvergenceError(f"root polished outside the bound-mode domain at k={k:.6g}")
    return DispersionSolution(branch=branch, k=k, omega=omega, nu_m=nus[0], nu_0=nus[1], d1=d1)


def solve_omega(branch: BranchId, k: float, d1: float, model: DielectricModel) -> DispersionSolution:
    """Frequency of the given branch at propagation constant k.

    Searches w in (0, min(c k, w_surface)); raises NoBoundMode when the
    branch has no bound solution below the surface-mode limit at this k
    (the antisymmetric branch sits above it for intermediate k at small d1).
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    if d1 <= 0.0:
        raise ValueError("d1 must be positive")
    w_sp = surface_plasma_frequency(model)
    hi = min(C_LIGHT * k * (1.0 - 1e-9), w_sp * (1.0 - 1e-6))
    lo = 1e-3 * hi
    sign = branch.sign

    def f(w: float) -> float:
        return _poly_residual(sign, k, w, d1, model)

    return _solve(branch, k, None, d1, model, f, lo, hi, lambda: (
        f"{branch.value} branch has no bound mode below the surface-mode "
        f"limit at k={k:.6g} rad/m, d1={d1:.4g} m"
    ))


def solve_k(
    branch: BranchId,
    omega: float,
    d1: float,
    model: DielectricModel,
    kmax_factor: float = KMAX_FACTOR,
) -> DispersionSolution:
    """Propagation constant of the given branch at frequency omega.

    Searches k in (w/c, kmax_factor * w/c].  Raises NoBoundMode when the
    branch does not reach omega inside the window; at small d1 the
    symmetric branch needs exponentially large k near the surface-mode
    limit, which is reported as unreachable.
    """
    if d1 <= 0.0:
        raise ValueError("d1 must be positive")
    w_sp = surface_plasma_frequency(model)
    if not 0.0 < omega < w_sp:
        raise NoBoundMode(
            f"omega={omega:.6g} rad/s outside the bound-mode band (0, {w_sp:.6g})"
        )
    k_lo = omega / C_LIGHT * (1.0 + 1e-9)
    k_hi = omega / C_LIGHT * kmax_factor
    sign = branch.sign

    def f(k: float) -> float:
        return _poly_residual(sign, k, omega, d1, model)

    return _solve(branch, None, omega, d1, model, f, k_lo, k_hi, lambda: (
        f"{branch.value} branch cannot reach omega={omega:.6g} rad/s at "
        f"d1={d1:.4g} m within k <= {kmax_factor:g} w/c"
    ))


def complex_wavenumber(
    branch: BranchId,
    omega: float,
    d1: float,
    model: DielectricModel,
    kmax_factor: float = KMAX_FACTOR,
    max_iter: int = 100,
    rel_tol: float = 1e-12,
) -> ComplexWavenumber:
    """Complex root K = k + i*kappa of the dispersion equation with the
    lossy dielectric function, seeded from the lossless solution.

    Newton iteration in complex k with a numerically differentiated
    residual; raises ConvergenceError with diagnostics if the iteration
    does not settle within ``max_iter`` steps.
    """
    seed = solve_k(branch, omega, d1, model.lossless(), kmax_factor=kmax_factor)
    em = eps_lossy(model, omega)
    sign = branch.sign
    woc2 = (omega / C_LIGHT) ** 2

    def f(kc: complex) -> complex:
        nu_m = cmath.sqrt(kc * kc - em * woc2)
        nu_0 = cmath.sqrt(kc * kc - woc2)
        return cmath.exp(-nu_m * d1) - sign * (nu_m + em * nu_0) / (nu_m - em * nu_0)

    kc = complex(seed.k, 0.0)
    for _ in range(max_iter):
        h = 1e-7 * abs(kc)
        df = (f(kc + h) - f(kc - h)) / (2.0 * h)
        if df == 0:
            raise ConvergenceError(f"flat residual derivative at K={kc!r}")
        step = f(kc) / df
        kc -= step
        if abs(step) <= rel_tol * abs(kc):
            break
    else:
        raise ConvergenceError(
            f"complex root iteration did not converge: K={kc!r}, |F|={abs(f(kc)):.3e}, "
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


def group_velocity(
    branch: BranchId,
    omega: float,
    d1: float,
    model: DielectricModel,
    rel_step: float = 1e-5,
    kmax_factor: float = KMAX_FACTOR,
) -> float:
    """d(omega)/dk by central differencing of the inverse solver.

    Raises StencilError if the branch vanishes inside the stencil or the
    difference quotient leaves the physical range (0, c).
    """
    h = rel_step * omega
    try:
        k_plus = solve_k(branch, omega + h, d1, model, kmax_factor=kmax_factor).k
        k_minus = solve_k(branch, omega - h, d1, model, kmax_factor=kmax_factor).k
    except NoBoundMode as exc:
        raise StencilError(f"branch vanished inside the group-velocity stencil: {exc}") from exc
    dk = k_plus - k_minus
    if dk <= 0.0:
        raise StencilError(f"non-monotonic dispersion inside stencil at omega={omega:.6g}")
    v = 2.0 * h / dk
    if not 0.0 < v < C_LIGHT:
        raise StencilError(f"group velocity {v:.6g} m/s outside (0, c) at omega={omega:.6g}")
    return v


def coupling_angle(omega: float, k: float, eps_prism: float) -> float:
    """Prism incidence angle that phase-matches k along the surface.

    theta = arcsin(c k / (w sqrt(eps_prism))); exceeds the critical angle
    for any bound mode since c k / w > 1.  Raises NoMatchingAngle when the
    prism index is too low to reach k.
    """
    if eps_prism <= 1.0:
        raise ValueError("eps_prism must exceed 1")
    if omega <= 0.0 or k <= 0.0:
        raise ValueError("omega and k must be positive")
    s = C_LIGHT * k / (omega * math.sqrt(eps_prism))
    if s > 1.0:
        raise NoMatchingAngle(
            f"ck/(w sqrt(eps1)) = {s:.6f} > 1: no incidence angle reaches k={k:.6g}"
        )
    return math.asin(s)
