"""Mode profiles: bound-mode fields of the strip and the four-layer
prism-coupled field, with closed-form norms and overlaps.

All profiles are piecewise sums of exponential terms

    (ax, az) * exp(rate * (z - z_ref)),

one list of terms per region of the z axis.  Each term decays away from
the face z_ref of its region, so its amplitude is its largest value there
and no growing exponential is ever formed: the four-layer solve keeps its
amplitudes bounded for any strip and gap by normalising the field at the
metal's lower face and at the prism, never in the top air.  For
transverse-magnetic fields the z amplitude is tied to the x amplitude by
the divergence-free condition az = -i kx / rate * ax; both are stored,
and ``at(z)`` gives (ex, ez) from one exponential per term.  Norms and
overlaps sum term-pair integrals over each pair of overlapping regions,
each the pair's product at the segment end where it is largest times one
closed form, _segment_integral, so no quadrature enters the computation.

The conversion amplitude beta of a bound point, as a function of the gap
(beta_of_gap), is the overlap of the strip mode with the field the stack
transmits, times the reflection-dip amplitude tau of the stack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import C_LIGHT
from .dispersion import DispersionSolution
from .errors import LrsppError, NormalizationError, SingularSystemError
from .materials import DielectricModel, eps_lossless, eps_lossy

_INF = math.inf


@dataclass(frozen=True)
class ExpTerm:
    """One exponential term (ax, az) * exp(rate * (z - z_ref))."""

    ax: complex
    az: complex
    rate: complex
    z_ref: float


@dataclass(frozen=True)
class Region:
    """Terms valid on z_lo <= z <= z_hi (bounds may be infinite)."""

    z_lo: float
    z_hi: float
    terms: tuple[ExpTerm, ...]

    def at(self, z: float) -> tuple[complex, complex]:
        """(ex, ez) at z: one exponential per term, summed in term order."""
        ex = ez = 0j
        for t in self.terms:
            e = cmath.exp(t.rate * (z - t.z_ref))
            ex += t.ax * e
            ez += t.az * e
        return ex, ez


@dataclass(frozen=True)
class PiecewiseExpProfile:
    """Contiguous regions of exponential terms, in z order, plus the shared
    in-plane wavevector kx."""

    regions: tuple[Region, ...]
    kx: float

    @property
    def z_lo(self) -> float:
        return self.regions[0].z_lo

    def at(self, z: float) -> tuple[complex, complex]:
        for r in self.regions:
            if r.z_lo <= z <= r.z_hi:
                return r.at(z)
        raise ValueError(f"z={z} outside profile span [{self.z_lo}, {self.regions[-1].z_hi}]")


def lrspp_profile(solution: DispersionSolution) -> PiecewiseExpProfile:
    """Bound-mode field of the strip at a dispersion solution, in its model.

    Three regions: air below (z < 0, x amplitude 1), metal (0 < z < d1),
    air above (z > d1, x amplitude -/+ 1 for the antisymmetric/symmetric
    branch).  The metal amplitude is (1 - nu_m/(eps_m nu_0))/2, the unique
    value for which both tangential field components are continuous at the
    two faces once the dispersion equation holds.
    """
    k = solution.k
    nu_m, nu_0, d1 = solution.nu_m, solution.nu_0, solution.d1
    em = eps_lossless(solution.model, solution.omega)
    sgn = solution.branch.sign
    p = 0.5 * (1.0 - nu_m / (em * nu_0))

    below = Region(-_INF, 0.0, (ExpTerm(1.0 + 0j, -1j * k / nu_0, nu_0, 0.0),))
    metal = Region(
        0.0,
        d1,
        (
            ExpTerm(p + 0j, p * 1j * k / nu_m, -nu_m, 0.0),
            ExpTerm(-sgn * p + 0j, sgn * p * 1j * k / nu_m, nu_m, d1),
        ),
    )
    above = Region(d1, _INF, (ExpTerm(-sgn + 0j, -sgn * 1j * k / nu_0, -nu_0, d1),))
    return PiecewiseExpProfile(regions=(below, metal, above), kx=k)


@dataclass(frozen=True)
class FourLayerField:
    """Solved prism/gap/metal/air scattering field for unit incidence.

    ``profile`` holds the transmitted part (gap, metal, upper air) in the
    physical unit-incidence scale; ``r`` is the reflection amplitude and
    ``tau`` the conversion amplitude into the surface channel, paired so
    that |r|^2 + |tau|^2 = 1.
    """

    profile: PiecewiseExpProfile
    r: complex
    tau: complex
    gamma_0: float


def four_layer_solve(
    omega: float,
    theta: float,
    d1: float,
    d2: float,
    eps_prism: float,
    model: DielectricModel,
) -> FourLayerField:
    """Transverse-magnetic boundary-value solve of the four-layer stack.

    A unit-amplitude wave comes in through the prism at angle ``theta``;
    2x2 interface matches at z = -d2, 0 and d1 determine the reflected
    amplitude and the five transmitted term amplitudes.  The metal is
    eps_lossy of model: with no damping and no imaginary offset all
    incident power returns (|r| = 1); with loss the reflection dips and the
    missing power is the surface-channel conversion |tau|^2 = 1 - |r|^2
    (the attenuated-total-reflection resonance).
    """
    if not (0.0 < d1 < _INF and 0.0 < d2 < _INF):
        raise ValueError("d1 and d2 must be positive and finite")
    st = _upper_stack(omega, theta, d1, eps_prism, model)
    w0, c, _, r, tau = _prism_match(st, d2)
    gap = Region(-d2, 0.0, (_term(st.kx, c * st.a1, -st.gamma_0, -d2), _term(st.kx, c * w0 * st.k2, st.gamma_0, 0.0)))
    upper = _upper_profile(st, d1, c * w0)
    profile = PiecewiseExpProfile(regions=(gap,) + upper.regions, kx=st.kx)
    return FourLayerField(profile=profile, r=r, tau=tau, gamma_0=st.gamma_0)


@dataclass(frozen=True)
class _UpperStack:
    """The gap-independent part of the four-layer solve, normalised at the
    metal's lower face z = 0.  The top-air amplitude is u_m =
    exp(-gamma_m d1), whose phase u_phase is kept where its modulus
    underflows; the metal terms are k3 exp(-gamma_m z) and
    k4 exp(gamma_m (z - d1)); the gap field is
    a1 exp(-gamma_0 z) + k2 exp(gamma_0 z)."""

    omega: float
    theta: float
    kx: float
    gamma_0: float
    gamma_m: complex
    q: complex  # prism admittance eps_prism / (i kz1)
    a1: complex
    k2: complex
    k3: complex
    k4: complex
    u_m: complex
    u_phase: complex


def _upper_stack(omega: float, theta: float, d1: float, eps_prism: float, model: DielectricModel) -> _UpperStack:
    """Backward pass of the stack from the top air down to z = 0."""
    if not 1.0 < eps_prism < math.inf:
        raise ValueError(f"eps_prism must be finite and exceed 1, got {eps_prism!r}")
    woc = omega / C_LIGHT
    kx = math.sqrt(eps_prism) * woc * math.sin(theta)
    g0_sq = kx * kx - woc * woc
    if not g0_sq > 0.0:
        raise ValueError("theta below the critical angle: gap field not evanescent")
    gamma_0 = math.sqrt(g0_sq)
    em = eps_lossy(model, omega)
    gamma_m = cmath.sqrt(kx * kx - em * woc * woc)
    if not cmath.isfinite(gamma_m):
        raise LrsppError(f"metal decay rate overflows at omega={omega!r}: lossy permittivity {em!r} times (omega/c)^2")
    kz1 = math.sqrt(eps_prism) * woc * math.cos(theta)
    if kz1 == 0.0:
        raise SingularSystemError("grazing incidence: prism wave has no normal component")

    u_phase = cmath.exp(complex(0.0, -gamma_m.imag * d1))
    u_m = math.exp(-gamma_m.real * d1) * u_phase
    t = -gamma_m / (em * gamma_0)
    k3 = 0.5 * (1.0 - t)
    k4 = 0.5 * (1.0 + t) * u_m
    ax_0 = k3 + k4 * u_m
    s_0 = em / gamma_m * (k4 * u_m - k3)
    return _UpperStack(
        omega=omega,
        theta=theta,
        kx=kx,
        gamma_0=gamma_0,
        gamma_m=gamma_m,
        q=eps_prism / (1j * kz1),
        a1=0.5 * (ax_0 - gamma_0 * s_0),
        k2=0.5 * (ax_0 + gamma_0 * s_0),
        k3=k3,
        k4=k4,
        u_m=u_m,
        u_phase=u_phase,
    )


def _prism_match(st: _UpperStack, d2: float) -> tuple[float, complex, complex, complex, complex]:
    """Match the gap field to the prism at z = -d2.

    Normalised at the prism, the gap field is a1 exp(-gamma_0 (z + d2)) +
    k2 w0 exp(gamma_0 z) and the field above z = 0 is w0 times that of st,
    with w0 = exp(-gamma_0 d2).  Returns (w0, c, c/|c|, r, tau): c scales
    this field to unit incidence, r is the reflection and tau the
    conversion amplitude, with the phase of the unit-incidence top-air
    amplitude c w0 u_m.
    """
    w0 = math.exp(-st.gamma_0 * d2)
    k2_p = st.k2 * (w0 * w0)
    ax_p = st.a1 + k2_p
    s_p = (k2_p - st.a1) / st.gamma_0
    denom = s_p + st.q * ax_p
    if denom == 0 or not cmath.isfinite(denom):
        raise SingularSystemError(f"degenerate boundary system at omega={st.omega:.6g}, theta={st.theta:.6g}")
    c = 2.0 * st.q / denom
    r = ax_p * c - 1.0
    phase = c / abs(c)
    tau = math.sqrt(max(0.0, 1.0 - abs(r) ** 2)) * phase * st.u_phase
    return w0, c, phase, r, tau


def _term(kx: float, a: complex, rate: complex, ref: float) -> ExpTerm:
    return ExpTerm(a, -1j * kx / rate * a, rate, ref)


def _upper_profile(st: _UpperStack, d1: float, scale: complex) -> PiecewiseExpProfile:
    """Transmitted field on [0, inf): scale times the field of st."""
    metal = Region(
        0.0, d1, (_term(st.kx, st.k3 * scale, -st.gamma_m, 0.0), _term(st.kx, st.k4 * scale, st.gamma_m, d1))
    )
    top = Region(d1, _INF, (_term(st.kx, st.u_m * scale, -st.gamma_0, d1),))
    return PiecewiseExpProfile(regions=(metal, top), kx=st.kx)


#: Margin of the ceiling of beta_of_gap: far above the absolute resolution
#: of |tau| = sqrt(max(0, 1 - |r|^2)), about 1.5e-8, and the rounding of |beta|.
CEILING_MARGIN = 1e-6


def beta_of_gap(sol: DispersionSolution, theta: float, eps_prism: float):
    """(|beta|, beta, ceiling) as a function of the gap d2 at a fixed
    dispersion solution and its matching angle theta: the one beta formula
    of the library.  The ceiling bounds |beta| at d2 and at every larger
    gap: |tau(d2)| + CEILING_MARGIN once d2 >= d2* (critical coupling,
    where |tau| peaks), else inf.

    beta = -(tau * overlap)*, with overlap the integral of
    [phi / sqrt(N1)]* . [psi / sqrt(N2)] over z in [-d2, inf): the strip
    mode phi against the transmitted field psi, both norms over the same
    domain, so the overlap is bounded by 1 and |beta| <= |tau|.  |tau|
    falls for every d2 >= d2* = ln|k2/a1| / (2 g0), where the gap field
    at the metal is a1 exp(-g0 z) + k2 exp(g0 z): with u = exp(-2 g0 d2),
    v = (k2/a1) u, g = 1/g0 and the prism admittance q purely imaginary,
    the prism match gives r = ((q-g) v + (q+g)) / ((q+g) v + (q-g)), so
    1 - |r|^2 = K u / (a u^2 - 2 b u + c) with constant K, a, b, c, which
    rises with u up to |a1/k2| and falls above it; u falls as d2 grows and
    is at most |a1/k2| from d2* on.  CEILING_MARGIN covers tau's rounding.

    Only the prism match and the [-d2, 0] part of the integrals depend on d2:
    the strip mode, the stack above z = 0 and the [0, inf) parts of N1, N2
    and the overlap are computed once here, with the transmitted field
    normalised at the metal's lower face.  Per gap the field is normalised
    at the prism (_prism_match): w0 = exp(-g0 d2) times that field
    above z = 0, and a1 exp(-g0 (z + d2)) (1, i kx/g0) +
    k2 w0 exp(g0 z) (1, -i kx/g0) in the gap, where the strip mode is
    exp(nu_0 z) (1, -i k/nu_0).  Each gap integral is the product of two
    terms at the face where it is largest times _segment_integral,
    so no amplitude or integral overflows for any d1 and finite d2.  All
    four gap rates are real, and the closure writes that case of the
    segment integral out in place.  The field for unit incidence is c
    times this one, so the normalized overlap gains the phase c/|c| that
    _prism_match returns.  beta(d2) raises NormalizationError when |beta|
    exceeds 1 beyond roundoff (inconsistent norms).
    """
    phi = lrspp_profile(sol)
    st = _upper_stack(sol.omega, theta, sol.d1, eps_prism, sol.model)
    psi = _upper_profile(st, sol.d1, 1.0)
    n1_up = profile_norm(phi, 0.0, _INF)
    n2_up = profile_norm(psi, 0.0, _INF)
    o_up = overlap_integral(phi, psi, 0.0, _INF)

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
    exp, expm1, sqrt, prism_match = math.exp, math.expm1, math.sqrt, _prism_match
    # Critical coupling: |tau| falls for every d2 >= d2*.  Where a1 or k2 is
    # 0, no gap is taken to be past it (d2* = inf: the scan runs in full).
    d2_star = (math.log(abs(k2)) - math.log(abs(a1))) / two_g0 if a1 and k2 else _INF

    def beta(d2: float) -> tuple[float, complex, float]:
        w0, _, phase, _, tau = prism_match(st, d2)
        # Each "-expm1(-p) / rate if p else d2", p = rate d2, is
        # _segment_integral(rate, d2) for a real rate, bit for bit.
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
        return size, value, (abs(tau) + CEILING_MARGIN if d2 >= d2_star else _INF)

    return beta


def _segment_pairs(f: PiecewiseExpProfile, g: PiecewiseExpProfile, lo: float, hi: float):
    """Yield (a, b, f_region, g_region), in z order, for each region pair whose common part
    [a, b] of [lo, hi] has a < b; ValueError unless lo <= hi and both profiles cover [lo, hi]."""
    if not max(f.z_lo, g.z_lo) <= lo <= hi <= min(f.regions[-1].z_hi, g.regions[-1].z_hi):
        raise ValueError(f"span [{lo}, {hi}] is not within both profiles")
    for rf in f.regions:
        for rg in g.regions:
            a, b = max(lo, rf.z_lo, rg.z_lo), min(hi, rf.z_hi, rg.z_hi)
            if a < b:
                yield a, b, rf, rg


def _segment_integral(rho: complex, length: float) -> complex:
    """Integral of exp(-rho s) over 0 <= s <= length for Re rho >= 0
    (Re rho > 0 where length is +inf): -expm1(-rho length) / rho, which
    keeps full precision as rho length -> 0 and never exceeds length in
    modulus."""
    x = -rho * length
    if not x.imag:  # real rho; rho length = 0 has the limit length
        return -math.expm1(x.real) / rho if x else length
    if length == _INF:
        return 1.0 / rho
    # exp(u + iv) - 1 = expm1(u) - 2 s^2 e^u + 2i s c e^u, with s + ic = sin + i cos of v/2
    em, s, c = math.expm1(x.real), math.sin(0.5 * x.imag), math.cos(0.5 * x.imag)
    return -complex(em - 2.0 * s * s * (em + 1.0), 2.0 * s * c * (em + 1.0)) / rho


def _term_integral(tf: ExpTerm, tg: ExpTerm, a: float, b: float) -> complex:
    """Integral over [a, b] of conj(exp part of tf) * (exp part of tg),
    excluding the amplitude product: the product at the end where it is
    largest times the segment integral of its decay away from that end."""
    rho = tf.rate.conjugate() + tg.rate
    end, rho = (a, -rho) if rho.real <= 0.0 else (b, rho)
    at_end = cmath.exp(tf.rate.conjugate() * (end - tf.z_ref) + tg.rate * (end - tg.z_ref))
    return at_end * _segment_integral(rho, b - a)


def overlap_integral(f: PiecewiseExpProfile, g: PiecewiseExpProfile, lo: float, hi: float) -> complex:
    """Closed-form integral of conj(f) . g (both vector components) over [lo, hi]."""
    total = 0j
    for a, b, rf, rg in _segment_pairs(f, g, lo, hi):
        for tf in rf.terms:
            for tg in rg.terms:
                dot = tf.ax.conjugate() * tg.ax + tf.az.conjugate() * tg.az
                if dot != 0:
                    total += dot * _term_integral(tf, tg, a, b)
    return total


def profile_norm(f: PiecewiseExpProfile, lo: float, hi: float) -> float:
    """Integral of |f|^2 over [lo, hi]; strictly positive for a valid profile."""
    val = overlap_integral(f, f, lo, hi)
    if not (val.real > 0.0 and math.isfinite(val.real)):
        raise ValueError(f"norm integral not positive/finite: {val!r}")
    return val.real
