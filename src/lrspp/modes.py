"""Mode profiles: bound-mode fields of the strip and the four-layer
prism-coupled field, with closed-form norms and overlaps.

All profiles are piecewise sums of exponential terms

    (ax, az) * exp(rate * (z - z_ref)),

one list of terms per region of the z axis.  For transverse-magnetic fields
the z amplitude is tied to the x amplitude by the divergence-free condition
az = -i kx / rate * ax; both are stored explicitly.  Norms and overlaps are
integrals of term products, evaluated exactly per segment, so no quadrature
enters the main computation path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import C_LIGHT
from .dispersion import BranchId, DispersionSolution
from .errors import SingularSystemError
from .materials import DielectricModel, eps_lossless, eps_lossy

_INF = math.inf


@dataclass(frozen=True)
class ExpTerm:
    """One exponential term (ax, az) * exp(rate * (z - z_ref))."""

    ax: complex
    az: complex
    rate: complex
    z_ref: float

    def value_x(self, z: float) -> complex:
        return self.ax * cmath.exp(self.rate * (z - self.z_ref))

    def value_z(self, z: float) -> complex:
        return self.az * cmath.exp(self.rate * (z - self.z_ref))


@dataclass(frozen=True)
class Region:
    """Terms valid on z_lo <= z <= z_hi (bounds may be infinite)."""

    z_lo: float
    z_hi: float
    terms: tuple[ExpTerm, ...]

    def eval_x(self, z: float) -> complex:
        return sum((t.value_x(z) for t in self.terms), 0j)

    def eval_z(self, z: float) -> complex:
        return sum((t.value_z(z) for t in self.terms), 0j)

    def eval_hfield(self, z: float, kx: float) -> complex:
        """Tangential magnetic field up to a global constant:
        sum of ax (rate^2 - kx^2)/rate * exp(rate (z - z_ref))."""
        out = 0j
        for t in self.terms:
            out += t.ax * (t.rate * t.rate - kx * kx) / t.rate * cmath.exp(t.rate * (z - t.z_ref))
        return out


@dataclass(frozen=True)
class PiecewiseExpProfile:
    """Contiguous regions of exponential terms plus the shared in-plane
    wavevector kx."""

    regions: tuple[Region, ...]
    kx: float

    # Regions must tile their span without gaps; terms on half-infinite
    # regions must decay toward the unbounded end.
    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("profile needs at least one region")
        for a, b in zip(self.regions, self.regions[1:]):
            if a.z_hi != b.z_lo:
                raise ValueError(f"regions do not tile: gap between {a.z_hi} and {b.z_lo}")
        first, last = self.regions[0], self.regions[-1]
        if first.z_lo == -_INF:
            for t in first.terms:
                if t.rate.real <= 0.0:
                    raise ValueError("term grows toward z = -inf; profile not normalizable")
        if last.z_hi == _INF:
            for t in last.terms:
                if t.rate.real >= 0.0:
                    raise ValueError("term grows toward z = +inf; profile not normalizable")

    @property
    def z_lo(self) -> float:
        return self.regions[0].z_lo

    @property
    def z_hi(self) -> float:
        return self.regions[-1].z_hi

    def region_at(self, z: float) -> Region:
        for r in self.regions:
            if r.z_lo <= z <= r.z_hi:
                return r
        raise ValueError(f"z={z} outside profile span [{self.z_lo}, {self.z_hi}]")

    def eval_x(self, z: float) -> complex:
        return self.region_at(z).eval_x(z)

    def eval_z(self, z: float) -> complex:
        return self.region_at(z).eval_z(z)

    def magnitude(self, z: float) -> float:
        r = self.region_at(z)
        return math.sqrt(abs(r.eval_x(z)) ** 2 + abs(r.eval_z(z)) ** 2)


def lrspp_profile(branch: BranchId, solution: DispersionSolution, model: DielectricModel) -> PiecewiseExpProfile:
    """Bound-mode field of the strip at a dispersion solution.

    Three regions: air below (z < 0, x amplitude 1), metal (0 < z < d1),
    air above (z > d1, x amplitude -/+ 1 for the antisymmetric/symmetric
    branch).  The metal amplitude is (1 - nu_m/(eps_m nu_0))/2, the unique
    value for which both tangential field components are continuous at the
    two faces once the dispersion equation holds.
    """
    k = solution.k
    nu_m, nu_0, d1 = solution.nu_m, solution.nu_0, solution.d1
    em = eps_lossless(model, solution.omega)
    sgn = 1.0 if branch is BranchId.ANTISYMMETRIC else -1.0
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
    theta: float
    gamma_m: complex
    gamma_0: complex


def four_layer_solve(
    omega: float,
    theta: float,
    d1: float,
    d2: float,
    eps_prism: float,
    model: DielectricModel,
    lossy: bool = False,
) -> FourLayerField:
    """Transverse-magnetic boundary-value solve of the four-layer stack.

    A unit-amplitude wave comes in through the prism at angle ``theta``;
    2x2 interface matches at z = -d2, 0 and d1 determine the reflected
    amplitude and the five transmitted term amplitudes.  With the lossless
    metal all incident power returns (|r| = 1); with the lossy metal the
    reflection dips and the missing power is the surface-channel conversion
    |tau|^2 = 1 - |r|^2 (the attenuated-total-reflection resonance).
    """
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("d1 and d2 must be positive")
    st = _upper_stack(omega, theta, d1, eps_prism, model, lossy)
    k1, k5, r, tau = _prism_match(st, d2)
    k1, k2 = k1 * k5, st.k2 * k5
    gap = Region(-d2, 0.0, (_term(st.kx, k1, -st.gamma_0, -d2), _term(st.kx, k2, st.gamma_0, 0.0)))
    upper = _upper_profile(st, d1, k5)
    profile = PiecewiseExpProfile(regions=(gap,) + upper.regions, kx=st.kx)
    return FourLayerField(profile=profile, r=r, tau=tau, theta=theta, gamma_m=st.gamma_m, gamma_0=st.gamma_0)


@dataclass(frozen=True)
class _UpperStack:
    """The gap-independent part of the four-layer solve, for unit amplitude
    in the top air.  The gap field is a1 exp(-gamma_0 z) + k2 exp(gamma_0 z);
    the metal terms are k3 exp(-gamma_m z) and k4 exp(gamma_m (z - d1))."""

    omega: float
    theta: float
    kx: float
    gamma_0: complex
    gamma_m: complex
    q: complex  # prism admittance eps_prism / (i kz1)
    a1: complex
    k2: complex
    k3: complex
    k4: complex


def _upper_stack(
    omega: float, theta: float, d1: float, eps_prism: float, model: DielectricModel, lossy: bool
) -> _UpperStack:
    """Backward pass of the stack from the top air down to z = 0."""
    if eps_prism <= 1.0:
        raise ValueError("eps_prism must exceed 1")
    woc = omega / C_LIGHT
    kx = math.sqrt(eps_prism) * woc * math.sin(theta)
    g0_sq = kx * kx - woc * woc
    if g0_sq <= 0.0:
        raise ValueError("theta below the critical angle: gap field not evanescent")
    gamma_0 = complex(math.sqrt(g0_sq), 0.0)
    em = complex(eps_lossy(model, omega)) if lossy else complex(eps_lossless(model, omega))
    gamma_m = cmath.sqrt(kx * kx - em * woc * woc)
    kz1 = math.sqrt(eps_prism) * woc * math.cos(theta)
    if kz1 == 0.0:
        raise SingularSystemError("grazing incidence: prism wave has no normal component")

    u_m = cmath.exp(-gamma_m * d1)
    if u_m == 0:
        raise SingularSystemError(f"exp(-gamma_m d1) underflows to 0 at d1={d1:.4g} m: strip too thick")
    ax_d1 = 1.0 + 0j
    s_d1 = -1.0 / gamma_0
    t = gamma_m / em * s_d1
    k4 = 0.5 * (ax_d1 + t)
    k3 = 0.5 * (ax_d1 - t) / u_m
    ax_0 = k3 + k4 * u_m
    s_0 = em / gamma_m * (-k3 + k4 * u_m)
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
    )


def _prism_match(st: _UpperStack, d2: float) -> tuple[complex, complex, complex, complex]:
    """Match the gap field to the prism at z = -d2.

    Returns (k1, k5, r, tau): k1 is the unit-top amplitude of
    exp(-gamma_0 (z + d2)), k5 the top-air amplitude for unit incidence,
    r the reflection and tau the conversion amplitude.
    """
    w0 = cmath.exp(-st.gamma_0 * d2)
    if w0 == 0:
        raise SingularSystemError(f"exp(-gamma_0 d2) underflows to 0 at d2={d2:.4g} m: gap too wide")
    k1 = st.a1 / w0
    ax_p = k1 + st.k2 * w0
    s_p = (-k1 + st.k2 * w0) / st.gamma_0
    denom = s_p + st.q * ax_p
    if denom == 0 or not cmath.isfinite(denom):
        raise SingularSystemError(f"degenerate boundary system at omega={st.omega:.6g}, theta={st.theta:.6g}")
    k5 = 2.0 * st.q / denom
    r = ax_p * k5 - 1.0
    conv_sq = max(0.0, 1.0 - abs(r) ** 2)
    if abs(k5) > 0.0:
        tau = math.sqrt(conv_sq) * k5 / abs(k5)
    else:
        tau = complex(math.sqrt(conv_sq), 0.0)
    return k1, k5, r, tau


def _term(kx: float, a: complex, rate: complex, ref: float) -> ExpTerm:
    return ExpTerm(a, -1j * kx / rate * a, rate, ref)


def _upper_profile(st: _UpperStack, d1: float, k5: complex) -> PiecewiseExpProfile:
    """Transmitted field on [0, inf) with amplitude k5 in the top air."""
    metal = Region(0.0, d1, (_term(st.kx, st.k3 * k5, -st.gamma_m, 0.0), _term(st.kx, st.k4 * k5, st.gamma_m, d1)))
    top = Region(d1, _INF, (_term(st.kx, k5, -st.gamma_0, d1),))
    return PiecewiseExpProfile(regions=(metal, top), kx=st.kx)


def _segment_pairs(f: PiecewiseExpProfile, g: PiecewiseExpProfile, lo: float, hi: float):
    """Yield (a, b, f_region, g_region) segments covering [lo, hi]."""
    cuts = {lo, hi}
    for p in (f, g):
        for reg in p.regions:
            for z in (reg.z_lo, reg.z_hi):
                if lo < z < hi:
                    cuts.add(z)
    points = sorted(c for c in cuts if c != _INF and c != -_INF)
    if hi == _INF:
        points.append(_INF)
    if lo == -_INF:
        points.insert(0, -_INF)
    for a, b in zip(points, points[1:]):
        mid = a + 1.0 if b == _INF else (b - 1.0 if a == -_INF else 0.5 * (a + b))
        yield a, b, f.region_at(mid), g.region_at(mid)


def _term_integral(tf: ExpTerm, tg: ExpTerm, a: float, b: float) -> complex:
    """Integral over [a, b] of conj(exp part of tf) * (exp part of tg),
    excluding the amplitude product."""
    rho = tf.rate.conjugate() + tg.rate

    def prod(z: float) -> complex:
        return cmath.exp(tf.rate.conjugate() * (z - tf.z_ref) + tg.rate * (z - tg.z_ref))

    if b == _INF:
        if rho.real >= 0.0:
            raise ValueError("divergent integral toward z = +inf")
        return -prod(a) / rho
    if a == -_INF:
        if rho.real <= 0.0:
            raise ValueError("divergent integral toward z = -inf")
        return prod(b) / rho
    if abs(rho) * (b - a) < 1e-12:
        return prod(0.5 * (a + b)) * (b - a)
    return (prod(b) - prod(a)) / rho


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
