"""Metal dielectric function: Drude response with empirical corrections.

Two evaluations of the same material model are provided:

* lossless:  eps(w) = 1 - wp^2/w^2 + c_r w^2/wp^2
* lossy:     eps(w) = 1 - wp^2/(w(w + i*Gamma)) + c_r w^2/wp^2 + i*de_i

``c_r`` is the dimensionless coefficient of the real high-frequency
correction and ``de_i`` a constant positive imaginary offset.  The real part
of the correction is kept identical in both evaluations so the lossy form
reduces exactly to the lossless one when Gamma = de_i = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DielectricModel:
    """Drude-type metal parameters.

    Attributes (each finite; NaN or +/-inf is a ValueError naming it):
        plasma_frequency: bulk plasma frequency wp (rad/s), > 0
        damping_rate: electron collision rate Gamma (rad/s), >= 0
        real_correction_coeff: coefficient c_r of the w^2/wp^2 real correction
        imag_correction: constant imaginary offset de_i, >= 0
    """

    plasma_frequency: float
    damping_rate: float = 0.0
    real_correction_coeff: float = 0.0
    imag_correction: float = 0.0

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("plasma_frequency", 0.0 < self.plasma_frequency < math.inf, "must be positive and finite"),
            ("damping_rate", 0.0 <= self.damping_rate < math.inf, "must be non-negative and finite"),
            ("real_correction_coeff", abs(self.real_correction_coeff) < math.inf, "must be finite"),
            ("imag_correction", 0.0 <= self.imag_correction < math.inf, "must be non-negative and finite"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")


#: Silver preset used throughout: wp = 1.402e16 rad/s, Gamma = 6.25e13 rad/s,
#: c_r = 29, de_i = 0.22.
SILVER = DielectricModel(
    plasma_frequency=1.402e16,
    damping_rate=6.25e13,
    real_correction_coeff=29.0,
    imag_correction=0.22,
)


#: The largest float whose square rounds to 0, where wp^2 / omega^2 would
#: divide by zero.
_OMEGA_SQUARE_UNDERFLOW = 1.5717277847026285e-162


def _check_omega(omega: float) -> None:
    """Raise ValueError unless omega > 0 and omega^2 does not underflow to 0."""
    if not omega > _OMEGA_SQUARE_UNDERFLOW:  # one comparison on the solvers' hot path
        if not omega > 0.0:
            raise ValueError(f"omega must be positive, got {omega!r}")
        raise ValueError(f"omega={omega!r}: its square underflows to 0")


def eps_lossless(model: DielectricModel, omega: float) -> float:
    """Real dielectric function 1 - wp^2/w^2 + c_r w^2/wp^2.

    Written with the same float operations as the lossy form so that the
    two agree bit for bit when Gamma = de_i = 0.
    """
    _check_omega(omega)
    wp = model.plasma_frequency
    return 1.0 - wp * wp / (omega * omega) + model.real_correction_coeff * (omega / wp) ** 2


def _eps_derivative(model: DielectricModel, omega: float) -> float:
    """d eps_lossless / d omega = 2 wp^2/w^3 + 2 c_r w/wp^2; +inf, the
    value it overflows to, where w^3 underflows to 0."""
    wp = model.plasma_frequency
    w3 = omega**3
    if w3 == 0.0:
        return math.inf
    return 2.0 * wp**2 / w3 + 2.0 * model.real_correction_coeff * omega / wp**2


def eps_lossy(model: DielectricModel, omega: float) -> complex:
    """Complex dielectric function 1 - wp^2/(w(w+i*Gamma)) + c_r w^2/wp^2 + i*de_i.

    The imaginary part is positive (absorptive convention) whenever
    Gamma > 0 or de_i > 0.
    """
    _check_omega(omega)
    wp = model.plasma_frequency
    drude = 1.0 - wp * wp / (omega * (omega + 1j * model.damping_rate))
    correction = model.real_correction_coeff * (omega / wp) ** 2 + 1j * model.imag_correction
    return drude + correction


def surface_plasma_frequency(model: DielectricModel) -> float:
    """Frequency where the lossless dielectric function equals -1.

    Bound surface modes accumulate against this frequency.  Found by
    bracketed bisection of eps_lossless(w) + 1 on (0, wp), followed by a
    Newton polish; for c_r = 0 this is wp/sqrt(2).  Cached per model.
    """
    return _surface_plasma_frequency(model)


@functools.lru_cache(maxsize=16)
def _surface_plasma_frequency(model: DielectricModel) -> float:
    wp = model.plasma_frequency
    cr = model.real_correction_coeff
    if cr < 0.0:
        raise ValueError("real_correction_coeff must be non-negative")
    if cr == 0.0:
        return wp / math.sqrt(2.0)

    def f(w: float) -> float:
        return eps_lossless(model, w) + 1.0

    lo, hi = 1e-6 * wp, wp
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise ValueError("no surface-mode frequency for these parameters")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    w = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish
        w -= f(w) / _eps_derivative(model, w)
    return w
