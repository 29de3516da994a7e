"""Metal dielectric function: Drude response with empirical corrections.

Two evaluations of the same material model are provided:

* lossless:  eps(w) = 1 - wp^2/w^2 + c_r w^2/wp^2
* lossy:     eps(w) = 1 - wp^2/(w(w + i*Gamma)) + c_r w^2/wp^2 + i*de_i

``c_r`` is the dimensionless coefficient of the real high-frequency
correction and ``de_i`` a constant positive imaginary offset.  The real part
of the correction is kept identical in both evaluations so the lossy form
reduces exactly to the lossless one when Gamma = de_i = 0.

The surface-plasma frequency, where eps = -1, is the closed form
wp/sqrt(1 + sqrt(1 + c_r)) then one Newton step, within 2 ulps of the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The largest float whose square rounds to 0, where wp^2 / omega^2 would
#: divide by zero.
_OMEGA_SQUARE_UNDERFLOW = 1.5717277847026285e-162


@dataclass(frozen=True)
class DielectricModel:
    """Drude-type metal parameters.

    Attributes (each finite; NaN or +/-inf is a ValueError naming it):
        plasma_frequency: bulk plasma frequency wp (rad/s), > 0, with
            wp^2 finite (wp below about 1.34e154) and the square of
            w_sp = wp/sqrt(1 + sqrt(1 + c_r)) above 0 (else a ValueError
            names plasma_frequency and real_correction_coeff)
        damping_rate: electron collision rate Gamma (rad/s), >= 0
        real_correction_coeff: coefficient c_r of the w^2/wp^2 real correction, >= 0
        imag_correction: constant imaginary offset de_i, >= 0
    """

    plasma_frequency: float
    damping_rate: float = 0.0
    real_correction_coeff: float = 0.0
    imag_correction: float = 0.0

    def __post_init__(self) -> None:
        wp = self.plasma_frequency
        for name, ok, rule in (
            ("plasma_frequency", 0.0 < wp and wp * wp < math.inf, "must be positive and its square finite"),
            ("damping_rate", 0.0 <= self.damping_rate < math.inf, "must be non-negative and finite"),
            ("real_correction_coeff", 0.0 <= self.real_correction_coeff < math.inf, "must be non-negative and finite"),
            ("imag_correction", 0.0 <= self.imag_correction < math.inf, "must be non-negative and finite"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")
        cr = self.real_correction_coeff
        if not _closed_form_wsp(wp, cr) > _OMEGA_SQUARE_UNDERFLOW:
            raise ValueError("plasma_frequency and real_correction_coeff: the surface-plasma frequency "
                             f"wp/sqrt(1 + sqrt(1 + c_r)) has a square that underflows to 0, got {wp!r} and {cr!r}")


def _closed_form_wsp(wp: float, cr: float) -> float:
    """wp/sqrt(1 + sqrt(1 + c_r)), the root of eps_lossless = -1."""
    return wp / math.sqrt(1.0 + math.sqrt(1.0 + cr))


#: Silver preset used throughout: wp = 1.402e16 rad/s, Gamma = 6.25e13 rad/s,
#: c_r = 29, de_i = 0.22.
SILVER = DielectricModel(
    plasma_frequency=1.402e16,
    damping_rate=6.25e13,
    real_correction_coeff=29.0,
    imag_correction=0.22,
)


def _check_omega(omega: float) -> None:
    """Raise ValueError unless omega > 0 and omega^2 does not underflow to 0.
    On the solvers' hot path the callers make the first comparison inline
    and call this only when it fails."""
    if not omega > _OMEGA_SQUARE_UNDERFLOW:
        if not omega > 0.0:
            raise ValueError(f"omega must be positive, got {omega!r}")
        raise ValueError(f"omega={omega!r}: its square underflows to 0")


def eps_lossless(model: DielectricModel, omega: float) -> float:
    """Real dielectric function 1 - wp^2/w^2 + c_r w^2/wp^2.

    Written with the same float operations as the lossy form so that the
    two agree bit for bit when Gamma = de_i = 0.
    """
    if not omega > _OMEGA_SQUARE_UNDERFLOW:
        _check_omega(omega)
    wp = model.plasma_frequency
    return 1.0 - wp * wp / (omega * omega) + model.real_correction_coeff * (omega / wp) ** 2


def _eps_derivative(model: DielectricModel, omega: float) -> float:
    """d eps_lossless / d omega = 2 wp^2/w^3 + 2 c_r w/wp^2; +inf, the
    value it overflows to, where w^3 underflows to 0.  Where w^3 overflows
    the first term is taken as 2 (wp/w)^2 / w."""
    wp = model.plasma_frequency
    try:
        w3 = omega**3
    except OverflowError:
        drude = 2.0 * (wp / omega) ** 2 / omega
    else:
        if w3 == 0.0:
            return math.inf
        drude = 2.0 * wp**2 / w3
    return drude + 2.0 * model.real_correction_coeff * omega / wp**2


def eps_lossy(model: DielectricModel, omega: float) -> complex:
    """Complex dielectric function 1 - wp^2/(w(w+i*Gamma)) + c_r w^2/wp^2 + i*de_i.

    The imaginary part is positive (absorptive convention) whenever
    Gamma > 0 or de_i > 0.
    """
    if not omega > _OMEGA_SQUARE_UNDERFLOW:
        _check_omega(omega)
    wp = model.plasma_frequency
    drude = 1.0 - wp * wp / (omega * (omega + 1j * model.damping_rate))
    correction = model.real_correction_coeff * (omega / wp) ** 2 + 1j * model.imag_correction
    return drude + correction


def surface_plasma_frequency(model: DielectricModel) -> float:
    """Frequency where the lossless dielectric function equals -1.

    Bound surface modes accumulate against it.  eps = -1 is quadratic in
    w^2, so w_sp = wp/sqrt(1 + sqrt(1 + c_r)); for c_r > 0 one Newton step
    on eps + 1 takes up the rounding of that form (SILVER's w_sp is its
    result).  For c_r = 0 this is wp/sqrt(2).
    """
    wp = model.plasma_frequency
    cr = model.real_correction_coeff
    w = _closed_form_wsp(wp, cr)
    if cr == 0.0:
        return w
    return w - (eps_lossless(model, w) + 1.0) / _eps_derivative(model, w)
