import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from lrspp import materials
from lrspp.materials import DielectricModel, SILVER, eps_lossless, eps_lossy, surface_plasma_frequency

from conftest import lossless

# Frozen with exact rational arithmetic (Fraction) ahead of the build:
# eps(5e15) = 1 - (1.402e16/5e15)^2 + 29 (5e15/1.402e16)^2
EPS_LOSSLESS_5E15 = -3.1739823175288615
# eps_lossy(wp) = 30 - wp^2/(wp^2 + Gamma^2) + i (0.22 + wp Gamma/(wp^2 + Gamma^2))
EPS_LOSSY_WP = complex(29.000019872631377, 0.2244578286705092)
# w_sp/wp = sqrt((-1 + sqrt(30))/29), 50-digit Decimal evaluation
WSP_OVER_WP = 0.3929212246683613


def test_lossless_at_plasma_frequency_is_correction_coeff():
    assert eps_lossless(SILVER, SILVER.plasma_frequency) == pytest.approx(29.0, abs=1e-12)


def test_bare_drude_symmetry_point():
    bare = DielectricModel(SILVER.plasma_frequency)
    assert eps_lossless(bare, SILVER.plasma_frequency / math.sqrt(2)) == pytest.approx(-1.0, abs=1e-12)


def test_lossless_frozen_value():
    assert eps_lossless(SILVER, 5e15) == pytest.approx(EPS_LOSSLESS_5E15, rel=1e-12)


def test_lossy_frozen_value():
    got = eps_lossy(SILVER, SILVER.plasma_frequency)
    assert got.real == pytest.approx(EPS_LOSSY_WP.real, rel=1e-12)
    assert got.imag == pytest.approx(EPS_LOSSY_WP.imag, rel=1e-12)


def test_loss_free_reduction_is_exact():
    quiet = DielectricModel(SILVER.plasma_frequency, 0.0, SILVER.real_correction_coeff, 0.0)
    for i in range(1, 500):
        w = 2e14 + i * 1.1e13
        assert abs(eps_lossy(quiet, w) - eps_lossless(quiet, w)) == 0.0


def test_lossy_imag_part_exceeds_offset():
    for w in (2e15, 3.5e15, 5e15, 1e16):
        assert eps_lossy(SILVER, w).imag >= SILVER.imag_correction


def test_bare_drude_monotone_in_omega():
    bare = DielectricModel(SILVER.plasma_frequency)
    prev = None
    for i in range(200):
        w = 5e14 + i * 5e13
        val = eps_lossless(bare, w)
        if prev is not None:
            assert val > prev
        prev = val


def test_surface_plasma_frequency_quadratic_oracle():
    wsp = surface_plasma_frequency(SILVER)
    assert wsp == pytest.approx(WSP_OVER_WP * SILVER.plasma_frequency, rel=1e-9)


def test_surface_plasma_frequency_back_substitution():
    wsp = surface_plasma_frequency(SILVER)
    assert eps_lossless(SILVER, wsp) == pytest.approx(-1.0, abs=1e-12)


def test_surface_plasma_frequency_bare_drude():
    bare = DielectricModel(SILVER.plasma_frequency)
    assert surface_plasma_frequency(bare) == SILVER.plasma_frequency / math.sqrt(2)


def test_surface_plasma_frequency_silver_bits():
    """The closed form alone gives ...426.0; the Newton step after it gives
    the bits every SILVER dataset was recorded with."""
    assert surface_plasma_frequency(SILVER) == 5508755569850425.0


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@given(wp=_log_uniform(1e10, 1e20), cr=st.just(0.0) | _log_uniform(1e-12, 1e300))
@example(wp=SILVER.plasma_frequency, cr=1e24)  # roots below 1e-6 wp
@example(wp=SILVER.plasma_frequency, cr=1e25)
@example(wp=SILVER.plasma_frequency, cr=1e300)
def test_surface_plasma_frequency_over_whole_range(wp, cr):
    """Finite, in (0, wp/sqrt(2)], and within 2 ulps of the exact root
    wp/sqrt(1 + sqrt(1 + c_r)) at 100 digits, for any c_r >= 0."""
    wsp = surface_plasma_frequency(DielectricModel(wp, real_correction_coeff=cr))
    assert math.isfinite(wsp) and 0.0 < wsp <= wp / math.sqrt(2.0)
    with mpmath.workdps(100):
        exact = mpmath.mpf(wp) / mpmath.sqrt(1 + mpmath.sqrt(1 + mpmath.mpf(cr)))
        assert abs(mpmath.mpf(wsp) - exact) <= 2 * math.ulp(float(exact))


def test_domain_errors():
    with pytest.raises(ValueError):
        eps_lossless(SILVER, 0.0)
    with pytest.raises(ValueError):
        eps_lossless(SILVER, -1e15)
    with pytest.raises(ValueError):
        eps_lossy(SILVER, -1e15)
    floor = materials._OMEGA_SQUARE_UNDERFLOW
    assert floor * floor == 0.0 and math.nextafter(floor, 1.0) ** 2 > 0.0
    for eps in (eps_lossless, eps_lossy):  # omega^2 underflows to 0
        for omega in (5e-324, floor):
            with pytest.raises(ValueError, match=f"^omega={omega!r}: its square underflows to 0"):
                eps(SILVER, omega)
        eps(SILVER, math.nextafter(floor, 1.0))  # the smallest omega accepted


def test_eps_derivative_overflows_to_inf_where_omega_cubed_underflows():
    """Where omega^3 underflows to 0, 2 wp^2/w^3 is past the float range:
    the slope is +inf, not a ZeroDivisionError out of the Newton polish."""
    omega = 1.0456593705142687e-138  # a root solve_omega bisects to at k ~ 2e-144 rad/m
    assert omega**3 == 0.0
    assert materials._eps_derivative(SILVER, omega) == math.inf
    assert math.isfinite(materials._eps_derivative(SILVER, 1e-90))


def test_model_validation():
    with pytest.raises(ValueError):
        DielectricModel(plasma_frequency=-1.0)
    with pytest.raises(ValueError):
        DielectricModel(plasma_frequency=1e16, damping_rate=-1.0)
    with pytest.raises(ValueError):
        DielectricModel(plasma_frequency=1e16, imag_correction=-0.1)


@pytest.mark.parametrize("field", ["plasma_frequency", "damping_rate", "real_correction_coeff", "imag_correction"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_field(field, bad):
    """NaN or +/-inf in any field is a ValueError naming it, not a band
    edge of nan that solve_k reports as NoBoundMode."""
    with pytest.raises(ValueError, match=f"^{field} must be [a-z -]*finite, got {bad!r}$"):
        replace(SILVER, **{field: bad})


def test_lossless_helper_strips_damping():
    quiet = lossless(SILVER)
    assert quiet.damping_rate == 0.0
    assert quiet.imag_correction == 0.0
    assert quiet.plasma_frequency == SILVER.plasma_frequency
    assert quiet.real_correction_coeff == SILVER.real_correction_coeff
