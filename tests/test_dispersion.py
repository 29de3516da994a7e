import math

import pytest
from hypothesis import given, settings, strategies as st

from lrspp.constants import C_LIGHT
from lrspp.dispersion import (
    BranchId,
    complex_wavenumber,
    coupling_angle,
    group_velocity,
    solve_k,
    solve_omega,
)
from lrspp.errors import NoBoundMode, NoMatchingAngle
from lrspp.materials import DielectricModel, SILVER, eps_lossless, surface_plasma_frequency

BRANCHES = (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)
W_SP = surface_plasma_frequency(SILVER)


def single_interface_omega(k: float, model=SILVER) -> float:
    """Independent oracle: invert k = (w/c) sqrt(em/(em+1)) by bisection."""

    def resid(w: float) -> float:
        em = eps_lossless(model, w)
        return (w / C_LIGHT) * math.sqrt(em / (em + 1.0)) - k

    lo, hi = 1e13, 5.508e15
    assert resid(lo) < 0 < resid(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_residual_and_ordering_on_k_grid():
    d1 = 20e-9
    for i in range(50):
        k = 2e6 + i * (1.8e7 - 2e6) / 49
        plus = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
        minus = solve_omega(BranchId.SYMMETRIC, k, d1, SILVER)
        assert plus.relative_residual(SILVER) < 1e-10
        assert minus.relative_residual(SILVER) < 1e-10
        assert plus.omega > minus.omega


def test_round_trip_solve_omega_solve_k():
    d1 = 20e-9
    for branch in BRANCHES:
        for w in (2.5e15, 3.5e15, 4.5e15):
            try:
                sol = solve_k(branch, w, d1, SILVER)
            except NoBoundMode:
                continue
            back = solve_omega(branch, sol.k, d1, SILVER)
            assert back.omega == pytest.approx(w, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(min_value=2.2e15, max_value=5.0e15),
    d1=st.floats(min_value=12e-9, max_value=90e-9),
    branch=st.sampled_from(BRANCHES),
)
def test_round_trip_property(w, d1, branch):
    try:
        sol = solve_k(branch, w, d1, SILVER)
    except NoBoundMode:
        return
    back = solve_omega(branch, sol.k, d1, SILVER)
    assert back.omega == pytest.approx(w, rel=1e-9)
    assert sol.relative_residual(SILVER) < 1e-10
    assert sol.nu_0 > 0.0 and sol.nu_m > 0.0


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from(BRANCHES),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(50e-6)).map(math.exp),
    frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_solvers_over_whole_ranges(branch, d1, frac):
    """Any strip from 1 nm to 50 um, any frequency in the bound band: solve_k
    raises nothing but NoBoundMode and solve_omega inverts it.  solve_omega
    searches only below (1 - 1e-6) w_sp, so the round trip is checked there.
    The relative residual is checked up to nu_m d1 = 10: beyond about 13 it
    cannot be resolved in double precision.  It is also checked only from
    2e15 rad/s: at lower frequencies it reaches 1e-6."""
    omega = frac * W_SP
    try:
        sol = solve_k(branch, omega, d1, SILVER)
    except NoBoundMode:
        return
    if omega < (1.0 - 1e-6) * W_SP:
        back = solve_omega(branch, sol.k, d1, SILVER)
        assert back.omega == pytest.approx(omega, rel=1e-9)
    if sol.nu_m * d1 <= 10.0 and omega >= 2e15:
        assert sol.relative_residual(SILVER) < 1e-10


def test_symmetric_branch_unreachable_at_high_frequency_thin_strip(w_sp):
    with pytest.raises(NoBoundMode):
        solve_k(BranchId.SYMMETRIC, 0.95 * w_sp, 15e-9, SILVER)


def test_limit_frequency_at_large_k(w_sp):
    k = 50.0 * w_sp / C_LIGHT
    for branch in BRANCHES:
        sol = solve_omega(branch, k, 20e-9, SILVER)
        assert sol.omega == pytest.approx(w_sp, rel=0.01)


def test_single_interface_merge_omega_space():
    d1 = 100e-9
    for w in (3e15, 3.7e15, 4.4e15, 5e15):
        em = eps_lossless(SILVER, w)
        k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
        for branch in BRANCHES:
            sol = solve_omega(branch, k_si, d1, SILVER)
            assert sol.omega == pytest.approx(w, rel=0.01)


def test_single_interface_merge_k_space_midband():
    # In k the merger is tightest mid-band; near the flat-band region the
    # comparison is done in omega instead (previous test).
    d1 = 100e-9
    for w in (3e15, 3.5e15, 4e15, 4.5e15):
        em = eps_lossless(SILVER, w)
        k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, SILVER)
            assert sol.k == pytest.approx(k_si, rel=0.01)


def test_single_interface_oracle_consistency():
    # the bisection oracle inverts the analytic relation
    w = 4e15
    em = eps_lossless(SILVER, w)
    k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
    assert single_interface_omega(k_si) == pytest.approx(w, rel=1e-10)


def test_antisymmetric_merges_to_single_interface_oracle():
    d1 = 100e-9
    k = 1.4e7
    w_oracle = single_interface_omega(k)
    sol = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
    assert sol.omega == pytest.approx(w_oracle, rel=0.01)


def test_branch_separation_decreases_with_thickness():
    k = 1.2e7
    prev_gap = None
    for d1 in (15e-9, 25e-9, 40e-9, 70e-9, 100e-9):
        plus = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
        minus = solve_omega(BranchId.SYMMETRIC, k, d1, SILVER)
        gap = plus.omega - minus.omega
        assert gap > 0.0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_omega(BranchId.SYMMETRIC, -1.0, 20e-9, SILVER)
    with pytest.raises(ValueError):
        solve_omega(BranchId.SYMMETRIC, 1e7, -20e-9, SILVER)
    with pytest.raises(NoBoundMode):
        solve_k(BranchId.SYMMETRIC, 6e15, 20e-9, SILVER)  # above the band


class TestComplexWavenumber:
    def test_loss_free_limit(self, silver_lossless):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, silver_lossless)
        cw = complex_wavenumber(BranchId.ANTISYMMETRIC, 4e15, 20e-9, silver_lossless)
        assert cw.kappa == 0.0
        assert cw.k == pytest.approx(sol.k, rel=1e-12)

    def test_antisymmetric_is_long_range(self):
        plus = complex_wavenumber(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        minus = complex_wavenumber(BranchId.SYMMETRIC, 4e15, 20e-9, SILVER)
        assert 0.0 < plus.kappa < minus.kappa

    def test_perturbative_oracle_small_loss(self):
        """First-order shift Im[-dF/dem * dem / dF/dk] vs the full complex
        root, at 1% of the silver loss."""
        scale = 0.01
        weak = DielectricModel(
            SILVER.plasma_frequency,
            scale * SILVER.damping_rate,
            SILVER.real_correction_coeff,
            scale * SILVER.imag_correction,
        )
        w, d1 = 4e15, 20e-9
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, weak.lossless())
            em0 = eps_lossless(weak, w)
            woc2 = (w / C_LIGHT) ** 2
            sign = branch.sign

            def resid(k: complex, em: complex) -> complex:
                nu_m = (k * k - em * woc2) ** 0.5
                nu_0 = (k * k - woc2) ** 0.5
                import cmath

                return cmath.exp(-nu_m * d1) - sign * (nu_m + em * nu_0) / (nu_m - em * nu_0)

            hk = 1e-6 * sol.k
            df_dk = (resid(sol.k + hk, em0) - resid(sol.k - hk, em0)) / (2 * hk)
            he = 1e-6 * abs(em0)
            df_de = (resid(sol.k, em0 + he) - resid(sol.k, em0 - he)) / (2 * he)
            from lrspp.materials import eps_lossy

            delta_em = eps_lossy(weak, w) - em0
            kappa_pert = (-df_de * delta_em / df_dk).imag
            kappa_full = complex_wavenumber(branch, w, d1, weak).kappa
            assert kappa_full == pytest.approx(kappa_pert, rel=0.10)


class TestGroupVelocity:
    def test_subluminal_on_grid(self):
        for w in (2.5e15, 3.5e15, 4.5e15):
            for branch in BRANCHES:
                try:
                    v = group_velocity(branch, w, 20e-9, SILVER)
                except NoBoundMode:
                    continue
                assert 0.0 < v < C_LIGHT

    def test_flat_band_near_limit(self, w_sp):
        # deep in the electrostatic regime the band flattens
        k = 30.0 * w_sp / C_LIGHT
        sol = solve_omega(BranchId.ANTISYMMETRIC, k, 20e-9, SILVER)
        v = group_velocity(BranchId.ANTISYMMETRIC, sol.omega, 20e-9, SILVER, kmax_factor=50.0)
        assert v < 0.05 * C_LIGHT

    def test_richardson_oracle(self):
        """Four-point Richardson-extrapolated derivative agrees to 0.1%."""
        w, d1 = 4e15, 20e-9
        for branch in BRANCHES:
            h = 1e-4 * w
            ks = {m: solve_k(branch, w + m * h, d1, SILVER).k for m in (-2, -1, 1, 2)}
            dk_dw = (-ks[2] + 8 * ks[1] - 8 * ks[-1] + ks[-2]) / (12 * h)
            oracle = 1.0 / dk_dw
            v = group_velocity(branch, w, d1, SILVER)
            assert v == pytest.approx(oracle, rel=1e-3)


class TestCouplingAngle:
    def test_grazing_limit(self):
        w = 4e15
        k = w / C_LIGHT * math.sqrt(1.51)
        assert coupling_angle(w, k, 1.51) == pytest.approx(math.pi / 2)

    def test_above_critical_angle(self):
        crit = math.asin(1.0 / math.sqrt(1.51))
        for w in (2.5e15, 3.5e15, 4.5e15):
            sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
            assert coupling_angle(w, sol.k, 1.51) > crit

    def test_no_matching_angle(self):
        w = 4e15
        sol = solve_k(BranchId.SYMMETRIC, w, 20e-9, SILVER)
        # the symmetric branch at this point needs more in-plane momentum
        # than an eps1 = 1.51 prism provides
        with pytest.raises(NoMatchingAngle):
            coupling_angle(w, sol.k, 1.51)

    def test_angle_table_trend(self):
        """Antisymmetric angle below symmetric at fixed frequency; both
        monotone in frequency where defined."""
        d1 = 20e-9
        prev = {b: None for b in BRANCHES}
        for w in (2.2e15, 2.6e15, 3.0e15):
            thetas = {}
            for branch in BRANCHES:
                sol = solve_k(branch, w, d1, SILVER)
                thetas[branch] = coupling_angle(w, sol.k, 1.51)
                if prev[branch] is not None:
                    assert thetas[branch] > prev[branch]
                prev[branch] = thetas[branch]
            assert thetas[BranchId.ANTISYMMETRIC] < thetas[BranchId.SYMMETRIC]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coupling_angle(4e15, 1e7, 0.9)
        with pytest.raises(ValueError):
            coupling_angle(-4e15, 1e7, 1.51)
