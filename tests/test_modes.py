import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import lossless

from lrspp.constants import C_LIGHT
from lrspp.dispersion import BranchId, coupling_angle, solve_k, solve_omega
from lrspp.errors import LrsppError
from lrspp.materials import SILVER, DielectricModel, eps_lossy, surface_plasma_frequency
from lrspp.modes import (
    ExpTerm,
    FourLayerField,
    PiecewiseExpProfile,
    Region,
    _segment_pairs,
    beta_of_gap,
    four_layer_solve,
    lrspp_profile,
    overlap_integral,
    profile_norm,
)

INF = math.inf
BRANCHES = (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)


def quad_norm(profile: PiecewiseExpProfile, lo: float, hi_tail: float) -> float:
    """Adaptive-quadrature oracle for the profile norm."""

    def f(z: float) -> float:
        ex, ez = profile.at(z)
        return abs(ex) ** 2 + abs(ez) ** 2

    edges = [lo] + [r.z_hi for r in profile.regions if lo < r.z_hi < hi_tail] + [hi_tail]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += quad(f, a, b, limit=300)[0]
    return total


def hfield(region: Region, z: float, kx: float) -> complex:
    """Tangential magnetic field of a region up to a global constant:
    sum of ax (rate^2 - kx^2)/rate * exp(rate (z - z_ref))."""
    return sum(
        (t.ax * (t.rate * t.rate - kx * kx) / t.rate * cmath.exp(t.rate * (z - t.z_ref)) for t in region.terms), 0j
    )


def strip_and_atr(w: float, d1: float, d2: float) -> tuple[PiecewiseExpProfile, PiecewiseExpProfile]:
    """The plus-branch strip mode and the four-layer field at its matching angle."""
    sol = solve_k(BranchId.ANTISYMMETRIC, w, d1, SILVER)
    fl = four_layer_solve(w, coupling_angle(w, sol.k, 1.51), d1, d2, 1.51, SILVER)
    return lrspp_profile(sol), fl.profile


def magnitude(profile: PiecewiseExpProfile, z: float) -> float:
    ex, ez = profile.at(z)
    return math.hypot(abs(ex), abs(ez))


class TestStripProfile:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("w,d1", [(3e15, 20e-9), (4.5e15, 35e-9), (2.5e15, 60e-9)])
    def test_tangential_continuity(self, branch, w, d1):
        sol = solve_k(branch, w, d1, SILVER)
        prof = lrspp_profile(sol)
        below, metal, above = prof.regions
        for z, (ra, rb) in ((0.0, (below, metal)), (d1, (metal, above))):
            ex_a, ex_b = ra.at(z)[0], rb.at(z)[0]
            assert abs(ex_a - ex_b) / abs(ex_a) < 1e-10
            h_a, h_b = hfield(ra, z, prof.kx), hfield(rb, z, prof.kx)
            assert abs(h_a - h_b) / abs(h_a) < 1e-10

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_outer_tail_mirror_magnitude(self, branch):
        # the symmetric branch leaves the search window above ~4.1e15 at 20 nm
        w_hi = 5.0e15 if branch is BranchId.ANTISYMMETRIC else 4.0e15
        for i in range(20):
            w = 2.4e15 + i * (w_hi - 2.4e15) / 19
            sol = solve_k(branch, w, 20e-9, SILVER)
            prof = lrspp_profile(sol)
            delta = 5e-9
            assert abs(prof.at(-delta)[0]) == pytest.approx(abs(prof.at(sol.d1 + delta)[0]), rel=1e-12)

    def test_unit_amplitude_below(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        prof = lrspp_profile(sol)
        assert prof.at(0.0)[0] == pytest.approx(1.0)

    def test_metal_interior_suppressed_when_faces_decouple(self):
        # nu_m d1 >> 4 (C < 1): the midplane field is a few % of the face value
        w, d1 = 2.5e15, 150e-9
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, SILVER)
            coupled_C = 4.0 / (sol.nu_m * d1)
            assert coupled_C < 0.75
            prof = lrspp_profile(sol)
            ratio = magnitude(prof, d1 / 2.0) / magnitude(prof, 0.0)
            assert ratio < 0.02


def brute_force_four_layer(w, theta, d1, d2, eps1, model):
    """Independent oracle: assemble the full boundary system as a dense
    linear solve for (r, k1..k5) with unit incidence."""
    woc = w / C_LIGHT
    kx = math.sqrt(eps1) * woc * math.sin(theta)
    kz1 = math.sqrt(eps1) * woc * math.cos(theta)
    em = eps_lossy(model, w)
    g0 = cmath.sqrt(kx * kx - woc * woc)
    gm = cmath.sqrt(kx * kx - em * woc * woc)

    def by_coef(rate):
        return (rate * rate - kx * kx) / rate

    # unknown order: r, k1, k2, k3, k4, k5
    A = np.zeros((6, 6), dtype=complex)
    b = np.zeros(6, dtype=complex)
    u0 = cmath.exp(-g0 * d2)
    um = cmath.exp(-gm * d1)
    # z = -d2: Ex continuity: 1 + r = k1 + k2 u0
    A[0, 0] = 1.0
    A[0, 1] = -1.0
    A[0, 2] = -u0
    b[0] = -1.0
    # z = -d2: Hy: by(ik1z)*1 + by(-ik1z) r = by(-g0) k1 + by(g0) u0 k2
    A[1, 0] = by_coef(-1j * kz1)
    A[1, 1] = -by_coef(-g0)
    A[1, 2] = -by_coef(g0) * u0
    b[1] = -by_coef(1j * kz1)
    # z = 0: Ex: k1 u0 + k2 = k3 + k4 um
    A[2, 1] = u0
    A[2, 2] = 1.0
    A[2, 3] = -1.0
    A[2, 4] = -um
    # z = 0: Hy
    A[3, 1] = by_coef(-g0) * u0
    A[3, 2] = by_coef(g0)
    A[3, 3] = -by_coef(-gm)
    A[3, 4] = -by_coef(gm) * um
    # z = d1: Ex: k3 um + k4 = k5
    A[4, 3] = um
    A[4, 4] = 1.0
    A[4, 5] = -1.0
    # z = d1: Hy
    A[5, 3] = by_coef(-gm) * um
    A[5, 4] = by_coef(gm)
    A[5, 5] = -by_coef(-g0)
    sol = np.linalg.solve(A, b)
    return kx, sol  # r, k1..k5


class TestFourLayer:
    def test_lossless_energy_conservation_grid(self):
        crit = math.asin(1.0 / math.sqrt(1.51))
        for i in range(10):
            w = 2.2e15 + i * (5.2e15 - 2.2e15) / 9
            for j in range(10):
                theta = crit + 1e-3 + (math.pi / 2 - crit - 2e-3) * j / 9
                fl = four_layer_solve(w, theta, 20e-9, 400e-9, 1.51, lossless(SILVER))
                assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
        theta=st.floats(min_value=math.asin(1.0 / math.sqrt(1.51)) + 1e-9, max_value=math.pi / 2),
        d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
        d2=st.floats(min_value=math.log(1e-9), max_value=math.log(1.0)).map(math.exp),
    )
    def test_lossless_energy_conservation_whole_ranges(self, frac, theta, d1, d2):
        """|r|^2 + |tau|^2 = 1 on the lossless stack for any strip from 1 nm to
        1 mm, any gap from 1 nm to 1 m and any angle above the critical one:
        every amplitude stays finite, however thick the strip or wide the
        gap."""
        omega = frac * surface_plasma_frequency(SILVER)
        fl = four_layer_solve(omega, theta, d1, d2, 1.51, lossless(SILVER))
        assert all(cmath.isfinite(t.ax) and cmath.isfinite(t.az) for reg in fl.profile.regions for t in reg.terms)
        assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-12

    def test_large_gap_shuts_conversion_off(self):
        w = 4e15
        sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, 20e-9, 5e-6, 1.51, SILVER)
        assert abs(fl.tau) < 0.01
        assert abs(fl.r) > 0.99

    def test_lossy_reflection_dips(self):
        w = 4e15
        sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, 20e-9, 1e-6, 1.51, SILVER)
        assert abs(fl.r) < 0.9
        assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("model", [lossless(SILVER), SILVER], ids=["lossless", "lossy"])
    def test_against_brute_force_solve(self, model):
        w, d1, d2, eps1 = 3.8e15, 25e-9, 600e-9, 1.51
        theta = 1.0
        fl = four_layer_solve(w, theta, d1, d2, eps1, model)
        kx, vec = brute_force_four_layer(w, theta, d1, d2, eps1, model)
        r_bf, k_bf = vec[0], vec[1:]
        assert fl.r == pytest.approx(r_bf, rel=1e-9)
        amps = [t.ax for reg in fl.profile.regions for t in reg.terms]
        for got, want in zip(amps, k_bf):
            assert got == pytest.approx(want, rel=1e-9)
        assert fl.profile.kx == pytest.approx(kx, rel=1e-14)

    @pytest.mark.parametrize("model", [lossless(SILVER), SILVER], ids=["lossless", "lossy"])
    def test_interface_continuity(self, model):
        w, d1, d2, eps1 = 4.2e15, 30e-9, 800e-9, 1.51
        theta = 0.98
        fl = four_layer_solve(w, theta, d1, d2, eps1, model)
        gap, metal, top = fl.profile.regions
        kx = fl.profile.kx
        # interior interfaces
        for z, (ra, rb) in ((0.0, (gap, metal)), (d1, (metal, top))):
            assert abs(ra.at(z)[0] - rb.at(z)[0]) / abs(ra.at(z)[0]) < 1e-10
            assert abs(hfield(ra, z, kx) - hfield(rb, z, kx)) / abs(hfield(ra, z, kx)) < 1e-10
        # prism face: incident + reflected against the gap field
        woc = w / C_LIGHT
        kz1 = math.sqrt(eps1) * woc * math.cos(theta)
        ex_prism = 1.0 + fl.r
        by = lambda rate: (rate * rate - kx * kx) / rate
        hy_prism = by(1j * kz1) * 1.0 + by(-1j * kz1) * fl.r
        assert abs(ex_prism - gap.at(-d2)[0]) / abs(ex_prism) < 1e-10
        assert abs(hy_prism - hfield(gap, -d2, kx)) / abs(hy_prism) < 1e-10

    @pytest.mark.parametrize("d1, d2", [
        (0.0, 500e-9), (-20e-9, 500e-9), (math.nan, 500e-9), (INF, 500e-9),
        (20e-9, 0.0), (20e-9, -500e-9), (20e-9, math.nan), (20e-9, INF),
    ])
    def test_strip_or_gap_not_positive_and_finite_rejected(self, d1, d2):
        with pytest.raises(ValueError, match="^d1 and d2 must be positive and finite$"):
            four_layer_solve(4e15, 1.2, d1, d2, 1.51, SILVER)

    @pytest.mark.parametrize("z", [-5.001e-7, -INF, math.nan], ids=["below", "-inf", "nan"])
    def test_field_outside_the_span_is_refused(self, z):
        """The four-layer field spans [-d2, inf): below the prism face, or
        at NaN, no region holds z."""
        _, atr = strip_and_atr(4e15, 30e-9, 500e-9)
        with pytest.raises(ValueError, match=rf"^z={z} outside profile span \[-5e-07, inf\]$"):
            atr.at(z)

    def test_below_critical_angle_rejected(self):
        with pytest.raises(ValueError):
            four_layer_solve(4e15, 0.3, 20e-9, 500e-9, 1.51, SILVER)

    def test_nan_angle_is_a_theta_error(self):
        """A NaN angle gives no evanescent gap field: the ValueError about
        theta, from the solve and from beta_of_gap, not an overflow blamed
        on the metal."""
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        for build in (
            lambda: four_layer_solve(4e15, math.nan, 20e-9, 500e-9, 1.51, SILVER),
            lambda: beta_of_gap(sol, math.nan, 1.51),
        ):
            with pytest.raises(ValueError, match="^theta below the critical angle"):
                build()

    @pytest.mark.parametrize("eps_prism", [math.nan, math.inf, 1.0, 0.5])
    def test_prism_not_above_air_rejected(self, eps_prism):
        with pytest.raises(ValueError, match="^eps_prism must be finite and exceed 1, got "):
            four_layer_solve(4e15, 1.2, 20e-9, 500e-9, eps_prism, SILVER)

    def test_overflowing_metal_rate_names_omega_and_permittivity(self):
        """eps_lossy (omega/c)^2 overflows for an imaginary correction above
        about 1e294; just below, the field is still finite."""
        lossy = DielectricModel(plasma_frequency=1e16, imag_correction=1e300)
        with pytest.raises(LrsppError, match=r"^metal decay rate overflows at omega=3000000000000000\.0: "
                           r"lossy permittivity \(-10\.11\d*\+1e\+300j\)"):
            four_layer_solve(3e15, 1.2, 20e-9, 500e-9, 1.51, lossy)
        fl = four_layer_solve(3e15, 1.2, 20e-9, 500e-9, 1.51, replace(lossy, imag_correction=1e293))
        assert all(cmath.isfinite(t.ax) for reg in fl.profile.regions for t in reg.terms)


class TestNormsAndOverlaps:
    def test_norm_against_quadrature(self):
        cases = [
            (BranchId.ANTISYMMETRIC, 3e15, 20e-9, 400e-9),
            (BranchId.ANTISYMMETRIC, 4.5e15, 50e-9, 900e-9),
            (BranchId.SYMMETRIC, 2.6e15, 30e-9, 600e-9),
            (BranchId.SYMMETRIC, 3.2e15, 70e-9, 1.5e-6),
        ]
        for branch, w, d1, d2 in cases:
            sol = solve_k(branch, w, d1, SILVER)
            prof = lrspp_profile(sol)
            closed = profile_norm(prof, -d2, INF)
            tail = d1 + 40.0 / sol.nu_0
            oracle = quad_norm(prof, -d2, tail)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_atr_norm_against_quadrature(self):
        w, d1, d2 = 3.6e15, 25e-9, 700e-9
        sol = solve_k(BranchId.ANTISYMMETRIC, w, d1, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER)
        closed = profile_norm(fl.profile, -d2, INF)
        tail = d1 + 40.0 / fl.gamma_0.real
        oracle = quad_norm(fl.profile, -d2, tail)
        assert closed == pytest.approx(oracle, rel=1e-8)

    def test_norms_against_quadrature_random_configurations(self):
        import random

        from lrspp.errors import NoBoundMode, NoMatchingAngle

        rng = random.Random(5)
        accepted = 0
        while accepted < 30:
            branch = rng.choice(BRANCHES)
            w = rng.uniform(2.4e15, 5.0e15)
            d1 = rng.uniform(12e-9, 90e-9)
            d2 = rng.uniform(150e-9, 2e-6)
            try:
                sol = solve_k(branch, w, d1, SILVER)
                theta = coupling_angle(w, sol.k, 1.51)
            except (NoBoundMode, NoMatchingAngle):
                continue
            if accepted % 2 == 0:
                prof = lrspp_profile(sol)
                tail = d1 + 40.0 / sol.nu_0
            else:
                fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER)
                prof = fl.profile
                tail = d1 + 40.0 / fl.gamma_0.real
            closed = profile_norm(prof, -d2, INF)
            oracle = quad_norm(prof, -d2, tail)
            assert closed == pytest.approx(oracle, rel=1e-8)
            accepted += 1

    def test_norm_homogeneity(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        prof = lrspp_profile(sol)
        c = 2.0 - 0.5j
        scaled = PiecewiseExpProfile(
            regions=tuple(
                Region(r.z_lo, r.z_hi, tuple(ExpTerm(c * t.ax, c * t.az, t.rate, t.z_ref) for t in r.terms))
                for r in prof.regions
            ),
            kx=prof.kx,
        )
        n = profile_norm(prof, -500e-9, INF)
        assert profile_norm(scaled, -500e-9, INF) == pytest.approx(abs(c) ** 2 * n, rel=1e-12)

    def test_overlap_hermitian_symmetry(self):
        w, d1, d2 = 4e15, 20e-9, 500e-9
        sol = solve_k(BranchId.ANTISYMMETRIC, w, d1, SILVER)
        prof = lrspp_profile(sol)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER)
        ab = overlap_integral(prof, fl.profile, -d2, INF)
        ba = overlap_integral(fl.profile, prof, -d2, INF)
        assert ab == pytest.approx(ba.conjugate(), rel=1e-12)

    def test_segments_pair_regions_in_z_order(self):
        d1, d2 = 20e-9, 500e-9
        prof, atr = strip_and_atr(4e15, d1, d2)
        pairs = [(a, b, prof.regions.index(rf), atr.regions.index(rg))
                 for a, b, rf, rg in _segment_pairs(prof, atr, -d2, INF)]
        assert pairs == [(-d2, 0.0, 0, 0), (0.0, d1, 1, 1), (d1, INF, 2, 2)]
        inner = [(a, b) for a, b, _, _ in _segment_pairs(prof, atr, 0.5 * d1, 2.0 * d1)]
        assert inner == [(0.5 * d1, d1), (d1, 2.0 * d1)]
        assert list(_segment_pairs(prof, atr, d1, d1)) == []

    @pytest.mark.parametrize(
        "lo, hi", [(-600e-9, INF), (0.0, -500e-9), (INF, 0.0), (math.nan, INF), (0.0, math.nan)],
        ids=["below-the-prism", "reversed", "reversed-infinite", "nan-lo", "nan-hi"],
    )
    def test_span_not_covered_or_reversed_raises(self, lo, hi):
        prof, atr = strip_and_atr(4e15, 20e-9, 500e-9)
        with pytest.raises(ValueError, match="not within both profiles"):
            overlap_integral(prof, atr, lo, hi)
        with pytest.raises(ValueError, match="not within both profiles"):
            profile_norm(atr, lo, hi)

    def test_overlap_adds_over_split_spans(self):
        d1, d2 = 25e-9, 700e-9
        prof, atr = strip_and_atr(3.6e15, d1, d2)
        whole = overlap_integral(prof, atr, -d2, INF)
        for cut in (-0.5 * d2, 0.0, 0.3 * d1, d1, 3.0 * d1):
            parts = overlap_integral(prof, atr, -d2, cut) + overlap_integral(prof, atr, cut, INF)
            assert parts == pytest.approx(whole, rel=1e-12)


def test_at_sums_each_term_once_from_the_first_region_holding_z():
    sol = solve_k(BranchId.SYMMETRIC, 3e15, 30e-9, SILVER)
    prof = lrspp_profile(sol)
    below, metal, above = prof.regions
    for z, region in ((-40e-9, below), (0.0, below), (12e-9, metal), (30e-9, metal), (55e-9, above)):
        exps = [cmath.exp(t.rate * (z - t.z_ref)) for t in region.terms]
        ex = sum((t.ax * e for t, e in zip(region.terms, exps)), 0j)
        ez = sum((t.az * e for t, e in zip(region.terms, exps)), 0j)
        assert prof.at(z) == region.at(z) == (ex, ez)
