import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lrspp.constants import C_LIGHT
from lrspp.dispersion import BranchId, coupling_angle, solve_k, solve_omega
from lrspp.errors import SingularSystemError
from lrspp.materials import SILVER, eps_lossless, eps_lossy, surface_plasma_frequency
from lrspp.modes import (
    ExpTerm,
    FourLayerField,
    PiecewiseExpProfile,
    Region,
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
        return abs(profile.eval_x(z)) ** 2 + abs(profile.eval_z(z)) ** 2

    edges = [lo] + [r.z_hi for r in profile.regions if lo < r.z_hi < hi_tail] + [hi_tail]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += quad(f, a, b, limit=300)[0]
    return total


class TestStripProfile:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("w,d1", [(3e15, 20e-9), (4.5e15, 35e-9), (2.5e15, 60e-9)])
    def test_tangential_continuity(self, branch, w, d1):
        sol = solve_k(branch, w, d1, SILVER)
        prof = lrspp_profile(branch, sol, SILVER)
        below, metal, above = prof.regions
        for z, (ra, rb) in ((0.0, (below, metal)), (d1, (metal, above))):
            ex_a, ex_b = ra.eval_x(z), rb.eval_x(z)
            assert abs(ex_a - ex_b) / abs(ex_a) < 1e-10
            h_a, h_b = ra.eval_hfield(z, prof.kx), rb.eval_hfield(z, prof.kx)
            assert abs(h_a - h_b) / abs(h_a) < 1e-10

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_outer_tail_mirror_magnitude(self, branch):
        # the symmetric branch leaves the search window above ~4.1e15 at 20 nm
        w_hi = 5.0e15 if branch is BranchId.ANTISYMMETRIC else 4.0e15
        for i in range(20):
            w = 2.4e15 + i * (w_hi - 2.4e15) / 19
            sol = solve_k(branch, w, 20e-9, SILVER)
            prof = lrspp_profile(branch, sol, SILVER)
            delta = 5e-9
            assert abs(prof.eval_x(-delta)) == pytest.approx(abs(prof.eval_x(sol.d1 + delta)), rel=1e-12)

    def test_unit_amplitude_below(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        prof = lrspp_profile(BranchId.ANTISYMMETRIC, sol, SILVER)
        assert prof.eval_x(0.0) == pytest.approx(1.0)

    def test_metal_interior_suppressed_when_faces_decouple(self):
        # nu_m d1 >> 4 (C < 1): the midplane field is a few % of the face value
        w, d1 = 2.5e15, 150e-9
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, SILVER)
            coupled_C = 4.0 / (sol.nu_m * d1)
            assert coupled_C < 0.75
            prof = lrspp_profile(branch, sol, SILVER)
            ratio = prof.magnitude(d1 / 2.0) / prof.magnitude(0.0)
            assert ratio < 0.02

    def test_normalizability_enforced(self):
        grow = Region(0.0, INF, (ExpTerm(1.0 + 0j, 0j, +1e7, 0.0),))
        with pytest.raises(ValueError):
            PiecewiseExpProfile(regions=(grow,), kx=1e7)
        gap = (
            Region(-INF, 0.0, (ExpTerm(1.0 + 0j, 0j, 1e7, 0.0),)),
            Region(1e-9, INF, (ExpTerm(1.0 + 0j, 0j, -1e7, 0.0),)),
        )
        with pytest.raises(ValueError):
            PiecewiseExpProfile(regions=gap, kx=1e7)


def brute_force_four_layer(w, theta, d1, d2, eps1, model, lossy):
    """Independent oracle: assemble the full boundary system as a dense
    linear solve for (r, k1..k5) with unit incidence."""
    woc = w / C_LIGHT
    kx = math.sqrt(eps1) * woc * math.sin(theta)
    kz1 = math.sqrt(eps1) * woc * math.cos(theta)
    em = complex(eps_lossy(model, w)) if lossy else complex(eps_lossless(model, w))
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
                fl = four_layer_solve(w, theta, 20e-9, 400e-9, 1.51, SILVER, lossy=False)
                assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
        theta=st.floats(min_value=math.asin(1.0 / math.sqrt(1.51)) + 1e-9, max_value=math.pi / 2),
        d1=st.floats(min_value=math.log(1e-9), max_value=math.log(50e-6)).map(math.exp),
        d2=st.floats(min_value=math.log(1e-9), max_value=math.log(3e-6)).map(math.exp),
    )
    def test_lossless_energy_conservation_whole_ranges(self, frac, theta, d1, d2):
        """|r|^2 + |tau|^2 = 1 on the lossless stack for any strip from 1 nm to
        50 um and any angle above the critical one; a strip too thick to
        solve raises SingularSystemError."""
        omega = frac * surface_plasma_frequency(SILVER)
        try:
            fl = four_layer_solve(omega, theta, d1, d2, 1.51, SILVER, lossy=False)
        except SingularSystemError:
            return
        assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-12

    def test_large_gap_shuts_conversion_off(self):
        w = 4e15
        sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, 20e-9, 5e-6, 1.51, SILVER, lossy=True)
        assert abs(fl.tau) < 0.01
        assert abs(fl.r) > 0.99

    def test_lossy_reflection_dips(self):
        w = 4e15
        sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, 20e-9, 1e-6, 1.51, SILVER, lossy=True)
        assert abs(fl.r) < 0.9
        assert abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("lossy", [False, True])
    def test_against_brute_force_solve(self, lossy):
        w, d1, d2, eps1 = 3.8e15, 25e-9, 600e-9, 1.51
        theta = 1.0
        fl = four_layer_solve(w, theta, d1, d2, eps1, SILVER, lossy=lossy)
        kx, vec = brute_force_four_layer(w, theta, d1, d2, eps1, SILVER, lossy)
        r_bf, k_bf = vec[0], vec[1:]
        assert fl.r == pytest.approx(r_bf, rel=1e-9)
        amps = [t.ax for reg in fl.profile.regions for t in reg.terms]
        for got, want in zip(amps, k_bf):
            assert got == pytest.approx(want, rel=1e-9)
        assert fl.profile.kx == pytest.approx(kx, rel=1e-14)

    @pytest.mark.parametrize("lossy", [False, True])
    def test_interface_continuity(self, lossy):
        w, d1, d2, eps1 = 4.2e15, 30e-9, 800e-9, 1.51
        theta = 0.98
        fl = four_layer_solve(w, theta, d1, d2, eps1, SILVER, lossy=lossy)
        gap, metal, top = fl.profile.regions
        kx = fl.profile.kx
        # interior interfaces
        for z, (ra, rb) in ((0.0, (gap, metal)), (d1, (metal, top))):
            assert abs(ra.eval_x(z) - rb.eval_x(z)) / abs(ra.eval_x(z)) < 1e-10
            assert abs(ra.eval_hfield(z, kx) - rb.eval_hfield(z, kx)) / abs(ra.eval_hfield(z, kx)) < 1e-10
        # prism face: incident + reflected against the gap field
        woc = w / C_LIGHT
        kz1 = math.sqrt(eps1) * woc * math.cos(theta)
        ex_prism = 1.0 + fl.r
        by = lambda rate: (rate * rate - kx * kx) / rate
        hy_prism = by(1j * kz1) * 1.0 + by(-1j * kz1) * fl.r
        assert abs(ex_prism - gap.eval_x(-d2)) / abs(ex_prism) < 1e-10
        assert abs(hy_prism - gap.eval_hfield(-d2, kx)) / abs(hy_prism) < 1e-10

    def test_below_critical_angle_rejected(self):
        with pytest.raises(ValueError):
            four_layer_solve(4e15, 0.3, 20e-9, 500e-9, 1.51, SILVER)


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
            prof = lrspp_profile(branch, sol, SILVER)
            closed = profile_norm(prof, -d2, INF)
            tail = d1 + 40.0 / sol.nu_0
            oracle = quad_norm(prof, -d2, tail)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_atr_norm_against_quadrature(self):
        w, d1, d2 = 3.6e15, 25e-9, 700e-9
        sol = solve_k(BranchId.ANTISYMMETRIC, w, d1, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER, lossy=True)
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
                prof = lrspp_profile(branch, sol, SILVER)
                tail = d1 + 40.0 / sol.nu_0
            else:
                fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER, lossy=True)
                prof = fl.profile
                tail = d1 + 40.0 / fl.gamma_0.real
            closed = profile_norm(prof, -d2, INF)
            oracle = quad_norm(prof, -d2, tail)
            assert closed == pytest.approx(oracle, rel=1e-8)
            accepted += 1

    def test_norm_homogeneity(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        prof = lrspp_profile(BranchId.ANTISYMMETRIC, sol, SILVER)
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
        prof = lrspp_profile(BranchId.ANTISYMMETRIC, sol, SILVER)
        theta = coupling_angle(w, sol.k, 1.51)
        fl = four_layer_solve(w, theta, d1, d2, 1.51, SILVER, lossy=True)
        ab = overlap_integral(prof, fl.profile, -d2, INF)
        ba = overlap_integral(fl.profile, prof, -d2, INF)
        assert ab == pytest.approx(ba.conjugate(), rel=1e-12)
