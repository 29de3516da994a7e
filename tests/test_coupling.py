import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lrspp import coupling
from lrspp.coupling import (
    ConstraintSet,
    OptimizeConfig,
    constraint_set,
    coupling_point,
    optimize_d2,
    optimize_path,
    overlap_beta,
)
from lrspp.dispersion import BranchId, coupling_angle, solve_k
from lrspp.errors import LrsppError
from lrspp.materials import SILVER, surface_plasma_frequency
from lrspp.modes import four_layer_solve, lrspp_profile

INF = math.inf


def beta_quadrature_oracle(branch, w, d1, d2, eps_prism=1.51, model=SILVER):
    """Adaptive-quadrature route to beta, independent of the closed-form
    piecewise integration."""
    sol = solve_k(branch, w, d1, model)
    theta = coupling_angle(w, sol.k, eps_prism)
    phi = lrspp_profile(branch, sol, model)
    fl = four_layer_solve(w, theta, d1, d2, eps_prism, model, lossy=True)
    psi = fl.profile
    tail = d1 + 45.0 / min(sol.nu_0, fl.gamma_0.real)
    edges = [-d2, 0.0, d1, tail]

    def piece(f):
        return sum(quad(f, a, b, limit=400)[0] for a, b in zip(edges, edges[1:]))

    n1 = piece(lambda z: abs(phi.eval_x(z)) ** 2 + abs(phi.eval_z(z)) ** 2)
    n2 = piece(lambda z: abs(psi.eval_x(z)) ** 2 + abs(psi.eval_z(z)) ** 2)

    def integrand(z):
        return phi.eval_x(z).conjugate() * psi.eval_x(z) + phi.eval_z(z).conjugate() * psi.eval_z(z)

    ov = complex(piece(lambda z: integrand(z).real), piece(lambda z: integrand(z).imag))
    return -(fl.tau * ov / math.sqrt(n1 * n2)).conjugate()


FEASIBLE_CASES = [
    (BranchId.ANTISYMMETRIC, 3.4e15, 30e-9, 900e-9),
    (BranchId.ANTISYMMETRIC, 4.0e15, 60e-9, 500e-9),
    (BranchId.ANTISYMMETRIC, 4.6e15, 45e-9, 350e-9),
    (BranchId.SYMMETRIC, 2.8e15, 25e-9, 800e-9),
    (BranchId.SYMMETRIC, 3.1e15, 40e-9, 650e-9),
    (BranchId.SYMMETRIC, 2.5e15, 55e-9, 1.2e-6),
]


class TestOverlapBeta:
    def test_no_transmission_no_conversion(self):
        beta = overlap_beta(BranchId.ANTISYMMETRIC, 4e15, 20e-9, 5e-6)
        assert abs(beta) < 1e-3

    @pytest.mark.parametrize("branch,w,d1,d2", FEASIBLE_CASES)
    def test_against_quadrature_oracle(self, branch, w, d1, d2):
        closed = overlap_beta(branch, w, d1, d2)
        oracle = beta_quadrature_oracle(branch, w, d1, d2)
        assert abs(closed - oracle) / abs(oracle) < 1e-8

    def test_bounded_by_one(self):
        for branch, w, d1, d2 in FEASIBLE_CASES:
            assert abs(overlap_beta(branch, w, d1, d2)) <= 1.0 + 1e-9


class TestConstraintSet:
    def test_branch_separation_always_positive(self):
        for w, d1 in ((2.4e15, 15e-9), (3.2e15, 40e-9), (4.5e15, 25e-9)):
            cons = constraint_set(BranchId.ANTISYMMETRIC, w, d1, 600e-9)
            assert cons.bandwidth_B > 0.0

    def test_bandwidth_infinite_when_other_branch_absent(self):
        # at this point the matched wavevector sits where the antisymmetric
        # branch has left the bound band: simultaneous excitation impossible
        cons = constraint_set(BranchId.SYMMETRIC, 4.2e15, 20e-9, 600e-9)
        assert cons.bandwidth_B == INF
        assert cons.feasible

    def test_penetration_boundary_exact(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        cons = constraint_set(BranchId.ANTISYMMETRIC, 4e15, 20e-9, 2.0 / sol.nu_0)
        assert cons.penetration_P == 1.0

    def test_faces_decouple_at_large_thickness_low_frequency(self):
        cons = constraint_set(BranchId.ANTISYMMETRIC, 2.2e15, 95e-9, 600e-9)
        assert cons.coupled_surfaces_C < 1.0
        assert not cons.feasible

    def test_feasibility_rule(self):
        assert ConstraintSet(1.0, 1.0, 1.0).feasible
        assert not ConstraintSet(0.99, 1.0, 1.0).feasible
        assert not ConstraintSet(1.0, 1.01, 1.0).feasible
        assert not ConstraintSet(1.0, 1.0, 0.99).feasible

    def test_delta_omega_validation(self):
        with pytest.raises(ValueError):
            constraint_set(BranchId.ANTISYMMETRIC, 4e15, 20e-9, 600e-9, delta_omega=0.0)


class TestCouplingPoint:
    def test_mixing_angle_identity(self):
        pt = coupling_point(BranchId.ANTISYMMETRIC, 4e15, 60e-9, 500e-9)
        alpha_sq = 1.0 - abs(pt.beta) ** 2
        assert abs(alpha_sq + abs(pt.beta) ** 2 - 1.0) < 1e-12
        assert pt.g == pytest.approx(math.asin(abs(pt.beta)))
        assert pt.g_tilde == pytest.approx(2.0 * pt.g / math.pi)
        assert 0.0 <= pt.g_tilde <= 1.0


class TestOptimizeD2:
    def test_result_is_feasible_and_locally_optimal(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        assert pt is not None and pt.feasible
        assert pt.constraints.feasible
        step = 1e-9
        for d2 in (pt.d2 - step, pt.d2 + step):
            assert abs(overlap_beta(BranchId.ANTISYMMETRIC, 4e15, 60e-9, d2)) <= abs(pt.beta) + 1e-12

    def test_subtracted_region_returns_none(self):
        assert optimize_d2(BranchId.SYMMETRIC, 5e15, 15e-9) is None

    def test_violated_constraints_return_none(self):
        assert optimize_d2(BranchId.ANTISYMMETRIC, 2.2e15, 95e-9) is None

    def test_gap_respects_penetration_bound(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4.8e15, 30e-9)
        assert pt is not None
        assert pt.constraints.penetration_P <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(5e-9), max_value=math.log(200e-9)).map(math.exp),
    gap=st.floats(min_value=0.0, max_value=1.0),
)
def test_gap_objective_matches_beta(branch, frac, d1, gap):
    """The search objective of optimize_d2 is |beta| of the generic route, at
    any bound-band frequency, strip from 5 to 200 nm and gap from the
    penetration bound 2/nu_0 to 3 um."""
    omega = frac * surface_plasma_frequency(SILVER)
    try:
        sol = solve_k(branch, omega, d1, SILVER)
        d2_lo = 2.0 / sol.nu_0
        if d2_lo > 3e-6:
            return
        d2 = d2_lo * (3e-6 / d2_lo) ** gap
        value = coupling._gap_objective(sol, branch, 1.51, SILVER)(d2)
    except LrsppError:
        return
    beta, _, _ = coupling._beta_from_solution(sol, branch, d2, 1.51, SILVER)
    assert abs(value - abs(beta)) <= 1e-12
    assert value <= 1.0


class TestOptimizePath:
    _CFG = OptimizeConfig(d2_steps=24)
    _OMEGAS = [3.2e15, 3.8e15, 4.4e15]
    _D1S = [20e-9, 40e-9, 60e-9]

    def test_records_feasible_and_bounded(self):
        path = optimize_path(BranchId.ANTISYMMETRIC, self._OMEGAS, self._D1S, self._CFG)
        assert len(path.records) == len(self._OMEGAS)
        for rec in path.records:
            assert rec.point is not None
            assert rec.point.constraints.feasible
            assert 0.0 <= rec.point.g_tilde <= 1.0
            # independent re-evaluation of the emitted point
            cons = constraint_set(rec.point.branch, rec.omega, rec.point.d1, rec.point.d2)
            assert cons.feasible

    def test_max_g_tilde_helper(self):
        path = optimize_path(BranchId.ANTISYMMETRIC, self._OMEGAS, self._D1S, self._CFG)
        assert path.max_g_tilde() == max(r.point.g_tilde for r in path.records)

    def test_best_path_shape(self):
        """Above the coupling peak the optimal strip thins toward higher
        frequency, and the optimal gap shrinks across the band."""
        omegas = [3.0e15 + i * (5.2e15 - 3.0e15) / 7 for i in range(8)]
        d1s = [10e-9 + i * 90e-9 / 11 for i in range(12)]
        path = optimize_path(BranchId.ANTISYMMETRIC, omegas, d1s, OptimizeConfig(d2_steps=32))
        pts = [r.point for r in path.records if r.point is not None]
        assert len(pts) >= 6
        peak = max(range(len(pts)), key=lambda i: pts[i].g_tilde)
        upper_d1 = [p.d1 for p in pts[peak:]]
        assert all(a >= b for a, b in zip(upper_d1, upper_d1[1:]))
        assert pts[0].d2 > pts[-1].d2
