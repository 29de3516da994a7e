import math
import sys

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lrspp import coupling
from lrspp.coupling import (
    ConstraintSet,
    OptimizeConfig,
    best_over_d1,
    constraint_set,
    optimize_d2,
    overlap_beta,
)
from lrspp.dispersion import BranchId, coupling_angle, solve_k
from lrspp.errors import LrsppError, NoBoundMode
from lrspp.materials import SILVER, surface_plasma_frequency
from lrspp.modes import four_layer_solve, lrspp_profile, overlap_integral, profile_norm

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
    skin = 40.0 / sol.nu_m  # depth past which each metal face's field is gone
    edges = [-d2, 0.0] + ([skin, d1 - skin] if 2.0 * skin < d1 else []) + [d1, tail]

    def piece(f):
        return sum(quad(f, a, b, limit=400)[0] for a, b in zip(edges, edges[1:]))

    n1 = piece(lambda z: abs(phi.eval_x(z)) ** 2 + abs(phi.eval_z(z)) ** 2)
    n2 = piece(lambda z: abs(psi.eval_x(z)) ** 2 + abs(psi.eval_z(z)) ** 2)

    def integrand(z):
        return phi.eval_x(z).conjugate() * psi.eval_x(z) + phi.eval_z(z).conjugate() * psi.eval_z(z)

    ov = complex(piece(lambda z: integrand(z).real), piece(lambda z: integrand(z).imag))
    return -(fl.tau * ov / math.sqrt(n1 * n2)).conjugate()


def beta_generic_oracle(branch, sol, d2, eps_prism=1.51, model=SILVER):
    """beta from the full four-layer solve at unit incidence and three
    piecewise closed-form integrals over [-d2, inf): independent of the gap
    algebra of the closed form in coupling."""
    theta = coupling_angle(sol.omega, sol.k, eps_prism)
    phi = lrspp_profile(branch, sol, model)
    fl = four_layer_solve(sol.omega, theta, sol.d1, d2, eps_prism, model, lossy=True)
    n1 = profile_norm(phi, -d2, INF)
    n2 = profile_norm(fl.profile, -d2, INF)
    overlap = overlap_integral(phi, fl.profile, -d2, INF) / math.sqrt(n1 * n2)
    return -(fl.tau * overlap).conjugate()


FEASIBLE_CASES = [
    (BranchId.ANTISYMMETRIC, 3.4e15, 30e-9, 900e-9),
    (BranchId.ANTISYMMETRIC, 4.0e15, 60e-9, 500e-9),
    (BranchId.ANTISYMMETRIC, 4.6e15, 45e-9, 350e-9),
    (BranchId.SYMMETRIC, 2.8e15, 25e-9, 800e-9),
    (BranchId.SYMMETRIC, 3.1e15, 40e-9, 650e-9),
    (BranchId.SYMMETRIC, 2.5e15, 55e-9, 1.2e-6),
]


#: A 10 um strip: with the four-layer amplitudes at unit top-air amplitude
#: the norm integral here was NaN.
THICK_STRIP_CASE = (BranchId.ANTISYMMETRIC, 2e15, 10e-6, 800e-9)


class TestOverlapBeta:
    def test_no_transmission_no_conversion(self):
        beta = overlap_beta(BranchId.ANTISYMMETRIC, 4e15, 20e-9, 5e-6)
        assert abs(beta) < 1e-3

    @pytest.mark.parametrize("branch,w,d1,d2", FEASIBLE_CASES + [THICK_STRIP_CASE])
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


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, -50e-9], ids=["nan", "zero", "negative-zero", "negative"])
def test_gap_and_bandwidth_must_be_positive(bad):
    """The public entry points name a bad gap or bandwidth instead of
    dividing by zero, returning NaN or reporting a degenerate system."""
    args = (BranchId.ANTISYMMETRIC, 4e15, 40e-9)
    for call in (overlap_beta, constraint_set):
        with pytest.raises(ValueError, match=f"^d2 must be positive, got {bad!r}$"):
            call(*args, bad)
    with pytest.raises(ValueError, match=f"^delta_omega must be positive, got {bad!r}$"):
        constraint_set(*args, 600e-9, delta_omega=bad)
    with pytest.raises(ValueError, match="^d2 must be finite, got inf$"):
        overlap_beta(*args, INF)


@pytest.mark.parametrize(
    "field, bad",
    [("d2_min", v) for v in (math.nan, INF, -INF, 0.0, -50e-9)]
    + [("d2_max", v) for v in (math.nan, INF, -INF, 50e-9, 10e-9)]
    + [("d2_steps", v) for v in (-3, 0, 1, 2.5, True)]
    + [("delta_omega", v) for v in (math.nan, INF, -INF, 0.0, -3.02e13)]
    + [("eps_prism", v) for v in (math.nan, INF, -INF, 1.0, 0.5)],
)
def test_optimize_config_names_a_bad_field(field, bad):
    """NaN, an infinity or a value out of range in any OptimizeConfig field is
    a ValueError naming that field, before any solve can run on it."""
    with pytest.raises(ValueError, match=f"^{field} .*, got {bad!r}$"):
        OptimizeConfig(**{field: bad})


class TestCouplingPoint:
    def test_mixing_angle_identity(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        alpha_sq = 1.0 - abs(pt.beta) ** 2
        assert abs(alpha_sq + abs(pt.beta) ** 2 - 1.0) < 1e-12
        assert pt.g == pytest.approx(math.asin(abs(pt.beta)))
        assert pt.g_tilde == pytest.approx(2.0 * pt.g / math.pi)
        assert 0.0 <= pt.g_tilde <= 1.0


class TestOptimizeD2:
    def test_result_is_feasible_and_locally_optimal(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        assert pt is not None and pt.constraints.feasible
        step = 1e-9
        for d2 in (pt.d2 - step, pt.d2 + step):
            assert abs(overlap_beta(BranchId.ANTISYMMETRIC, 4e15, 60e-9, d2)) <= abs(pt.beta) + 1e-12

    def test_subtracted_region_returns_none(self):
        assert optimize_d2(BranchId.SYMMETRIC, 5e15, 15e-9) is None

    def test_violated_constraints_return_none(self):
        assert optimize_d2(BranchId.ANTISYMMETRIC, 2.2e15, 95e-9) is None

    @pytest.mark.parametrize(
        "d1,config,c_below_1",
        [(300e-9, OptimizeConfig(), True), (60e-9, OptimizeConfig(d2_min=50e-9, d2_max=60e-9), False)],
        ids=["C-below-1", "empty-gap-window"],
    )
    def test_ruled_out_before_the_other_branch_is_solved(self, monkeypatch, d1, config, c_below_1):
        """C < 1 (a 300 nm strip) or an empty gap window (P > 1 at d2_max)
        rules a cell out before B's root solve on the other branch."""
        cons = constraint_set(BranchId.ANTISYMMETRIC, 4e15, d1, config.d2_max)
        assert (cons.coupled_surfaces_C < 1.0, cons.penetration_P > 1.0) == (c_below_1, not c_below_1)
        solved = []

        def solve_omega(*args):
            solved.append(args)
            raise NoBoundMode("B = inf")

        monkeypatch.setattr(coupling, "solve_omega", solve_omega)
        assert optimize_d2(BranchId.ANTISYMMETRIC, 4e15, d1, config) is None
        assert solved == []

    @pytest.mark.parametrize(
        "branch,w,d1", [(BranchId.ANTISYMMETRIC, 4e15, 60e-9), (BranchId.SYMMETRIC, 3.1e15, 40e-9)]
    )
    def test_reported_point_matches_the_explicit_gap_calls(self, branch, w, d1):
        """The optimum's beta and (B, P, C) are those of overlap_beta and
        constraint_set at its gap, bit for bit, and g is arcsin|beta|."""
        pt = optimize_d2(branch, w, d1)
        assert pt is not None
        beta = overlap_beta(branch, w, d1, pt.d2)
        assert (pt.beta.real.hex(), pt.beta.imag.hex()) == (beta.real.hex(), beta.imag.hex())
        assert pt.constraints == constraint_set(branch, w, d1, pt.d2)
        assert (pt.omega, pt.d1, pt.g) == (w, d1, math.asin(abs(beta)))
        assert pt.g_tilde == 2.0 * pt.g / math.pi

    def test_scan_takes_the_steps_given(self, monkeypatch):
        """With d2_steps=2 the scan evaluates beta at the two ends of the gap
        window and no more: the third evaluation is the first golden point
        of the refine over the whole window."""
        gaps = []
        beta_of_gap = coupling._beta_of_gap

        def counted(*args):
            beta = beta_of_gap(*args)

            def value(d2):
                gaps.append(d2)
                return beta(d2)

            return value

        monkeypatch.setattr(coupling, "_beta_of_gap", counted)
        config = OptimizeConfig(d2_steps=2)
        assert optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9, config) is not None
        lo = gaps[0]
        hi = lo * (config.d2_max / lo) ** 1.0
        golden = hi - coupling._GOLDEN * (hi - lo)
        scanned = next((i for i, d2 in enumerate(gaps) if d2 == golden), None)
        assert scanned == 2 and gaps[:2] == [lo, hi]

    def test_gap_respects_penetration_bound(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4.8e15, 30e-9)
        assert pt is not None
        assert pt.constraints.penetration_P <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(5e-9), max_value=math.log(1e-3)).map(math.exp),
    gap=st.floats(min_value=0.0, max_value=1.0),
)
def test_gap_objective_matches_beta(branch, frac, d1, gap):
    """The closed-form beta(d2) of coupling, phase included, is the beta of
    the generic four-layer route at any bound-band frequency, strip from 5
    nm to 1 mm and gap from the penetration bound 2/nu_0 to 1 m.  Past
    gamma_0 d2 ~ 708 the gap factor exp(-gamma_0 d2) is subnormal, and both
    routes lose digits below the smallest normal float: differences under
    it are allowed."""
    omega = frac * surface_plasma_frequency(SILVER)
    try:
        sol = solve_k(branch, omega, d1, SILVER)
        d2_lo = 2.0 / sol.nu_0
        if d2_lo > 1.0:
            return
        d2 = d2_lo * (1.0 / d2_lo) ** gap
        theta = coupling_angle(omega, sol.k, 1.51)
        beta = coupling._beta_of_gap(sol, branch, theta, 1.51, SILVER)(d2)
    except LrsppError:
        return
    oracle = beta_generic_oracle(branch, sol, d2)
    assert abs(beta - oracle) <= 1e-12 * abs(oracle) + sys.float_info.min
    assert abs(beta) <= 1.0


class TestOptimizePath:
    _CFG = OptimizeConfig(d2_steps=24)
    _OMEGAS = [3.2e15, 3.8e15, 4.4e15]
    _D1S = [20e-9, 40e-9, 60e-9]

    def test_records_feasible_and_bounded(self):
        points = [best_over_d1(BranchId.ANTISYMMETRIC, w, self._D1S, self._CFG, SILVER) for w in self._OMEGAS]
        assert len(points) == len(self._OMEGAS)
        for w, pt in zip(self._OMEGAS, points):
            assert pt is not None
            assert pt.constraints.feasible
            assert 0.0 <= pt.g_tilde <= 1.0
            # independent re-evaluation of the emitted point
            cons = constraint_set(pt.branch, w, pt.d1, pt.d2)
            assert cons.feasible

    def test_best_path_shape(self):
        """Above the coupling peak the optimal strip thins toward higher
        frequency, and the optimal gap shrinks across the band."""
        omegas = [3.0e15 + i * (5.2e15 - 3.0e15) / 7 for i in range(8)]
        d1s = [10e-9 + i * 90e-9 / 11 for i in range(12)]
        cfg = OptimizeConfig(d2_steps=32)
        points = [best_over_d1(BranchId.ANTISYMMETRIC, w, d1s, cfg, SILVER) for w in omegas]
        pts = [pt for pt in points if pt is not None]
        assert len(pts) >= 6
        peak = max(range(len(pts)), key=lambda i: pts[i].g_tilde)
        upper_d1 = [p.d1 for p in pts[peak:]]
        assert all(a >= b for a, b in zip(upper_d1, upper_d1[1:]))
        assert pts[0].d2 > pts[-1].d2
