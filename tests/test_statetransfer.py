import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrspp import fock
from lrspp.statetransfer import (
    CatState,
    propagate_cat,
    represented_trace,
    transfer_cat,
    von_neumann_entropy,
)

LN2 = math.log(2.0)


class TestClosedFormEndpoints:
    def test_full_transfer_is_pure(self):
        d = transfer_cat(CatState(2.0), math.pi / 2)
        assert d.offdiag == pytest.approx(1.0)
        assert (d.lambda_plus, d.lambda_minus) == (1.0, 0.0)
        assert d.entropy == 0.0

    def test_no_transfer_is_vacuum(self):
        d = transfer_cat(CatState(2.0), 0.0)
        assert d.a_eff == 0.0
        assert (d.lambda_plus, d.lambda_minus) == (1.0, 0.0)
        assert d.entropy == 0.0

    def test_zero_distance_matches_transfer(self):
        cat = CatState(1.7)
        a = transfer_cat(cat, 0.9)
        b = propagate_cat(cat, 0.9, 5e4, 0.0)
        assert a == b

    def test_infinite_distance_is_vacuum(self):
        d = propagate_cat(CatState(2.0), 1.0, 1.0, 60.0)
        assert (d.lambda_plus, d.lambda_minus) == (1.0, 0.0)
        assert d.entropy == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            propagate_cat(CatState(1.0), -0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            propagate_cat(CatState(1.0), 0.5, -1.0, 0.0)
        with pytest.raises(ValueError):
            propagate_cat(CatState(1.0), 0.5, 1.0, -1.0)


class TestTraceAndEigenvalues:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_trace_preserved_along_propagation(self, alpha):
        cat = CatState(alpha)
        for i in range(10):
            kx = 0.35 * i
            d = propagate_cat(cat, 1.05, 1.0, kx)
            assert represented_trace(cat, d) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=6.0),
        g=st.floats(min_value=0.0, max_value=math.pi / 2),
        kx=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_eigenvalues_sum_to_one(self, alpha, g, kx):
        d = propagate_cat(CatState(alpha), g, 1.0, kx)
        assert abs(d.lambda_plus + d.lambda_minus - 1.0) < 1e-12
        assert -1e-12 <= d.lambda_minus <= d.lambda_plus <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=6.0),
        g=st.floats(min_value=0.0, max_value=math.pi / 2),
        kx=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_entropy_bounds(self, alpha, g, kx):
        d = propagate_cat(CatState(alpha), g, 1.0, kx)
        assert 0.0 <= d.entropy <= LN2 + 1e-12

    def test_degenerate_guard(self):
        # a_eff = 2e-12: the two coherent states coincide and the vacuum remains
        for phi in (0.0, math.pi / 2):
            d = propagate_cat(CatState(2.0, phi), 1e-12, 1.0, 0.0)
            assert 0.0 < d.a_eff < 1e-8
            assert (d.lambda_plus, d.lambda_minus, d.entropy) == (1.0, 0.0, 0.0)

    @settings(max_examples=500, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=40.0, exclude_min=True),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
        g=st.floats(min_value=0.0, max_value=math.pi / 2),
        kx=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_whole_ranges(self, alpha, phi, g, kx):
        try:
            cat = CatState(alpha, phi)
        except ValueError:  # the degenerate odd cat: its two components cancel
            assert 2.0 + 2.0 * math.exp(-2.0 * alpha**2) * math.cos(phi) < 1e-12
            return
        d = propagate_cat(cat, g, 1.0, kx)
        assert d.lambda_plus >= d.lambda_minus >= -1e-12
        assert abs(d.lambda_plus + d.lambda_minus - 1.0) <= 1e-12
        assert 0.0 <= d.entropy <= LN2 + 1e-12
        # The trace is a difference of numbers near 2 over another one,
        # norm_sq = 2 + 2 exp(-2 alpha^2) cos(phi): its rounding error grows
        # as 1/norm_sq towards the degenerate odd cat (1.8e-15 / norm_sq
        # was the largest seen in 300,000 random draws).
        norm_sq = cat.normalization() ** -2
        assert abs(represented_trace(cat, d) - 1.0) <= 1e-12 + 1e-14 / norm_sq


class TestEntropyFunction:
    def test_pure_state(self):
        assert von_neumann_entropy(1.0, 0.0) == 0.0

    def test_maximal_mixing(self):
        assert von_neumann_entropy(0.5, 0.5) == pytest.approx(LN2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(0.7, 0.7)
        with pytest.raises(ValueError):
            von_neumann_entropy(1.2, -0.2)


def assert_matches_number_basis(alpha, phi, g, kx):
    closed = propagate_cat(CatState(alpha, phi), g, 1.0, kx)
    rho = fock.cat_mode_after_transfer(alpha, phi, g, math.exp(-2.0 * kx))
    assert abs(closed.entropy - fock.vn_entropy(rho)) < 1e-8
    vals = np.linalg.eigvalsh(rho)
    assert abs(closed.lambda_plus - vals[-1]) < 1e-9
    assert abs(closed.lambda_minus - max(vals[-2], 0.0)) < 1e-9


_ORACLE_POINTS = [(0.6, 0.7, 0.25), (1.5, 1.1, 0.05), (2.0, math.asin(0.95), 0.2), (2.0, 1.3, 0.0), (3.0, 1.0, 0.12)]
# id suffix -> phase; phi = 0 keeps the plain "alpha-g-kx" id
_ORACLE_PHASES = {"": 0.0, "-phi=pi/2": math.pi / 2, "-phi=pi": math.pi, "-phi=2.5": 2.5}


class TestFockOracle:
    @pytest.mark.parametrize(
        "alpha,g,kx,phi",
        [
            pytest.param(*point, phi, id="-".join(map(str, point)) + suffix)
            for point in _ORACLE_POINTS
            for suffix, phi in _ORACLE_PHASES.items()
        ],
    )
    def test_entropy_matches_number_basis(self, alpha, g, kx, phi):
        assert_matches_number_basis(alpha, phi, g, kx)

    # Small odd cats: T = 2 + 2 exp(-2 alpha^2) cos(phi) is of order alpha^2
    # and the state tends to a single photon split by the conversion, not
    # to the vacuum, however small a_eff is.
    @pytest.mark.parametrize(
        "alpha,phi,g,kx",
        [(1e-5, math.pi, 1e-3, 0.1), (1e-5, math.pi, 0.8, 0.0), (1e-4, math.pi - 1e-3, 0.8, 0.3)],
    )
    def test_small_odd_cat_matches_number_basis(self, alpha, phi, g, kx):
        assert_matches_number_basis(alpha, phi, g, kx)

    def test_beamsplitter_unitary_action_on_coherent_input(self):
        dim = 16
        g, v = 0.8, 1.1
        u = fock.beamsplitter_unitary(g, dim, dim)
        psi_out = u @ np.kron(fock.coherent_state(v, dim), fock.coherent_state(0.0, dim))
        target = np.kron(
            fock.coherent_state(v * math.cos(g), dim), fock.coherent_state(-v * math.sin(g), dim)
        )
        assert abs(np.vdot(target, psi_out)) > 1.0 - 1e-9

    def test_direct_construction_matches_unitary_route(self):
        alpha, g, dim = 1.3, 0.9, 22
        cat = CatState(alpha)
        psi_in = np.kron(
            fock.coherent_state(alpha, dim) + fock.coherent_state(-alpha, dim),
            fock.coherent_state(0.0, dim),
        )
        psi_in /= np.linalg.norm(psi_in)
        u = fock.beamsplitter_unitary(g, dim, dim)
        rho_unitary = fock.partial_trace_first(u @ psi_in, dim, dim)
        rho_direct = fock.cat_mode_after_transfer(alpha, 0.0, g, 1.0, dim=dim)
        assert np.max(np.abs(rho_unitary - rho_direct)) < 1e-9

    def test_loss_channel_keeps_coherent_states_coherent(self):
        dim, v, eta = 24, 1.4, 0.6
        rho = np.outer(fock.coherent_state(v, dim), fock.coherent_state(v, dim).conj())
        out = fock.apply_channel(rho, fock.amplitude_damping_kraus(eta, dim))
        target = fock.coherent_state(v * math.sqrt(eta), dim)
        fidelity = float(np.real(target.conj() @ out @ target))
        assert fidelity == pytest.approx(1.0, abs=1e-10)
        purity = float(np.real(np.trace(out @ out)))
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_kraus_completeness(self):
        dim, eta = 20, 0.37
        ops = fock.amplitude_damping_kraus(eta, dim)
        total = sum(e.conj().T @ e for e in ops)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12


class TestDecoherenceTrends:
    def test_coherences_vanish_faster_than_amplitudes(self):
        for alpha in (2.0, 3.5, 5.0):
            cat = CatState(alpha)
            d0 = transfer_cat(cat, 1.2)
            kappa0 = 1.0
            for x in (0.01, 0.05, 0.1):
                d = propagate_cat(cat, 1.2, kappa0, x)
                offdiag_ratio = d.offdiag / d0.offdiag
                amp_ratio = d.a_eff / d0.a_eff
                assert offdiag_ratio < amp_ratio

    def test_larger_cats_decohere_faster(self):
        kx = 0.01
        s2 = propagate_cat(CatState(2.0), 1.2, 1.0, kx).entropy
        s5 = propagate_cat(CatState(5.0), 1.2, 1.0, kx).entropy
        assert s5 > s2

    def test_long_range_branch_keeps_coherence_longer(self):
        from lrspp.dispersion import BranchId, complex_wavenumber
        from lrspp.materials import SILVER

        kp = complex_wavenumber(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER).kappa
        km = complex_wavenumber(BranchId.SYMMETRIC, 4e15, 20e-9, SILVER).kappa
        assert kp < km
        cat = CatState(2.0)
        for x in (0.2e-6, 0.5e-6, 1e-6):
            s_plus = propagate_cat(cat, 1.2, kp, x).entropy
            s_minus = propagate_cat(cat, 1.2, km, x).entropy
            assert s_plus < s_minus


class TestNonzeroPhaseRoute:
    def test_phase_pi_cat_is_consistent(self):
        d = propagate_cat(CatState(1.2, phi=math.pi), 0.9, 1.0, 0.3)
        assert 0.0 <= d.lambda_minus <= d.lambda_plus <= 1.0
        assert d.entropy >= 0.0

    def test_phase_zero_fock_route_agrees_with_closed_form(self):
        # phi = 2 pi: cos(phi) is 1 but sin(phi) is not 0, so the eigenvalues
        # take the shifted route; they match phi = 0 and the number basis
        turned = propagate_cat(CatState(1.1, phi=2.0 * math.pi), 0.8, 1.0, 0.2)
        closed = propagate_cat(CatState(1.1, phi=0.0), 0.8, 1.0, 0.2)
        assert turned.lambda_plus == pytest.approx(closed.lambda_plus, abs=1e-15)
        assert turned.entropy == pytest.approx(closed.entropy, abs=1e-15)
        assert_matches_number_basis(1.1, 2.0 * math.pi, 0.8, 0.2)

    def test_normalization_value(self):
        assert CatState(1.0, 0.0).normalization() == pytest.approx(
            1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0)), rel=1e-12
        )

    def test_degenerate_odd_cat_rejected(self):
        # phi = pi with vanishing amplitude: the two components cancel
        with pytest.raises(ValueError):
            CatState(1e-9, phi=math.pi)
        CatState(1.0, phi=math.pi)  # finite amplitude is fine

    def test_unrepresentable_amplitude_rejected(self):
        for alpha in (1e200, math.inf, math.nan):
            with pytest.raises(ValueError):
                CatState(alpha)
        d = transfer_cat(CatState(1e150), 1.0)  # 2 alpha^2 = 2e300 is still a float
        assert (d.lambda_plus, d.lambda_minus) == (0.5, 0.5)
