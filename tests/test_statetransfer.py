import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrspp import fock
from lrspp.statetransfer import CatState, _cat_factors, _norm_sq, _state, cat_columns, decay_along, propagate_cat

LN2 = math.log(2.0)


def represented_trace(cat, density):
    """Trace of the represented operator; equals 1 for any (g, kappa0, x).

    The four projector terms contribute 2 + 2 offdiag ⟨a_eff|-a_eff⟩ cos(phi)
    times the squared normalization fixed at x = 0.  Both cancel towards the
    degenerate odd cat: the result is 1 to about 1e-15 N^2, not better.
    """
    q = math.exp(-2.0 * density.a_eff * density.a_eff)
    return cat.normalization() ** 2 * _norm_sq(density.offdiag * q, math.cos(cat.phi))


def entropy_of(lam_p, lam_m):
    """Binary von Neumann entropy in nats, with 0 ln 0 = 0, and the range
    checks of the library's kernel: each eigenvalue in [0, 1], their sum 1
    within 1e-9."""
    s = 0.0
    for lam in (lam_p, lam_m):
        if not -1e-12 <= lam <= 1.0 + 1e-12:
            raise ValueError(f"eigenvalue {lam!r} outside [0, 1]")
        if lam > 0.0:
            s -= lam * math.log(lam)
    if abs(lam_p + lam_m - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {lam_p + lam_m!r}, not 1")
    return s if s > 0.0 else 0.0


def single_pass_propagate_cat(cat, g, kappa0, x):
    """The single-pass propagate_cat that computed every factor at each x,
    kept as written: the hoisted path must return its bits."""
    if not 0.0 <= g <= math.pi / 2.0 + 1e-12:
        raise ValueError("g must lie in [0, pi/2]")
    if kappa0 < 0.0 or x < 0.0:
        raise ValueError("kappa0 and x must be non-negative")
    alpha = cat.alpha
    s, c = math.sin(g), math.cos(g)
    a_eff = alpha * s * math.exp(-kappa0 * x)
    unobserved = 2.0 * alpha * alpha * c * c
    decayed = 2.0 * alpha * alpha * s * s * -math.expm1(-2.0 * kappa0 * x)
    offdiag = math.exp(-unobserved) * math.exp(-decayed)
    dephasing, phi = unobserved + decayed, cat.phi
    two_a_sq = 2.0 * a_eff * a_eff
    q = math.exp(-two_a_sq)
    cos_phi = math.cos(phi)
    if cos_phi >= 0.0:
        if a_eff < 1e-8:
            return a_eff, offdiag, 1.0, 0.0, entropy_of(1.0, 0.0)
        even = (1.0 + offdiag * cos_phi) * (1.0 + q)
        odd = (1.0 - offdiag * cos_phi) * (1.0 - q)
        trace = 2.0 + 2.0 * (offdiag * q) * math.cos(phi)
    else:
        even = (2.0 * math.cos(0.5 * phi) ** 2 + cos_phi * math.expm1(-dephasing)) * (1.0 + q)
        odd = -(1.0 - offdiag * cos_phi) * math.expm1(-two_a_sq)
        trace = even + odd
    even, odd = even / trace, odd / trace
    cross = offdiag * math.sin(phi) * math.sqrt(-math.expm1(-2.0 * two_a_sq)) / trace
    half_gap = 0.5 * abs(even - odd)
    shift = 0.0 if cross == 0.0 else cross * cross / (math.hypot(half_gap, cross) + half_gap)
    lam_p, lam_m = max(even, odd) + shift, min(even, odd) - shift
    return a_eff, offdiag, lam_p, lam_m, entropy_of(lam_p, lam_m)


def bits(values):
    return [v.hex() for v in values]


def outcome(compute):
    """What compute returns, or the message of the ValueError it raises."""
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


class TestClosedFormEndpoints:
    def test_full_transfer_is_pure(self):
        d = propagate_cat(CatState(2.0), math.pi / 2, 0.0, 0.0)
        assert d.offdiag == pytest.approx(1.0)
        assert (d.lambda_plus, d.lambda_minus) == (1.0, 0.0)
        assert d.entropy == 0.0

    def test_no_transfer_is_vacuum(self):
        d = propagate_cat(CatState(2.0), 0.0, 0.0, 0.0)
        assert d.a_eff == 0.0
        assert (d.lambda_plus, d.lambda_minus) == (1.0, 0.0)
        assert d.entropy == 0.0

    def test_zero_distance_matches_transfer(self):
        cat = CatState(1.7)
        a = propagate_cat(cat, 0.9, 0.0, 0.0)
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


    @settings(max_examples=500, deadline=None)
    @given(
        alphas=st.lists(st.floats(min_value=0.0, max_value=40.0, exclude_min=True), min_size=1, max_size=4),
        phi=st.one_of(
            st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]),
            st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
        ),
        g=st.floats(min_value=0.0, max_value=math.pi / 2),
        kappa0=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e7)),
        kxs=st.lists(st.floats(min_value=0.0, max_value=30.0), max_size=8),
    )
    def test_along_x_is_bitwise_single_pass(self, alphas, phi, g, kappa0, kxs):
        """Several amplitudes share one Decay; at every x, on every phase
        branch (cos phi < 0 included), cat_columns and propagate_cat return
        the bits of the single-pass form, or all raise the same error."""
        xs = [0.0] + [kx / kappa0 if kappa0 else kx for kx in kxs]
        decay = decay_along(kappa0, xs)
        for alpha in alphas:
            try:
                cat = CatState(alpha, phi)
            except ValueError:  # the degenerate odd cat
                continue
            expected = outcome(lambda: [single_pass_propagate_cat(cat, g, kappa0, x) for x in xs])
            along = outcome(lambda: [bits(row) for row in zip(*cat_columns(cat, g, decay))])
            pointwise = outcome(lambda: [bits(propagate_cat(cat, g, kappa0, x)) for x in xs])
            if isinstance(expected, str):
                assert along == pointwise == expected
                continue
            assert along == [bits(e[2:]) for e in expected]
            assert pointwise == [bits(e) for e in expected]

    def test_decay_along_checks_its_grid(self):
        assert decay_along(0.0, []) == ([], [])
        for kappa0, xs in ((-1.0, [0.0]), (1.0, [0.0, -1e-9])):
            with pytest.raises(ValueError, match="must be non-negative"):
                decay_along(kappa0, xs)


@pytest.mark.parametrize(
    "call",
    [
        lambda kappa0, x: propagate_cat(CatState(2.0), 1.2, kappa0, x),
        lambda kappa0, x: decay_along(kappa0, [0.0, x]),
        lambda kappa0, x: cat_columns(CatState(2.0), 1.2, decay_along(kappa0, [x])),
    ],
    ids=["propagate_cat", "decay_along", "cat_columns"],
)
@pytest.mark.parametrize("kappa0, x", [(math.nan, 1e-6), (1e4, math.nan)])
def test_nan_kappa0_or_x_is_rejected(call, kappa0, x):
    """NaN is not a non-negative kappa0 or x: not an eigenvalue of nan, nor
    a column of nan."""
    with pytest.raises(ValueError, match="^kappa0 and x must be non-negative$"):
        call(kappa0, x)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_is_rejected(phi):
    """A phase of NaN or +/-inf is refused when the state is built, not met
    later as an eigenvalue of nan or a math domain error."""
    with pytest.raises(ValueError, match=f"^cat phase phi must be finite, got {phi!r}$"):
        CatState(2.0, phi)


class TestKernelEntropy:
    def test_maximal_mixing(self):
        # 2 alpha^2 sin^2 g = 1.4e300: the two halves of the cat are orthogonal
        # and the cross terms gone, so the eigenvalues are 1/2 and 1/2
        d = propagate_cat(CatState(1e150), 1.0, 0.0, 0.0)
        assert (d.lambda_plus, d.lambda_minus) == (0.5, 0.5)
        assert d.entropy == pytest.approx(LN2)

    def test_domain_errors(self):
        # kappa0 x = 0 * inf leaves a NaN amplitude, hence NaN eigenvalues
        with pytest.raises(ValueError, match="^eigenvalue nan outside"):
            propagate_cat(CatState(2.0), 1.2, 0.0, math.inf)
        # an off-diagonal coefficient above 1 (c0 = 5) pushes the eigenvalues out of [0, 1]
        alpha_s, decay_scale, unobserved, _, cos_phi, sin_phi, cos_half_sq = _cat_factors(CatState(2.0), 1.2)
        with pytest.raises(ValueError, match=r"^eigenvalue 2\.98.* outside \[0, 1\]$"):
            _state((alpha_s, decay_scale, unobserved, 5.0, cos_phi, sin_phi, cos_half_sq), 1.0, 0.0)


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

    @pytest.mark.parametrize("eta", [-0.1, 1.1, -math.inf, math.nan])
    def test_kraus_transmissivity_outside_unit_interval_rejected(self, eta):
        with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\]$"):
            fock.amplitude_damping_kraus(eta, 6)

    def test_kraus_completeness(self):
        dim, eta = 20, 0.37
        ops = fock.amplitude_damping_kraus(eta, dim)
        total = sum(e.conj().T @ e for e in ops)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12


class TestDecoherenceTrends:
    def test_coherences_vanish_faster_than_amplitudes(self):
        for alpha in (2.0, 3.5, 5.0):
            cat = CatState(alpha)
            d0 = propagate_cat(cat, 1.2, 0.0, 0.0)
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
        from lrspp.dispersion import BranchId, complex_wavenumber, solve_k
        from lrspp.materials import SILVER

        kp, km = (
            complex_wavenumber(solve_k(b, 4e15, 20e-9, SILVER)).kappa
            for b in (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)
        )
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
        d = propagate_cat(CatState(1e150), 1.0, 0.0, 0.0)  # 2 alpha^2 = 2e300 is still a float
        assert (d.lambda_plus, d.lambda_minus) == (0.5, 0.5)
