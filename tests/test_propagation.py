import math
import random
import warnings
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lrspp.propagation import g2_zero, mean_count

_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))


# The time-domain oracle of mean_count: a Gaussian wavepacket's damped flux,
# integrated over a detection window.


@dataclass(frozen=True)
class Wavepacket:
    """Gaussian wavepacket: n quanta, carrier omega0, full-width bandwidth
    delta_omega, injected at time t0."""

    omega0: float
    delta_omega: float
    t0: float = 0.0
    n: int = 1

    def __post_init__(self) -> None:
        if not (self.omega0 > 0.0 and self.delta_omega > 0.0):  # NaN too
            raise ValueError("omega0 and delta_omega must be positive")
        if self.n < 0:
            raise ValueError("photon number must be non-negative")
        if self.delta_omega / self.omega0 > 0.05:
            warnings.warn(
                "wavepacket bandwidth exceeds 5% of the carrier; the narrowband "
                "propagation model is marginal",
                stacklevel=2,
            )

    @property
    def sigma(self) -> float:
        """Spectral standard deviation: delta_omega / (2 sqrt(2 ln 2))."""
        return self.delta_omega / (2.0 * _SQRT_2LN2)

    @property
    def sigma_t(self) -> float:
        """Standard deviation of the temporal intensity profile, 1/(2 sigma)."""
        return 0.5 / self.sigma

    def intensity_profile(self, t: float) -> float:
        """Normalized |time-domain amplitude|^2; integrates to 1 over t."""
        s = self.sigma
        u = t - self.t0
        return math.sqrt(2.0 / math.pi) * s * math.exp(-2.0 * s * s * u * u)


@dataclass(frozen=True)
class PropagationConfig:
    """Loss constant, transport speed, distance and detector efficiency."""

    kappa0: float
    v_group: float
    x: float = 0.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not self.kappa0 >= 0.0:  # NaN too, as below
            raise ValueError("kappa0 must be non-negative")
        if not self.v_group > 0.0:
            raise ValueError("v_group must be positive")
        if not self.x >= 0.0:
            raise ValueError("x must be non-negative")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")


def damped_flux(t: float, wp: Wavepacket, cfg: PropagationConfig, beta_sq: float) -> float:
    """Mean quanta flux (1/s) at distance x and lab time t.

    Equals the x = 0 flux at the retarded time t - x/vG damped by
    exp(-2 kappa0 x).
    """
    if not 0.0 <= beta_sq <= 1.0:
        raise ValueError("beta_sq must lie in [0, 1]")
    t_r = t - cfg.x / cfg.v_group
    return math.exp(-2.0 * cfg.kappa0 * cfg.x) * beta_sq * wp.n * wp.intensity_profile(t_r)


def mean_count_windowed(
    wp: Wavepacket,
    cfg: PropagationConfig,
    beta_sq: float,
    window_sigmas: float = 3.0,
    n_points: int = 2001,
) -> float:
    """Numerical cross-check of mean_count: mu times the flux integrated
    over the detection window peak +/- window_sigmas temporal standard
    deviations (the default captures ~99.7% of the pulse)."""
    center = wp.t0 + cfg.x / cfg.v_group
    half = window_sigmas * wp.sigma_t
    a, b = center - half, center + half
    # Simpson rule on a fixed odd grid
    if n_points % 2 == 0:
        n_points += 1
    h = (b - a) / (n_points - 1)
    total = 0.0
    for i in range(n_points):
        w = 1.0 if i in (0, n_points - 1) else (4.0 if i % 2 == 1 else 2.0)
        total += w * damped_flux(a + i * h, wp, cfg, beta_sq)
    return cfg.mu * total * h / 3.0


WP = Wavepacket(omega0=4e15, delta_omega=3.02e13, t0=1e-12, n=1)


def test_sigma_definition():
    assert WP.sigma == pytest.approx(3.02e13 / (2.0 * math.sqrt(2.0 * math.log(2.0))))
    assert WP.sigma_t == pytest.approx(1.0 / (2.0 * WP.sigma))


def test_narrowband_warning():
    with pytest.warns(UserWarning):
        Wavepacket(omega0=1e15, delta_omega=1e14)


def test_wavepacket_validation():
    with pytest.raises(ValueError):
        Wavepacket(omega0=-1.0, delta_omega=1e13)
    with pytest.raises(ValueError):
        Wavepacket(omega0=1e15, delta_omega=0.0)
    with pytest.raises(ValueError):
        Wavepacket(omega0=1e15, delta_omega=1e13, n=-1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Wavepacket(omega0=math.nan, delta_omega=1e13), "omega0 and delta_omega must be positive"),
        (lambda: Wavepacket(omega0=4e15, delta_omega=math.nan), "omega0 and delta_omega must be positive"),
        (lambda: PropagationConfig(kappa0=math.nan, v_group=1e8), "kappa0 must be non-negative"),
        (lambda: PropagationConfig(kappa0=0.0, v_group=math.nan), "v_group must be positive"),
        (lambda: PropagationConfig(kappa0=0.0, v_group=1e8, x=math.nan), "x must be non-negative"),
    ],
    ids=["omega0", "delta_omega", "kappa0", "v_group", "x"],
)
def test_nan_field_is_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(kappa0=-1.0, v_group=1e8)
    with pytest.raises(ValueError):
        PropagationConfig(kappa0=0.0, v_group=-1e8)
    with pytest.raises(ValueError):
        PropagationConfig(kappa0=0.0, v_group=1e8, x=-1.0)
    with pytest.raises(ValueError):
        PropagationConfig(kappa0=0.0, v_group=1e8, mu=1.5)


def test_retarded_time_structure():
    rng = random.Random(7)
    kappa0, vg = 2e4, 2.5e8
    for _ in range(20):
        x = rng.uniform(0.0, 30e-6)
        t = rng.uniform(0.0, 4e-12)
        at_x = damped_flux(t, WP, PropagationConfig(kappa0, vg, x=x), 0.8)
        at_0 = damped_flux(t - x / vg, WP, PropagationConfig(kappa0, vg, x=0.0), 0.8)
        assert at_x == pytest.approx(math.exp(-2.0 * kappa0 * x) * at_0, rel=1e-12)


def test_lossless_flux_integrates_to_transfer_probability():
    cfg = PropagationConfig(kappa0=0.0, v_group=2.5e8, x=0.0)
    beta_sq = 0.77
    wp = Wavepacket(omega0=4e15, delta_omega=3.02e13, t0=1e-12, n=3)
    val, _ = quad(lambda t: damped_flux(t, wp, cfg, beta_sq), wp.t0 - 5e-13, wp.t0 + 5e-13, limit=300)
    assert val == pytest.approx(beta_sq * wp.n, rel=1e-9)


def test_flux_peaks_at_retarded_injection_time():
    cfg = PropagationConfig(kappa0=1e4, v_group=2.5e8, x=10e-6)
    peak_t = WP.t0 + cfg.x / cfg.v_group
    f0 = damped_flux(peak_t, WP, cfg, 1.0)
    for dt in (-3e-14, -1e-14, 1e-14, 3e-14):
        assert damped_flux(peak_t + dt, WP, cfg, 1.0) < f0


class TestMeanCount:
    def test_unit_case(self):
        cfg = PropagationConfig(kappa0=0.0, v_group=2.5e8, x=0.0, mu=1.0)
        assert mean_count(cfg.mu, cfg.kappa0, cfg.x, 1.0, WP.n) == 1.0

    def test_detector_efficiency_at_origin(self):
        cfg = PropagationConfig(kappa0=3e4, v_group=2.5e8, x=0.0, mu=0.65)
        beta_sq = 0.83
        assert mean_count(cfg.mu, cfg.kappa0, cfg.x, beta_sq, WP.n) == 0.65 * beta_sq * WP.n

    def test_closed_form_vs_windowed_integral(self):
        for x in (0.0, 5e-6, 20e-6):
            cfg = PropagationConfig(kappa0=2e4, v_group=2.5e8, x=x, mu=0.65)
            closed = mean_count(cfg.mu, cfg.kappa0, cfg.x, 0.9, WP.n)
            windowed = mean_count_windowed(WP, cfg, 0.9)
            assert abs(windowed - closed) / closed < 5e-3

    def test_monotone_decay_in_distance(self):
        prev = None
        for x in (0.0, 2e-6, 5e-6, 12e-6, 30e-6):
            cfg = PropagationConfig(kappa0=5e4, v_group=2.5e8, x=x, mu=0.65)
            val = mean_count(cfg.mu, cfg.kappa0, cfg.x, 0.9, WP.n)
            if prev is not None:
                assert val < prev
            prev = val

    def test_normalized_count_independent_of_photon_number(self):
        cfg = PropagationConfig(kappa0=2e4, v_group=2.5e8, x=8e-6, mu=0.65)
        ref = None
        for n in range(1, 6):
            wp = Wavepacket(omega0=4e15, delta_omega=3.02e13, n=n)
            m_tilde = mean_count(cfg.mu, cfg.kappa0, cfg.x, 0.9, wp.n) / n
            if ref is None:
                ref = m_tilde
            assert m_tilde == pytest.approx(ref, rel=1e-14)


def binomial_loss_moments(n: int, eta: float) -> tuple[float, float]:
    """Oracle: exact factorial moments of the binomial photon-survival
    distribution on a truncated number basis."""
    mean = 0.0
    pairs = 0.0
    for m in range(n + 1):
        p = math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
        mean += m * p
        pairs += m * (m - 1) * p
    return mean, pairs


class TestG2:
    def test_single_quantum_antibunching(self):
        assert g2_zero(1) == 0.0

    def test_two_quanta(self):
        assert g2_zero(2) == 0.5

    def test_undefined_for_vacuum(self):
        with pytest.raises(ValueError):
            g2_zero(0)

    @pytest.mark.parametrize("eta", [0.0, -0.0, -0.3, -math.inf, math.nan])
    def test_efficiency_not_positive_is_rejected(self, eta):
        with pytest.raises(ValueError, match="^total efficiency must be positive for a detectable signal$"):
            g2_zero(2, beta_sq=eta)

    def test_classically_forbidden_for_all_n(self):
        for n in range(1, 12):
            assert g2_zero(n) < 1.0

    def test_invariance_under_explicit_efficiency(self):
        for n in (1, 2, 3, 5):
            base = (n - 1) / n
            for eta in (1.0, 0.3, 0.01):
                assert abs(g2_zero(n, beta_sq=eta) - base) < 1e-12
                assert abs(g2_zero(n, beta_sq=mean_count(eta, 1e4, 7e-6, 1.0)) - base) < 1e-12

    def test_binomial_oracle_loss_chains(self):
        rng = random.Random(2024)
        for n in range(1, 6):
            target = (n - 1) / n
            for _ in range(20):
                etas = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 6))]
                eta = math.prod(etas)
                mean, pairs = binomial_loss_moments(n, eta)
                oracle = pairs / mean**2
                assert abs(oracle - target) < 1e-12
                assert abs(g2_zero(n, beta_sq=eta) - oracle) < 1e-12


def test_long_range_branch_keeps_more_excitation():
    """At equal frequency and thickness the antisymmetric mode converts
    better and decays slower, so its normalized count stays above the
    symmetric one at every distance."""
    from lrspp.coupling import overlap_beta
    from lrspp.dispersion import BranchId, complex_wavenumber, solve_k
    from lrspp.materials import SILVER

    w, d1, d2 = 3e15, 20e-9, 800e-9
    sols = {b: solve_k(b, w, d1, SILVER) for b in (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)}
    beta = {b: abs(overlap_beta(sol, d2)) for b, sol in sols.items()}
    kappa = {b: complex_wavenumber(sol).kappa for b, sol in sols.items()}
    assert kappa[BranchId.ANTISYMMETRIC] < kappa[BranchId.SYMMETRIC]
    for x in (0.0, 0.5e-6, 2e-6, 10e-6):
        counts = {
            b: 0.65 * math.exp(-2.0 * kappa[b] * x) * beta[b] ** 2 for b in beta
        }
        assert counts[BranchId.ANTISYMMETRIC] > counts[BranchId.SYMMETRIC]


def test_discrete_beamsplitter_bath_converges_to_exponential_damping():
    """A chain of N = 64 splitters, each removing 2 kappa0 dx of intensity,
    reproduces exp(-2 kappa0 x) to within 1% and keeps the output mode
    bosonic (coefficient norm exactly 1)."""
    kappa0, x, n_split = 4e4, 10e-6, 64
    dx = x / n_split
    t_amp = math.sqrt(1.0 - 2.0 * kappa0 * dx)
    coeffs = [t_amp**n_split] + [
        math.sqrt(2.0 * kappa0 * dx) * t_amp ** (n_split - 1 - i) for i in range(n_split)
    ]
    norm = sum(c * c for c in coeffs)
    assert norm == pytest.approx(1.0, abs=1e-12)
    transmitted = coeffs[0] ** 2
    assert transmitted == pytest.approx(math.exp(-2.0 * kappa0 * x), rel=0.01)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    eta=st.floats(min_value=1e-3, max_value=1.0),
)
def test_g2_invariance_property(n, eta):
    assert abs(g2_zero(n, beta_sq=eta) - (n - 1) / n) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    eta=st.floats(min_value=math.log(5e-324), max_value=0.0).map(math.exp),
)
def test_g2_is_exact_for_every_efficiency(n, eta):
    """(n-1)/n to the last bit for eta log-uniform down to the least
    subnormal float, where eta^2 is subnormal or 0."""
    assert g2_zero(n, beta_sq=eta) == (n - 1) / n
