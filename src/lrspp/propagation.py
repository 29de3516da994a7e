"""Damped propagation of excited wavepackets and their photon statistics.

The loss model is a continuum of beamsplitters coupling the propagating
mode to an empty bath: the mean flux at distance x reproduces the x = 0
flux at the retarded time t - x/vG, damped by exp(-2 kappa0 x).  For a
Gaussian n-quantum wavepacket with conversion probability |beta|^2 and
detector efficiency mu, the detected mean is

    <m> = mu exp(-2 kappa0 x) |beta|^2 n,

and the zero-delay second-order coherence g2(0) = <m(m-1)>/<m>^2 = (n-1)/n
is unchanged by any chain of linear losses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))


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


def detected_mean(mu: float, kappa0: float, x: float, beta_sq: float, n: int = 1) -> float:
    """Detected mean <m> = mu exp(-2 kappa0 x) |beta|^2 n, without argument checks."""
    return mu * math.exp(-2.0 * kappa0 * x) * beta_sq * n


def mean_count(wp: Wavepacket, cfg: PropagationConfig, beta_sq: float) -> float:
    """Detected mean <m> = mu exp(-2 kappa0 x) |beta|^2 n (closed form)."""
    if not 0.0 <= beta_sq <= 1.0:
        raise ValueError("beta_sq must lie in [0, 1]")
    return detected_mean(cfg.mu, cfg.kappa0, cfg.x, beta_sq, wp.n)


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


def g2_zero(
    n: int,
    beta_sq: float = 1.0,
    kappa0: float = 0.0,
    x: float = 0.0,
    mu: float = 1.0,
) -> float:
    """Zero-delay second-order coherence of an n-quantum wavepacket.

    The conversion and damping factors combine into one efficiency eta;
    the factorial moments scale as <m> -> eta <m> and
    <m(m-1)> -> eta^2 <m(m-1)>, so eta cancels and the result is (n-1)/n,
    inside the classically forbidden region g2 < 1 for every n.
    """
    if n < 1:
        raise ValueError("g2(0) is undefined for n = 0 (zero mean count)")
    eta = detected_mean(mu, kappa0, x, beta_sq)
    if eta <= 0.0:
        raise ValueError("total efficiency must be positive for a detectable signal")
    mean = eta * n
    mean_pairs = eta * eta * n * (n - 1)
    return mean_pairs / (mean * mean)
