"""Detected counts and photon statistics of damped propagating excitations.

The loss model is a continuum of beamsplitters coupling the propagating
mode to an empty bath: the mean flux at distance x reproduces the x = 0
flux at the retarded time t - x/vG, damped by exp(-2 kappa0 x).  For an
n-quantum wavepacket with conversion probability |beta|^2 and detector
efficiency mu, the detected mean is therefore

    <m> = mu exp(-2 kappa0 x) |beta|^2 n,

and the zero-delay second-order coherence g2(0) = <m(m-1)>/<m>^2 = (n-1)/n
is unchanged by any chain of linear losses.  Both are closed forms; the
time-domain flux they integrate is a test oracle, not library code.
"""

from __future__ import annotations

import math


def mean_count(mu: float, kappa0: float, x: float, beta_sq: float, n: int = 1) -> float:
    """Detected mean <m> = mu exp(-2 kappa0 x) |beta|^2 n, without argument checks."""
    return mu * math.exp(-2.0 * kappa0 * x) * beta_sq * n


def g2_zero(n: int, beta_sq: float = 1.0) -> float:
    """Zero-delay second-order coherence of an n-quantum wavepacket.

    Conversion, damping and detection combine into one efficiency
    eta = beta_sq (mu exp(-2 kappa0 x) |beta|^2 when all three act); the
    factorial moments scale as <m> -> eta <m> and
    <m(m-1)> -> eta^2 <m(m-1)>, so eta cancels and the result is (n-1)/n,
    inside the classically forbidden region g2 < 1 for every n.  It is
    returned in that form, so an eta whose square is subnormal or 0 loses
    no digit.  Raises ValueError for n < 1 or an eta that is not positive.
    """
    if n < 1:
        raise ValueError("g2(0) is undefined for n = 0 (zero mean count)")
    if not beta_sq > 0.0:
        raise ValueError("total efficiency must be positive for a detectable signal")
    return (n - 1) / n
