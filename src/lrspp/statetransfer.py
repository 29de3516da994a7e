"""Transfer of coherent-superposition (cat) states to the surface mode and
their decoherence under damped propagation.

A cat N(|alpha⟩ + e^{i phi}|-alpha⟩) sent through the beamsplitter-like
conversion with mixing angle g leaves the surface mode in a rank-two state
spanned by |+/- alpha sin g⟩ whose off-diagonal coefficient is
c0 = exp(-2 alpha^2 cos^2 g).  Damped propagation shrinks the amplitudes
by exp(-kappa0 x) and multiplies the off-diagonal coefficient by

    c(x) = exp[-2 alpha^2 sin^2 g (1 - exp(-2 kappa0 x))],

so the superposition dephases into a mixture before the amplitudes decay
away.  The state's two eigenvalues follow in closed form from the even/odd
cat basis, and the von Neumann entropy from them.

The closed forms hold for phi = 0 (the working logical state); other
phases are routed through the truncated number-basis machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

_DEGENERATE_AMPLITUDE = 1e-8


@dataclass(frozen=True)
class CatState:
    """Equal-amplitude coherent superposition with relative phase phi."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        val = 2.0 + 2.0 * math.exp(-2.0 * self.alpha**2) * math.cos(self.phi)
        if val < 1e-12:
            raise ValueError(
                "degenerate superposition: the two components cancel "
                f"(alpha={self.alpha!r}, phi={self.phi!r})"
            )

    def normalization(self) -> float:
        """N = [2 + 2 exp(-2 alpha^2) cos(phi)]^{-1/2}."""
        val = 2.0 + 2.0 * math.exp(-2.0 * self.alpha**2) * math.cos(self.phi)
        return 1.0 / math.sqrt(val)


@dataclass(frozen=True)
class CatDensity:
    """Rank-two surface-mode state in the +/- coherent-amplitude span.

    a_eff is the surviving coherent amplitude alpha sin(g) exp(-kappa0 x),
    offdiag the coefficient of the cross projectors (c0 c(x) for phi = 0).
    """

    a_eff: float
    offdiag: float
    lambda_plus: float
    lambda_minus: float
    entropy: float


def _eigenvalues(a_eff: float, offdiag: float) -> tuple[float, float]:
    """Eigenvalues of the rank-two cat state from its invariants.

    In the orthonormal even/odd basis built from |+/- a_eff⟩ the
    eigenvalues are

        lambda_+/- = (1 +/- offdiag)(1 +/- q) / (2 + 2 offdiag q),

    with q = ⟨a_eff|-a_eff⟩ = exp(-2 a_eff^2).  When a_eff is numerically
    zero the two coherent states coincide, the odd combination vanishes
    and the state is the vacuum: (1, 0) is returned.
    """
    if a_eff < _DEGENERATE_AMPLITUDE:
        return 1.0, 0.0
    q = math.exp(-2.0 * a_eff * a_eff)
    denom = 2.0 + 2.0 * offdiag * q
    lam_p = (1.0 + offdiag) * (1.0 + q) / denom
    lam_m = (1.0 - offdiag) * (1.0 - q) / denom
    return lam_p, lam_m


def eigen_decompose(density: CatDensity) -> tuple[float, float]:
    """(lambda_plus, lambda_minus) recomputed from the state's invariants."""
    return _eigenvalues(density.a_eff, density.offdiag)


def von_neumann_entropy(lambda_plus: float, lambda_minus: float) -> float:
    """Binary von Neumann entropy in nats, with 0 ln 0 = 0.

    Raises ValueError unless both eigenvalues lie in [0, 1] and sum to 1
    within 1e-9.
    """
    for lam in (lambda_plus, lambda_minus):
        if not -1e-12 <= lam <= 1.0 + 1e-12:
            raise ValueError(f"eigenvalue {lam!r} outside [0, 1]")
    if abs(lambda_plus + lambda_minus - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {lambda_plus + lambda_minus!r}, not 1")
    s = 0.0
    for lam in (lambda_plus, lambda_minus):
        if lam > 0.0:
            s -= lam * math.log(lam)
    return max(0.0, s)


def propagate_cat(cat: CatState, g: float, kappa0: float, x: float) -> CatDensity:
    """Surface-mode state after conversion with angle g and propagation to x.

    a_eff and offdiag are closed forms at every phase.  phi = 0 takes its
    eigenvalues and entropy from them; other phases from the number-basis
    route with the loss channel of transmissivity exp(-2 kappa0 x).
    """
    if not 0.0 <= g <= math.pi / 2.0 + 1e-12:
        raise ValueError("g must lie in [0, pi/2]")
    if kappa0 < 0.0 or x < 0.0:
        raise ValueError("kappa0 and x must be non-negative")
    alpha = cat.alpha
    s, c = math.sin(g), math.cos(g)
    damp = math.exp(-kappa0 * x)
    a_eff = alpha * s * damp
    c0 = math.exp(-2.0 * alpha * alpha * c * c)
    cx = math.exp(-2.0 * alpha * alpha * s * s * (-math.expm1(-2.0 * kappa0 * x)))
    offdiag = c0 * cx
    if cat.phi != 0.0:
        lam_p, lam_m, entropy = _propagate_cat_fock(cat, g, kappa0, x)
    else:
        lam_p, lam_m = _eigenvalues(a_eff, offdiag)
        entropy = von_neumann_entropy(lam_p, lam_m)
    return CatDensity(
        a_eff=a_eff,
        offdiag=offdiag,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        entropy=entropy,
    )


def transfer_cat(cat: CatState, g: float) -> CatDensity:
    """Surface-mode state right after conversion (x = 0)."""
    return propagate_cat(cat, g, 0.0, 0.0)


def represented_trace(cat: CatState, density: CatDensity) -> float:
    """Trace of the represented operator; equals 1 for any (g, kappa0, x).

    The four projector terms contribute 2 + 2 offdiag ⟨a_eff|-a_eff⟩ times
    the squared normalization fixed at x = 0.
    """
    q = math.exp(-2.0 * density.a_eff**2)
    n_sq = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * cat.alpha**2) * math.cos(cat.phi))
    return n_sq * (2.0 + 2.0 * density.offdiag * q * math.cos(cat.phi))


def _propagate_cat_fock(cat: CatState, g: float, kappa0: float, x: float) -> tuple[float, float, float]:
    """The two largest eigenvalues and the entropy of the number-basis state."""
    eta = math.exp(-2.0 * kappa0 * x)
    rho = fock.cat_mode_after_transfer(cat.alpha, cat.phi, g, eta)
    vals = np.linalg.eigvalsh(rho)
    lam_p = float(vals[-1])
    lam_m = float(max(vals[-2], 0.0)) if len(vals) > 1 else 0.0
    return lam_p, lam_m, fock.vn_entropy(rho)
