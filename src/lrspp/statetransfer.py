"""Transfer of coherent-superposition (cat) states to the surface mode and
their decoherence under damped propagation.

A cat N(|alpha⟩ + e^{i phi}|-alpha⟩) sent through the beamsplitter-like
conversion with mixing angle g leaves the surface mode in a rank-two state
spanned by |+/- alpha sin g⟩ whose off-diagonal coefficient is
c0 = exp(-2 alpha^2 cos^2 g).  Damped propagation shrinks the amplitudes
by exp(-kappa0 x) and multiplies the off-diagonal coefficient by

    c(x) = exp[-2 alpha^2 sin^2 g (1 - exp(-2 kappa0 x))],

so the superposition dephases into a mixture before the amplitudes decay
away.  At every phase phi the state stays in the span of |+/- a_eff⟩, so
its two eigenvalues follow in closed form from a 2 x 2 matrix in the
even/odd cat basis, and the von Neumann entropy from them.  The truncated
number-basis route (``fock``) is kept only as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_DEGENERATE_AMPLITUDE = 1e-8


def _norm_sq(overlap: float, phi: float) -> float:
    """2 + 2 overlap cos(phi): the squared norm of |v⟩ + e^{i phi}|-v⟩ when
    ⟨v|-v⟩ = overlap, and the trace of the cat state's four projector terms."""
    return 2.0 + 2.0 * overlap * math.cos(phi)


@dataclass(frozen=True)
class CatState:
    """Equal-amplitude coherent superposition with relative phase phi."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        self.normalization()

    def normalization(self) -> float:
        """N = [2 + 2 exp(-2 alpha^2) cos(phi)]^{-1/2}.

        Raises ValueError when 2 alpha^2 is not a finite float or the two
        components cancel (the bracket is below 1e-12).
        """
        two_alpha_sq = 2.0 * self.alpha * self.alpha
        if not math.isfinite(two_alpha_sq):
            raise ValueError(f"cat amplitude alpha={self.alpha!r}: 2 alpha^2 is not a finite float")
        val = _norm_sq(math.exp(-two_alpha_sq), self.phi)
        if val < 1e-12:
            raise ValueError(
                "degenerate superposition: the two components cancel "
                f"(alpha={self.alpha!r}, phi={self.phi!r})"
            )
        return 1.0 / math.sqrt(val)


@dataclass(frozen=True)
class CatDensity:
    """Rank-two surface-mode state in the +/- coherent-amplitude span.

    a_eff is the surviving coherent amplitude alpha sin(g) exp(-kappa0 x),
    offdiag the coefficient c0 c(x) of the cross projectors (at every phase;
    the phase enters through e^{+/- i phi}).
    """

    a_eff: float
    offdiag: float
    lambda_plus: float
    lambda_minus: float
    entropy: float


def _eigenvalues(a_eff: float, offdiag: float, dephasing: float, phi: float) -> tuple[float, float]:
    """Eigenvalues of the rank-two cat state, the larger first.

    In the orthonormal even/odd basis of |+/- a_eff⟩, with q = exp(-2 a_eff^2)
    and D = offdiag = exp(-dephasing), the state is T^-1 times

        [[(1 + D cos phi)(1 + q),   D sin phi sqrt(1 - q^2)],
         [D sin phi sqrt(1 - q^2),  (1 - D cos phi)(1 - q)]],   T = 2 + 2 D q cos phi.

    The diagonal entries move apart by o^2 / (hypot(h, o) + h), o the
    off-diagonal entry and h half their difference: a form that does not
    cancel as the eigenvalues near 1/2.  For cos phi >= 0, T lies in [2, 4]
    and the entries are used as written; a_eff < 1e-8 leaves the vacuum,
    (1, 0).  For cos phi < 0, T, 1 + D cos phi and 1 - q vanish together at
    the degenerate odd cat, which tends to a photon split by the conversion,
    not to the vacuum.  There 1 + D cos phi = 2 cos^2(phi/2) - cos phi (1 - D)
    and 1 - q are taken through expm1, and T as the sum of the diagonal.
    """
    two_a_sq = 2.0 * a_eff * a_eff
    q = math.exp(-two_a_sq)
    cos_phi = math.cos(phi)
    if cos_phi >= 0.0:
        if a_eff < _DEGENERATE_AMPLITUDE:
            return 1.0, 0.0
        even = (1.0 + offdiag * cos_phi) * (1.0 + q)
        odd = (1.0 - offdiag * cos_phi) * (1.0 - q)
        trace = _norm_sq(offdiag * q, phi)
    else:
        even = (2.0 * math.cos(0.5 * phi) ** 2 + cos_phi * math.expm1(-dephasing)) * (1.0 + q)
        odd = -(1.0 - offdiag * cos_phi) * math.expm1(-two_a_sq)
        trace = even + odd
    even, odd = even / trace, odd / trace
    cross = offdiag * math.sin(phi) * math.sqrt(-math.expm1(-2.0 * two_a_sq)) / trace
    half_gap = 0.5 * abs(even - odd)
    shift = 0.0 if cross == 0.0 else cross * cross / (math.hypot(half_gap, cross) + half_gap)
    return max(even, odd) + shift, min(even, odd) - shift


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
    """Surface-mode state after conversion with angle g and propagation to x."""
    if not 0.0 <= g <= math.pi / 2.0 + 1e-12:
        raise ValueError("g must lie in [0, pi/2]")
    if kappa0 < 0.0 or x < 0.0:
        raise ValueError("kappa0 and x must be non-negative")
    alpha = cat.alpha
    s, c = math.sin(g), math.cos(g)
    a_eff = alpha * s * math.exp(-kappa0 * x)
    # offdiag = c0 c(x) = exp(-(unobserved + decayed))
    unobserved = 2.0 * alpha * alpha * c * c
    decayed = 2.0 * alpha * alpha * s * s * -math.expm1(-2.0 * kappa0 * x)
    offdiag = math.exp(-unobserved) * math.exp(-decayed)
    lam_p, lam_m = _eigenvalues(a_eff, offdiag, unobserved + decayed, cat.phi)
    return CatDensity(a_eff, offdiag, lam_p, lam_m, von_neumann_entropy(lam_p, lam_m))


def transfer_cat(cat: CatState, g: float) -> CatDensity:
    """Surface-mode state right after conversion (x = 0)."""
    return propagate_cat(cat, g, 0.0, 0.0)


def represented_trace(cat: CatState, density: CatDensity) -> float:
    """Trace of the represented operator; equals 1 for any (g, kappa0, x).

    The four projector terms contribute 2 + 2 offdiag ⟨a_eff|-a_eff⟩ cos(phi)
    times the squared normalization fixed at x = 0.  Both cancel towards the
    degenerate odd cat: the result is 1 to about 1e-15 N^2, not better.
    """
    q = math.exp(-2.0 * density.a_eff * density.a_eff)
    return cat.normalization() ** 2 * _norm_sq(density.offdiag * q, cat.phi)
