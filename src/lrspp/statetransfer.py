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

One kernel, ``_state``, computes the state, its eigenvalues and entropy
at one point from the factors that depend on x only.  ``propagate_cat``
calls it at one x; along an x grid, ``decay_along`` computes those factors
once for every cat, and ``cat_columns`` calls it at each x of one cat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

_DEGENERATE_AMPLITUDE = 1e-8


def _norm_sq(overlap: float, cos_phi: float) -> float:
    """2 + 2 overlap cos(phi): the squared norm of |v⟩ + e^{i phi}|-v⟩ when
    ⟨v|-v⟩ = overlap, and the trace of the cat state's four projector terms."""
    return 2.0 + 2.0 * overlap * cos_phi


@dataclass(frozen=True)
class CatState:
    """Equal-amplitude coherent superposition with a finite relative phase phi."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError(f"cat phase phi must be finite, got {self.phi!r}")
        self.normalization()

    def normalization(self) -> float:
        """N = [2 + 2 exp(-2 alpha^2) cos(phi)]^{-1/2}.

        Raises ValueError when 2 alpha^2 is not a finite float or the two
        components cancel (the bracket is below 1e-12).
        """
        two_alpha_sq = 2.0 * self.alpha * self.alpha
        if not math.isfinite(two_alpha_sq):
            raise ValueError(f"cat amplitude alpha={self.alpha!r}: 2 alpha^2 is not a finite float")
        val = _norm_sq(math.exp(-two_alpha_sq), math.cos(self.phi))
        if val < 1e-12:
            raise ValueError(
                "degenerate superposition: the two components cancel "
                f"(alpha={self.alpha!r}, phi={self.phi!r})"
            )
        return 1.0 / math.sqrt(val)


class CatDensity(NamedTuple):
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


def _cat_factors(cat: CatState, g: float) -> tuple:
    """The factors of the state along x that depend on neither x nor kappa0:
    alpha sin g, 2 alpha^2 sin^2 g, unobserved, c0 = exp(-unobserved),
    cos phi, sin phi and, used only when cos phi < 0, 2 cos^2(phi/2)."""
    if not 0.0 <= g <= math.pi / 2.0 + 1e-12:
        raise ValueError("g must lie in [0, pi/2]")
    alpha, phi = cat.alpha, cat.phi
    s, c = math.sin(g), math.cos(g)
    unobserved = 2.0 * alpha * alpha * c * c
    cos_phi = math.cos(phi)
    cos_half_sq = 2.0 * math.cos(0.5 * phi) ** 2 if cos_phi < 0.0 else 0.0
    return (
        alpha * s, 2.0 * alpha * alpha * s * s, unobserved, math.exp(-unobserved),
        cos_phi, math.sin(phi), cos_half_sq,
    )


def _state(factors: tuple, amplitude: float, dephasing: float) -> tuple[float, float, float, float, float]:
    """(a_eff, offdiag, lambda_plus, lambda_minus, entropy) of the state with
    the factors of ``_cat_factors`` where exp(-kappa0 x) = amplitude and
    1 - exp(-2 kappa0 x) = dephasing: the one closed form of the module.

    a_eff = alpha sin(g) exp(-kappa0 x) and offdiag = c0 c(x) = exp(-dephasing),
    where dephasing = unobserved + decayed, unobserved = 2 alpha^2 cos^2 g and
    decayed = 2 alpha^2 sin^2 g (1 - exp(-2 kappa0 x)).  Each product keeps
    the order of these formulas, so the hoisted factors change no bit.

    In the orthonormal even/odd basis of |+/- a_eff⟩, with q = exp(-2 a_eff^2)
    and D = offdiag, the state is T^-1 times

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

    The entropy is in nats, with 0 ln 0 = 0.  Raises ValueError unless both
    eigenvalues lie in [0, 1] and sum to 1 within 1e-9.
    """
    alpha_s, decay_scale, unobserved, c0, cos_phi, sin_phi, cos_half_sq = factors
    a_eff = alpha_s * amplitude
    decayed = decay_scale * dephasing
    offdiag = c0 * math.exp(-decayed)
    two_a_sq = 2.0 * a_eff * a_eff
    q = math.exp(-two_a_sq)
    if cos_phi >= 0.0:
        if a_eff < _DEGENERATE_AMPLITUDE:
            return a_eff, offdiag, 1.0, 0.0, 0.0
        even = (1.0 + offdiag * cos_phi) * (1.0 + q)
        odd = (1.0 - offdiag * cos_phi) * (1.0 - q)
        trace = 2.0 + 2.0 * (offdiag * q) * cos_phi  # _norm_sq(offdiag * q, cos_phi), without the call
    else:
        even = (cos_half_sq + cos_phi * math.expm1(-(unobserved + decayed))) * (1.0 + q)
        odd = -(1.0 - offdiag * cos_phi) * math.expm1(-two_a_sq)
        trace = even + odd
    even, odd = even / trace, odd / trace
    shift = 0.0
    if sin_phi:  # else the cross term is 0 and so is the shift
        cross = offdiag * sin_phi * math.sqrt(-math.expm1(-2.0 * two_a_sq)) / trace
        if cross != 0.0:
            half_gap = 0.5 * abs(even - odd)
            shift = cross * cross / (math.hypot(half_gap, cross) + half_gap)
    lam_p, lam_m = max(even, odd) + shift, min(even, odd) - shift
    s = 0.0
    if not -1e-12 <= lam_p <= 1.0 + 1e-12:
        raise ValueError(f"eigenvalue {lam_p!r} outside [0, 1]")
    if lam_p > 0.0:
        s -= lam_p * math.log(lam_p)
    if not -1e-12 <= lam_m <= 1.0 + 1e-12:
        raise ValueError(f"eigenvalue {lam_m!r} outside [0, 1]")
    if lam_m > 0.0:
        s -= lam_m * math.log(lam_m)
    if abs(lam_p + lam_m - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {lam_p + lam_m!r}, not 1")
    return a_eff, offdiag, lam_p, lam_m, s if s > 0.0 else 0.0


def propagate_cat(cat: CatState, g: float, kappa0: float, x: float) -> CatDensity:
    """Surface-mode state after conversion with angle g and propagation to x."""
    factors = _cat_factors(cat, g)
    if not kappa0 >= 0.0 or not x >= 0.0:  # NaN too
        raise ValueError("kappa0 and x must be non-negative")
    return CatDensity(*_state(factors, math.exp(-kappa0 * x), -math.expm1(-2.0 * kappa0 * x)))


class Decay(NamedTuple):
    """The factors of the state along an x grid that depend on x only, so
    every cat on that grid shares them: exp(-kappa0 x) scales the amplitude
    and 1 - exp(-2 kappa0 x) the dephasing."""

    amplitude: list[float]
    dephasing: list[float]


def decay_along(kappa0: float, xs: list[float]) -> Decay:
    """The Decay of each x of xs, with the float operations of ``propagate_cat``."""
    if not kappa0 >= 0.0 or not all(x >= 0.0 for x in xs):  # NaN too
        raise ValueError("kappa0 and x must be non-negative")
    minus_kappa0, minus_2kappa0 = -kappa0, -2.0 * kappa0
    exp, expm1 = math.exp, math.expm1
    return Decay([exp(minus_kappa0 * x) for x in xs], [-expm1(minus_2kappa0 * x) for x in xs])


def cat_columns(cat: CatState, g: float, decay: Decay) -> tuple[list[float], list[float], list[float]]:
    """lambda_plus, lambda_minus and the entropy of ``propagate_cat`` at each
    x of a Decay, bit for bit: ``_state`` at each x."""
    factors = _cat_factors(cat, g)
    lambda_plus, lambda_minus, entropy = [], [], []
    for amplitude, dephasing in zip(decay.amplitude, decay.dephasing):
        _, _, lam_p, lam_m, s = _state(factors, amplitude, dephasing)
        lambda_plus.append(lam_p)
        lambda_minus.append(lam_m)
        entropy.append(s)
    return lambda_plus, lambda_minus, entropy
