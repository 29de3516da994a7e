"""Truncated number-basis machinery: coherent states, the beamsplitter
unitary, the amplitude-damping channel, partial traces and entropy.

An independent oracle for the closed forms of ``statetransfer``, used by
the tests only: no other module imports it, so only it needs numpy.
"""

from __future__ import annotations

import math

import numpy as np


def default_cutoff(alpha: float) -> int:
    """Number-basis cutoff comfortably containing a cat of amplitude alpha."""
    a = abs(alpha)
    return math.ceil(a * a + 6.0 * a + 10.0)


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Number-basis coefficients of |alpha⟩, truncated at dim."""
    out = np.zeros(dim, dtype=complex)
    c = math.exp(-abs(alpha) ** 2 / 2.0)
    out[0] = c
    for n in range(1, dim):
        c = c * alpha / math.sqrt(n)
        out[n] = c
    return out


def annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def beamsplitter_unitary(g: float, dim_a: int, dim_b: int) -> np.ndarray:
    """exp[g (a^dag b - a b^dag)] on the truncated two-mode space.

    Maps |v⟩_a |0⟩_b to |v cos g⟩_a |-v sin g⟩_b (up to truncation error).
    """
    a = np.kron(annihilation(dim_a), np.eye(dim_b))
    b = np.kron(np.eye(dim_a), annihilation(dim_b))
    gen = g * (a.conj().T @ b - a @ b.conj().T)
    herm = 1j * gen
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def amplitude_damping_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the loss channel with intensity transmissivity eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    ops = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        for n in range(k, dim):
            e[n - k, n] = math.sqrt(math.comb(n, k) * (1.0 - eta) ** k * eta ** (n - k))
        ops.append(e)
    return ops


def apply_channel(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(rho)
    for e in kraus:
        out += e @ rho @ e.conj().T
    return out


def partial_trace_first(psi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Reduced density matrix of the second mode of a pure two-mode state."""
    m = psi.reshape(dim_a, dim_b)
    return m.conj().T @ m


def vn_entropy(rho: np.ndarray, tol: float = 1e-14) -> float:
    """von Neumann entropy -Tr(rho ln rho) in nats."""
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > tol]
    return float(-(vals * np.log(vals)).sum())


def cat_mode_after_transfer(
    alpha: float,
    phi: float,
    g: float,
    eta: float,
    dim: int | None = None,
) -> np.ndarray:
    """Reduced state of the surface mode for a cat input, numerically.

    The beamsplitter sends |v⟩_a|0⟩_b to |v cos g⟩_a|-v sin g⟩_b exactly,
    so the two-mode output is built directly from coherent-state
    coefficients; the unobserved mode is traced out and the loss channel
    with transmissivity eta applied to the remainder.
    """
    if dim is None:
        dim = default_cutoff(alpha) + 1
    ca, sa = alpha * math.cos(g), alpha * math.sin(g)
    psi = np.kron(coherent_state(ca, dim), coherent_state(-sa, dim)) + np.exp(1j * phi) * np.kron(
        coherent_state(-ca, dim), coherent_state(sa, dim)
    )
    psi /= np.linalg.norm(psi)
    rho_b = partial_trace_first(psi, dim, dim)
    if eta < 1.0:
        rho_b = apply_channel(rho_b, amplitude_damping_kraus(eta, dim))
    return rho_b
