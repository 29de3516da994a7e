"""Quantum-level simulator for photon to long-range surface plasmon transfer.

The package models the full excitation chain on a thin metal strip coupled
through an attenuated-total-reflection prism:

* ``materials``     -- Drude-type silver permittivity (lossless and lossy).
* ``dispersion``    -- thin-film surface mode dispersion, both branches,
                       group velocity and complex propagation constants.
* ``modes``         -- mode profiles as sums of exponentials that each decay
                       away from a layer face, the four-layer prism/gap/metal/air
                       solve with bounded amplitudes, closed-form norms and
                       overlaps, and the conversion amplitude beta(gap).
* ``coupling``      -- (B, P, C) feasibility constraints and the constrained
                       (gap, thickness, frequency) optimization.
* ``propagation``   -- closed-form detected counts and photon statistics
                       of damped propagating excitations.
* ``statetransfer`` -- transfer and decoherence of coherent-superposition
                       (cat) states, eigenvalues and von Neumann entropy.
* ``cli``           -- batch command-line front end emitting CSV/JSON datasets.
"""

from .materials import DielectricModel, SILVER, eps_lossless, eps_lossy, surface_plasma_frequency
from .dispersion import (
    BranchId,
    DispersionSolution,
    ComplexWavenumber,
    solve_omega,
    solve_k,
    complex_wavenumber,
    group_velocity,
    coupling_angle,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    NoBoundMode,
    NoMatchingAngle,
    NormalizationError,
    SingularSystemError,
    StencilError,
)

__all__ = [
    "DielectricModel",
    "SILVER",
    "eps_lossless",
    "eps_lossy",
    "surface_plasma_frequency",
    "BranchId",
    "DispersionSolution",
    "ComplexWavenumber",
    "solve_omega",
    "solve_k",
    "complex_wavenumber",
    "group_velocity",
    "coupling_angle",
    "ConfigError",
    "ConvergenceError",
    "NoBoundMode",
    "NoMatchingAngle",
    "NormalizationError",
    "SingularSystemError",
    "StencilError",
]

__version__ = "0.1.0"
