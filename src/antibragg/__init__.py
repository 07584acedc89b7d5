"""Driven-dissipative dynamics of qubit arrays coupled to a waveguide.

Builds the Lindblad superoperator of a periodic qubit array under
coherent driving through the waveguide, analyzes its spectrum for
driven subradiant states, checks them against strong-drive degenerate
perturbation theory, and propagates correlation dynamics.
"""

from .operators import ArrayParams
from .model import (Hamiltonian, Liouvillian, ResourceLimitError,
                    apply_liouvillian, build_hamiltonian, build_liouvillian)
from .spectra import (SpectrumResult, ConvergenceError, UnstableCountError,
                      full_spectrum, targeted_spectrum, second_slowest_rate,
                      kernel_dimension, subradiant_count, sweep)
from .perturbation import (DriveEigenbasis, EffectivePT, XiReport,
                           drive_eigenbasis, zero_projector,
                           effective_liouvillian, pt_dark_count, xi_coefficient)
from .dynamics import (Trajectory, fully_excited_state, evolve,
                       correlation_map)

__version__ = "0.1.0"

__all__ = [
    "ArrayParams", "Hamiltonian", "Liouvillian", "ResourceLimitError",
    "apply_liouvillian", "build_hamiltonian", "build_liouvillian",
    "SpectrumResult", "ConvergenceError", "UnstableCountError",
    "full_spectrum", "targeted_spectrum", "second_slowest_rate",
    "kernel_dimension", "subradiant_count", "sweep",
    "DriveEigenbasis", "EffectivePT", "XiReport", "drive_eigenbasis",
    "zero_projector", "effective_liouvillian", "pt_dark_count", "xi_coefficient",
    "Trajectory", "fully_excited_state", "evolve", "correlation_map",
]
