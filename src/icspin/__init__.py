"""icspin: simulator and pulse-sequence compiler for indirectly controlled
electron-nuclear spin registers.

Microwave pulses act on the electron only; carbon rotations emerge from
interleaved free evolution under the hyperfine coupling. The package builds
the register Hamiltonians, composes exact propagators, searches pulse
parameters with a genetic algorithm, and simulates the standard
verification circuits.

The names below are the library API; everything else is imported from its
module, e.g. ``from icspin.fidelity import gate_fidelity``.
"""

__version__ = "0.1.0"

from .experiments import (
    bloch_trajectory,
    electron_fid_scan,
    esr_lines,
    esr_spectrum,
    hadamard_circuit_scan,
    theta_scan,
)
from .fidelity import robust_fidelity
from .hamiltonian import multiqubit_hamiltonian
from .kernels import FitnessKernel
from .optimize import GAConfig, ParameterBounds, optimize
from .propagation import sequence_propagator
from .sequence import (
    Delay,
    Pulse,
    PulseSequence,
    genome_from_sequence,
    load_sequence,
    save_sequence,
)
from .system import data_path, load_system
from .targets import cc_rotation, cnot_on_carbon, hadamard_on_carbon, target_library

__all__ = [
    "bloch_trajectory",
    "electron_fid_scan",
    "esr_lines",
    "esr_spectrum",
    "hadamard_circuit_scan",
    "theta_scan",
    "robust_fidelity",
    "multiqubit_hamiltonian",
    "FitnessKernel",
    "GAConfig",
    "ParameterBounds",
    "optimize",
    "sequence_propagator",
    "Delay",
    "Pulse",
    "PulseSequence",
    "genome_from_sequence",
    "load_sequence",
    "save_sequence",
    "data_path",
    "load_system",
    "cc_rotation",
    "cnot_on_carbon",
    "hadamard_on_carbon",
    "target_library",
]
