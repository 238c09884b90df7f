"""icspin: simulator and pulse-sequence compiler for indirectly controlled
electron-nuclear spin registers.

Microwave pulses act on the electron only; carbon rotations emerge from
interleaved free evolution under the hyperfine coupling. The package builds
the register Hamiltonians, composes exact propagators, searches pulse
parameters with a genetic algorithm, and simulates the standard
verification circuits.
"""

__version__ = "0.1.0"

from .eigenstructure import CarbonEigenstructure, carbon_eigenstructure
from .experiments import (
    ScanResult,
    Spectrum,
    Trajectory,
    analytic_init_delays,
    bloch_trajectory,
    cleanup_delay,
    cleanup_propagator,
    electron_fid_scan,
    esr_lines,
    esr_spectrum,
    hadamard_circuit_scan,
    min_coherence_time,
    simulate_init_sequence,
    theta_scan,
)
from .fidelity import RobustnessReport, gate_fidelity, robust_fidelity
from .geometry import (
    DipolarGeometry,
    coupling_from_geometry,
    dipolar_geometry,
)
from .hamiltonian import lab_hamiltonian, multiqubit_hamiltonian
from .kernels import FitnessKernel
from .operators import spin_operators
from .optimize import (
    GAConfig,
    OptimizationResult,
    ParameterBounds,
    fitness,
    optimize,
)
from .propagation import sequence_propagator
from .sequence import (
    Delay,
    Pulse,
    PulseSequence,
    genome_from_sequence,
    load_sequence,
    save_sequence,
    sequence_from_genome,
)
from .states import bloch_vector, partial_trace
from .system import (
    HyperfineCoupling,
    SpinSystemConfig,
    data_path,
    default_system,
    load_system,
    registers_system,
    save_system,
)
from .targets import TargetGate, cc_rotation, cnot_on_carbon, hadamard_on_carbon, target_library

__all__ = [
    "CarbonEigenstructure",
    "carbon_eigenstructure",
    "ScanResult",
    "Spectrum",
    "Trajectory",
    "analytic_init_delays",
    "bloch_trajectory",
    "cleanup_delay",
    "cleanup_propagator",
    "electron_fid_scan",
    "esr_lines",
    "esr_spectrum",
    "hadamard_circuit_scan",
    "min_coherence_time",
    "simulate_init_sequence",
    "theta_scan",
    "RobustnessReport",
    "gate_fidelity",
    "robust_fidelity",
    "DipolarGeometry",
    "coupling_from_geometry",
    "dipolar_geometry",
    "lab_hamiltonian",
    "multiqubit_hamiltonian",
    "FitnessKernel",
    "spin_operators",
    "GAConfig",
    "OptimizationResult",
    "ParameterBounds",
    "fitness",
    "optimize",
    "sequence_propagator",
    "Delay",
    "Pulse",
    "PulseSequence",
    "genome_from_sequence",
    "load_sequence",
    "save_sequence",
    "sequence_from_genome",
    "bloch_vector",
    "partial_trace",
    "HyperfineCoupling",
    "SpinSystemConfig",
    "data_path",
    "default_system",
    "load_system",
    "registers_system",
    "save_system",
    "TargetGate",
    "cc_rotation",
    "cnot_on_carbon",
    "hadamard_on_carbon",
    "target_library",
]
