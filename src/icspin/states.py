"""State-vector and density-matrix helpers over the working subspace."""
from __future__ import annotations

import numpy as np

from .operators import PAULI_X, PAULI_Y, PAULI_Z, check_count


def basis_state(index: int, dim: int) -> np.ndarray:
    check_count(index, "basis index", 0, high=dim - 1, error=ValueError)
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Promote a state vector to a density matrix; pass density matrices through."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def partial_trace(state: np.ndarray, keep: int, dims: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of subsystem `keep` from a state over `dims`.

    `state` may be a vector or a density matrix whose dimension is the
    product of `dims`.
    """
    rho = density_matrix(state)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"state of dim {rho.shape[0]} does not factor as {dims}")
    check_count(keep, "subsystem index", 0, high=len(dims) - 1, error=ValueError)
    n = len(dims)
    rho = rho.reshape(dims + dims)
    # trace out all other subsystems, highest axis first to keep indices stable
    for sub in sorted((i for i in range(n) if i != keep), reverse=True):
        rho = np.trace(rho, axis1=sub, axis2=sub + n)
        n -= 1
    return rho


def bloch_vector(rho2: np.ndarray) -> np.ndarray:
    """(x, y, z) expectation values of a single-qubit density matrix."""
    rho2 = density_matrix(rho2)
    return np.array(
        [
            np.real(np.trace(rho2 @ PAULI_X)),
            np.real(np.trace(rho2 @ PAULI_Y)),
            np.real(np.trace(rho2 @ PAULI_Z)),
        ]
    )


def qubit_bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Bloch vector of every qubit for a stack of register state vectors.

    `states` holds K state vectors (K, d) of a register of n qubits,
    d = 2**n. Returns (K, n, 3); entry [k, s] is
    ``bloch_vector(partial_trace(states[k], s, (2,) * n))``.
    """
    states = np.asarray(states, dtype=complex)
    k, d = states.shape
    n = int(np.log2(d))
    paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
    out = np.empty((k, n, 3))
    for s in range(n):
        psi = states.reshape(k, 2**s, 2, 2 ** (n - s - 1))
        rho = np.einsum("kiaj,kibj->kab", psi, psi.conj())
        out[:, s] = np.einsum("kab,pba->kp", rho, paulis).real
    return out
