"""State-vector and density-matrix helpers over the working subspace."""
from __future__ import annotations

import numpy as np

from .operators import PAULI_X, PAULI_Y, PAULI_Z, check_count


def basis_state(index: int, dim: int) -> np.ndarray:
    check_count(index, "basis index", 0, high=dim - 1, error=ValueError)
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


STATE_SLACK = 1e-9   # roundoff allowed in a state's trace, Hermiticity and eigenvalues


def density_matrix(state, dim: int, where: str = "state") -> np.ndarray:
    """The one rule of a register state, which only code supplies: a unit vector of
    shape (dim,) gives ``np.outer(state, state.conj())``, a Hermitian unit-trace (dim, dim)
    matrix with no eigenvalue below 0 itself, within STATE_SLACK. Anything else, NaN too,
    raises ValueError naming `where`."""
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.shape == (dim,) else state
    if not (rho.shape == (dim, dim) and abs(np.trace(rho) - 1.0) <= STATE_SLACK
            and np.abs(rho - rho.conj().T).max() <= STATE_SLACK
            # an outer product has no negative eigenvalue
            and (state.ndim == 1 or np.linalg.eigvalsh(rho)[0] >= -STATE_SLACK)):
        raise ValueError(f"{where} must have shape ({dim},) and unit norm, or shape "
                         f"({dim}, {dim}), unit trace, Hermitian and no negative eigenvalue, "
                         f"got shape {state.shape}")
    return rho


def partial_trace(state: np.ndarray, keep: int, dims: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of subsystem `keep` of a state of dimension prod(dims)."""
    rho = density_matrix(state, int(np.prod(dims)), f"a state that factors as {dims}")
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
    rho2 = density_matrix(rho2, 2)
    return np.array([np.trace(rho2 @ pauli).real for pauli in (PAULI_X, PAULI_Y, PAULI_Z)])


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
