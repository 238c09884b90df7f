import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icspin.operators import PROJ_DOWN, PROJ_UP
from icspin.states import (
    basis_state,
    bloch_vector,
    density_matrix,
    partial_trace,
    qubit_bloch_vectors,
)


def test_product_state_reductions():
    zero = np.array([1, 0], dtype=complex)
    up = np.array([1, 0], dtype=complex)
    psi = np.kron(zero, up)
    for keep, expected in ((0, zero), (1, up)):
        rho = partial_trace(psi, keep, (2, 2))
        assert np.allclose(rho, np.outer(expected, expected.conj()), atol=1e-14)


def test_entangled_state_reductions_are_mixed():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1 / np.sqrt(2)       # |0,up>
    psi[3] = -1j / np.sqrt(2)     # -i |-1,dn>
    for keep in (0, 1):
        rho = partial_trace(psi, keep, (2, 2))
        assert np.allclose(np.linalg.eigvalsh(rho), [0.5, 0.5], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_pure_state_trace_preserved(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    for keep in range(3):
        rho = partial_trace(psi, keep, (2, 2, 2))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_partial_trace_validates_args():
    psi = basis_state(0, 4)
    with pytest.raises(ValueError, match="factor"):
        partial_trace(psi, 0, (2, 3))
    with pytest.raises(ValueError, match="subsystem index must be at most 1, got 2"):
        partial_trace(psi, 2, (2, 2))


@pytest.mark.parametrize("index", [True, False, -1, 4, 1.0, "0", None])
def test_basis_state_refuses_what_is_no_index_of_the_space(index):
    """True made the unnormalised all-ones vector (a bool mask), -1 the last
    state, and 4 a bare IndexError."""
    with pytest.raises(ValueError, match="basis index must be"):
        basis_state(index, 4)


def test_basis_state_takes_every_index_of_the_space():
    for index in (0, 3, np.int64(2)):
        psi = basis_state(index, 4)
        assert psi[index] == 1.0 and np.linalg.norm(psi) == 1.0


@pytest.mark.parametrize("keep", [True, 1.0, -1, 2, "0", None])
def test_partial_trace_refuses_what_is_no_subsystem_index(keep):
    """True and 1.0 silently kept subsystem 1."""
    with pytest.raises(ValueError, match="subsystem index must be"):
        partial_trace(basis_state(0, 4), keep, (2, 2))


def test_partial_trace_takes_every_subsystem_index():
    psi = np.kron([1.0, 0.0], [0.0, 1.0])
    for keep, expected in ((0, PROJ_UP), (1, PROJ_DOWN), (np.int64(1), PROJ_DOWN)):
        assert np.allclose(partial_trace(psi, keep, (2, 2)), expected, atol=1e-15)


def test_bloch_vector_cardinal_states():
    up = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    plus_i = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    assert np.allclose(bloch_vector(density_matrix(up, 2)), [0, 0, 1])
    assert np.allclose(bloch_vector(density_matrix(plus, 2)), [1, 0, 0])
    assert np.allclose(bloch_vector(density_matrix(plus_i, 2)), [0, 1, 0])


def test_bloch_norm_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(bloch_vector(density_matrix(psi, 2))) <= 1 + 1e-10


def test_qubit_bloch_vectors_match_partial_traces():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        d = 2**n
        psis = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        out = qubit_bloch_vectors(psis)
        assert out.shape == (5, n, 3)
        for k in range(5):
            for s in range(n):
                ref = bloch_vector(partial_trace(psis[k], s, (2,) * n))
                assert np.abs(out[k, s] - ref).max() < 1e-14


def _unit_state(dim: int, seed: int, mixed: bool) -> np.ndarray:
    """A random unit vector of dimension `dim`, or a random mixture of three."""
    rng = np.random.default_rng(seed)
    psis = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    if not mixed:
        return psis[0]
    weights = rng.dirichlet(np.ones(3))
    return sum(w * np.outer(psi, psi.conj()) for w, psi in zip(weights, psis))


UNIT_STATES = st.builds(_unit_state, st.integers(2, 32), st.integers(0, 2**32 - 1), st.booleans())


def _one_nan(state):
    state = state.copy()
    state.flat[-1] = np.nan
    return state


def _non_hermitian(state):
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state.copy()
    rho[0, -1] += 1e-6
    return rho


def _not_positive(state):
    """A Hermitian unit-trace matrix with the eigenvalue -0.5: the lowest
    eigenvalue's weight goes to the highest."""
    w, v = np.linalg.eigh(np.outer(state, state.conj()) if state.ndim == 1 else state)
    w[-1] += w[0] + 0.5
    w[0] = -0.5
    return (v * w) @ v.conj().T


BREAKS = {"scaled by 3": lambda state: 3 * state, "one NaN entry": _one_nan,
          "not Hermitian": _non_hermitian, "not positive": _not_positive,
          "another shape": lambda state: np.pad(state, (0, 1))}


@settings(max_examples=100, deadline=None)
@given(state=UNIT_STATES)
def test_density_matrix_takes_a_unit_state_as_it_is(state):
    """A unit vector gives its outer product and a Hermitian unit-trace
    matrix comes back unchanged, bit for bit."""
    rho = density_matrix(state, len(state), "probe")
    assert np.array_equal(rho, np.outer(state, state.conj()) if state.ndim == 1 else state)


@settings(max_examples=100, deadline=None)
@given(state=UNIT_STATES, broken=st.sampled_from(sorted(BREAKS)))
def test_density_matrix_refuses_what_is_no_unit_state(state, broken):
    """The rule of a register state: scaled, NaN, non-Hermitian, with a
    negative eigenvalue or of another shape raises ValueError naming `where`; a zero-padded state of
    unit norm or trace shows that the shape alone is checked too."""
    with pytest.raises(ValueError, match="^probe must have shape"):
        density_matrix(BREAKS[broken](state), len(state), "probe")


@pytest.mark.parametrize("state", [[3, 0], [np.nan, 0], np.eye(2), [[1, 1], [0, 0]], np.ones(2),
                                   [[2, 0], [0, -1]]],
                         ids=["norm_3", "nan", "trace_2", "non_hermitian", "norm_2", "not_positive"])
def test_bloch_vector_refuses_what_is_no_qubit_state(state):
    """[[2, 0], [0, -1]] gave a Bloch vector of length 3."""
    with pytest.raises(ValueError, match="state must have shape"):
        bloch_vector(state)


def test_partial_trace_refuses_a_matrix_with_a_negative_eigenvalue():
    """diag(2, -1, 0, 0) has unit trace and is Hermitian, and its reduction
    on the first qubit was the pure state [[1, 0], [0, 0]]."""
    with pytest.raises(ValueError, match="no negative eigenvalue"):
        partial_trace(np.diag([2.0, -1.0, 0.0, 0.0]), 0, (2, 2))
