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
    assert np.allclose(bloch_vector(density_matrix(up)), [0, 0, 1])
    assert np.allclose(bloch_vector(density_matrix(plus)), [1, 0, 0])
    assert np.allclose(bloch_vector(density_matrix(plus_i)), [0, 1, 0])


def test_bloch_norm_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(bloch_vector(density_matrix(psi))) <= 1 + 1e-10


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
