import numpy as np
import pytest

from icspin.operators import PAULI_X, PAULI_Y, PAULI_Z, assert_hermitian, kron_all

from oracles import SX_HALF, SY_HALF, SZ_HALF

SPIN_OPERATORS = {0.5: (PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2)}


def test_spin_half_z_is_diagonal():
    """The Pauli matrices are twice the hand-written spin-1/2 operators."""
    assert np.allclose(PAULI_Z / 2, np.diag([0.5, -0.5]))
    for op, oracle in zip(SPIN_OPERATORS[0.5], (SX_HALF, SY_HALF, SZ_HALF)):
        assert np.array_equal(op, oracle)


@pytest.mark.parametrize("spin", [0.5])
def test_commutator_algebra(spin):
    sx, sy, sz = SPIN_OPERATORS[spin]
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-14
    for op in (sx, sy, sz):
        assert np.abs(op - op.conj().T).max() < 1e-14


def test_kron_all_matches_numpy():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron_all(a, b, c), np.kron(a, np.kron(b, c)))


def test_assert_hermitian_rejects():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(bad)
