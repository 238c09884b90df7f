import numpy as np
import pytest

from icspin.operators import assert_hermitian, embed, kron_all, spin_operators


def test_spin_half_z_is_diagonal():
    _, _, sz = spin_operators(0.5)
    assert np.allclose(sz, np.diag([0.5, -0.5]))


def test_spin_one_z_is_diagonal():
    _, _, sz = spin_operators(1)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("spin", [0.5, 1])
def test_commutator_algebra(spin):
    sx, sy, sz = spin_operators(spin)
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-14
    for op in (sx, sy, sz):
        assert np.abs(op - op.conj().T).max() < 1e-14


def test_unsupported_spin_raises():
    with pytest.raises(ValueError, match="unsupported spin"):
        spin_operators(1.5)


def test_kron_all_matches_numpy():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron_all(a, b, c), np.kron(a, np.kron(b, c)))


def test_embed_places_operator():
    sx, _, _ = spin_operators(0.5)
    full = embed(sx, 1, 3)
    assert full.shape == (8, 8)
    assert np.allclose(full, np.kron(np.eye(2), np.kron(sx, np.eye(2))))


def test_assert_hermitian_rejects():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(bad)
