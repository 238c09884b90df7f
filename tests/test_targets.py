import numpy as np
import pytest

from icspin import targets
from icspin.fidelity import gate_fidelity
from icspin.operators import ConfigError
from icspin.system import MAX_CARBONS
from icspin.targets import (
    cc_rotation,
    cnot_on_carbon,
    hadamard_on_carbon,
    target_library,
)

from oracles import SX_HALF


def basis(i, dim=4):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1
    return v


def test_hadamard_structure():
    u = hadamard_on_carbon(1).matrix
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(u, np.kron(np.eye(2), h2))


def test_cnot_flips_conditionally():
    u = cnot_on_carbon(1).matrix
    # control satisfied: |-1,up> -> -i |-1,dn>
    out = u @ basis(2)
    assert np.allclose(out, -1j * basis(3), atol=1e-14)
    # control unsatisfied: |0,up> untouched
    assert np.allclose(u @ basis(0), basis(0), atol=1e-14)


def test_all_targets_unitary():
    for gate in (hadamard_on_carbon(1), cnot_on_carbon(1), cc_rotation(3, 2, 1.1)):
        u = gate.matrix
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12


def test_cc_rotation_zero_angle_is_identity():
    u = cc_rotation(2, 1, 0.0).matrix
    assert gate_fidelity(u, np.eye(8, dtype=complex)) == pytest.approx(1.0)


def test_cc_rotation_full_turn_flips_sign():
    """A 2 pi rotation multiplies the conditioned block by -1."""
    u = cc_rotation(1, 1, 2 * np.pi).matrix
    assert np.allclose(u[:2, :2], np.eye(2))
    assert np.allclose(u[2:, 2:], -np.eye(2))


def test_cc_rotation_spectator_carbons_untouched():
    u = cc_rotation(2, 1, np.pi).matrix
    rot = -2j * SX_HALF   # exp(-i pi s_x)
    expected = np.kron(np.diag([1.0, 0]), np.eye(4)) + np.kron(
        np.diag([0, 1.0]), np.kron(rot, np.eye(2))
    )
    assert np.allclose(u, expected)


def test_carbon_index_range():
    with pytest.raises(ConfigError, match="carbon index must be at most 2, got 3"):
        cc_rotation(2, 3, 0.5)


def test_target_library_parsing():
    assert np.array_equal(target_library("hadamard").matrix, hadamard_on_carbon(1).matrix)
    assert np.array_equal(target_library("cnot").matrix, cnot_on_carbon(1).matrix)
    g = target_library("ccrot:2,180", n_carbons=3)
    assert g.matrix.shape == (16, 16)
    assert np.allclose(g.matrix, cc_rotation(3, 2, np.pi).matrix)


def test_target_library_errors():
    with pytest.raises(ConfigError, match="unknown target"):
        target_library("toffoli")
    with pytest.raises(ConfigError, match="parameters"):
        target_library("ccrot:nope")
    for name in ("hadamard:7", "cnot:junk", "CNOT:"):
        with pytest.raises(ConfigError, match="unknown target"):
            target_library(name)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_target_library_rejects_non_finite_angle(angle):
    with pytest.raises(ConfigError, match="finite"):
        target_library(f"ccrot:1,{angle}")
    with pytest.raises(ConfigError, match="finite"):   # the library form refuses it too
        cc_rotation(1, 1, float(angle))


def test_carbon_counts_past_the_budget_are_refused_before_any_matrix(monkeypatch):
    """hadamard_on_carbon(6) returned a 128 x 128 gate: a count past
    MAX_CARBONS is refused before the Kronecker product is asked for."""
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(targets, "on_register", no_matrix)
    message = f"n_carbons must be at most {MAX_CARBONS}, got {MAX_CARBONS + 1}"
    with pytest.raises(ConfigError, match=message):
        hadamard_on_carbon(MAX_CARBONS + 1)
    with pytest.raises(ConfigError, match=message):
        cc_rotation(MAX_CARBONS + 1, 1, np.pi)
