import numpy as np
import pytest

import icspin
from icspin import cli, experiments, propagation
from icspin.experiments import electron_fid_scan, electron_rotation
from icspin.operators import (PAULI_X, PAULI_Y, PAULI_Z, PROJ_UP, assert_hermitian, on_register,
                             rotation)
from icspin.propagation import PropagationEngine
from icspin.states import basis_state
from icspin.targets import cc_rotation, cnot_on_carbon, hadamard_on_carbon

from oracles import (SX_HALF, SY_HALF, SZ_HALF, kron_cc_rotation, kron_drive,
                     kron_electron_rotation, kron_fid_readout, kron_hadamard_on_carbon,
                     kron_thermal_state)

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


def test_on_register_matches_numpy():
    """Electron first, then carbons by label, a real identity on every slot
    not given; the dtype is numpy's promotion and the result a new array."""
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.array_equal(on_register(a, 2, {1: b, 2: c}), np.kron(np.kron(a, b), c))
    assert np.array_equal(on_register(a, 3, {2: c}),
                          np.kron(np.kron(np.kron(a, np.eye(2)), c), np.eye(2)))
    assert on_register(a, 3).dtype == np.float64
    assert on_register(a, 1, {1: 1j * b}).dtype == np.complex128
    bare = on_register(a, 0)
    assert np.array_equal(bare, a) and bare is not a


def _placed(monkeypatch, module) -> list:
    """Record each (electron operator, placed matrix) that `module` asks
    ``on_register`` for."""
    made = []

    def recording(electron_op, *args):
        made.append((electron_op, on_register(electron_op, *args)))
        return made[-1][1]

    monkeypatch.setattr(module, "on_register", recording)
    return made


def _same(placed: np.ndarray, expected: np.ndarray) -> None:
    assert placed.dtype == expected.dtype
    assert np.array_equal(placed, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_placed_targets_equal_their_kronecker_forms(n):
    _same(hadamard_on_carbon(n).matrix, kron_hadamard_on_carbon(n))
    _same(cnot_on_carbon(n).matrix, kron_cc_rotation(rotation(np.pi, 0.0), n, 1))
    for k in range(1, n + 1):
        for theta in (np.pi, np.pi / 2, -1.1, 0.0, 2 * np.pi):
            _same(cc_rotation(n, k, theta).matrix, kron_cc_rotation(rotation(theta, 0.0), n, k))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_placed_electron_rotation_equals_its_kronecker_form(n):
    for angle, phi in ((np.pi, 0.0), (np.pi / 2, 0.0), (-np.pi / 2, np.pi / 2), (0.7, 1.3)):
        _same(electron_rotation(angle, phi, n), kron_electron_rotation(rotation(angle, phi), n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_placed_fid_readout_equals_its_kronecker_form(monkeypatch, registers, n):
    made = _placed(monkeypatch, experiments)
    cfg = registers.subset(list(range(1, n + 1)))
    electron_fid_scan(basis_state(0, 2 ** (n + 1)), 10.0, np.arange(16) * 0.01, cfg)
    readouts = [m for op, m in made if np.array_equal(op, PROJ_UP)]
    assert len(readouts) == 1
    _same(readouts[0], kron_fid_readout(n))


def test_placed_thermal_state_equals_its_kronecker_form(monkeypatch, tmp_path):
    states = []

    def recording(state, *args):
        states.append(state)
        return electron_fid_scan(state, *args)

    monkeypatch.setattr(cli, "electron_fid_scan", recording)
    assert cli.main(["scan", "--kind", "fid", "--system", str(icspin.data_path("system_2q.json")),
                     "--state", "thermal", "--points", "64", "--out", str(tmp_path)]) == 0
    _same(states[0], kron_thermal_state())


def test_placed_drive_equals_its_kronecker_form(monkeypatch, register_hamiltonians):
    """The drive stays real, so the grid's eigh stays the real routine and
    the engine's eigensystems are the ones the Kronecker drive gives."""
    made = _placed(monkeypatch, propagation)
    grid = np.linspace(0.4, 0.6, 5)
    for h in register_hamiltonians.values():
        engine = PropagationEngine(h, grid)
        _same(made[-1][1], kron_drive(h.shape[0]))
        w_p, v_p = np.linalg.eigh(h.real + grid[:, None, None] * kron_drive(h.shape[0]))
        assert np.array_equal(engine.w_p, w_p)
        assert np.array_equal(engine.mix, engine.v.T @ v_p)


def test_assert_hermitian_rejects():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(bad)
