import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icspin
from icspin.fidelity import Band, RobustnessReport, gate_fidelity, robust_fidelity
from icspin.system import ConfigError

from oracles import random_unitary


def test_self_fidelity_is_one():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8):
        u = random_unitary(rng, dim)
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0, 2 * np.pi, allow_nan=False))
def test_global_phase_invariance(alpha):
    rng = np.random.default_rng(42)
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    base = gate_fidelity(u, v)
    assert gate_fidelity(np.exp(1j * alpha) * u, v) == pytest.approx(base, abs=1e-12)
    assert gate_fidelity(u, np.exp(1j * alpha) * v) == pytest.approx(base, abs=1e-12)


def test_orthogonal_gates_have_zero_fidelity():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.kron(sx, np.eye(2))
    assert gate_fidelity(np.eye(4, dtype=complex), u) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = gate_fidelity(random_unitary(rng, 4), random_unitary(rng, 4))
        assert 0.0 <= f <= 1.0 + 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        gate_fidelity(np.eye(4), np.eye(2))


def test_grid_endpoints():
    g = Band(0.48, 0.52, 5).omega1s()
    assert np.allclose(g, [0.48, 0.49, 0.50, 0.51, 0.52])
    assert np.array_equal(Band().omega1s(), np.linspace(0.48, 0.52, 5))
    assert Band(0.4, 0.6, 1).omega1s().tolist() == [0.5]


def test_single_point_grid_is_midpoint(h_subspace, hadamard_seq):
    rep = robust_fidelity(hadamard_seq, icspin.hadamard_on_carbon(1), h_subspace,
                          omega1_range=(0.5, 0.5), grid_points=1)
    u = icspin.sequence_propagator(hadamard_seq, h_subspace)
    direct = gate_fidelity(u, icspin.hadamard_on_carbon(1).matrix)
    assert rep.mean == pytest.approx(direct, abs=1e-15)
    assert rep.min == rep.mean
    assert rep.band_mean == rep.mean


def test_empty_grid_rejected(h_subspace, hadamard_seq):
    with pytest.raises(ConfigError, match="points must be an integer >= 1, got 0"):
        robust_fidelity(hadamard_seq, icspin.hadamard_on_carbon(1), h_subspace,
                        grid_points=0)


@pytest.mark.parametrize("band, message", [
    ((0.5, 0.4, 3), r"max_MHz \(at least min_MHz\) must be finite and in \[0.5, inf\), got 0.4"),
    ((-0.1, 0.4, 3), r"min_MHz must be finite and in \[0, inf\), got -0.1"),
    ((0.48, 0.52, 0), r"points must be an integer >= 1, got 0"),
    ((True, 0.52, 5), r"min_MHz must be a number, got True"),
], ids=["band0-max_MHz", "band1-min_MHz", "band2-points", "band3-min_MHz"])
def test_a_refused_band_is_a_config_error(band, message):
    """A band is an input value, refused like a register's: the CLI exits 1
    on a ConfigError, and 2 on any other ValueError."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Band(*band)


@pytest.mark.parametrize("omega1_range", [(0.4, 0.6, 0.7), (0.5,), 0.5, None])
def test_robust_fidelity_refuses_a_range_that_is_no_pair(h_subspace, hadamard_seq, omega1_range):
    """These raised a bare ValueError or TypeError, which the CLI would take
    for an internal fault."""
    with pytest.raises(ConfigError, match=r"^omega1_range must be a pair \(min_MHz, max_MHz\), "
                                          rf"got {re.escape(repr(omega1_range))}$"):
        robust_fidelity(hadamard_seq, icspin.hadamard_on_carbon(1), h_subspace, omega1_range, 3)


def test_report_mean_and_min_consistent(h_subspace, cnot_seq):
    rep = robust_fidelity(cnot_seq, icspin.cnot_on_carbon(1), h_subspace)
    assert rep.mean == pytest.approx(rep.fidelities.mean())
    assert rep.min == pytest.approx(rep.fidelities.min())
    assert rep.omega1s.shape == rep.fidelities.shape


def test_band_mean_weights_edges_by_half():
    rep = RobustnessReport(omega1s=np.array([0.48, 0.49, 0.52]),
                                  fidelities=np.array([1.0, 0.5, 0.0]))
    # trapezoids: 0.01 * (1 + 0.5) / 2 + 0.03 * (0.5 + 0) / 2 over a 0.04 band
    assert rep.band_mean == pytest.approx(0.375, abs=1e-15)


def test_bundled_multiqubit_row_frozen_regression(registers):
    """Frozen measured value for the first bundled conditional-rotation row.

    Its published reference fidelity (0.989) is not reproducible under the
    stated model; the acceptance suite carries that comparison. This pins
    the actual behavior so unintended changes stay visible."""
    h = icspin.multiqubit_hamiltonian(registers)
    seq = icspin.load_sequence(icspin.data_path("sequences/ccrot_n6_a.json"))
    target = icspin.target_library("ccrot:1,180", n_carbons=4)
    rep = robust_fidelity(seq, target, h)
    assert rep.mean == pytest.approx(0.03375, abs=5e-4)
