import numpy as np
import pytest

import icspin
from icspin.hamiltonian import lab_hamiltonian, multiqubit_hamiltonian
from icspin.operators import SX_HALF, SZ_HALF, kron_all
from icspin.states import basis_state, density_matrix
from icspin.system import HyperfineCoupling, SpinSystemConfig

E2 = np.eye(2, dtype=complex)

NU_MINUS = np.hypot(0.110, 0.158 - 0.152)  # reference-register value


def herm_residual(h):
    return np.abs(h - h.conj().T).max() / max(np.abs(h).max(), 1.0)


def test_lab_hamiltonian_hermitian(system):
    h = lab_hamiltonian(system)
    assert h.shape == (6, 6)
    assert herm_residual(h) < 1e-12


def test_lab_hamiltonian_lower_manifold_splitting(system):
    """The carbon splitting inside the m_S = -1 block is the tilted
    transition frequency near 0.110 MHz."""
    h = lab_hamiltonian(system)
    block = h[4:, 4:]
    evals = np.linalg.eigvalsh(block)
    assert evals[1] - evals[0] == pytest.approx(NU_MINUS, abs=1e-12)
    assert NU_MINUS == pytest.approx(0.110, abs=1e-3)


def test_lab_hamiltonian_decoupled_limit():
    cfg = SpinSystemConfig(2870.0, -414.0, 0.158, -2.16, (HyperfineCoupling(1e-30, 0.0),))
    h = lab_hamiltonian(cfg)
    # eigenvalues per electron projection: D m^2 - (nu_e - a_n) m -+ nu_c/2
    expected = []
    for m in (1, 0, -1):
        for sign in (-1, +1):
            expected.append(2870.0 * m * m - (-414.0 + 2.16) * m + sign * 0.158 / 2)
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), sorted(expected), atol=1e-9)


def test_lab_hamiltonian_esr_transitions_match_subspace(system):
    """Eigen-differences of the lab m_S = {0,-1} blocks reproduce the four
    working-subspace transitions."""
    h = lab_hamiltonian(system)
    lab0 = np.linalg.eigvalsh(h[2:4, 2:4])
    labm = np.linalg.eigvalsh(h[4:6, 4:6])
    lab_diffs = sorted((em - e0) for em in labm for e0 in lab0)
    hs = multiqubit_hamiltonian(system)
    sub0 = np.linalg.eigvalsh(hs[:2, :2])
    subm = np.linalg.eigvalsh(hs[2:, 2:])
    sub_diffs = sorted((em - e0) for em in subm for e0 in sub0)
    offset = 2870.0 + (-414.0 + 2.16)  # electron transition absorbed by the frame
    assert np.allclose(np.array(lab_diffs) - offset, sub_diffs, atol=1e-9)


def test_subspace_matches_four_operator_expansion(system):
    """Block assembly equals the equivalent four-operator tensor expansion."""
    c = system.single_carbon()
    nu_c, azz, azx = system.nu_c, c.a_zz, c.a_zx
    ez = SZ_HALF  # electron pseudo-qubit z
    expansion = (
        (-nu_c - azz / 2) * kron_all(E2, SZ_HALF)
        + azz * kron_all(ez, SZ_HALF)
        + azx * kron_all(ez, SX_HALF)
        - (azx / 2) * kron_all(E2, SX_HALF)
    )
    assert np.abs(multiqubit_hamiltonian(system) - expansion).max() < 1e-12


def test_subspace_diagonal_when_no_transverse_coupling():
    cfg = SpinSystemConfig(2870.0, -414.0, 0.158, -2.16, (HyperfineCoupling(-0.2, 0.0),))
    h = multiqubit_hamiltonian(cfg)
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-15


def test_subspace_lower_block_gap(system):
    h = multiqubit_hamiltonian(system)
    evals = np.linalg.eigvalsh(h[2:, 2:])
    assert evals[1] - evals[0] == pytest.approx(0.1102, abs=2e-4)


def test_multiqubit_dimensions_and_hermiticity(registers):
    h = multiqubit_hamiltonian(registers)
    assert h.shape == (32, 32)
    assert herm_residual(h) < 1e-12


def test_multiqubit_upper_block_eigenvalues(registers):
    """The electron-|0> block is a sum of independent carbon Zeeman terms,
    so its eigenvalues are all signed half-sums of nu_c."""
    h = multiqubit_hamiltonian(registers)
    block = h[:16, :16]
    nu_c = registers.nu_c
    expected = []
    for k in range(16):
        signs = [1 if (k >> b) & 1 else -1 for b in range(4)]
        expected.append(-nu_c / 2 * sum(signs))
    assert np.allclose(sorted(np.linalg.eigvalsh(block)), sorted(expected), atol=1e-12)


def _fresh_lines(h, rho=None):
    """(offset, weight) sticks from one eigh of the whole `h`, a projector
    mask for the lower manifold and a double loop over eigenstate pairs."""
    half = h.shape[0] // 2
    w, v = np.linalg.eigh(h)
    p0 = np.real(np.einsum("ij,jk,ki->i", v.conj().T, np.kron(np.diag([1.0, 0]), np.eye(half)), v))
    pops = None if rho is None else np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho, v))
    lower = np.where(p0 > 0.5)[0]
    upper = np.where(p0 <= 0.5)[0]
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(half)).astype(complex)
    fresh = []
    for i in lower:
        for f in upper:
            wgt = abs(v[:, f].conj() @ flip @ v[:, i]) ** 2
            if pops is not None:
                wgt *= max(pops[i] - pops[f], 0.0)
            if wgt > 1e-12:
                fresh.append((w[f] - w[i], wgt))
    return sorted(fresh)


def _weight_per_line(lines, tol=1e-9):
    """Summed weight of each distinct line position.

    How weight splits among degenerate transitions depends on the
    eigensolver's basis; the sum over a line does not."""
    summed = []
    for p, wgt in sorted(lines):
        if summed and p - summed[-1][0] < tol:
            summed[-1][1] += wgt
        else:
            summed.append([p, wgt])
    return np.array(summed)


def test_multiqubit_stick_positions_against_fresh_diagonalization(register_hamiltonians):
    """Line offsets and the summed weight of each distinct line from the
    production path equal those computed here from scratch, on 1-4 carbons,
    with and without population weighting. Each weighting state gives equal
    populations to degenerate eigenstates, so its weights do not depend on
    the eigenbasis either: the polarized |0,up..up> (a non-degenerate
    eigenstate), the electron polarized with unpolarized carbons, and a
    Gibbs state of h, whose population differences change sign from line to
    line."""
    for h in register_hamiltonians.values():
        d = h.shape[0]
        lines = icspin.esr_lines(h)
        fresh = _fresh_lines(h)
        assert np.allclose(sorted(p for p, _ in lines), [p for p, _ in fresh], atol=1e-10)
        w, v = np.linalg.eigh(h)
        gibbs = (v * np.exp(-20.0 * w)) @ v.conj().T
        for rho in (None, density_matrix(basis_state(0, d)),
                    np.kron(np.diag([1.0, 0.0]), np.eye(d // 2) / (d // 2)),
                    gibbs / np.trace(gibbs).real):
            ours = _weight_per_line(icspin.esr_lines(h, rho))
            ref = _weight_per_line(_fresh_lines(h, rho))
            assert ours.shape == ref.shape
            assert np.abs(ours - ref).max() < 1e-12


def test_upper_manifold_block_structure(system):
    h = multiqubit_hamiltonian(system, m_s=+1)
    c = system.single_carbon()
    expected_upper = -(system.nu_c - c.a_zz) * SZ_HALF + c.a_zx * SX_HALF
    assert np.abs(h[2:, 2:] - expected_upper).max() < 1e-12
    assert np.abs(h[:2, :2] - (-system.nu_c * SZ_HALF)).max() < 1e-12


def test_lab_requires_single_carbon(registers):
    with pytest.raises(Exception):
        lab_hamiltonian(registers)
