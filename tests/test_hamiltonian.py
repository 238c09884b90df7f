import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icspin
from icspin.hamiltonian import multiqubit_hamiltonian
from icspin.operators import PAULI_X, PAULI_Y, PAULI_Z, on_register
from icspin.propagation import engine_for
from icspin.system import HyperfineCoupling, SpinSystemConfig

from oracles import SX_HALF, SZ_HALF, kronecker_register_hamiltonian

E2 = np.eye(2, dtype=complex)


def herm_residual(h):
    return np.abs(h - h.conj().T).max() / max(np.abs(h).max(), 1.0)


def test_subspace_matches_four_operator_expansion(system):
    """Block assembly equals the equivalent four-operator tensor expansion."""
    c = system.single_carbon()
    nu_c, azz, azx = system.nu_c, c.a_zz, c.a_zx
    ez = SZ_HALF  # electron pseudo-qubit z
    expansion = (
        (-nu_c - azz / 2) * np.kron(E2, SZ_HALF)
        + azz * np.kron(ez, SZ_HALF)
        + azx * np.kron(ez, SX_HALF)
        - (azx / 2) * np.kron(E2, SX_HALF)
    )
    assert np.abs(multiqubit_hamiltonian(system) - expansion).max() < 1e-12


def test_subspace_diagonal_when_no_transverse_coupling():
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-0.2, 0.0),))
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


def _fresh_lines(h):
    """(offset, weight) sticks from one eigh of the whole `h`, a projector
    mask for the lower manifold and a double loop over eigenstate pairs."""
    half = h.shape[0] // 2
    w, v = np.linalg.eigh(h)
    p0 = np.real(np.einsum("ij,jk,ki->i", v.conj().T, np.kron(np.diag([1.0, 0]), np.eye(half)), v))
    lower = np.where(p0 > 0.5)[0]
    upper = np.where(p0 <= 0.5)[0]
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(half)).astype(complex)
    fresh = []
    for i in lower:
        for f in upper:
            wgt = abs(v[:, f].conj() @ flip @ v[:, i]) ** 2
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
    production path equal those computed here from scratch, on 1-4 carbons."""
    for h in register_hamiltonians.values():
        lines = icspin.esr_lines(h)
        fresh = _fresh_lines(h)
        assert np.allclose(sorted(p for p, _ in lines), [p for p, _ in fresh], atol=1e-10)
        ours = _weight_per_line(lines)
        ref = _weight_per_line(fresh)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() < 1e-12


def test_m_s_must_pick_a_partner_manifold(system):
    with pytest.raises(ValueError, match="m_s must be -1 or"):
        multiqubit_hamiltonian(system, m_s=0)


@pytest.mark.parametrize("m_s", [True, False, -1.0, 1.0, 2, -2, "1", None])
def test_m_s_is_an_integer(system, m_s):
    """True built the m_s = +1 Hamiltonian and -1.0 passed as -1."""
    with pytest.raises(ValueError, match="m_s must be"):
        multiqubit_hamiltonian(system, m_s=m_s)


def test_m_s_takes_numpy_integers(system):
    for m_s in (-1, 1):
        assert np.array_equal(multiqubit_hamiltonian(system, np.int64(m_s)),
                              multiqubit_hamiltonian(system, m_s))


def test_upper_manifold_block_structure(system):
    h = multiqubit_hamiltonian(system, m_s=+1)
    c = system.single_carbon()
    expected_upper = -(system.nu_c - c.a_zz) * SZ_HALF + c.a_zx * SX_HALF
    assert np.abs(h[2:, 2:] - expected_upper).max() < 1e-12
    assert np.abs(h[:2, :2] - (-system.nu_c * SZ_HALF)).max() < 1e-12


@pytest.mark.parametrize("m_s", [-1, 1])
@pytest.mark.parametrize("name", ["system_2q.json", "system_4c.json"])
def test_bundled_registers_equal_the_kronecker_sum_byte_for_byte(name, m_s):
    """Every leading subset of each bundled register, as the CLI builds it."""
    cfg = icspin.load_system(icspin.data_path(name))
    for k in range(1, cfg.n_carbons + 1):
        sub = cfg.subset(list(range(1, k + 1)))
        h = multiqubit_hamiltonian(sub, m_s)
        assert h.dtype == np.complex128
        assert h.tobytes() == kronecker_register_hamiltonian(sub, m_s).tobytes()


_coupling = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_hyperfine = st.one_of(st.just(0.0), _coupling)


@st.composite
def _registers(draw):
    pairs = draw(st.lists(st.tuples(_hyperfine, _hyperfine).filter(lambda p: p != (0.0, 0.0)),
                          min_size=1, max_size=4))
    carbons = tuple(HyperfineCoupling(a_zz, a_zx) for a_zz, a_zx in pairs)
    return SpinSystemConfig(2870.0, draw(st.floats(1e-3, 2.0)), carbons)


@settings(max_examples=60, deadline=None)
@given(_registers(), st.sampled_from([-1, 1]))
def test_index_placement_equals_the_kronecker_sum(cfg, m_s):
    """1-4 carbons, with zero a_zz or a_zx components."""
    assert np.array_equal(multiqubit_hamiltonian(cfg, m_s), kronecker_register_hamiltonian(cfg, m_s))


@settings(max_examples=60, deadline=None)
@given(_registers(), st.sampled_from([-1, 1]), st.floats(0.0, 3.0))
def test_the_driven_register_is_chirally_antisymmetric(cfg, m_s, omega1):
    """S H S^dag = -H for S = sigma_z ⊗ sigma_y ⊗ ... ⊗ sigma_y and the
    driven H = h + omega1 s_x ⊗ E: S keeps the electron projectors, flips
    the electron's s_x and each carbon's s_x and s_z. So every drive
    Hamiltonian's eigenvalues come in +- pairs. No code uses this yet."""
    n = cfg.n_carbons
    s = on_register(PAULI_Z, n, dict.fromkeys(range(1, n + 1), PAULI_Y))
    h = multiqubit_hamiltonian(cfg, m_s)
    driven = h + omega1 * on_register(PAULI_X / 2, n)
    scale = np.abs(driven).max()
    assert np.abs(s @ driven @ s.conj().T + driven).max() <= 1e-12 * scale
    w_p = engine_for(h, [omega1]).w_p
    assert np.abs(w_p + w_p[:, ::-1]).max() <= 1e-12 * scale
