import numpy as np
import pytest

from icspin.eigenstructure import carbon_eigenstructure
from icspin.hamiltonian import multiqubit_hamiltonian
from icspin.operators import ConfigError
from icspin.system import HyperfineCoupling, SpinSystemConfig


def test_reference_tilt_angle(system):
    eig = carbon_eigenstructure(system)
    assert 86.0 <= eig.kappa_minus_deg <= 87.0


def test_reference_transition_frequency(system):
    eig = carbon_eigenstructure(system)
    assert eig.nu_minus == pytest.approx(0.110, abs=1e-3)
    # exact identity, as computed
    c = system.single_carbon()
    assert eig.nu_minus == np.hypot(c.a_zx, system.nu_c + c.a_zz)


def test_eigenvectors_diagonalize_blocks(system):
    """Every (state, frequency) pair satisfies the 2x2 eigenproblem of its
    manifold block to 1e-10."""
    eig = carbon_eigenstructure(system)
    h_minus = multiqubit_hamiltonian(system)[2:, 2:]
    h_plus = multiqubit_hamiltonian(system, m_s=+1)[2:, 2:]
    for h, states in ((h_minus, (eig.phi_minus, eig.psi_minus)),
                      (h_plus, (eig.phi_plus, eig.psi_plus))):
        for v in states:
            lam = np.real(v.conj() @ h @ v)
            assert np.linalg.norm(h @ v - lam * v) < 1e-10


def test_eigenstates_orthonormal(system):
    eig = carbon_eigenstructure(system)
    for a, b in ((eig.phi_minus, eig.psi_minus), (eig.phi_plus, eig.psi_plus)):
        assert abs(np.vdot(a, b)) < 1e-12
        assert abs(np.linalg.norm(a) - 1) < 1e-12
        assert abs(np.linalg.norm(b) - 1) < 1e-12


def test_zero_transverse_coupling_gives_bare_states():
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-0.4, 0.0),))
    eig = carbon_eigenstructure(cfg)
    assert eig.kappa_minus == 0.0
    assert np.allclose(eig.phi_minus, [1, 0])
    assert np.allclose(eig.psi_minus, [0, 1])


def test_degenerate_block_raises():
    # a_zz + nu_c = 0 and a_zx = 0 leaves the lower manifold with no field
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-0.158, 0.0),))
    with pytest.raises(ConfigError):
        carbon_eigenstructure(cfg)


def test_upper_manifold_angle_is_principal_branch(system):
    """The printed-arctan convention puts kappa_+ near -19.5 degrees for the
    reference couplings; the reported magnitude stays in [0, 90]."""
    eig = carbon_eigenstructure(system)
    assert eig.kappa_plus == pytest.approx(np.arctan(0.110 / (-0.152 - 0.158)), abs=1e-12)
    assert 0.0 <= eig.kappa_plus_deg <= 90.0
    assert eig.kappa_plus_deg == pytest.approx(19.54, abs=0.05)
