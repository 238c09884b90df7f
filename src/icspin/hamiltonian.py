"""Register Hamiltonians in units of H/2pi (MHz).

Two builders cover the register geometries used throughout:

* ``lab_hamiltonian`` -- full 6x6 secular Hamiltonian of the spin-1 electron
  coupled to one carbon (nitrogen fixed in m_N = 1).
* ``multiqubit_hamiltonian`` -- the 2^(n_carbons+1)-dimensional
  working-subspace Hamiltonian of the electron pseudo-qubit spanned by
  m_S = {0, m_s} and one to four carbons. Every simulated experiment uses
  it: m_s = -1 for the gates, scans and spectra, m_s = +1 for the clean-up.

The pseudo-qubit basis orders the electron factor first (|0> then |m_s>),
followed by carbons in ascending label order.
"""
from __future__ import annotations

import numpy as np

from .operators import (
    E2,
    E3,
    SX_HALF,
    SZ_HALF,
    SZ_ONE,
    assert_hermitian,
    kron_all,
)
from .system import SpinSystemConfig

PROJ_UP = np.diag([1.0, 0.0]).astype(complex)   # electron |0><0|
PROJ_DOWN = np.diag([0.0, 1.0]).astype(complex)  # electron |-1><-1| (or |+1><+1|)


def lab_hamiltonian(config: SpinSystemConfig) -> np.ndarray:
    """6x6 lab-frame Hamiltonian, electron spin-1 ⊗ one carbon, in MHz.

    Basis: {|+1,up>, |+1,dn>, |0,up>, |0,dn>, |-1,up>, |-1,dn>}.
    """
    c = config.single_carbon()
    iz = SZ_HALF
    ix = SX_HALF
    h = (
        config.d * kron_all(SZ_ONE @ SZ_ONE, E2)
        - (config.nu_e - config.a_n) * kron_all(SZ_ONE, E2)
        - config.nu_c * kron_all(E3, iz)
        + c.a_zz * kron_all(SZ_ONE, iz)
        + c.a_zx * kron_all(SZ_ONE, ix)
    )
    assert_hermitian(h)
    return h


def multiqubit_hamiltonian(config: SpinSystemConfig, m_s: int = -1) -> np.ndarray:
    """Working-subspace Hamiltonian for 1..4 carbons, dimension 2^(n_carbons+1).

    Each carbon contributes its own |0>- and |m_S>-conditioned term acting on
    its tensor slot. `m_s` selects the partner of m_S = 0 (-1 or +1); with
    one carbon the basis is {|0,up>, |0,dn>, |m_s,up>, |m_s,dn>}.
    """
    if m_s not in (-1, 1):
        raise ValueError("m_s must be -1 or +1")
    n = config.n_carbons
    dim = 2 ** (n + 1)
    h = np.zeros((dim, dim), dtype=complex)
    for slot, c in enumerate(config.carbons):
        ops0 = [PROJ_UP] + [E2] * n
        opsm = [PROJ_DOWN] + [E2] * n
        ops0[slot + 1] = -config.nu_c * SZ_HALF
        opsm[slot + 1] = -(config.nu_c - m_s * c.a_zz) * SZ_HALF + m_s * c.a_zx * SX_HALF
        h += kron_all(*ops0) + kron_all(*opsm)
    assert_hermitian(h)
    return h
