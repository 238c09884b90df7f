"""The register Hamiltonian in units of H/2pi (MHz).

``multiqubit_hamiltonian`` is the 2^(n_carbons+1)-dimensional
working-subspace Hamiltonian of the electron pseudo-qubit spanned by
m_S = {0, m_s} and one to four carbons. Every simulated experiment uses it:
m_s = -1 for the gates, scans and spectra, m_s = +1 for the clean-up.

The pseudo-qubit basis orders the electron factor first (|0> then |m_s>),
followed by carbons in ascending label order.
"""
from __future__ import annotations

import numpy as np

from .operators import E2, SX_HALF, SZ_HALF, assert_hermitian, kron_all
from .system import SpinSystemConfig

PROJ_UP = np.diag([1.0, 0.0]).astype(complex)   # electron |0><0|
PROJ_DOWN = np.diag([0.0, 1.0]).astype(complex)  # electron |-1><-1| (or |+1><+1|)


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
