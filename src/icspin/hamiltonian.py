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

from .operators import assert_hermitian, check_count
from .system import SpinSystemConfig


def multiqubit_hamiltonian(config: SpinSystemConfig, m_s: int = -1) -> np.ndarray:
    """Working-subspace Hamiltonian for 1..4 carbons, dimension 2^(n_carbons+1).

    Each carbon contributes its own |0>- and |m_S>-conditioned term acting on
    its tensor slot. `m_s` selects the partner of m_S = 0 (-1 or +1); with
    one carbon the basis is {|0,up>, |0,dn>, |m_s,up>, |m_s,dn>}.

    The terms are placed by index: the carbon of slot k is bit 2^(n-1-k) of a
    basis index (clear for up), so its s_z term sits on the diagonal and its
    |m_S> a_zx s_x term at (i, i ^ bit) in the |m_S> block. Summed in slot
    order, the entries equal the Kronecker sum's bit for bit.
    """
    m_s = check_count(m_s, "m_s", -1, high=1, error=ValueError)
    if m_s == 0:
        raise ValueError("m_s must be -1 or +1, got 0")
    n = config.n_carbons
    dim = 2 ** (n + 1)
    rows = np.arange(dim)
    lower = rows[dim // 2:]
    h = np.zeros((dim, dim), dtype=complex)
    for slot, c in enumerate(config.carbons):
        bit = 2 ** (n - 1 - slot)
        sz = np.where(rows & bit, -0.5, 0.5)
        nu = np.where(rows < dim // 2, -config.nu_c, -(config.nu_c - m_s * c.a_zz))
        h[rows, rows] += nu * sz
        h[lower, lower ^ bit] += m_s * c.a_zx * 0.5
    assert_hermitian(h)
    return h
