"""Carbon quantization-axis structure in the m_S = ±1 electron manifolds.

In each manifold the carbon sees an effective field tilted away from the
register z-axis; the tilt angles and the resulting transition frequencies
determine every analytic result downstream (initialization delays,
spectral line positions, clean-up timing).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ConfigError
from .system import SpinSystemConfig


@dataclass(frozen=True)
class CarbonEigenstructure:
    """Tilt angles (radians, principal arctan branch), transition frequencies
    (MHz) and the four carbon eigenstates of the m_S = ±1 manifolds.

    Eigenstates are columns phi_minus, psi_minus, phi_plus, psi_plus in the
    {|up>, |dn>} basis.
    """

    kappa_minus: float
    kappa_plus: float
    nu_minus: float
    nu_plus: float
    phi_minus: np.ndarray
    psi_minus: np.ndarray
    phi_plus: np.ndarray
    psi_plus: np.ndarray

    @property
    def kappa_minus_deg(self) -> float:
        """Reported tilt magnitude, degrees in [0, 90]."""
        return abs(np.degrees(self.kappa_minus))

    @property
    def kappa_plus_deg(self) -> float:
        return abs(np.degrees(self.kappa_plus))


def _tilt_angle(a_zx: float, denom: float) -> float:
    if denom == 0.0:
        if a_zx == 0.0:
            raise ConfigError("effective field vanishes; quantization axis undefined")
        return np.pi / 2 if a_zx > 0 else -np.pi / 2
    return float(np.arctan(a_zx / denom))


def _pair(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(kappa / 2), np.sin(kappa / 2)
    phi = np.array([c, s], dtype=complex)
    psi = np.array([-s, c], dtype=complex)
    return phi, psi


def carbon_eigenstructure(config: SpinSystemConfig) -> CarbonEigenstructure:
    """Tilt angles, transition frequencies and eigenstates for the single
    carbon of `config`.

    kappa_- uses arctan[a_zx / (a_zz + nu_c)], kappa_+ uses
    arctan[a_zx / (a_zz - nu_c)], both on the principal branch. The signed
    values feed the eigenstate construction; reporting maps them to [0, 90]
    degrees by absolute value.
    """
    c = config.single_carbon()
    kappa_m = _tilt_angle(c.a_zx, c.a_zz + config.nu_c)
    kappa_p = _tilt_angle(c.a_zx, c.a_zz - config.nu_c)
    nu_m = float(np.hypot(c.a_zx, config.nu_c + c.a_zz))
    nu_p = float(np.hypot(c.a_zx, config.nu_c - c.a_zz))
    phi_m, psi_m = _pair(kappa_m)
    phi_p, psi_p = _pair(kappa_p)
    return CarbonEigenstructure(
        kappa_minus=kappa_m,
        kappa_plus=kappa_p,
        nu_minus=nu_m,
        nu_plus=nu_p,
        phi_minus=phi_m,
        psi_minus=psi_m,
        phi_plus=phi_p,
        psi_plus=psi_p,
    )
