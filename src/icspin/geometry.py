"""Point-dipole inversion: hyperfine couplings <-> electron-carbon geometry.

The secular and anisotropic couplings of a carbon at distance r (nm) and
polar angle theta (degrees, from the register z-axis) follow the point
dipole form

    a_zz = f(r) * (3 cos^2 theta - 1)
    a_zx = f(r) * (3 sin theta cos theta)

with f(r) = -(mu0/4pi) * gamma_e * gamma_c * h / r^3 expressed in MHz.
Both directions of the map are provided; the inverse is closed form and
unique with theta in [0, 180) degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ConfigError, check_real
from .system import HyperfineCoupling

MU0_OVER_4PI = 1e-7            # T m / A
PLANCK_H = 6.62607015e-34      # J s
GAMMA_E = -1.761e11            # rad s^-1 T^-1
GAMMA_C13 = 6.728e7            # rad s^-1 T^-1


@dataclass(frozen=True)
class DipolarGeometry:
    """Electron-carbon distance r (nm) and polar angle theta (degrees)."""

    r_nm: float
    theta_deg: float

    def __post_init__(self):
        object.__setattr__(self, "r_nm", check_real(self.r_nm, "r_nm", 0.0, np.inf, "()"))
        object.__setattr__(self, "theta_deg", check_real(self.theta_deg, "theta_deg", 0.0, 180.0))


@np.errstate(over="ignore", under="ignore")   # the prefactor is checked
def dipolar_prefactor_mhz(r_nm: float) -> float:
    """f(r) in MHz for a distance in nm; positive, f(1 nm) = 0.1249 MHz.

    r is split exactly as m 2^e and f(r) = f(m) 2^(-3e), so r^3 cannot
    underflow; a distance that is not positive and finite, or whose f(r)
    leaves the float range, raises ConfigError.
    """
    r_nm = check_real(r_nm, "r_nm", 0.0, np.inf, "()")
    m, e = np.frexp(r_nm)
    b = -MU0_OVER_4PI * GAMMA_E * GAMMA_C13 * PLANCK_H / (m * 1e-9) ** 3  # rad/s scale
    f = np.ldexp(b / (2 * np.pi) / 1e6, -3 * e)
    if not 0.0 < f < np.inf:
        raise ConfigError(f"r_nm = {r_nm!r} gives a prefactor outside the float range")
    return float(f)


@np.errstate(over="ignore", under="ignore")   # the couplings are checked
def coupling_from_geometry(geom: DipolarGeometry) -> HyperfineCoupling:
    """Forward map (r, theta) -> (a_zz, a_zx) in MHz.

    r is split exactly as m 2^e and f(r) = f(m) 2^(-3e), so r^3 cannot
    underflow; a geometry whose couplings leave the float range is refused.
    """
    m, e = np.frexp(geom.r_nm)
    f = dipolar_prefactor_mhz(m)
    th = np.radians(geom.theta_deg)
    azz = np.ldexp(f * (3 * np.cos(th) ** 2 - 1), -3 * e)
    azx = np.ldexp(f * (3 * np.sin(th) * np.cos(th)), -3 * e)
    if not (np.isfinite(azz) and np.isfinite(azx)) or azz == azx == 0.0:
        raise ConfigError(f"r_nm = {geom.r_nm!r} gives couplings outside the float range")
    return HyperfineCoupling(a_zz=azz, a_zx=azx)


@np.errstate(all="ignore")   # subnormal couplings give no finite r; it is checked
def dipolar_geometry(coupling: HyperfineCoupling) -> DipolarGeometry:
    """Invert the point-dipole map in closed form.

    With u = 1/f(r) the map reads 2 a_zz u - 1 = 3 cos 2theta and
    2 a_zx u = 3 sin 2theta, so R^2 u^2 - a_zz u - 2 = 0 with
    R^2 = a_zz^2 + a_zx^2. Its one positive root is

        u = (a_zz + sqrt(a_zz^2 + 8 R^2)) / (2 R^2),

    and then r = (f(1 nm) u)^(1/3) and
    theta = atan2(2 a_zx u, 2 a_zz u - 1) / 2 mod 180 degrees. Every
    non-zero coupling has exactly this one preimage with theta in [0, 180).
    Root and angle are taken on the couplings scaled exactly by the power
    of two that brings the larger to [0.5, 1), where a_zz u is zz times the
    scaled root, so neither R^2 nor 2 a_zx u can overflow; only couplings
    so small that u overflows (subnormal ones) have no finite r.
    """
    azz, azx = np.float64(coupling.a_zz), np.float64(coupling.a_zx)
    e = np.frexp(max(abs(azz), abs(azx)))[1]
    zz, zx = np.ldexp(azz, -e), np.ldexp(azx, -e)
    r2 = zz * zz + zx * zx
    root = (zz + np.sqrt(zz * zz + 8 * r2)) / (2 * r2)
    r = (dipolar_prefactor_mhz(1.0) * np.ldexp(root, -e)) ** (1.0 / 3.0)
    if not np.isfinite(r):
        raise ConfigError(f"the couplings ({azz:+g}, {azx:+g}) give no finite distance")
    theta = np.arctan2(2 * zx * root, 2 * zz * root - 1) / 2 % np.pi
    return DipolarGeometry(r_nm=float(r), theta_deg=float(np.degrees(theta)))
