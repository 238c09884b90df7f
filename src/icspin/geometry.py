"""Point-dipole inversion: hyperfine couplings <-> electron-carbon geometry.

The secular and anisotropic couplings of a carbon at distance r (nm) and
polar angle theta (degrees, from the register z-axis) follow the point
dipole form

    a_zz = f(r) * (3 cos^2 theta - 1)
    a_zx = f(r) * (3 sin theta cos theta)

with f(r) = -(mu0/4pi) * gamma_e * gamma_c * h / r^3 expressed in MHz.
Both directions of the map are provided; the inverse has a closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import HyperfineCoupling

MU0_OVER_4PI = 1e-7            # T m / A
PLANCK_H = 6.62607015e-34      # J s
GAMMA_E = -1.761e11            # rad s^-1 T^-1
GAMMA_C13 = 6.728e7            # rad s^-1 T^-1


class GeometryError(ValueError):
    """No physical (r, theta) reproduces the requested couplings."""


@dataclass(frozen=True)
class DipolarGeometry:
    """Electron-carbon distance r (nm) and polar angle theta (degrees)."""

    r_nm: float
    theta_deg: float

    def __post_init__(self):
        if self.r_nm <= 0:
            raise GeometryError("distance must be positive")
        if not 0.0 <= self.theta_deg <= 180.0:
            raise GeometryError("theta must lie in [0, 180] degrees")


def dipolar_prefactor_mhz(r_nm: float) -> float:
    """f(r) in MHz for a distance in nm; positive, f(1 nm) = 0.1249 MHz."""
    r_m = r_nm * 1e-9
    b = -MU0_OVER_4PI * GAMMA_E * GAMMA_C13 * PLANCK_H / r_m**3  # rad/s scale
    return b / (2 * np.pi) / 1e6


def coupling_from_geometry(geom: DipolarGeometry) -> HyperfineCoupling:
    """Forward map (r, theta) -> (a_zz, a_zx) in MHz."""
    f = dipolar_prefactor_mhz(geom.r_nm)
    th = np.radians(geom.theta_deg)
    return HyperfineCoupling(
        a_zz=f * (3 * np.cos(th) ** 2 - 1),
        a_zx=f * (3 * np.sin(th) * np.cos(th)),
    )


@np.errstate(all="ignore")   # subnormal couplings overflow; the result is checked
def dipolar_geometry(coupling: HyperfineCoupling) -> DipolarGeometry:
    """Invert the point-dipole map.

    The angle comes from the coupling ratio: with u = tan(theta),
    a_zx/a_zz = 3u / (2 - u^2), a quadratic in u. The sign pattern of
    (a_zz, a_zx) picks the branch on [0, 180] degrees; the distance follows
    from the prefactor magnitude.
    """
    azz, azx = coupling.a_zz, coupling.a_zx
    if azz == 0.0 and azx == 0.0:
        raise GeometryError("zero coupling has no geometric preimage")
    f_unit = dipolar_prefactor_mhz(1.0)  # f at r = 1 nm, positive

    if azx == 0.0:
        # axis-aligned (theta 0 or 180) or equatorial (theta 90)
        theta = 0.0 if azz > 0 else np.pi / 2
    elif azz == 0.0:
        magic = np.arccos(np.sqrt(1.0 / 3.0))
        theta = magic if azx > 0 else np.pi - magic
    else:
        rho = azx / azz
        if not np.isfinite(rho):
            raise GeometryError(f"the coupling ratio A_zx / A_zz = {azx:g} / {azz:g} "
                                "is not finite")
        # two roots of rho*u^2 + 3u - 2*rho = 0
        disc = np.sqrt(9 + 8 * rho * rho)
        roots = [(-3 + disc) / (2 * rho), (-3 - disc) / (2 * rho)]
        theta = None
        for u in roots:
            cand = np.arctan(u) if u >= 0 else np.arctan(u) + np.pi
            denom = 3 * np.cos(cand) ** 2 - 1
            if denom * azz > 0 and np.sin(cand) * np.cos(cand) * azx > 0:
                theta = cand
                break
        if theta is None:
            raise GeometryError(
                f"no (r, theta) reproduces the sign pattern ({azz:+g}, {azx:+g})"
            )

    denom = 3 * np.cos(theta) ** 2 - 1
    if abs(denom) > abs(3 * np.sin(theta) * np.cos(theta)):
        f_needed = azz / denom
    else:
        f_needed = azx / (3 * np.sin(theta) * np.cos(theta))
    r = (f_unit / f_needed) ** (1.0 / 3.0)
    if not np.isfinite(r):   # theta is finite wherever rho is
        raise GeometryError(f"the couplings ({azz:+g}, {azx:+g}) give no finite distance")
    return DipolarGeometry(r_nm=float(r), theta_deg=float(np.degrees(theta)))
