import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icspin.geometry import (
    DipolarGeometry,
    GeometryError,
    coupling_from_geometry,
    dipolar_geometry,
)
from icspin.system import HyperfineCoupling


def test_reference_couplings_invert_to_published_geometry(system):
    geom = dipolar_geometry(system.single_carbon())
    assert geom.r_nm == pytest.approx(0.8924, abs=0.01)
    assert geom.theta_deg == pytest.approx(78.0, abs=1.0)


def test_forward_map_reproduces_reference_couplings():
    geom = DipolarGeometry(r_nm=0.8924, theta_deg=78.0)
    c = coupling_from_geometry(geom)
    assert c.a_zz == pytest.approx(-0.152, abs=0.004)
    assert c.a_zx == pytest.approx(0.110, abs=0.004)


def test_equatorial_case():
    c = HyperfineCoupling(a_zz=-0.2, a_zx=0.0)
    geom = dipolar_geometry(c)
    assert geom.theta_deg == pytest.approx(90.0, abs=1e-9)
    back = coupling_from_geometry(geom)
    assert back.a_zz == pytest.approx(-0.2, rel=1e-9)


def test_axial_case():
    c = HyperfineCoupling(a_zz=0.3, a_zx=0.0)
    geom = dipolar_geometry(c)
    assert geom.theta_deg == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.3, 5.0),
    theta=st.floats(0.5, 179.5),
)
def test_roundtrip_property(r, theta):
    geom = DipolarGeometry(r_nm=r, theta_deg=theta)
    c = coupling_from_geometry(geom)
    if abs(c.a_zz) < 1e-12 and abs(c.a_zx) < 1e-12:
        return  # magic-angle corner: couplings vanish, preimage undefined
    back = dipolar_geometry(c)
    assert back.r_nm == pytest.approx(r, rel=1e-9)
    assert back.theta_deg == pytest.approx(theta, rel=1e-9, abs=1e-9)


def test_zero_coupling_rejected_by_geometry():
    with pytest.raises(Exception):
        dipolar_geometry(HyperfineCoupling(0.0, 0.0))


def test_invalid_geometry_values():
    with pytest.raises(GeometryError):
        DipolarGeometry(r_nm=-1.0, theta_deg=10.0)
    with pytest.raises(GeometryError):
        DipolarGeometry(r_nm=1.0, theta_deg=200.0)


@pytest.mark.parametrize("a_zz,a_zx", [(5e-324, 0.11), (1e-320, 0.0), (-0.152, 1e-320)],
                         ids=["infinite_ratio", "infinite_distance", "subnormal_a_zx"])
def test_subnormal_coupling_has_no_finite_geometry(a_zz, a_zx):
    """A subnormal coupling overflowed the ratio A_zx / A_zz or the distance."""
    with pytest.raises(GeometryError):
        dipolar_geometry(HyperfineCoupling(a_zz, a_zx))
