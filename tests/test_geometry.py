import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icspin.geometry import (
    DipolarGeometry,
    coupling_from_geometry,
    dipolar_geometry,
    dipolar_prefactor_mhz,
)
from icspin.operators import ConfigError
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
    with pytest.raises(ConfigError):
        DipolarGeometry(r_nm=-1.0, theta_deg=10.0)
    with pytest.raises(ConfigError):
        DipolarGeometry(r_nm=1.0, theta_deg=200.0)


@pytest.mark.parametrize("r_nm", [math.nan, math.inf])
def test_non_finite_distance_rejected(r_nm):
    """A NaN distance was accepted, and the forward map turned it into a
    NaN coupling."""
    with pytest.raises(ConfigError, match="r_nm"):
        DipolarGeometry(r_nm=r_nm, theta_deg=10.0)


# 0, -0.0 or a signed magnitude from 1e-12 to 1e6 MHz: a ratio of up to 1e18
coupling_component = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 6.0)),
)


@settings(max_examples=500, deadline=None)
@given(a_zz=coupling_component, a_zx=coupling_component)
@example(a_zz=0.152, a_zx=1e-9)   # near-axial, about (1.1802 nm, 2.5e-7 degrees)
@example(a_zz=1e-300, a_zx=0.11)  # near the magic angle
@example(a_zz=252.32313434172946, a_zx=2.6601018692215267e-06)   # components 1e8 apart
@example(a_zz=1e160, a_zx=1.0)         # R^2 overflows unscaled; r = 2.92e-54 nm
@example(a_zz=-1e200, a_zx=3e199)
@example(a_zz=1e-200, a_zx=1e-200)     # R^2 underflows unscaled; r = 2.52e66 nm
@example(a_zz=1e300, a_zx=1e300)       # r^3 underflows unscaled; r = 5.43e-101 nm
@example(a_zz=-1e308, a_zx=1e307)      # u is subnormal unscaled; theta = 88.095
@example(a_zz=1.7e308, a_zx=1.7e308)   # 2 a_zz overflows unscaled; theta = 29.317
def test_every_coupling_inverts_to_its_geometry(a_zz, a_zx):
    """Each non-zero coupling has one preimage with theta in [0, 180), however
    far apart its components are."""
    assume(a_zz != 0.0 or a_zx != 0.0)
    geom = dipolar_geometry(HyperfineCoupling(a_zz, a_zx))
    assert 0.0 <= geom.theta_deg <= 180.0
    back = coupling_from_geometry(geom)
    tol = 2e-12 * math.hypot(a_zz / 2, a_zx / 2)   # the same bound, finite up to 1.8e308
    assert abs(back.a_zz - a_zz) <= tol
    assert abs(back.a_zx - a_zx) <= tol


@pytest.mark.parametrize("tiny,limit,theta_deg", [
    ((5e-324, 0.11), (0.0, 0.11), 54.7356),
    ((-0.152, 1e-320), (-0.152, 0.0), 90.0),
], ids=["tiny_a_zz", "tiny_a_zx"])
def test_tiny_component_gives_the_geometry_of_its_zero_limit(tiny, limit, theta_deg):
    """A subnormal component overflowed the ratio A_zx / A_zz; its geometry
    is the magic-angle or equatorial one of the zero it nearly is."""
    geom = dipolar_geometry(HyperfineCoupling(*tiny))
    want = dipolar_geometry(HyperfineCoupling(*limit))
    assert want.theta_deg == pytest.approx(theta_deg, abs=1e-4)
    assert geom.r_nm == pytest.approx(want.r_nm, rel=1e-12, abs=0.0)
    assert geom.theta_deg == pytest.approx(want.theta_deg, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a_zz,a_zx", [(1e-320, 0.0), (1e-320, 1e-320)],
                         ids=["infinite_distance", "both_squares_underflow"])
def test_subnormal_coupling_has_no_finite_geometry(a_zz, a_zx):
    """Subnormal couplings give a distance past the float range."""
    with pytest.raises(ConfigError, match="no finite distance"):
        dipolar_geometry(HyperfineCoupling(a_zz, a_zx))


@pytest.mark.parametrize("r_nm", [1e-104, 1e-200, 1e300], ids=["overflow", "far_overflow", "underflow"])
def test_geometry_past_the_float_range_is_refused(r_nm):
    """r^3 underflowed to zero and the forward map divided by it; now a
    distance whose couplings leave the float range is named."""
    with pytest.raises(ConfigError, match="r_nm"):
        coupling_from_geometry(DipolarGeometry(r_nm=r_nm, theta_deg=30.0))


@pytest.mark.parametrize("r_nm,want", [
    (1e-100, 1.2494575332046197e299), (0.0, None), (-1.0, None), (math.nan, None),
    (1e-104, None), (1e200, None),
], ids=["tiny", "zero", "negative", "nan", "overflow", "underflow"])
def test_prefactor_is_positive_or_refused(r_nm, want):
    """r^3 underflowed to zero, overflowed or went negative; now f(r) is
    taken on the exact split of r, and a distance with no positive finite
    f(r) is named."""
    if want is None:
        with pytest.raises(ConfigError, match="r_nm"):
            dipolar_prefactor_mhz(r_nm)
    else:
        assert dipolar_prefactor_mhz(r_nm) == pytest.approx(want, rel=1e-12)
