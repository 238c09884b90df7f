import json

import numpy as np
import pytest

from icspin.operators import assert_hermitian
from icspin.system import (
    MAX_CONFIG_VALUE,
    ConfigError,
    HyperfineCoupling,
    SpinSystemConfig,
    data_path,
    load_system,
    system_from_dict,
)


def test_default_system_values(system):
    assert system.d == 2870.0
    assert system.nu_c == 0.158
    assert system.n_carbons == 1
    c = system.single_carbon()
    assert (c.a_zz, c.a_zx) == (-0.152, 0.110)


def test_registers_couplings_are_scaled(registers):
    base = registers.carbons[0]
    assert registers.n_carbons == 4
    for c, factor in zip(registers.carbons, (1.0, 1.5, 2.0 / 3.0, 2.5)):
        assert c.a_zz == pytest.approx(base.a_zz * factor, rel=1e-12)
        assert c.a_zx == pytest.approx(base.a_zx * factor, rel=1e-12)


def test_zero_coupling_rejected():
    with pytest.raises(ConfigError):
        HyperfineCoupling(0.0, 0.0)


def test_negative_nu_c_rejected():
    with pytest.raises(ConfigError, match=r"nu_C_MHz must be finite and in \(0, 1e\+06\]"):
        SpinSystemConfig(2870.0, -0.158, (HyperfineCoupling(-0.1, 0.1),))


@pytest.mark.parametrize("d", [float("nan"), -5.0, 0.0, float("inf")])
def test_zero_field_splitting_must_be_positive(d):
    """A D that is not positive was accepted, and ``verify`` then blamed the
    drive amplitude against it; the register refuses it, naming D_MHz. An
    infinite D, which documents cap, was accepted from library callers."""
    with pytest.raises(ConfigError, match=r"D_MHz must be finite and in \(0, 1e\+06\]"):
        SpinSystemConfig(d, 0.158, (HyperfineCoupling(-0.152, 0.110),))


def test_nan_registers_are_refused_where_they_are_made():
    """A library caller's non-finite coupling, NaN Larmor frequency or NaN
    matrix is refused at once, not in ``eigh`` later."""
    nan, inf = float("nan"), float("inf")
    for a_zz, a_zx in ((nan, 0.1), (-0.152, nan), (inf, 0.1), (-0.152, -inf)):
        with pytest.raises(ConfigError, match="must be finite"):
            HyperfineCoupling(a_zz, a_zx)
    for nu_c in (nan, inf):   # inf made the Hamiltonian builder find a NaN residual
        with pytest.raises(ConfigError, match=r"nu_C_MHz must be finite and in \(0, 1e\+06\]"):
            SpinSystemConfig(2870.0, nu_c, (HyperfineCoupling(-0.152, 0.110),))
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(np.array([[0.0, nan], [nan, 0.0]]))


def test_carbon_count_limits():
    c = tuple(HyperfineCoupling(-0.1, 0.1) for _ in range(5))
    with pytest.raises(ConfigError, match="^number of carbons must be at most 4, got 5"):
        SpinSystemConfig(2870.0, 0.158, c)
    with pytest.raises(ConfigError, match="^number of carbons must be an integer >= 1, got 0"):
        SpinSystemConfig(2870.0, 0.158, ())


def test_a_document_past_the_carbon_budget_is_refused_before_any_carbon_is_read(monkeypatch):
    """The reader counts the carbons first: 100,000 of them took about 0.5 s
    to refuse, each built and checked before the register counted them."""
    def no_carbon(*args):
        raise AssertionError("a carbon was built")

    monkeypatch.setattr("icspin.system.HyperfineCoupling", no_carbon)
    doc = json.loads(data_path("system_2q.json").read_text())
    doc["carbons"] *= 100_000
    with pytest.raises(ConfigError, match="^number of carbons must be at most 4, got 100000$"):
        system_from_dict(doc)


@pytest.mark.parametrize("omega1", [2870.0, 1e308, -0.1, float("nan")])
def test_drive_amplitude_must_lie_below_d(system, omega1):
    """The driven working subspace exists for 0 <= omega1 < D = 2870 MHz."""
    system.check_drive_amplitude(0.0)
    system.check_drive_amplitude(2869.0)
    with pytest.raises(ConfigError,
                       match=r"grid max \(below D_MHz\) must be finite and in \[0, 2870\)"):
        system.check_drive_amplitude(omega1, "grid max")


def test_single_carbon_requires_one(registers):
    with pytest.raises(ConfigError):
        registers.single_carbon()


def test_subset_selects_labels(registers):
    """A carbon's label is its 1-based position; the subset keeps label
    order and numbers its carbons afresh."""
    sub = registers.subset([3, 1])
    assert sub.carbons == (registers.carbons[0], registers.carbons[2])
    assert sub.carbons[1].a_zz == pytest.approx(-0.152 * 2 / 3)
    assert sub.subset([2]).carbons == (registers.carbons[2],)
    assert (sub.d, sub.nu_c) == (registers.d, registers.nu_c)


@pytest.mark.parametrize("labels, message", [
    ([7], r"must be at most 4, got 7"), ([0], r"must be an integer >= 1, got 0"),
    ([1, 1], r"must be distinct, got 1 twice"), ([2, 3, 2], r"must be distinct, got 2 twice"),
    ([1.0], r"must be an integer >= 1, got 1\.0"), (["2"], r"must be an integer >= 1, got '2'"),
], ids=["unknown", "zero", "repeated", "repeated_later", "float", "string"])
def test_subset_refuses_bad_labels(registers, labels, message):
    """An unknown, repeated or non-integer label is refused, named."""
    with pytest.raises(ConfigError, match=f"^carbon labels {message}$"):
        registers.subset(labels)


def test_unknown_keys_rejected():
    doc = json.loads(data_path("system_2q.json").read_text())
    doc["unexpected"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        system_from_dict(doc)


def test_missing_keys_rejected():
    with pytest.raises(ConfigError, match="missing"):
        system_from_dict({"D_MHz": 1.0})


def test_bundled_files_exist():
    load_system(data_path("system_2q.json"))
    load_system(data_path("system_4c.json"))
    with pytest.raises(FileNotFoundError):
        data_path("nope.json")


def test_library_registers_meet_the_document_ceilings():
    """D, nu_C and the couplings of a register are capped at MAX_CONFIG_VALUE
    for library callers as for documents: nu_C = 1e200 gave 0.0431 at every
    amplitude, and 1e308 a non-finite drive Hamiltonian blamed on the band.
    A coupling alone keeps the full float range, which geometry needs."""
    carbon = HyperfineCoupling(-0.152, 0.110)
    for nu_c in (1e308, 1e200):
        with pytest.raises(ConfigError, match=r"^nu_C_MHz must be finite and in \(0, 1e\+06\]"):
            SpinSystemConfig(3000.0, nu_c, (carbon,))
    with pytest.raises(ConfigError,
                       match=r"^D_MHz must be finite and in \(0, 1e\+06\], got 2000000\.0$"):
        SpinSystemConfig(2e6, 0.158, (carbon,))
    with pytest.raises(ConfigError, match=r"^carbons\[1\]\.A_zz_MHz must be finite and in "
                                          r"\[-1e\+06, 1e\+06\], got 10000000\.0$"):
        SpinSystemConfig(2870.0, 0.158, (carbon, HyperfineCoupling(1e7, 0.1)))
    with pytest.raises(ConfigError, match=r"^carbons\[0\]\.A_zx_MHz must be finite"):
        SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-0.1, -1e300),))
    assert HyperfineCoupling(1e300, 1e300).a_zz == 1e300
    top = SpinSystemConfig(MAX_CONFIG_VALUE, MAX_CONFIG_VALUE,
                           (HyperfineCoupling(-MAX_CONFIG_VALUE, MAX_CONFIG_VALUE),))
    assert top.d == top.nu_c == MAX_CONFIG_VALUE
