"""Physical register description and JSON config handling.

A register holds one NV electron spin, the host nitrogen (fixed in its
m_N = 1 state throughout), and one to four carbon-13 spins described by
their secular/anisotropic hyperfine couplings. All frequencies are in MHz
(values of H/2pi), all times in microseconds.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .files import check_keys, json_list, read_json
from .operators import ConfigError, check_count, check_real


# The largest magnitude of a register's numbers: MHz for every field but B0_mT. With
# durations at most sequence.MAX_DURATION_US, the phases 2 pi f t stay near 1e13 rad, far
# from overflow. It also caps the scan inputs' frequencies in experiments.check_time_step
# (the Nyquist 0.5 / dt), check_linewidth and check_detuning, a GA config's mutation_scale
# and a ccrot target's angle in degrees.
MAX_CONFIG_VALUE = 1e6
# The most carbons of a register and of a target: n carbons make 2^(n + 1)-dimensional
# dense matrices, so a count is refused past this before anything is allocated.
MAX_CARBONS = 4
_CARBON_KEYS = ("A_zz_MHz", "A_zx_MHz")   # a carbon's document keys, in field order


def check_carbons(n_carbons: int, where: str, least: int) -> int:
    return check_count(n_carbons, where, least, high=MAX_CARBONS)


@dataclass(frozen=True)
class HyperfineCoupling:
    """Secular (a_zz) and anisotropic (a_zx) hyperfine couplings in MHz."""

    a_zz: float
    a_zx: float

    def __post_init__(self):
        object.__setattr__(self, "a_zz", check_real(self.a_zz, "A_zz_MHz"))
        object.__setattr__(self, "a_zx", check_real(self.a_zx, "A_zx_MHz"))
        if self.a_zz == 0.0 and self.a_zx == 0.0:
            raise ConfigError("A_zz_MHz and A_zx_MHz must not both be zero for a physical carbon")


@dataclass(frozen=True)
class SpinSystemConfig:
    """The register parameters the model reads.

    Attributes
    ----------
    d : zero-field splitting (MHz); drive amplitudes must stay below it
    nu_c : carbon-13 Larmor frequency (MHz, positive by convention)
    carbons : hyperfine couplings; carbon k (its label) is carbons[k - 1]

    A system document also holds nu_e_MHz and A_N_MHz, and may hold B0_mT.
    They are checked but not modelled: the drive is resonant with the
    electron's {0, -1} transition and the nitrogen stays frozen in m_N = 1,
    so the electron Zeeman and nitrogen hyperfine terms only set that
    transition's frequency, which the rotating frame removes; B0 is
    informational.
    """

    d: float
    nu_c: float
    carbons: tuple[HyperfineCoupling, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", check_real(self.d, "D_MHz", 0.0, MAX_CONFIG_VALUE, "(]"))
        object.__setattr__(self, "nu_c", check_real(self.nu_c, "nu_C_MHz", 0.0,
                                                    MAX_CONFIG_VALUE, "(]"))
        check_carbons(len(self.carbons), "number of carbons", 1)
        for i, c in enumerate(self.carbons):   # HyperfineCoupling itself takes any float
            for key, value in zip(_CARBON_KEYS, (c.a_zz, c.a_zx)):
                check_real(value, f"carbons[{i}].{key}", -MAX_CONFIG_VALUE, MAX_CONFIG_VALUE)

    @property
    def n_carbons(self) -> int:
        return len(self.carbons)

    def check_drive_amplitude(self, omega1: float, where: str = "drive amplitude") -> None:
        """Raise ConfigError, naming `where`, unless 0 <= omega1 < D.

        The package models the driven two-level working subspace of the
        electron, which exists only for drive amplitudes below the
        zero-field splitting D. Check the largest amplitude of a grid
        before propagating on it.
        """
        check_real(omega1, f"{where} (below D_MHz)", 0.0, self.d, "[)")

    def single_carbon(self) -> HyperfineCoupling:
        if len(self.carbons) != 1:
            raise ConfigError(f"operation requires exactly one carbon, but carbons holds "
                              f"{len(self.carbons)}")
        return self.carbons[0]

    def subset(self, labels: list[int]) -> "SpinSystemConfig":
        """A new config keeping the carbons with the given labels, in label
        order; it numbers them afresh from 1."""
        for i, label in enumerate(labels):
            check_count(label, "carbon labels", 1, self.n_carbons)
            if label in labels[:i]:
                raise ConfigError(f"carbon labels must be distinct, got {label!r} twice")
        chosen = tuple(self.carbons[label - 1] for label in sorted(labels))
        return SpinSystemConfig(self.d, self.nu_c, chosen)


# The numbers of a system document that the model does not read (see SpinSystemConfig),
# checked here
_UNMODELLED = ("nu_e_MHz", "A_N_MHz", "B0_mT")


def system_from_dict(doc: dict) -> SpinSystemConfig:
    """The register a system document describes. Every number is checked,
    but only D_MHz, nu_C_MHz and the carbons are kept (see
    SpinSystemConfig); B0_mT and a free-text name are optional, and any
    other key is rejected."""
    check_keys(doc, "system config", optional=("B0_mT", "name"),
               required=("D_MHz", "nu_e_MHz", "nu_C_MHz", "A_N_MHz", "carbons"))
    for key in _UNMODELLED:
        if key in doc:
            check_real(doc[key], key, -MAX_CONFIG_VALUE, MAX_CONFIG_VALUE)
    json_list(doc["carbons"], "carbons")
    check_carbons(len(doc["carbons"]), "number of carbons", 1)
    carbons = []
    for i, c in enumerate(doc["carbons"]):
        check_keys(c, f"carbons[{i}]", required=_CARBON_KEYS)
        try:
            carbons.append(HyperfineCoupling(*(c[key] for key in _CARBON_KEYS)))
        except ConfigError as exc:   # each message starts with its key
            raise ConfigError(f"carbons[{i}].{exc}") from exc
    return SpinSystemConfig(doc["D_MHz"], doc["nu_C_MHz"], tuple(carbons))


def load_system(path: str | Path) -> SpinSystemConfig:
    return system_from_dict(read_json(path))


def data_path(name: str) -> Path:
    """Path to a bundled data file, e.g. 'system_2q.json' or 'sequences/cnot.json'."""
    p = Path(__file__).parent / "data" / name
    if not p.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return p
