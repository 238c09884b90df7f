"""Physical register description and JSON config handling.

A register holds one NV electron spin, the host nitrogen (fixed in its
m_N = 1 state throughout), and one to four carbon-13 spins described by
their secular/anisotropic hyperfine couplings. All frequencies are in MHz
(values of H/2pi), all times in microseconds.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .files import check_keys, json_list, json_number, read_json, write_json


class ConfigError(ValueError):
    """Raised for malformed or physically invalid register configs."""


@dataclass(frozen=True)
class HyperfineCoupling:
    """Secular (a_zz) and anisotropic (a_zx) hyperfine couplings in MHz."""

    a_zz: float
    a_zx: float

    def __post_init__(self):
        if self.a_zz == 0.0 and self.a_zx == 0.0:
            raise ConfigError("a physical carbon needs a non-zero A_zz_MHz or A_zx_MHz")


@dataclass(frozen=True)
class SpinSystemConfig:
    """Field and coupling parameters defining the register.

    Attributes
    ----------
    d : zero-field splitting (MHz)
    nu_e : electron Larmor frequency (MHz, signed)
    nu_c : carbon-13 Larmor frequency (MHz, positive by convention)
    a_n : nitrogen hyperfine coupling (MHz)
    carbons : hyperfine couplings; carbon k (its label) is carbons[k - 1]
    b0 : field strength in mT (informational only)
    """

    d: float
    nu_e: float
    nu_c: float
    a_n: float
    carbons: tuple[HyperfineCoupling, ...]
    b0: float = 0.0

    def __post_init__(self):
        if self.nu_c <= 0:
            raise ConfigError(f"nu_C_MHz must be positive (sign convention: nu_c > 0), "
                              f"got {self.nu_c!r}")
        if not 1 <= len(self.carbons) <= 4:
            raise ConfigError("register supports 1 to 4 carbons")

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
        if not 0.0 <= omega1 < self.d:
            raise ConfigError(f"{where} must lie in [0, D_MHz = {self.d!r}) MHz, "
                              f"got {omega1!r}")

    def single_carbon(self) -> HyperfineCoupling:
        if len(self.carbons) != 1:
            raise ConfigError(f"operation requires exactly one carbon, but carbons holds "
                              f"{len(self.carbons)}")
        return self.carbons[0]

    def subset(self, labels: list[int]) -> "SpinSystemConfig":
        """A new config keeping the carbons with the given labels, in label
        order; it numbers them afresh from 1."""
        for i, label in enumerate(labels):
            if (not isinstance(label, int) or not 1 <= label <= self.n_carbons
                    or label in labels[:i]):
                raise ConfigError(f"carbon labels must be distinct integers from 1 to "
                                  f"{self.n_carbons}, got {label!r}")
        chosen = tuple(self.carbons[label - 1] for label in sorted(labels))
        return SpinSystemConfig(self.d, self.nu_e, self.nu_c, self.a_n, chosen, self.b0)


# Document key -> SpinSystemConfig field, and -> HyperfineCoupling field
_SYSTEM_KEYS = {"D_MHz": "d", "nu_e_MHz": "nu_e", "nu_C_MHz": "nu_c", "A_N_MHz": "a_n",
                "B0_mT": "b0"}
_CARBON_KEYS = {"A_zz_MHz": "a_zz", "A_zx_MHz": "a_zx"}
# The largest magnitude of a system config's numbers: MHz for every field
# but B0_mT. With durations at most sequence.MAX_DURATION_US, the phases
# 2 pi f t stay near 1e13 rad, far from overflow. It also caps the CLI's
# other frequencies (a scan's Nyquist 0.5 / --dt, --linewidth, --detuning)
# and a GA config's mutation_scale.
MAX_CONFIG_VALUE = 1e6


def _config_number(value, where: str) -> float:
    value = json_number(value, where, ConfigError)
    if not abs(value) <= MAX_CONFIG_VALUE:   # NaN fails this too
        raise ConfigError(f"{where} must be finite with magnitude at most "
                          f"{MAX_CONFIG_VALUE:g}, got {value!r}")
    return value


def system_from_dict(doc: dict) -> SpinSystemConfig:
    """The document ``system_to_dict`` writes; B0_mT (0 when left out) and a
    free-text name are optional, and any other key is rejected."""
    check_keys(doc, "system config", ConfigError, optional=("B0_mT", "name"),
               required=(*[key for key in _SYSTEM_KEYS if key != "B0_mT"], "carbons"))
    fields = {field: _config_number(doc.get(key, 0.0), key) for key, field in _SYSTEM_KEYS.items()}
    if not json_list(doc["carbons"], "carbons", ConfigError):
        raise ConfigError("carbons must not be empty")
    carbons = []
    for i, c in enumerate(doc["carbons"]):
        check_keys(c, f"carbons[{i}]", ConfigError, required=tuple(_CARBON_KEYS))
        carbons.append(HyperfineCoupling(**{field: _config_number(c[key], f"carbons[{i}].{key}")
                                            for key, field in _CARBON_KEYS.items()}))
    return SpinSystemConfig(carbons=tuple(carbons), **fields)


def system_to_dict(cfg: SpinSystemConfig) -> dict:
    doc = {key: getattr(cfg, field) for key, field in _SYSTEM_KEYS.items()}
    doc["carbons"] = [{key: getattr(c, field) for key, field in _CARBON_KEYS.items()}
                      for c in cfg.carbons]
    return doc


def load_system(path: str | Path) -> SpinSystemConfig:
    return system_from_dict(read_json(path, ConfigError))


def save_system(cfg: SpinSystemConfig, path: str | Path) -> None:
    write_json(path, system_to_dict(cfg))


def data_path(name: str) -> Path:
    """Path to a bundled data file, e.g. 'system_2q.json' or 'sequences/cnot.json'."""
    root = resources.files("icspin") / "data"
    p = Path(str(root / name))
    if not p.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return p
