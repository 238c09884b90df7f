"""Physical register description and JSON config handling.

A register holds one NV electron spin, the host nitrogen (fixed in its
m_N = 1 state throughout), and one to four carbon-13 spins described by
their secular/anisotropic hyperfine couplings. All frequencies are in MHz
(values of H/2pi), all times in microseconds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path


class ConfigError(ValueError):
    """Raised for malformed or physically invalid register configs."""


@dataclass(frozen=True)
class HyperfineCoupling:
    """Secular (a_zz) and anisotropic (a_zx) hyperfine couplings in MHz."""

    a_zz: float
    a_zx: float
    label: int = 1

    def __post_init__(self):
        if self.a_zz == 0.0 and self.a_zx == 0.0:
            raise ConfigError("a physical carbon needs a non-zero coupling pair")


@dataclass(frozen=True)
class SpinSystemConfig:
    """Field and coupling parameters defining the register.

    Attributes
    ----------
    d : zero-field splitting (MHz)
    nu_e : electron Larmor frequency (MHz, signed)
    nu_c : carbon-13 Larmor frequency (MHz, positive by convention)
    a_n : nitrogen hyperfine coupling (MHz)
    carbons : hyperfine couplings, ascending label order
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
            raise ConfigError("nu_c must be positive (sign convention)")
        if not 1 <= len(self.carbons) <= 4:
            raise ConfigError("register supports 1 to 4 carbons")
        labels = [c.label for c in self.carbons]
        if sorted(labels) != labels or len(set(labels)) != len(labels):
            raise ConfigError("carbon labels must be unique and ascending")

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
            raise ConfigError("operation requires exactly one carbon")
        return self.carbons[0]

    def subset(self, labels: list[int]) -> "SpinSystemConfig":
        """A new config keeping only the carbons with the given labels."""
        by_label = {c.label: c for c in self.carbons}
        try:
            chosen = tuple(by_label[l] for l in sorted(labels))
        except KeyError as exc:
            raise ConfigError(f"no carbon with label {exc.args[0]}") from exc
        return SpinSystemConfig(self.d, self.nu_e, self.nu_c, self.a_n, chosen, self.b0)


_REQUIRED_KEYS = {"D_MHz", "nu_e_MHz", "nu_C_MHz", "A_N_MHz", "carbons"}
_OPTIONAL_KEYS = {"B0_mT", "name"}
_CARBON_KEYS = {"A_zz_MHz", "A_zx_MHz"}


def _check_number(value, field: str) -> None:
    """A finite JSON number; booleans, strings and NaN or infinity are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")


def validate_system_dict(doc: dict) -> None:
    """Structural validation of a system config document."""
    if not isinstance(doc, dict):
        raise ConfigError("system config must be a JSON object")
    missing = _REQUIRED_KEYS - doc.keys()
    if missing:
        raise ConfigError(f"system config missing keys: {sorted(missing)}")
    unknown = doc.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"system config has unknown keys: {sorted(unknown)}")
    for key in ("D_MHz", "nu_e_MHz", "nu_C_MHz", "A_N_MHz", "B0_mT"):
        if key in doc:
            _check_number(doc[key], key)
    if not isinstance(doc["carbons"], list) or not doc["carbons"]:
        raise ConfigError("carbons must be a non-empty list")
    for i, c in enumerate(doc["carbons"]):
        if not isinstance(c, dict) or not _CARBON_KEYS <= c.keys():
            raise ConfigError(f"carbons[{i}] needs A_zz_MHz and A_zx_MHz")
        unknown = c.keys() - _CARBON_KEYS
        if unknown:
            raise ConfigError(f"carbons[{i}] has unknown keys: {sorted(unknown)}")
        for key in sorted(_CARBON_KEYS):
            _check_number(c[key], f"carbons[{i}].{key}")


def system_from_dict(doc: dict) -> SpinSystemConfig:
    validate_system_dict(doc)
    carbons = tuple(
        HyperfineCoupling(float(c["A_zz_MHz"]), float(c["A_zx_MHz"]), label=i + 1)
        for i, c in enumerate(doc["carbons"])
    )
    return SpinSystemConfig(
        d=float(doc["D_MHz"]),
        nu_e=float(doc["nu_e_MHz"]),
        nu_c=float(doc["nu_C_MHz"]),
        a_n=float(doc["A_N_MHz"]),
        carbons=carbons,
        b0=float(doc.get("B0_mT", 0.0)),
    )


def system_to_dict(cfg: SpinSystemConfig) -> dict:
    return {
        "D_MHz": cfg.d,
        "nu_e_MHz": cfg.nu_e,
        "nu_C_MHz": cfg.nu_c,
        "A_N_MHz": cfg.a_n,
        "B0_mT": cfg.b0,
        "carbons": [{"A_zz_MHz": c.a_zz, "A_zx_MHz": c.a_zx} for c in cfg.carbons],
    }


def read_json(path: str | Path, error: type[Exception]):
    """The JSON document at `path`. A file that is missing, unreadable, not
    UTF-8 or not JSON raises `error`, naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: bad UTF-8 or bad JSON
        raise error(f"cannot read {path}: {exc}") from exc


def load_system(path: str | Path) -> SpinSystemConfig:
    return system_from_dict(read_json(path, ConfigError))


def save_system(cfg: SpinSystemConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(system_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def data_path(name: str) -> Path:
    """Path to a bundled data file, e.g. 'system_2q.json' or 'sequences/cnot.json'."""
    root = resources.files("icspin") / "data"
    p = Path(str(root / name))
    if not p.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return p


def default_system() -> SpinSystemConfig:
    """The bundled single-carbon reference register."""
    return load_system(data_path("system_2q.json"))


def registers_system() -> SpinSystemConfig:
    """The bundled four-carbon register."""
    return load_system(data_path("system_4c.json"))
