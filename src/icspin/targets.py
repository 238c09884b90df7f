"""Target gates in the working subspace.

All targets act on the electron pseudo-qubit {|0>, |-1>} tensored with the
register carbons. The carbon-conditional gates trigger on electron |-1>;
the nitrogen condition is implicit because the whole subspace sits in
m_N = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (E2, HADAMARD_2, PROJ_DOWN, PROJ_UP, ConfigError, check_count, check_real,
                        on_register, rotation)
from .system import MAX_CONFIG_VALUE, check_carbons


@dataclass(frozen=True)
class TargetGate:
    matrix: np.ndarray

    def __post_init__(self):   # code supplies a gate, so a bad one is a ValueError
        u = np.asarray(self.matrix, dtype=complex)
        if not (u.ndim == 2 and u.shape[0] == u.shape[1] > 0 and np.isfinite(u).all()
                and np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-9):
            raise ValueError(f"a TargetGate must be a finite square matrix with "
                             f"max|U^dag U - I| <= 1e-9, got shape {u.shape}")


def hadamard_on_carbon(n_carbons: int = 1) -> TargetGate:
    """Hadamard on carbon 1, identity on the electron and other carbons."""
    _check_carbon(1, n_carbons)
    return TargetGate(on_register(E2, n_carbons, {1: HADAMARD_2}))


def cnot_on_carbon(n_carbons: int = 1) -> TargetGate:
    """Carbon 1 flip (exp(-i pi I_x)) conditioned on electron |-1>."""
    return cc_rotation(n_carbons, 1, np.pi)


def cc_rotation(n_carbons: int, carbon: int, theta: float) -> TargetGate:
    """exp(-i theta I_x) on the chosen carbon conditioned on electron |-1>,
    identity on all other carbons. |theta| may be at most
    MAX_CONFIG_VALUE degrees, where a float still holds the angle's
    fraction of a turn to about 1e-10 degrees."""
    _check_carbon(carbon, n_carbons)
    limit = math.radians(MAX_CONFIG_VALUE)
    theta = check_real(theta, "ccrot angle in radians", -limit, limit)
    return TargetGate(on_register(PROJ_UP, n_carbons)
                      + on_register(PROJ_DOWN, n_carbons, {carbon: rotation(theta, 0.0)}))


def _check_carbon(carbon: int, n_carbons: int) -> None:
    check_carbons(n_carbons, "n_carbons", 1)
    check_count(carbon, "carbon index", 1, n_carbons)


def target_library(name: str, n_carbons: int = 1) -> TargetGate:
    """Build a target from its CLI spelling.

    Recognized forms: ``hadamard``, ``cnot``, ``ccrot:<carbon>,<theta_deg>``.
    """
    base, colon, params = name.partition(":")
    base = base.strip().lower()
    if base in ("hadamard", "cnot") and not colon:
        return (hadamard_on_carbon if base == "hadamard" else cnot_on_carbon)(n_carbons)
    if base == "ccrot":
        try:
            carbon_str, theta_str = params.split(",")
            carbon = int(carbon_str)
            theta = float(theta_str)
        except ValueError as exc:
            raise ConfigError("ccrot parameters must be '<carbon>,<theta_deg>', "
                              f"got {params!r}") from exc
        theta = check_real(theta, "ccrot angle in degrees", -MAX_CONFIG_VALUE, MAX_CONFIG_VALUE)
        return cc_rotation(n_carbons, carbon, math.radians(theta))
    raise ConfigError(f"unknown target {name!r}; the forms are hadamard, cnot and "
                      f"ccrot:<carbon>,<theta_deg>")
