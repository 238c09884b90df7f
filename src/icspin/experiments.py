"""Simulated circuits and analytic results of the register.

Everything here is an ideal-circuit simulation: hard readout/preparation
pulses are instantaneous rotations on the electron pseudo-qubit, laser
physics is out of scope, and measurements are projective populations.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigenstructure import carbon_eigenstructure
from .files import write_csv
from .hamiltonian import PROJ_UP, multiqubit_hamiltonian
from .operators import TWO_PI, kron_all
from .propagation import PropagationEngine, expm_hermitian, sequence_propagator
from .sequence import Delay, Pulse, PulseSequence
from .states import basis_state, density_matrix, qubit_bloch_vectors
from .system import SpinSystemConfig
from .targets import TargetGate, cnot_on_carbon, hadamard_on_carbon


class InitializationDomainError(ValueError):
    """No analytic initialization delays exist for this coupling regime."""


class NyquistError(ValueError):
    """The requested time grid undersamples the expected spectrum."""


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class Spectrum:
    """Frequency grid (MHz), real amplitudes, and the underlying stick list
    as (position_MHz, weight) pairs (empty for signal-derived spectra)."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    lines: tuple = ()

    def peak_frequency(self) -> float:
        return float(self.frequencies[np.argmax(self.amplitudes)])

    def resolvable_lines(self, threshold: float = 0.05) -> list[tuple[float, float]]:
        """Sticks whose weight is at least `threshold` of the strongest one."""
        if not self.lines:
            return []
        wmax = max(w for _, w in self.lines)
        return [(p, w) for p, w in self.lines if w >= threshold * wmax]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ("frequency_MHz", "amplitude"), self.frequencies, self.amplitudes)

    def to_dict(self) -> dict:
        return {
            "frequencies_MHz": self.frequencies.tolist(),
            "amplitudes": self.amplitudes.tolist(),
            "lines": [[p, w] for p, w in self.lines],
        }


@dataclass(frozen=True)
class ScanResult:
    """A time-domain signal and its magnitude spectrum."""

    times: np.ndarray
    signal: np.ndarray
    spectrum: Spectrum

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ("time_us", "signal"), self.times, self.signal)


@dataclass(frozen=True)
class Trajectory:
    """Bloch vectors of each subsystem sampled along a pulse sequence.

    vectors[k, s] is the (x, y, z) vector of subsystem s (0 = electron,
    then carbons in label order) at time times[k].
    """

    times: np.ndarray
    vectors: np.ndarray

    @property
    def n_subsystems(self) -> int:
        return self.vectors.shape[1]

    def to_csv(self, path: str | Path) -> None:
        if self.n_subsystems == 2:
            names = ["ex", "ey", "ez", "cx", "cy", "cz"]
        else:
            names = ["ex", "ey", "ez"]
            for j in range(1, self.n_subsystems):
                names += [f"c{j}x", f"c{j}y", f"c{j}z"]
        write_csv(path, ["time_us", *names], self.times,
                  *self.vectors.reshape(self.times.size, -1).T)


# ---------------------------------------------------------------------------
# analytic initialization delays


def analytic_init_delays(config: SpinSystemConfig) -> tuple[float, float]:
    """Delays (tau_1, tau_2) of the two-pulse mapping |0,up> -> |0,(up+dn)/sqrt2>.

    Raises InitializationDomainError when the carbon tilt angle is below 45
    degrees, where the arcsine argument leaves its domain.
    """
    eig = carbon_eigenstructure(config)
    kappa = abs(eig.kappa_minus)
    sin_k = np.sin(kappa)
    if sin_k < 1.0 / np.sqrt(2.0) - 1e-15:
        raise InitializationDomainError(
            "no solution for this coupling regime (tilt angle below 45 degrees)"
        )
    arg = min(1.0 / (np.sqrt(2.0) * sin_k), 1.0)
    tau1 = float(np.arcsin(arg) / (np.pi * eig.nu_minus))
    tau2 = float(np.arccos(np.cos(kappa) / sin_k) / (TWO_PI * config.nu_c))
    return tau1, tau2


def electron_rotation(angle: float, axis_phi: float, n_carbons: int = 1) -> np.ndarray:
    """Instantaneous hard rotation of the electron pseudo-qubit.

    axis_phi = 0 is an x rotation, pi/2 a y rotation. In closed form,
    exp(-i angle (cos phi s_x + sin phi s_y)) = cos(angle/2) I
    - i sin(angle/2) (cos phi sigma_x + sin phi sigma_y), times E on the carbons.
    """
    c, s = np.cos(angle / 2), -1j * np.sin(angle / 2)
    r = np.array([[c, s * np.exp(-1j * axis_phi)], [s * np.exp(1j * axis_phi), c]])
    return np.kron(r, np.eye(2**n_carbons))


def simulate_init_sequence(config: SpinSystemConfig):
    """Statevector run of (180 - tau_1 - 180 - tau_2) with ideal pulses.

    Returns (populations of |0,up> and |0,dn>, coherence magnitude between
    them, final state).
    """
    tau1, tau2 = analytic_init_delays(config)
    h = multiqubit_hamiltonian(config)
    u_pi = electron_rotation(np.pi, 0.0)
    u = expm_hermitian(h, tau2) @ u_pi @ expm_hermitian(h, tau1) @ u_pi
    psi = u @ basis_state(0, 4)
    pops = (float(abs(psi[0]) ** 2), float(abs(psi[1]) ** 2))
    coherence = float(abs(psi[0] * np.conj(psi[1])))
    return pops, coherence, psi


# ---------------------------------------------------------------------------
# clean-up operation in the m_S = {0, +1} manifold


def cleanup_delay(config: SpinSystemConfig) -> float:
    a_zz = config.single_carbon().a_zz
    if a_zz == 0.0:
        raise ValueError("clean-up needs a non-zero secular coupling")
    return 1.0 / (2.0 * abs(a_zz))


def cleanup_propagator(config: SpinSystemConfig, ideal: bool = False) -> np.ndarray:
    """(90_x - tau_c - 90_y) on the m_S = {0, +1} manifold.

    Moves the |0,dn> population to |+1,dn> while returning |0,up> to itself.
    The second pulse rotates about -y, which closes the transfer for the
    phase accumulated over tau_c = 1/(2|a_zz|) under this sign convention.
    With ideal=True an exact |0,dn> <-> |+1,dn> swap is returned instead.
    """
    if ideal:
        u = np.eye(4, dtype=complex)
        u[[1, 1, 3, 3], [1, 3, 1, 3]] = [0.0, 1.0, 1.0, 0.0]
        return u
    tau_c = cleanup_delay(config)
    h = multiqubit_hamiltonian(config, m_s=+1)
    first = electron_rotation(np.pi / 2, 0.0)
    second = electron_rotation(-np.pi / 2, np.pi / 2)
    return second @ expm_hermitian(h, tau_c) @ first


# ---------------------------------------------------------------------------
# scans


def _gate_matrix(gate, h: np.ndarray, default: TargetGate) -> np.ndarray:
    """Resolve a gate argument: None/'ideal' -> default target matrix,
    'noop' -> identity, PulseSequence -> its propagator, ndarray passthrough."""
    if gate is None or (isinstance(gate, str) and gate.lower() == "ideal"):
        return default.matrix
    if isinstance(gate, str) and gate.lower() == "noop":
        return np.eye(h.shape[0], dtype=complex)
    if isinstance(gate, PulseSequence):
        return sequence_propagator(gate, h)
    if isinstance(gate, TargetGate):
        return gate.matrix
    return np.asarray(gate, dtype=complex)


def signal_spectrum(times: np.ndarray, signal: np.ndarray) -> Spectrum:
    """Magnitude DFT spectrum of a uniformly sampled, mean-subtracted signal."""
    dt = float(times[1] - times[0])
    amps = np.abs(np.fft.rfft(signal - signal.mean()))
    freqs = np.fft.rfftfreq(len(times), dt)
    return Spectrum(frequencies=freqs, amplitudes=amps)


def _check_uniform(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise ValueError("time grid needs at least two samples")
    steps = np.diff(t_grid)
    if not (np.isfinite(t_grid).all() and steps[0] > 0):
        raise ValueError("time grid must be finite and increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    return t_grid


def hadamard_circuit_scan(
    gate,
    t_grid: np.ndarray,
    config: SpinSystemConfig,
    first_gate=None,
) -> ScanResult:
    """Population of |0,up> after (gate - free t - gate) applied to |0,up>.

    `gate` is the carbon Hadamard: 'ideal', a PulseSequence, or an explicit
    matrix. `first_gate` defaults to the same gate; pass 'noop' for the
    control run without the initial gate.
    """
    t_grid = _check_uniform(t_grid)
    config.single_carbon()   # the gate and the readout act on one carbon
    h = multiqubit_hamiltonian(config)
    u_h = hadamard_on_carbon(1)
    g2 = _gate_matrix(gate, h, u_h)
    g1 = g2 if first_gate is None else _gate_matrix(first_gate, h, u_h)
    engine = PropagationEngine(h)
    # <0,up| g2 V exp(-i 2pi w t) V^T g1 |0,up> for every t at once
    amps = (g2[0] @ engine.v) * (engine.v.T @ g1[:, 0])
    signal = np.abs(np.exp(-1j * TWO_PI * np.outer(t_grid, engine.w)) @ amps) ** 2
    return ScanResult(t_grid, signal, signal_spectrum(t_grid, signal))


def electron_fid_scan(
    state,
    nu_d: float,
    t_grid: np.ndarray,
    config: SpinSystemConfig,
) -> ScanResult:
    """Electron FID (90_x - t - 90_phi) with phase ramp phi(t) = -2pi nu_d t.

    The population of m_S = 0 is recorded as a function of t; its spectrum
    is centered at the detuning nu_d and split by the carbon state.
    """
    t_grid = _check_uniform(t_grid)
    if not np.isfinite(nu_d):
        raise ValueError(f"detuning must be finite, got {nu_d}")
    h = multiqubit_hamiltonian(config)
    lines = esr_lines(h)
    f_max = abs(nu_d) + max(abs(p) for p, _ in lines)
    dt = float(t_grid[1] - t_grid[0])
    if f_max >= 0.5 / dt:
        raise NyquistError(
            f"dt = {dt} us undersamples f_max = {f_max} MHz (need dt < {0.5 / f_max:.4f})"
        )

    rho0 = density_matrix(np.asarray(state, dtype=complex))
    p0 = kron_all(PROJ_UP, np.eye(2**config.n_carbons, dtype=complex))
    pulse = electron_rotation(np.pi / 2, 0.0, config.n_carbons)
    rho1 = pulse @ rho0 @ pulse.conj().T

    # The second pulse at phase phi(t) is Z(phi) R Z(phi)^dag with the
    # diagonal z-rotation Z, which commutes with the projector and with the
    # block-diagonal V, so it merges with the delay into the diagonal
    # exp(-i 2pi t (w + nu_d s_z)) in the free eigenbasis:
    # signal(t) = Re sum_kl K_lk rho_kl e_k(t) e_l(t)^*, K = V^T R^dag P0 R V.
    engine = PropagationEngine(h)
    readout = engine.to_eigenbasis(pulse.conj().T @ p0 @ pulse)
    weights = readout.T * engine.to_eigenbasis(rho1)
    phases = np.exp(-1j * TWO_PI * np.outer(t_grid, engine.w + nu_d * engine.zhalf))
    signal = np.real(np.einsum("tk,kl,tl->t", phases, weights, phases.conj()))

    spec = signal_spectrum(t_grid, signal)
    sticks = tuple((nu_d + p, wgt) for p, wgt in lines)
    spec = Spectrum(spec.frequencies, spec.amplitudes, sticks)
    return ScanResult(t_grid, signal, spec)


def theta_scan(
    gate,
    theta_grid: np.ndarray,
    readout_branch: int,
    config: SpinSystemConfig,
) -> np.ndarray:
    """P(|0,dn>) after preparing cos(t/2)|0,up> + sin(t/2)|-1,up> and applying
    `gate` ('noop', 'cnot', a PulseSequence, or a matrix).

    readout_branch -1 inserts the hard 180_y that maps the m_S = -1
    population into m_S = 0 before the projective readout; branch 0 reads
    out directly.
    """
    if readout_branch not in (0, -1):
        raise ValueError("readout_branch must be 0 or -1")
    config.single_carbon()   # the gate and the readout act on one carbon
    h = multiqubit_hamiltonian(config)
    if isinstance(gate, str) and gate.lower() == "cnot":
        gate = "ideal"
    g = _gate_matrix(gate, h, cnot_on_carbon(1))
    flip = electron_rotation(np.pi, np.pi / 2)
    psi0 = basis_state(0, 4)
    # a rotation by theta about a fixed axis is cos(theta/2) I + sin(theta/2) R(pi)
    half = np.asarray(theta_grid, dtype=float).reshape(-1) / 2
    psi = g @ (np.outer(psi0, np.cos(half)) + np.outer(flip @ psi0, np.sin(half)))
    if readout_branch == -1:
        psi = flip @ psi
    return np.abs(psi[1]) ** 2


# ---------------------------------------------------------------------------
# spectra

_SPECTRUM_POINTS = 4001   # frequency samples of an ESR spectrum


def esr_lines(h: np.ndarray, populations=None) -> list[tuple[float, float]]:
    """Stick list of electron-flip transitions as (signed offset, weight).

    The lower manifold is the first electron block of `h`. With the block
    eigensystems (w_0, V_0) and (w_1, V_1) of ``PropagationEngine(h)``, the
    offsets are w_1[:, None] - w_0 and the weights, squared matrix elements
    of the electron flip, are the squared entries of V_1^T V_0. A state
    vector or density matrix `populations` scales each weight by the
    population difference of its lower and upper eigenstate; lines whose
    difference is not positive drop out with those of weight below 1e-12.
    """
    engine = PropagationEngine(h)
    half = engine.dim // 2
    weights = (engine.v[half:, half:].T @ engine.v[:half, :half]) ** 2
    if populations is not None:
        rho = engine.to_eigenbasis(density_matrix(populations))
        pops = np.real(np.diag(rho))
        weights *= pops[:half] - pops[half:, None]
    offsets = engine.w[half:, None] - engine.w[:half]
    keep = weights > 1e-12
    return sorted(zip(offsets[keep].tolist(), weights[keep].tolist()))


def esr_spectrum(
    h: np.ndarray,
    linewidth: float,
    detuning: float = 5.0,
    populations=None,
) -> Spectrum:
    """Lorentzian-broadened electron spectrum of `h`.

    Stick positions sit at detuning + (E_upper - E_lower) for every pair of
    eigenstates connected by the electron flip operator. Weights are squared
    matrix elements, scaled by population differences when a state is given
    as `populations` (see ``esr_lines``).
    """
    if not (np.isfinite(linewidth) and linewidth > 0):
        raise ValueError(f"linewidth must be positive and finite, got {linewidth}")
    sticks = esr_lines(h, populations)
    if not sticks:
        raise ValueError("no electron-flip line has positive weight")
    span = max(abs(p) for p, _ in sticks)
    if not detuning >= span:   # NaN fails too
        raise ValueError(f"detuning {detuning} MHz must exceed the line span {span:.4f}")
    positions = np.array([detuning + p for p, _ in sticks])
    wts = np.array([wgt for _, wgt in sticks])
    lo = positions.min() - 8 * linewidth
    hi = positions.max() + 8 * linewidth
    freqs = np.linspace(lo, hi, _SPECTRUM_POINTS)
    half = linewidth / 2.0
    amps = np.zeros_like(freqs)
    for pos, wgt in zip(positions, wts):
        amps += wgt * half**2 / ((freqs - pos) ** 2 + half**2)
    lines = tuple((float(p), float(wgt)) for p, wgt in zip(positions, wts))
    return Spectrum(frequencies=freqs, amplitudes=amps, lines=lines)


# ---------------------------------------------------------------------------
# trajectories


def bloch_trajectory(
    seq: PulseSequence,
    h: np.ndarray,
    initial,
    dt: float,
) -> Trajectory:
    """Bloch vectors of the electron and each carbon sampled every `dt` us.

    Segment boundaries are always sampled, so the last point equals the
    one-shot sequence propagator applied to the initial state.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    psi = np.asarray(initial, dtype=complex)
    rho_mode = psi.ndim == 2
    engine = PropagationEngine(h, [seq.omega1])
    v = engine.v
    state = engine.to_eigenbasis(psi) if rho_mode else v.T @ psi   # free eigenbasis

    times = [0.0]
    states = [psi.copy()]
    now = 0.0
    for seg in seq.segments:
        steps = {}   # step length -> step propagator in the free eigenbasis
        remaining = seg.duration
        while remaining > 1e-15:
            step = min(dt, remaining)
            if step not in steps:
                part = Delay(step) if isinstance(seg, Delay) else Pulse(step, seg.phi)
                steps[step] = engine.propagate([part])[0]
            u = steps[step]
            state = u @ state @ u.conj().T if rho_mode else u @ state
            remaining -= step
            now += step
            times.append(now)
            states.append(engine.to_lab(state) if rho_mode else v @ state)

    return Trajectory(times=np.array(times), vectors=qubit_bloch_vectors(np.array(states)))


# ---------------------------------------------------------------------------
# coherence-time bound


def min_coherence_time(linewidth: float) -> float:
    """T2* (us) required to resolve lines of the given width (MHz)."""
    if not (np.isfinite(linewidth) and linewidth > 0):
        raise ValueError(f"linewidth must be positive and finite, got {linewidth}")
    return 1.0 / (np.pi * linewidth)
