"""Simulated circuits and analytic results of the register.

Everything here is an ideal-circuit simulation: hard readout/preparation
pulses are instantaneous rotations on the electron pseudo-qubit, laser
physics is out of scope, and measurements are projective populations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenstructure import carbon_eigenstructure
from .hamiltonian import multiqubit_hamiltonian
from .operators import PROJ_UP, TWO_PI, ConfigError, check_count, check_real, on_register, rotation
from .propagation import engine_for, sequence_propagator
from .sequence import MAX_DURATION_US, Delay, PulseSequence
from .states import basis_state, density_matrix, qubit_bloch_vectors
from .system import MAX_CONFIG_VALUE, SpinSystemConfig, check_carbons
from .targets import TargetGate, cnot_on_carbon, hadamard_on_carbon


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

    def resolvable_lines(self) -> list[tuple[float, float]]:
        """Sticks whose weight is at least 5% of the strongest one."""
        if not self.lines:
            return []
        wmax = max(w for _, w in self.lines)
        return [(p, w) for p, w in self.lines if w >= 0.05 * wmax]


@dataclass(frozen=True)
class ScanResult:
    """A time-domain signal and its magnitude spectrum."""

    times: np.ndarray
    signal: np.ndarray
    spectrum: Spectrum


@dataclass(frozen=True)
class Trajectory:
    """Bloch vectors of each subsystem sampled along a pulse sequence.

    vectors[k, s] is the (x, y, z) vector of subsystem s (0 = electron,
    then carbons in label order) at time times[k].
    """

    times: np.ndarray
    vectors: np.ndarray


# ---------------------------------------------------------------------------
# analytic initialization delays


@np.errstate(over="ignore", divide="ignore")   # subnormal frequencies; checked below
def analytic_init_delays(config: SpinSystemConfig) -> tuple[float, float]:
    """Delays (tau_1, tau_2) of the two-pulse mapping |0,up> -> |0,(up+dn)/sqrt2>.

    Raises ConfigError when the carbon tilt angle is below 45
    degrees, where the arcsine argument leaves its domain, or when a delay
    overflows.
    """
    eig = carbon_eigenstructure(config)
    kappa = abs(eig.kappa_minus)
    sin_k = np.sin(kappa)
    if sin_k < 1.0 / np.sqrt(2.0) - 1e-15:
        raise ConfigError("no solution for this coupling regime (tilt angle below 45 degrees)")
    arg = min(1.0 / (np.sqrt(2.0) * sin_k), 1.0)
    tau1 = float(np.arcsin(arg) / (np.pi * eig.nu_minus))
    tau2 = float(np.arccos(np.cos(kappa) / sin_k) / (TWO_PI * config.nu_c))
    if not (np.isfinite(tau1) and np.isfinite(tau2)):
        raise ConfigError(f"the delays overflow, got ({tau1}, {tau2}) us")
    return tau1, tau2


def electron_rotation(angle: float, axis_phi: float, n_carbons: int = 1) -> np.ndarray:
    """Instantaneous hard rotation of the electron pseudo-qubit,
    ``operators.rotation(angle, axis_phi)``, times E on the carbons."""
    rot = rotation(check_real(angle, "angle"), check_real(axis_phi, "axis_phi"))
    return on_register(rot, check_carbons(n_carbons, "n_carbons", 0))


def simulate_init_sequence(config: SpinSystemConfig):
    """Statevector run of (180 - tau_1 - 180 - tau_2) with ideal pulses.

    Returns (populations of |0,up> and |0,dn>, coherence magnitude between
    them, final state). Like any delay, tau_1 and tau_2 must not pass
    MAX_DURATION_US, else ConfigError.
    """
    h = multiqubit_hamiltonian(config)
    delay1, delay2 = (sequence_propagator(PulseSequence((Delay(tau),), 0.0), h)
                      for tau in analytic_init_delays(config))
    u_pi = electron_rotation(np.pi, 0.0)
    psi = delay2 @ u_pi @ delay1 @ u_pi @ basis_state(0, 4)
    pops = (float(abs(psi[0]) ** 2), float(abs(psi[1]) ** 2))
    coherence = float(abs(psi[0] * np.conj(psi[1])))
    return pops, coherence, psi


# ---------------------------------------------------------------------------
# clean-up operation in the m_S = {0, +1} manifold


def cleanup_delay(config: SpinSystemConfig) -> float:
    a_zz = config.single_carbon().a_zz
    tau_c = 1.0 / (2.0 * abs(a_zz)) if a_zz else np.inf
    if not np.isfinite(tau_c):   # zero, or so small that the delay overflows
        raise ConfigError(f"clean-up needs a secular coupling with a finite delay "
                          f"1 / (2 |A_zz|), got A_zz = {a_zz!r} MHz")
    return tau_c


def cleanup_propagator(config: SpinSystemConfig) -> np.ndarray:
    """(90_x - tau_c - 90_y) on the m_S = {0, +1} manifold.

    Moves the |0,dn> population to |+1,dn> while returning |0,up> to itself.
    The second pulse rotates about -y, which closes the transfer for the
    phase accumulated over tau_c = 1/(2|a_zz|) under this sign convention.
    tau_c past MAX_DURATION_US (|a_zz| < 5e-7 MHz) raises ConfigError.
    """
    h = multiqubit_hamiltonian(config, m_s=+1)
    delay = sequence_propagator(PulseSequence((Delay(cleanup_delay(config)),), 0.0), h)
    first = electron_rotation(np.pi / 2, 0.0)
    second = electron_rotation(-np.pi / 2, np.pi / 2)
    return second @ delay @ first


# ---------------------------------------------------------------------------
# scans


# The range of each scan input; a check raises ConfigError naming `where`.
def check_time_step(dt: float, where: str = "dt") -> float:
    """At the floor 0.5 / MAX_CONFIG_VALUE a scan's Nyquist frequency is the
    largest frequency a config may hold; below it the spectra overflow."""
    return check_real(dt, where, 0.5 / MAX_CONFIG_VALUE)


def check_linewidth(linewidth: float, where: str = "linewidth") -> float:
    """At the floor 1 / (pi * MAX_DURATION_US) T2* is the longest duration allowed; below
    it the Lorentzians underflow, and past the ceiling their squared half widths overflow."""
    return check_real(linewidth, where, 1.0 / (np.pi * MAX_DURATION_US), MAX_CONFIG_VALUE)


def check_detuning(detuning: float, where: str = "detuning") -> float:
    """A detuning is capped like any frequency a config may hold."""
    return check_real(detuning, where, -MAX_CONFIG_VALUE, MAX_CONFIG_VALUE)


# Scan sizes, checked before they are allocated; a check raises ConfigError naming `where`.
# 2**16 points cost about 50 MB, a trajectory about 2 kB a step (222 MB at 10**5 steps on
# one carbon), and a time span, like any duration, is at most MAX_DURATION_US.
MAX_SCAN_POINTS = 2**16
MAX_TRAJECTORY_STEPS = 10_000


def check_scan_points(points: int, where: str, least: int) -> int:
    return check_count(points, where, least, high=MAX_SCAN_POINTS)


def check_time_span(span: float, where: str) -> float:
    return check_real(span, where, high=MAX_DURATION_US)


def _gate_matrix(gate: TargetGate | PulseSequence, h: np.ndarray,
                 config: SpinSystemConfig) -> np.ndarray:
    """A TargetGate's matrix or a PulseSequence's propagator under `h`, the
    Hamiltonian of `config`, whose D bounds the sequence's amplitude (ConfigError).
    Only code supplies a gate, so any other, or a matrix of another shape, is a ValueError."""
    if isinstance(gate, PulseSequence):
        config.check_drive_amplitude(gate.omega1, "sequence omega1_MHz")
        return sequence_propagator(gate, h)
    if isinstance(gate, TargetGate) and np.shape(gate.matrix) == h.shape:
        return gate.matrix
    raise ValueError(f"gate must be a PulseSequence or a {h.shape} TargetGate, got {gate!r}")


def signal_spectrum(times: np.ndarray, signal: np.ndarray) -> Spectrum:
    """Magnitude DFT spectrum of a uniformly sampled, mean-subtracted signal."""
    dt = float(times[1] - times[0])
    amps = np.abs(np.fft.rfft(signal - signal.mean()))
    freqs = np.fft.rfftfreq(len(times), dt)
    return Spectrum(frequencies=freqs, amplitudes=amps)


def _check_uniform(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    check_scan_points(t_grid.size, "t_grid points", 2)   # a spectrum needs two samples
    steps = np.diff(t_grid)
    check_time_step(float(steps[0]), "the step of an increasing t_grid")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):   # NaN fails too
        raise ConfigError("time grid must be finite and uniform")
    check_time_span(t_grid[-1] - t_grid[0], "t_grid span (last - first) in us")
    return t_grid


def _check_sampling(t_grid: np.ndarray, f_max: float, what: str) -> None:
    """Refuse a uniform grid whose step undersamples the signal's highest
    frequency f_max (MHz), `what` saying what sets it."""
    dt = float(t_grid[1] - t_grid[0])
    if f_max >= 0.5 / dt:
        raise ConfigError(f"dt = {dt} us undersamples f_max = {f_max} MHz, {what} "
                          f"(need dt < {0.5 / f_max:.4g} us)")


def _check_resolution(freqs: np.ndarray, linewidth: float) -> None:
    """Refuse a uniform frequency grid (MHz) whose step exceeds a third of the
    linewidth; up to that step a line midway between two samples keeps 90% of its peak."""
    if (step := float(freqs[1] - freqs[0])) > linewidth / 3:
        raise ConfigError(f"linewidth {linewidth} MHz is below three steps of the "
                          f"spectrum grid, {step:.4g} MHz each, so the lines are not resolved")


def hadamard_circuit_scan(
    gate: TargetGate | PulseSequence | None,
    t_grid: np.ndarray,
    config: SpinSystemConfig,
    first_gate: TargetGate | PulseSequence | None = None,
) -> ScanResult:
    """Population of |0,up> after (gate - free t - gate) applied to |0,up>.

    `gate` is the carbon Hadamard, None for the ideal one. `first_gate`
    defaults to the same gate; pass the identity TargetGate for the control
    run without the initial gate. The signal's frequencies reach the span of
    the register's eigenfrequencies, so a step that undersamples it is refused.
    """
    t_grid = _check_uniform(t_grid)
    config.single_carbon()   # the gate and the readout act on one carbon
    h = multiqubit_hamiltonian(config)
    engine = engine_for(h)
    _check_sampling(t_grid, float(np.ptp(engine.w)),
                    "the span of the register's eigenfrequencies")
    g2 = _gate_matrix(hadamard_on_carbon(1) if gate is None else gate, h, config)
    g1 = g2 if first_gate is None else _gate_matrix(first_gate, h, config)
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

    `state` is a state of the register, as ``density_matrix`` takes it. The
    population of m_S = 0 is recorded as a function of t; its spectrum
    is centered at the detuning nu_d and split by the carbon state. |nu_d|
    must reach the line span, else lines of either sign fold over zero.
    """
    t_grid = _check_uniform(t_grid)
    nu_d = check_detuning(nu_d, "detuning nu_d")
    h = multiqubit_hamiltonian(config)
    rho0 = density_matrix(state, h.shape[0])
    lines = esr_lines(h)
    span = max(abs(p) for p, _ in lines)
    if abs(nu_d) < span:
        raise ConfigError(f"detuning {nu_d} MHz must reach the line span {span:.4f} in magnitude")
    _check_sampling(t_grid, abs(nu_d) + span, "the detuning plus the line span")

    p0 = on_register(PROJ_UP, config.n_carbons)
    pulse = electron_rotation(np.pi / 2, 0.0, config.n_carbons)
    rho1 = pulse @ rho0 @ pulse.conj().T

    # The second pulse at phase phi(t) is Z(phi) R Z(phi)^dag with the
    # diagonal z-rotation Z, which commutes with the projector and with the
    # block-diagonal V, so it merges with the delay into the diagonal
    # exp(-i 2pi t (w + nu_d s_z)) in the free eigenbasis:
    # signal(t) = Re sum_kl K_lk rho_kl e_k(t) e_l(t)^*, K = V^T R^dag P0 R V.
    engine = engine_for(h)
    readout = engine.to_eigenbasis(pulse.conj().T @ p0 @ pulse)
    weights = readout.T * engine.to_eigenbasis(rho1)
    phases = np.exp(-1j * TWO_PI * np.outer(t_grid, engine.w + nu_d * engine.zhalf))
    signal = np.real(np.einsum("tk,kl,tl->t", phases, weights, phases.conj()))

    spec = signal_spectrum(t_grid, signal)
    sticks = tuple((nu_d + p, wgt) for p, wgt in lines)
    spec = Spectrum(spec.frequencies, spec.amplitudes, sticks)
    return ScanResult(t_grid, signal, spec)


def theta_scan(
    gate: TargetGate | PulseSequence | None,
    theta_grid: np.ndarray,
    readout_branch: int,
    config: SpinSystemConfig,
) -> np.ndarray:
    """P(|0,dn>) after preparing cos(t/2)|0,up> + sin(t/2)|-1,up> and applying
    `gate`, None for the ideal CNOT.

    readout_branch -1 inserts the hard 180_y that maps the m_S = -1
    population into m_S = 0 before the projective readout; branch 0 reads
    out directly.
    """
    readout_branch = check_count(readout_branch, "readout_branch", -1, high=0)
    check_scan_points(np.size(theta_grid), "theta_grid points", 1)
    thetas = np.asarray(theta_grid, dtype=float).reshape(-1)
    check_real(float(np.abs(thetas).max()), "theta_grid (largest magnitude)")
    config.single_carbon()   # the gate and the readout act on one carbon
    g = _gate_matrix(cnot_on_carbon(1) if gate is None else gate,
                     multiqubit_hamiltonian(config), config)
    flip = electron_rotation(np.pi, np.pi / 2)
    psi0 = basis_state(0, 4)
    # a rotation by theta about a fixed axis is cos(theta/2) I + sin(theta/2) R(pi)
    half = thetas / 2
    psi = g @ (np.outer(psi0, np.cos(half)) + np.outer(flip @ psi0, np.sin(half)))
    if readout_branch == -1:
        psi = flip @ psi
    return np.abs(psi[1]) ** 2


# ---------------------------------------------------------------------------
# spectra

_SPECTRUM_POINTS = 4001   # frequency samples of an ESR spectrum


def esr_lines(h: np.ndarray) -> list[tuple[float, float]]:
    """Stick list of electron-flip transitions as (signed offset, weight).

    The lower manifold is the first electron block of `h`. With the block
    eigensystems (w_0, V_0) and (w_1, V_1) of ``engine_for(h)``, the
    offsets are w_1[:, None] - w_0 and the weights, squared matrix elements
    of the electron flip, are the squared entries of V_1^T V_0; lines of
    weight below 1e-12 drop out.
    """
    engine = engine_for(h)
    half = engine.dim // 2
    weights = (engine.v[half:, half:].T @ engine.v[:half, :half]) ** 2
    offsets = engine.w[half:, None] - engine.w[:half]
    keep = weights > 1e-12
    return sorted(zip(offsets[keep].tolist(), weights[keep].tolist()))


def esr_spectrum(h: np.ndarray, linewidth: float, detuning: float) -> Spectrum:
    """Lorentzian-broadened electron spectrum of `h`.

    Stick positions sit at detuning + (E_upper - E_lower) for every pair of
    eigenstates connected by the electron flip operator. Weights are squared
    matrix elements (see ``esr_lines``). A linewidth under three grid steps is refused.
    """
    linewidth, detuning = check_linewidth(linewidth), check_detuning(detuning)
    sticks = esr_lines(h)
    span = max(abs(p) for p, _ in sticks)
    if not detuning >= span:   # NaN fails too
        raise ConfigError(f"detuning {detuning} MHz must reach the line span {span:.4f}: "
                          f"the spectrum needs detuning >= {span:.4f} MHz, and a negative "
                          "detuning is below it")
    lines = tuple((detuning + p, wgt) for p, wgt in sticks)
    freqs = np.linspace(min(lines)[0] - 8 * linewidth, max(lines)[0] + 8 * linewidth,
                        _SPECTRUM_POINTS)
    _check_resolution(freqs, linewidth)
    half = linewidth / 2.0
    amps = np.zeros_like(freqs)
    for pos, wgt in lines:
        amps += wgt * half**2 / ((freqs - pos) ** 2 + half**2)
    return Spectrum(frequencies=freqs, amplitudes=amps, lines=lines)


# ---------------------------------------------------------------------------
# trajectories


def segment_samples(seq: PulseSequence, dt: float, where: str = "dt") -> list[int]:
    """The samples ``bloch_trajectory`` takes of each segment of `seq` at
    step `dt`, the segment's start left out; their sum is at most
    MAX_TRAJECTORY_STEPS. A check of `dt` raises ConfigError naming `where`."""
    dt = check_time_step(dt, where)
    counts = [int(np.ceil((seg.duration - 1e-15) / dt)) for seg in seq.segments]
    check_count(sum(counts), f"trajectory steps (each segment's duration / {where}, rounded up)",
                0, high=MAX_TRAJECTORY_STEPS)
    return counts


def bloch_trajectory(
    seq: PulseSequence,
    h: np.ndarray,
    initial,
    dt: float,
) -> Trajectory:
    """Bloch vectors of the electron and each carbon sampled every `dt` us.

    `initial` is a state vector that ``density_matrix`` takes. A segment of
    duration T starting at s is sampled in closed form at s + min(k dt, T),
    k = 1 .. ceil((T - 1e-15) / dt), so the last point equals the one-shot
    sequence propagator applied to the initial state.
    """
    dt = check_time_step(dt)
    counts = segment_samples(seq, dt)
    density_matrix(initial, h.shape[0], "initial")
    psi = np.asarray(initial, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"initial must be a state vector, got shape {psi.shape}")
    engine = engine_for(h, [seq.omega1])
    state = engine.v.T @ psi   # free eigenbasis

    times, states = [np.zeros(1)], [state[None]]
    # each segment starts at the last sample, times[-1][-1]
    for seg, count in zip(seq.segments, counts):
        offsets = np.minimum(np.arange(1, count + 1) * dt, seg.duration)
        if isinstance(seg, Delay):
            block = np.exp(-1j * TWO_PI * np.outer(offsets, engine.w)) * state
        else:   # Z W exp(-i 2pi t w_p) W^T Z^dag
            z, mix = np.exp(-1j * seg.phi * engine.zhalf), engine.mix[0]
            q = np.exp(-1j * TWO_PI * np.outer(offsets, engine.w_p[0]))
            block = ((q * (mix.T @ (z.conj() * state))) @ mix.T) * z
        if count > 0:
            state = block[-1]
            times.append(times[-1][-1] + offsets)
            states.append(block)

    lab = np.concatenate(states) @ engine.v.T
    return Trajectory(times=np.concatenate(times), vectors=qubit_bloch_vectors(lab))


# ---------------------------------------------------------------------------
# coherence-time bound


def min_coherence_time(linewidth: float) -> float:
    """T2* (us) required to resolve lines of the given width (MHz)."""
    check_linewidth(linewidth)
    return 1.0 / (np.pi * linewidth)
