import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icspin
from icspin.eigenstructure import carbon_eigenstructure
from icspin.experiments import (
    MAX_SCAN_POINTS,
    MAX_TRAJECTORY_STEPS,
    Spectrum,
    analytic_init_delays,
    bloch_trajectory,
    check_detuning,
    check_linewidth,
    check_scan_points,
    check_time_span,
    check_time_step,
    cleanup_delay,
    cleanup_propagator,
    electron_fid_scan,
    electron_rotation,
    esr_lines,
    esr_spectrum,
    hadamard_circuit_scan,
    min_coherence_time,
    segment_samples,
    simulate_init_sequence,
    theta_scan,
)
from icspin.fidelity import gate_fidelity
from icspin.sequence import MAX_DURATION_US, Delay, Pulse, PulseSequence
from icspin.states import (
    basis_state,
    bloch_vector,
    density_matrix,
    partial_trace,
    qubit_bloch_vectors,
)
from icspin.system import MAX_CONFIG_VALUE, ConfigError, HyperfineCoupling, SpinSystemConfig
from icspin.targets import TargetGate

from oracles import (
    eigen_difference_lines,
    electron_drive,
    oracle_propagator,
    oracle_sequence_propagator,
)

# The control runs' gate, NOOP: the identity on the electron and the carbon
NOOP = TargetGate(np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# initialization delays


def test_init_delays_reference_values(system):
    tau1, tau2 = analytic_init_delays(system)
    assert tau1 == pytest.approx(2.28, abs=0.01)
    assert tau2 == pytest.approx(1.53, abs=0.01)


def test_init_delays_orthogonal_tilt_limit():
    """At a 90-degree tilt the delays reduce to quarter periods."""
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-0.158, 0.2),))
    eig = carbon_eigenstructure(cfg)
    assert eig.kappa_minus_deg == pytest.approx(90.0)
    tau1, tau2 = analytic_init_delays(cfg)
    assert tau1 == pytest.approx(1.0 / (4 * eig.nu_minus), rel=1e-12)
    assert tau2 == pytest.approx(1.0 / (4 * cfg.nu_c), rel=1e-12)


def test_init_delays_domain_error():
    # small transverse coupling -> tilt below 45 degrees
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(0.3, 0.1),))
    with pytest.raises(ConfigError, match="no solution"):
        analytic_init_delays(cfg)


def test_init_sequence_statevector(system):
    """Running (180 - tau_1 - 180 - tau_2) with ideal pulses balances the
    electron-|0> carbon populations at one half with coherence one half."""
    pops, coherence, psi = simulate_init_sequence(system)
    assert pops[0] == pytest.approx(0.5, abs=1e-6)
    assert pops[1] == pytest.approx(0.5, abs=1e-6)
    assert coherence == pytest.approx(0.5, abs=1e-6)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# clean-up


def test_cleanup_delay_value(system):
    assert cleanup_delay(system) == pytest.approx(1.0 / (2 * 0.152), abs=1e-12)
    assert cleanup_delay(system) == pytest.approx(3.289, abs=1e-3)


def test_cleanup_transfers_down_population(system):
    u = cleanup_propagator(system)
    out = u @ basis_state(1, 4)  # |0,dn>
    assert abs(out[3]) ** 2 >= 0.9  # lands in |+1,dn>


def test_cleanup_preserves_up_population(system):
    u = cleanup_propagator(system)
    out = u @ basis_state(0, 4)  # |0,up>
    assert abs(out[0]) ** 2 >= 0.9


def test_cleanup_needs_secular_coupling():
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(0.0, 0.1),))
    with pytest.raises(ConfigError, match="secular"):
        cleanup_delay(cfg)


def test_cleanup_delay_past_the_duration_ceiling_is_a_sequence_error():
    """The clean-up's delay is an engine delay, bounded like any other."""
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(-1e-7, 0.11),))
    assert cleanup_delay(cfg) > MAX_DURATION_US
    with pytest.raises(ConfigError, match="delay_us"):
        cleanup_propagator(cfg)


# ---------------------------------------------------------------------------
# carbon-coherence scan


def test_hadamard_scan_ideal_law(system):
    t = np.arange(512) * 0.2
    result = hadamard_circuit_scan(None, t, system)
    law = (1 + np.cos(2 * np.pi * system.nu_c * t)) / 2
    assert np.abs(result.signal - law).max() < 1e-9
    assert result.spectrum.peak_frequency() == pytest.approx(0.158, abs=0.005)


def test_hadamard_scan_noop_control_is_flat(system):
    t = np.arange(512) * 0.2
    result = hadamard_circuit_scan(None, t, system, first_gate=NOOP)
    assert np.abs(result.signal - result.signal.mean()).max() < 1e-9
    # no carbon-frequency component survives mean subtraction
    bin_at_peak = np.argmin(np.abs(result.spectrum.frequencies - system.nu_c))
    assert result.spectrum.amplitudes[bin_at_peak] < 1e-9


def test_hadamard_scan_zero_time_is_unity(system):
    t = np.arange(8) * 0.2
    result = hadamard_circuit_scan(None, t, system)
    assert result.signal[0] == pytest.approx(1.0, abs=1e-12)


def test_hadamard_scan_with_bundled_sequence(system, hadamard_seq):
    """The pulse-level gate tracks the ideal cosine within its infidelity."""
    t = np.arange(128) * 0.4
    result = hadamard_circuit_scan(hadamard_seq, t, system)
    law = (1 + np.cos(2 * np.pi * system.nu_c * t)) / 2
    assert np.abs(result.signal - law).max() < 0.2
    assert result.spectrum.peak_frequency() == pytest.approx(0.158, abs=0.02)


@pytest.mark.parametrize("t_grid", [np.zeros(8), np.arange(8) * -0.1,
                                    np.array([0.0, np.nan, 0.2])])
def test_scans_require_increasing_finite_grid(system, t_grid):
    with pytest.raises(ConfigError, match="increasing"):
        hadamard_circuit_scan(None, t_grid, system)
    with pytest.raises(ConfigError, match="increasing"):
        electron_fid_scan(basis_state(0, 4), 3.0, t_grid, system)


@pytest.mark.parametrize("n_carbons", [0, 1, 2, 3, 4])
def test_electron_rotation_closed_form_matches_eigh(n_carbons):
    sx, sy = electron_drive(2 ** (n_carbons + 1))
    rng = np.random.default_rng(n_carbons)
    for angle, phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=(20, 2)):
        w, v = np.linalg.eigh(np.cos(phi) * sx + np.sin(phi) * sy)
        ref = (v * np.exp(-1j * angle * w)) @ v.conj().T
        assert np.abs(electron_rotation(angle, phi, n_carbons) - ref).max() < 1e-14


def test_hadamard_scan_requires_uniform_grid(system):
    with pytest.raises(ConfigError, match="uniform"):
        hadamard_circuit_scan(None, np.array([0.0, 0.1, 0.5]), system)


def test_scans_require_two_samples(system):
    for scan in (lambda t: hadamard_circuit_scan(None, t, system),
                 lambda t: electron_fid_scan(basis_state(0, 4), 3.0, t, system)):
        with pytest.raises(ConfigError, match=r"^t_grid points must be an integer >= 2, got 1"):
            scan(np.array([0.0]))


# ---------------------------------------------------------------------------
# electron FID


def _strong_peaks(spectrum, rel=0.2):
    amps = spectrum.amplitudes
    freqs = spectrum.frequencies
    idx = [
        k for k in range(1, len(amps) - 1)
        if amps[k] >= amps[k - 1] and amps[k] >= amps[k + 1] and amps[k] > rel * amps.max()
    ]
    return freqs[idx]


def test_fid_peaks_match_line_list_for_flipped_state(system, h_subspace):
    """Starting from the flipped electron state, every strong spectral peak
    sits on a transition stick."""
    psi = basis_state(2, 4)  # |-1,up>
    t = np.arange(4096) * 0.12
    result = electron_fid_scan(density_matrix(psi, 4), 3.0, t, system)
    res = 1.0 / (t[-1] + t[1])
    positions = np.array([p for p, _ in result.spectrum.lines])
    for peak in _strong_peaks(result.spectrum):
        assert np.min(np.abs(positions - peak)) < 2 * res


def test_fid_carbon_mixed_state_shows_all_four_lines(system, h_subspace):
    """With the electron polarized and the carbon unpolarized, every
    electron-flip transition of the working subspace appears."""
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0).astype(complex)
    t = np.arange(8192) * 0.12
    result = electron_fid_scan(rho, 3.0, t, system)
    res = 1.0 / (t[-1] + t[1])
    peaks = _strong_peaks(result.spectrum, rel=0.2)
    oracle = 3.0 + np.array(eigen_difference_lines(h_subspace))
    assert len(oracle) == 4
    for line in oracle:
        assert np.min(np.abs(peaks - line)) < 2 * res


def test_fid_fully_mixed_state_is_flat(system):
    """The maximally mixed 4-level state is invariant under the whole
    circuit, so its FID carries no signal at all."""
    rho = np.eye(4, dtype=complex) / 4.0
    t = np.arange(256) * 0.12
    result = electron_fid_scan(rho, 3.0, t, system)
    assert np.abs(result.signal - result.signal[0]).max() < 1e-12


def test_fid_zero_coupling_single_line_at_detuning():
    cfg = SpinSystemConfig(2870.0, 0.158, (HyperfineCoupling(1e-30, 0.0),))
    t = np.arange(2048) * 0.12
    result = electron_fid_scan(density_matrix(basis_state(0, 4), 4), 3.0, t, config=cfg)
    assert np.allclose([p for p, _ in result.spectrum.lines], 3.0, atol=1e-12)
    assert result.spectrum.peak_frequency() == pytest.approx(3.0, abs=2e-3)


def test_fid_nyquist_guard(system):
    """A detuning of either sign beyond Nyquist is refused, not aliased."""
    t = np.arange(64) * 0.5  # Nyquist 1 MHz < |detuning| 3 MHz
    for detuning in (3.0, -3.0):
        with pytest.raises(ConfigError, match="undersamples"):
            electron_fid_scan(density_matrix(basis_state(0, 4), 4), detuning, t, system)


def test_hadamard_scan_nyquist_guard(system):
    """The scan's frequencies are differences of the register's
    eigenfrequencies, up to their span 0.158 MHz here: a step at or past
    0.5 / 0.158 us is refused, not aliased to a false peak, and one below
    it still finds nu_C."""
    with pytest.raises(ConfigError, match=r"^dt = 5\.0 us undersamples f_max = 0\.158"):
        hadamard_circuit_scan(None, np.arange(256) * 5.0, system)
    result = hadamard_circuit_scan(None, np.arange(256) * 2.0, system)
    assert result.spectrum.peak_frequency() == pytest.approx(system.nu_c, abs=2e-3)


@pytest.mark.parametrize("state", [basis_state(0, 8), np.eye(3), np.ones((4, 4, 1))],
                         ids=["vector8", "matrix3", "rank3"])
def test_fid_state_of_another_shape_is_refused(system, state):
    """Only a vector (d,) or a matrix (d, d) of the register's dimension is
    a state; any other shape names `state` instead of failing in a matmul."""
    with pytest.raises(ValueError, match="state must have shape"):
        electron_fid_scan(state, 3.0, np.arange(64) * 0.1, system)


def _trace_two(psi):
    return 2 * np.outer(psi, psi.conj())


def _non_hermitian(psi):
    rho = np.outer(psi, psi.conj())
    rho[0, 1] += 1e-6
    return rho


BROKEN_STATES = {"norm_3": lambda psi: 3 * psi, "nan": lambda psi: np.where(psi == 0, np.nan, psi),
                 "trace_2": _trace_two, "non_hermitian": _non_hermitian,
                 "not_positive": lambda psi: np.diag([2.0, -1.0, 0.0, 0.0])}


@pytest.mark.parametrize("broken", BROKEN_STATES.values(), ids=BROKEN_STATES.keys())
def test_fid_state_must_be_normalized(system, broken):
    """[3, 0, 0, 0] gave an m_S = 0 population of 8.81, diag(2, -1, 0, 0) ones
    from -0.417 to 1.462; a state that is not a unit vector or a Hermitian
    unit-trace matrix with no negative eigenvalue is refused, naming `state`."""
    with pytest.raises(ValueError, match="state must have shape"):
        electron_fid_scan(broken(basis_state(0, 4)), 3.0, np.arange(64) * 0.1, system)


def test_fid_detuning_inside_line_span_is_refused(system):
    """Sticks sit at nu_d + offset, so a smaller |nu_d| folds them over zero;
    a negative detuning outside the span is a mirrored, valid spectrum."""
    t = np.arange(64) * 0.1
    for detuning in (0.0, 0.05, -0.1):
        with pytest.raises(ConfigError, match="detuning"):
            electron_fid_scan(basis_state(0, 4), detuning, t, system)
    lines = electron_fid_scan(basis_state(0, 4), -3.0, t, system).spectrum.lines
    assert all(p < 0 for p, _ in lines)


# ---------------------------------------------------------------------------
# theta scan


def test_theta_scan_ideal_law(system):
    thetas = np.linspace(0, 2 * np.pi, 101)
    p = theta_scan(None, thetas, -1, system)
    law = (1 - np.cos(thetas)) / 2
    assert np.abs(p - law).max() < 1e-9


def test_theta_scan_noop_readout_minus_is_zero(system):
    thetas = np.linspace(0, 2 * np.pi, 101)
    p = theta_scan(NOOP, thetas, -1, system)
    assert np.abs(p).max() < 1e-9


def test_theta_scan_zero_angle_always_dark(system):
    for gate in (NOOP, None):
        for branch in (0, -1):
            assert theta_scan(gate, np.array([0.0]), branch, system)[0] < 1e-12


def test_theta_scan_ms0_readout_identical_for_both_gates(system):
    thetas = np.linspace(0, 2 * np.pi, 101)
    p_noop = theta_scan(NOOP, thetas, 0, system)
    p_cnot = theta_scan(None, thetas, 0, system)
    assert np.abs(p_noop - p_cnot).max() < 1e-9


def test_theta_scan_bundled_cnot_tracks_law(system, h_subspace, cnot_seq):
    """Pointwise deviation of the pulse-level gate is controlled by the gate
    error: the Frobenius-distance bound 2 sqrt(2 d (1 - F)) holds everywhere.
    (The tighter 2(1-F) holds only near the fully flipped preparation; the
    measured profile is frozen below.)"""
    u = icspin.sequence_propagator(cnot_seq, h_subspace)
    f = gate_fidelity(u, icspin.cnot_on_carbon(1).matrix)
    thetas = np.linspace(0, 2 * np.pi, 101)
    p = theta_scan(cnot_seq, thetas, -1, system)
    law = (1 - np.cos(thetas)) / 2
    dev = np.abs(p - law)
    assert dev.max() <= 2 * np.sqrt(2 * 4 * (1 - f))
    assert dev.max() == pytest.approx(0.0996, abs=2e-3)
    assert dev[50] == pytest.approx(0.0205, abs=5e-4)  # theta = pi


def test_scans_match_step_by_step_references(system, registers, hadamard_seq, cnot_seq):
    """The scans evaluate every time point (or angle) at once; one
    series-oracle delay and one electron_rotation per point is the reference."""
    h = icspin.multiqubit_hamiltonian(system)
    t_grid = np.arange(64) * 0.15
    psi0 = basis_state(0, 4)
    g = icspin.sequence_propagator(hadamard_seq, h)
    ref = [abs((g @ oracle_propagator(h, t) @ g @ psi0)[0]) ** 2 for t in t_grid]
    assert np.abs(hadamard_circuit_scan(hadamard_seq, t_grid, system).signal - ref).max() < 1e-12

    thetas = np.linspace(0, 2 * np.pi, 37)
    g = icspin.sequence_propagator(cnot_seq, h)
    flip = electron_rotation(np.pi, np.pi / 2)
    ref = [abs((flip @ g @ electron_rotation(th, np.pi / 2) @ psi0)[1]) ** 2 for th in thetas]
    assert np.abs(theta_scan(cnot_seq, thetas, -1, system) - ref).max() < 1e-12

    mixed_carbon = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0)
    pair = registers.subset([1, 2])
    for cfg, state, nu_d in ((system, psi0, 3.0), (system, mixed_carbon, 2.0),
                             (pair, basis_state(3, 8), 3.0)):
        hh = icspin.multiqubit_hamiltonian(cfg)
        n = cfg.n_carbons
        rho = density_matrix(state, hh.shape[0])
        p0 = np.kron(np.diag([1.0, 0.0]), np.eye(2**n))
        first = electron_rotation(np.pi / 2, 0.0, n)
        rho1 = first @ rho @ first.conj().T
        ref = []
        for t in t_grid:
            u = electron_rotation(np.pi / 2, -2 * np.pi * nu_d * t, n) @ oracle_propagator(hh, t)
            ref.append(np.real(np.trace(p0 @ u @ rho1 @ u.conj().T)))
        out = electron_fid_scan(state, nu_d, t_grid, cfg).signal
        assert np.abs(out - ref).max() < 1e-12


def test_theta_scan_validates_branch(system):
    """The branch is a count like any other: False ran as branch 0 and -1.0
    as branch -1."""
    for branch in (1, False, True, -1.0, 0.0, "0", None):
        with pytest.raises(ConfigError, match="readout_branch"):
            theta_scan(None, np.array([0.1]), branch, system)


def test_theta_scan_takes_integer_branches(system):
    direct = theta_scan(None, np.array([0.1, 2.0]), 0, system)
    mapped = theta_scan(None, np.array([0.1, 2.0]), -1, system)
    assert not np.array_equal(direct, mapped)
    assert np.array_equal(theta_scan(None, np.array([0.1, 2.0]), np.int64(-1), system), mapped)


def test_scans_refuse_a_gate_they_cannot_resolve(system):
    """A gate is a TargetGate of the register's shape or a PulseSequence, and
    None is the scan's ideal gate. The spellings 'ideal', 'noop' and 'cnot',
    which the scans once read, are refused like any other string."""
    thetas, times = np.array([0.1, 2.0]), np.arange(4) * 0.1
    for gate in (icspin.cnot_on_carbon(1).matrix, TargetGate(np.eye(8, dtype=complex)),
                 "ideal", "noop", "cnot", "cz"):
        with pytest.raises(ValueError, match="gate must be"):
            theta_scan(gate, thetas, -1, system)
        with pytest.raises(ValueError, match="gate must be"):
            hadamard_circuit_scan(gate, times, system)
        with pytest.raises(ValueError, match="gate must be"):
            hadamard_circuit_scan(None, times, system, first_gate=gate)
    assert np.array_equal(theta_scan(icspin.cnot_on_carbon(1), thetas, -1, system),
                          theta_scan(None, thetas, -1, system))
    assert np.array_equal(hadamard_circuit_scan(icspin.hadamard_on_carbon(1), times, system).signal,
                          hadamard_circuit_scan(None, times, system).signal)


@pytest.mark.parametrize("omega1", [2870.0, 5000.0])
def test_scans_refuse_a_sequence_at_or_above_d(system, cnot_seq, omega1):
    """system_2q.json has D = 2870 MHz, where the driven two-level subspace
    ends; a sequence at 5000 MHz gave populations and a signal."""
    seq = PulseSequence(cnot_seq.segments, omega1)
    thetas, times = np.array([0.1, 2.0]), np.arange(4) * 0.1
    calls = (lambda: theta_scan(seq, thetas, -1, system),
             lambda: hadamard_circuit_scan(seq, times, system),
             lambda: hadamard_circuit_scan(None, times, system, first_gate=seq))
    for call in calls:
        with pytest.raises(ConfigError, match=r"sequence omega1_MHz \(below D_MHz\)"):
            call()


# ---------------------------------------------------------------------------
# spectra


def test_working_subspace_has_four_lines(system, h_subspace):
    spec = esr_spectrum(h_subspace, linewidth=0.01, detuning=3.0)
    resolvable = spec.resolvable_lines()
    assert len(resolvable) == 4
    weights = sorted(w for _, w in resolvable)
    eig = carbon_eigenstructure(system)
    expect = sorted([np.cos(eig.kappa_minus / 2) ** 2, np.sin(eig.kappa_minus / 2) ** 2] * 2)
    assert np.allclose(weights, expect, atol=1e-10)


def test_upper_manifold_has_two_resolvable_lines(system):
    h = icspin.multiqubit_hamiltonian(system, m_s=+1)
    spec = esr_spectrum(h, linewidth=0.01, detuning=3.0)
    assert len(spec.lines) == 4
    assert len(spec.resolvable_lines()) == 2


def test_spectrum_without_sticks_has_no_resolvable_lines():
    assert Spectrum(np.zeros(3), np.zeros(3)).resolvable_lines() == []


def test_stick_positions_equal_fresh_eigendifferences(registers):
    h = icspin.multiqubit_hamiltonian(registers)
    spec = esr_spectrum(h, linewidth=0.005, detuning=5.0)
    oracle = 5.0 + np.array(eigen_difference_lines(h))
    positions = sorted(p for p, _ in spec.lines)
    assert np.allclose(positions, sorted(oracle), atol=1e-10)


def test_spectrum_rejects_bad_linewidth(h_subspace):
    for linewidth in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="linewidth"):
            esr_spectrum(h_subspace, linewidth=linewidth, detuning=5.0)


def test_spectrum_rejects_small_detuning(h_subspace):
    """The detuning must reach the line span: the span itself runs, the
    float below it is refused, and so is a negative detuning whose
    magnitude reaches the span, with a message saying that the detuning
    must be at least the span."""
    with pytest.raises(ConfigError, match="detuning"):
        esr_spectrum(h_subspace, linewidth=0.01, detuning=0.01)
    span = max(abs(p) for p, _ in esr_lines(h_subspace))
    assert esr_spectrum(h_subspace, linewidth=0.01, detuning=span).lines
    with pytest.raises(ConfigError, match="must reach the line span"):
        esr_spectrum(h_subspace, linewidth=0.01, detuning=np.nextafter(span, 0))
    with pytest.raises(ConfigError, match="must reach the line span") as refused:
        esr_spectrum(h_subspace, linewidth=0.01, detuning=-3.0)
    assert f"detuning >= {span:.4f} MHz" in str(refused.value)
    assert "negative" in str(refused.value)


def test_nan_detuning_rejected(system, h_subspace):
    with pytest.raises(ConfigError, match="detuning"):
        esr_spectrum(h_subspace, linewidth=0.01, detuning=np.nan)
    with pytest.raises(ConfigError, match="detuning"):
        electron_fid_scan(basis_state(0, 4), np.nan, np.arange(64) * 0.1, system)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_stationary_state(system, h_subspace):
    seq = PulseSequence((Delay(2.0),), omega1=0.5)
    traj = bloch_trajectory(seq, h_subspace, basis_state(0, 4), dt=0.1)
    assert np.allclose(traj.vectors[:, 0, :], [0, 0, 1], atol=1e-10)


def test_ideal_hadamard_puts_carbon_on_x(system):
    psi = icspin.hadamard_on_carbon(1).matrix @ basis_state(0, 4)
    v = bloch_vector(partial_trace(psi, 1, (2, 2)))
    assert np.linalg.norm(v - np.array([1.0, 0, 0])) < 1e-9


def test_trajectory_endpoint_matches_one_shot(system, h_subspace, hadamard_seq):
    psi0 = basis_state(0, 4)
    traj = bloch_trajectory(hadamard_seq, h_subspace, psi0, dt=0.05)
    u = icspin.sequence_propagator(hadamard_seq, h_subspace)
    psi_end = u @ psi0
    expected = np.stack([
        bloch_vector(partial_trace(psi_end, 0, (2, 2))),
        bloch_vector(partial_trace(psi_end, 1, (2, 2))),
    ])
    assert np.abs(traj.vectors[-1] - expected).max() < 1e-10
    assert traj.times[-1] == pytest.approx(hadamard_seq.duration, abs=1e-12)


TRAJECTORY_SEGMENTS = st.lists(
    st.one_of(st.builds(Delay, st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
              st.builds(Pulse, st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                        st.floats(0.0, np.nextafter(2 * np.pi, 0.0)))),
    max_size=5)


@settings(max_examples=25, deadline=None)
@given(n_carbons=st.integers(1, 4), segs=TRAJECTORY_SEGMENTS, omega1=st.floats(0.3, 0.7),
       dt=st.floats(0.1, 0.5), state_seed=st.integers(0, 2**32 - 1))
@example(n_carbons=1, segs=[Pulse(0.4, 1.0), Pulse(0.25, 4.0), Delay(0.0), Delay(0.7)],
         omega1=0.5, dt=0.3, state_seed=0)
@example(n_carbons=3, segs=[Delay(0.0), Pulse(0.0, 2.0), Delay(0.65), Pulse(0.9, 0.5)],
         omega1=0.48, dt=0.2, state_seed=1)
def test_every_trajectory_sample_matches_the_series_oracle(register_hamiltonians, n_carbons,
                                                           segs, omega1, dt, state_seed):
    """A segment of duration T starting at s is sampled at s + min(k dt, T),
    k = 1 .. ceil((T - 1e-15) / dt), and each sample is the initial state
    propagated by the series oracle through the sequence cut at its time."""
    h = register_hamiltonians[n_carbons]
    rng = np.random.default_rng(state_seed)
    psi0 = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    psi0 /= np.linalg.norm(psi0)
    traj = bloch_trajectory(PulseSequence(tuple(segs), omega1), h, psi0, dt)

    times, states, start = [0.0], [psi0], 0.0
    for i, seg in enumerate(segs):
        before = oracle_sequence_propagator(segs[:i], h, omega1) @ psi0
        for k in range(1, int(np.ceil((seg.duration - 1e-15) / dt)) + 1):
            offset = min(k * dt, seg.duration)
            cut = Delay(offset) if isinstance(seg, Delay) else Pulse(offset, seg.phi)
            times.append(start + offset)
            states.append(oracle_sequence_propagator([cut], h, omega1) @ before)
        start += seg.duration
    assert traj.times.shape == (len(times),)
    assert np.abs(traj.times - times).max() < 1e-12
    assert np.abs(traj.vectors - qubit_bloch_vectors(np.array(states))).max() < 1e-10


def test_trajectory_bloch_norm_bounded(system, h_subspace, cnot_seq):
    traj = bloch_trajectory(cnot_seq, h_subspace, basis_state(0, 4), dt=0.2)
    norms = np.linalg.norm(traj.vectors, axis=2)
    assert norms.max() <= 1.0 + 1e-10


def test_trajectory_needs_positive_dt(system, h_subspace, cnot_seq):
    with pytest.raises(ConfigError, match="dt"):
        bloch_trajectory(cnot_seq, h_subspace, basis_state(0, 4), dt=0.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_trajectory_needs_finite_dt(h_subspace, cnot_seq, dt):
    with pytest.raises(ConfigError, match="dt"):
        bloch_trajectory(cnot_seq, h_subspace, basis_state(0, 4), dt=dt)


def test_trajectory_needs_a_state_vector(h_subspace, cnot_seq):
    psi0 = basis_state(0, 4)
    for initial in (density_matrix(psi0, 4), basis_state(0, 8)):
        with pytest.raises(ValueError, match="initial"):
            bloch_trajectory(cnot_seq, h_subspace, initial, dt=0.1)


@pytest.mark.parametrize("initial", [[3, 0, 0, 0], [np.nan, 0, 0, 0], np.ones(4)],
                         ids=["norm_3", "nan", "norm_2"])
def test_trajectory_state_must_be_normalized(h_subspace, cnot_seq, initial):
    """[3, 0, 0, 0] gave Bloch vectors of length 9; a state vector that is
    not of unit norm is refused, naming `initial`."""
    with pytest.raises(ValueError, match="initial must have shape"):
        bloch_trajectory(cnot_seq, h_subspace, initial, dt=0.5)


def test_spectrum_refuses_a_linewidth_its_grid_cannot_resolve(system, registers):
    """At 1e-6 MHz the 4,001-point grid put a step of about 0.02 MHz
    between samples and the spectrum peaked at 0.002 instead of about 0.5.
    A step of at most a third of the linewidth keeps a line midway between
    two samples at 90% of its peak; the floors sit near 2.04e-4 MHz on two
    qubits and 1.04e-3 MHz on four carbons."""
    for cfg, floor in ((system, 2.04e-4), (registers, 1.04e-3)):
        h = icspin.multiqubit_hamiltonian(cfg)
        for linewidth in (1e-6, 0.98 * floor):
            with pytest.raises(ConfigError, match=f"linewidth {linewidth} MHz is below three "
                                                  "steps of the spectrum grid"):
                esr_spectrum(h, linewidth=linewidth, detuning=5.0)
        spec = esr_spectrum(h, linewidth=1.02 * floor, detuning=5.0)
        step = spec.frequencies[1] - spec.frequencies[0]
        assert step <= 1.02 * floor / 3
        assert spec.amplitudes.max() > 0.9 * max(w for _, w in spec.lines)


@pytest.mark.parametrize("dt", [2e-3, 0.1, 0.37, 40.0])
def test_segment_samples_count_the_trajectory(h_subspace, cnot_seq, dt):
    """The trajectory step budget counts with ``segment_samples``; the
    trajectory takes exactly that many samples after its start, one at least
    for each segment of non-zero length, however short."""
    seq = PulseSequence((Delay(1e-6),) * 5 + cnot_seq.segments + (Pulse(0.0, 0.0),),
                        omega1=cnot_seq.omega1)
    counts = segment_samples(seq, dt)
    traj = bloch_trajectory(seq, h_subspace, basis_state(0, 4), dt)
    assert traj.times.size == 1 + sum(counts)
    assert counts[:5] == [1] * 5 and counts[-1] == 0


# ---------------------------------------------------------------------------
# coherence-time bound


def test_min_coherence_time_values():
    assert min_coherence_time(1.0 / np.pi) == pytest.approx(1.0, rel=1e-12)
    assert min_coherence_time(0.0106) == pytest.approx(30.0, abs=0.1)
    assert min_coherence_time(0.02) == pytest.approx(min_coherence_time(0.01) / 2)
    for linewidth in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            min_coherence_time(linewidth)


# ---------------------------------------------------------------------------
# the range of each scan input


TINY_GRID = np.arange(4) * 1e-310


@pytest.mark.parametrize("call, name", [
    (lambda cfg, h, seq: esr_spectrum(h, 1e-300, 3.0), "linewidth"),
    (lambda cfg, h, seq: esr_spectrum(h, 0.0106, 1e300), "detuning"),
    (lambda cfg, h, seq: esr_spectrum(h, 1e300, 1e300), "linewidth"),
    (lambda cfg, h, seq: hadamard_circuit_scan(None, TINY_GRID, cfg), "t_grid"),
    (lambda cfg, h, seq: electron_fid_scan(basis_state(0, 4), 3.0, TINY_GRID, cfg), "t_grid"),
    (lambda cfg, h, seq: electron_fid_scan(basis_state(0, 4), 1e300, np.arange(64) * 0.1, cfg),
     "nu_d"),
    (lambda cfg, h, seq: min_coherence_time(1e-300), "linewidth"),
    (lambda cfg, h, seq: segment_samples(seq, 0.0), "dt"),
], ids=["esr_linewidth", "esr_detuning", "esr_both", "hadamard_step", "fid_step",
        "fid_detuning", "coherence_linewidth", "segment_dt"])
def test_scan_inputs_out_of_range_are_refused(system, h_subspace, cnot_seq, call, name):
    """The CLI's rules hold for every caller. These calls gave NaN
    amplitudes, 4,001 equal frequencies of 1e300, an OverflowError,
    non-finite spectrum frequencies, an undersampling error that blamed the
    time step, a T2* of 3e299 us and a ZeroDivisionError."""
    with pytest.raises(ConfigError, match=name):
        call(system, h_subspace, cnot_seq)


def test_scan_input_checks_hold_their_bounds():
    """Each bound is accepted and the next float past it is refused, as
    are NaN and infinity, with the caller's label. A NaN time span passed,
    as ``span > MAX_DURATION_US`` is false for it."""
    dt_floor = 0.5 / MAX_CONFIG_VALUE
    linewidth_floor = 1.0 / (np.pi * MAX_DURATION_US)
    past = np.nextafter(MAX_CONFIG_VALUE, np.inf)
    cases = ((check_time_step, (dt_floor, 1e300), (np.nextafter(dt_floor, 0.0), np.inf)),
             (check_linewidth, (linewidth_floor, MAX_CONFIG_VALUE),
              (np.nextafter(linewidth_floor, 0.0), past)),
             (check_detuning, (-MAX_CONFIG_VALUE, 0.0, MAX_CONFIG_VALUE), (-past, past)),
             (check_time_span, (0.0, MAX_DURATION_US), (np.nextafter(MAX_DURATION_US, np.inf),)))
    for check, valid, invalid in cases:
        for value in valid:
            check(value, "--flag")
        for value in (*invalid, np.nan, -np.inf):
            with pytest.raises(ConfigError, match="^--flag must be finite"):
                check(value, "--flag")


# ---------------------------------------------------------------------------
# the size budgets of the scans


@pytest.mark.parametrize("call, message", [
    (lambda cfg, h, seq: hadamard_circuit_scan(None, np.arange(4) * 1e300, cfg),
     r"t_grid span.* must be finite and in \(-inf, 1e\+06\]"),
    (lambda cfg, h, seq: electron_fid_scan(basis_state(0, 4), 3.0,
                                           np.arange(MAX_SCAN_POINTS + 1) * 0.01, cfg),
     "t_grid points.* must be at most"),
    (lambda cfg, h, seq: theta_scan(None, np.linspace(0.0, 2 * np.pi, MAX_SCAN_POINTS + 1),
                                    -1, cfg), "theta_grid points.* must be at most"),
    (lambda cfg, h, seq: segment_samples(seq, 1e-3), "dt.* must be at most"),
    (lambda cfg, h, seq: bloch_trajectory(seq, h, basis_state(0, 4), 1e-3), "dt.* must be at most"),
], ids=["hadamard_span", "fid_points", "theta_points", "segment_steps", "trajectory_steps"])
def test_scan_sizes_past_their_budget_are_refused(system, h_subspace, cnot_seq, call, message):
    """The CLI's budgets hold for every caller. The hadamard scan returned a
    signal of phases near 1e303 rad, and the CNOT's trajectory at 1e-3 us
    takes 16,410 samples."""
    with pytest.raises(ConfigError, match=message):
        call(system, h_subspace, cnot_seq)


def test_scan_sizes_at_their_budget_are_accepted(system, h_subspace):
    """2**16 samples of each scan, a span of MAX_DURATION_US and exactly
    MAX_TRAJECTORY_STEPS steps of a trajectory pass; one more is refused,
    with the caller's label."""
    times = np.arange(MAX_SCAN_POINTS) * 0.01
    assert hadamard_circuit_scan(None, times, system).signal.size == MAX_SCAN_POINTS
    assert electron_fid_scan(basis_state(0, 4), 3.0, times, system).signal.size == MAX_SCAN_POINTS
    thetas = np.linspace(0.0, 2 * np.pi, MAX_SCAN_POINTS)
    assert theta_scan(None, thetas, -1, system).size == MAX_SCAN_POINTS
    slow = SpinSystemConfig(2870.0, 1e-7, (HyperfineCoupling(1e-7, 0.0),))   # step 1e6 us
    hadamard_circuit_scan(None, np.array([0.0, MAX_DURATION_US]), slow)
    seq = PulseSequence((Delay(MAX_TRAJECTORY_STEPS * 0.25),), 0.0)
    assert segment_samples(seq, 0.25) == [MAX_TRAJECTORY_STEPS]
    traj = bloch_trajectory(seq, h_subspace, basis_state(0, 4), 0.25)
    assert traj.times.size == MAX_TRAJECTORY_STEPS + 1
    with pytest.raises(ConfigError, match=r"^trajectory steps \(each segment's duration / --dt"):
        segment_samples(PulseSequence((Delay(MAX_TRAJECTORY_STEPS * 0.25 + 0.25),), 0.0), 0.25,
                        "--dt")
    for check, budget, past, message in (
            (lambda n, where: check_scan_points(n, where, 1), MAX_SCAN_POINTS,
             MAX_SCAN_POINTS + 1, "must be at most"),
            (check_time_span, MAX_DURATION_US, np.nextafter(MAX_DURATION_US, np.inf),
             r"must be finite and in \(-inf, 1e\+06\]")):
        check(budget, "--flag")
        with pytest.raises(ConfigError, match=f"^--flag {message}"):
            check(past, "--flag")


def test_electron_rotation_refuses_a_carbon_count_past_the_budget(monkeypatch):
    """Any count was taken, and a large one asked ``eye`` for a
    2^(n + 1)-dimensional matrix; the count is refused before it is."""
    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(np, "eye", no_matrix)
    with pytest.raises(ConfigError, match="n_carbons must be at most 4, got 5"):
        electron_rotation(np.pi, 0.0, 5)


@pytest.mark.parametrize("thetas", [[0.0, np.nan, np.inf], [0.0, np.nan], [-np.inf, 0.0]])
def test_theta_scan_refuses_a_non_finite_angle(system, thetas):
    """[0, nan, inf] returned [0, nan, nan] with only a RuntimeWarning."""
    with pytest.raises(ConfigError, match=r"theta_grid \(largest magnitude\) must be finite"):
        theta_scan(None, thetas, -1, system)
