"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1 and 2 compare the bundled, verbatim published sequence tables
against their published fidelity figures. Criterion 1 measures the
two-qubit sequences' average over the published amplitude band and passes.
Criterion 2 fails by design rather than being loosened: every bundled
multiqubit sequence leaves the electron flipped on the stand-in four-carbon
register, and its message reports the measured flip weights. Everything
else passes.
"""
import json
import time

import numpy as np
import pytest

import icspin
from icspin.cli import main as cli_main
from icspin.eigenstructure import carbon_eigenstructure
from icspin.experiments import (
    analytic_init_delays,
    esr_spectrum,
    hadamard_circuit_scan,
    simulate_init_sequence,
    theta_scan,
)
from icspin.fidelity import RobustnessReport, gate_fidelity
from icspin.geometry import DipolarGeometry, coupling_from_geometry, dipolar_geometry
from icspin.optimize import GAConfig, ParameterBounds, optimize
from icspin.propagation import sequence_propagator
from icspin.sequence import Delay, Pulse, PulseSequence
from icspin.system import data_path
from icspin.targets import TargetGate

from oracles import (
    closed_form_free_propagator,
    eigen_difference_lines,
    oracle_sequence_propagator,
    random_register_hamiltonian,
)


# The control runs' gate, NOOP: the identity on the electron and the carbon
NOOP = TargetGate(np.eye(4, dtype=complex))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------


def band_average(rep: RobustnessReport) -> float:
    """Trapezoid average of the fidelity over the report's amplitude band."""
    x, f = rep.omega1s, rep.fidelities
    half_steps = np.diff(x) / 2
    w = np.zeros_like(x)
    w[:-1] += half_steps
    w[1:] += half_steps
    return float(w @ f / (x[-1] - x[0]))


def test_band_mean_matches_band_average(h_subspace, cnot_seq):
    """RobustnessReport.band_mean agrees with this module's own trapezoid
    helper, which stays here as the independent reference."""
    rep = icspin.robust_fidelity(cnot_seq, icspin.cnot_on_carbon(1), h_subspace,
                                 (0.48, 0.52), 81)
    assert abs(rep.band_mean - band_average(rep)) < 1e-12


def electron_flip_weight(u: np.ndarray) -> float:
    """Mean probability that u moves the electron out of its input state.

    The electron is the leading tensor factor, so this is the squared norm of
    the two off-diagonal electron blocks over d. A gate that keeps the
    electron's state has weight 0, and a propagator of weight p has trace
    fidelity at most sqrt(1 - p) against such a gate.
    """
    half = u.shape[0] // 2
    off = np.sum(np.abs(u[:half, half:]) ** 2) + np.sum(np.abs(u[half:, :half]) ** 2)
    return float(off / u.shape[0])


def test_criterion_01_two_qubit_table_verification(system, h_subspace,
                                                   hadamard_seq, cnot_seq):
    """Bundled two-qubit sequences against their published robust averages.

    The published figures average over the 0.48-0.52 MHz amplitude band. The
    CNOT's fidelity falls steeply towards 0.52 MHz, so an equal-weight mean of
    a few points that include both band edges understates the band average.
    The band average is taken with trapezoid weights on a grid fine enough
    that doubling it moves the estimate by less than 1e-4.
    """
    band = (0.48, 0.52)
    hadamard, cnot = icspin.hadamard_on_carbon(1), icspin.cnot_on_carbon(1)
    start = time.perf_counter()
    averages, shifts = {}, {}
    for name, seq, target in (("hadamard", hadamard_seq, hadamard), ("cnot", cnot_seq, cnot)):
        coarse, fine = (band_average(icspin.robust_fidelity(seq, target, h_subspace, band, n))
                        for n in (41, 81))
        averages[name] = fine
        shifts[name] = abs(fine - coarse)
    cnot_five_point = icspin.robust_fidelity(cnot_seq, cnot, h_subspace, band, 5).mean
    cnot_nominal = gate_fidelity(icspin.sequence_propagator(cnot_seq, h_subspace), cnot.matrix)
    elapsed = time.perf_counter() - start
    shift = max(shifts.values())
    ok = averages["hadamard"] >= 0.96 and averages["cnot"] >= 0.97 and shift < 1e-4 \
        and elapsed < 1.0
    report(1, "two-qubit sequence table", ok,
           f"band average hadamard={averages['hadamard']:.4f} (need >=0.96), "
           f"cnot={averages['cnot']:.4f} (need >=0.97; five-point mean "
           f"{cnot_five_point:.4f}, at 0.50 MHz {cnot_nominal:.4f}), "
           f"41->81 point shift={shift:.1e}, {elapsed:.2f}s")
    assert elapsed < 1.0
    assert shift < 1e-4, f"band average not converged: 41->81 point shift {shift:.1e}"
    assert averages["hadamard"] >= 0.96
    assert averages["cnot"] >= 0.97, (
        f"bundled cnot sequence: band-average fidelity {averages['cnot']:.4f} < 0.97 "
        f"over 0.48-0.52 MHz (five-point mean {cnot_five_point:.4f}, "
        f"fidelity at 0.50 MHz {cnot_nominal:.4f})."
    )


def test_criterion_02_multiqubit_table_verification(registers):
    """Bundled conditional-rotation sequences on their stated registers."""
    suite = json.loads(data_path("suite_ccrot.json").read_text())
    start = time.perf_counter()
    rows = []
    durations_ok = True
    for case in suite["cases"]:
        cfg = registers.subset(case["carbon_labels"])
        h = icspin.multiqubit_hamiltonian(cfg)
        target = icspin.target_library(case["target"], n_carbons=cfg.n_carbons)
        seq = icspin.load_sequence(data_path(case["sequence"]))
        u = icspin.sequence_propagator(seq, h)  # nominal amplitude 0.5 MHz
        f = gate_fidelity(u, target.matrix)
        genome = icspin.genome_from_sequence(seq)
        exact_duration = float(genome[: 2 * seq.n_pulses + 1].sum())
        durations_ok &= abs(seq.duration - exact_duration) < 1e-9
        durations_ok &= abs(seq.duration - case["reference_duration_us"]) <= 0.06
        rows.append((case["name"], f, case["reference_fidelity"], electron_flip_weight(u)))
    elapsed = time.perf_counter() - start
    fidelity_ok = all(abs(f - ref) <= 0.02 for _, f, ref, _ in rows)
    detail = ", ".join(f"{n}:{f:.3f}/{ref:.3f} flip={p:.2f}" for n, f, ref, p in rows)
    flips = [p for *_, p in rows]
    report(2, "multiqubit sequence table", fidelity_ok and durations_ok and elapsed < 5.0,
           detail + f", {elapsed:.2f}s")
    assert elapsed < 5.0
    assert durations_ok
    assert fidelity_ok, (
        "bundled multiqubit sequences do not reproduce their reference fidelity "
        "column within +-0.02 (fidelity/reference, electron-flip weight): " + detail
        + f". The rows' electron-flip weights p are {min(flips):.2f}-{max(flips):.2f}; "
        "the conditional-rotation targets keep the electron's state, so a row can "
        f"reach at most sqrt(1 - p), here {np.sqrt(1 - min(flips)):.2f} at best, "
        "whatever it does to the carbons. Durations match the printed sums "
        "exactly and the same propagator reproduces the two-qubit table; "
        "system_4c.json is a stand-in register (carbon 1's couplings rescaled), "
        "not the register the published table was computed for."
    )


def test_criterion_03_analytic_initialization_delays(system):
    tau1, tau2 = analytic_init_delays(system)
    pops, coherence, _ = simulate_init_sequence(system)
    ok = (
        abs(tau1 - 2.28) <= 0.01
        and abs(tau2 - 1.53) <= 0.01
        and abs(pops[0] - 0.5) <= 1e-6
        and abs(pops[1] - 0.5) <= 1e-6
        and abs(coherence - 0.5) <= 1e-6
    )
    report(3, "analytic initialization delays", ok,
           f"tau1={tau1:.4f}, tau2={tau2:.4f}, pops=({pops[0]:.7f},{pops[1]:.7f}), "
           f"coh={coherence:.7f}")
    assert tau1 == pytest.approx(2.28, abs=0.01)
    assert tau2 == pytest.approx(1.53, abs=0.01)
    assert pops[0] == pytest.approx(0.5, abs=1e-6)
    assert pops[1] == pytest.approx(0.5, abs=1e-6)
    assert coherence == pytest.approx(0.5, abs=1e-6)


def test_criterion_04_eigenstructure(system):
    eig = carbon_eigenstructure(system)
    h_minus = icspin.multiqubit_hamiltonian(system)[2:, 2:]
    h_plus = icspin.multiqubit_hamiltonian(system, m_s=+1)[2:, 2:]
    resid = 0.0
    for h, states in ((h_minus, (eig.phi_minus, eig.psi_minus)),
                      (h_plus, (eig.phi_plus, eig.psi_plus))):
        for v in states:
            lam = np.real(v.conj() @ h @ v)
            resid = max(resid, float(np.linalg.norm(h @ v - lam * v)))
    ok = 86.0 <= eig.kappa_minus_deg <= 87.0 and abs(eig.nu_minus - 0.110) <= 0.001 \
        and resid < 1e-10
    report(4, "carbon eigenstructure", ok,
           f"kappa-={eig.kappa_minus_deg:.3f} deg, nu-={eig.nu_minus:.5f} MHz, "
           f"residual={resid:.2e}")
    assert 86.0 <= eig.kappa_minus_deg <= 87.0
    assert eig.nu_minus == pytest.approx(0.110, abs=0.001)
    assert resid < 1e-10


def test_criterion_05_dipolar_geometry(system):
    geom = dipolar_geometry(system.single_carbon())
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.3, 3.0))
        theta = float(rng.uniform(0.5, 179.5))
        c = coupling_from_geometry(DipolarGeometry(r, theta))
        back = dipolar_geometry(c)
        worst = max(
            worst,
            abs(back.r_nm - r) / r,
            abs(back.theta_deg - theta) / max(theta, 1.0),
        )
    ok = abs(geom.r_nm - 0.8924) <= 0.01 and abs(geom.theta_deg - 78.0) <= 1.0 \
        and worst < 1e-9
    report(5, "dipolar geometry", ok,
           f"r={geom.r_nm:.4f} nm, theta={geom.theta_deg:.2f} deg, "
           f"roundtrip worst rel err={worst:.2e}")
    assert geom.r_nm == pytest.approx(0.8924, abs=0.01)
    assert geom.theta_deg == pytest.approx(78.0, abs=1.0)
    assert worst < 1e-9


def test_criterion_06_ideal_circuit_laws(system):
    t = np.arange(1024) * 0.2
    had = hadamard_circuit_scan(None, t, system)
    law_h = (1 + np.cos(2 * np.pi * system.nu_c * t)) / 2
    err_h = float(np.abs(had.signal - law_h).max())
    peak = had.spectrum.peak_frequency()

    noop = hadamard_circuit_scan(None, t, system, first_gate=NOOP)
    flat_err = float(np.abs(noop.signal - noop.signal.mean()).max())
    nu_c_bin = int(np.argmin(np.abs(noop.spectrum.frequencies - system.nu_c)))
    noop_peak_amp = float(noop.spectrum.amplitudes[nu_c_bin])

    thetas = np.linspace(0, 2 * np.pi, 101)
    scan = theta_scan(None, thetas, -1, system)
    err_t = float(np.abs(scan - (1 - np.cos(thetas)) / 2).max())
    noop_scan = theta_scan(NOOP, thetas, -1, system)
    err_noop = float(np.abs(noop_scan).max())

    ok = err_h < 1e-9 and abs(peak - 0.158) < 0.005 and flat_err < 1e-9 \
        and noop_peak_amp < 1e-9 and err_t < 1e-9 and err_noop < 1e-9
    report(6, "ideal circuit laws", ok,
           f"hadamard err={err_h:.1e}, peak={peak:.4f} MHz, noop flat={flat_err:.1e}, "
           f"theta err={err_t:.1e}, noop theta={err_noop:.1e}")
    assert err_h < 1e-9
    assert abs(peak - 0.158) < 0.005
    assert flat_err < 1e-9
    assert noop_peak_amp < 1e-9
    assert err_t < 1e-9
    assert err_noop < 1e-9


def test_criterion_07_optimizer_from_scratch(system, h_subspace):
    bounds = ParameterBounds(n_pulses=3, tau_max=4.0, t_max=4.0)
    cfg = GAConfig(seed=0)  # default settings, fixed seed

    start = time.perf_counter()
    res_h = optimize(icspin.hadamard_on_carbon(1), h_subspace, bounds, cfg)
    t_h = time.perf_counter() - start
    start = time.perf_counter()
    res_c = optimize(icspin.cnot_on_carbon(1), h_subspace, bounds, cfg)
    t_c = time.perf_counter() - start

    mono_h = bool(np.all(np.diff(res_h.history) >= 0))
    mono_c = bool(np.all(np.diff(res_c.history) >= 0))
    ok = res_h.best_fitness >= 0.96 and res_c.best_fitness >= 0.95 \
        and t_h < 300 and t_c < 300 and mono_h and mono_c
    report(7, "optimizer from scratch", ok,
           f"hadamard F={res_h.best_fitness:.4f} in {t_h:.0f}s, "
           f"cnot F={res_c.best_fitness:.4f} in {t_c:.0f}s")
    assert res_h.best_fitness >= 0.96
    assert res_c.best_fitness >= 0.95
    assert t_h < 300 and t_c < 300
    assert mono_h and mono_c


def test_criterion_08_numerical_kernels(system, h_subspace):
    """Every propagator comes from the propagation engine: random delay and
    pulse sequences on random register-shaped Hamiltonians (real and
    block-diagonal in the electron, d = 4 to 32) against the series oracle,
    then the 4-level free evolution against its closed form."""
    def delay(h, tau):
        return sequence_propagator(PulseSequence((Delay(tau),), 0.0), h)

    rng = np.random.default_rng(777)
    worst_oracle = 0.0
    worst_unitary = 0.0
    for _ in range(100):
        dim = int(rng.choice([4, 8, 16, 32]))
        h = random_register_hamiltonian(rng, dim, scale=0.5)
        segments = [Delay(float(rng.uniform(0, 2.0))) if rng.random() < 0.5
                    else Pulse(float(rng.uniform(0, 2.0)), float(rng.uniform(0, 2 * np.pi)))
                    for _ in range(int(rng.integers(1, 5)))]
        omega1 = float(rng.uniform(0, 1))
        u = sequence_propagator(PulseSequence(tuple(segments), omega1), h)
        ref = oracle_sequence_propagator(segments, h, omega1)
        worst_oracle = max(worst_oracle, float(np.abs(u - ref).max()))
        worst_unitary = max(
            worst_unitary, float(np.abs(u.conj().T @ u - np.eye(dim)).max())
        )

    worst_closed = 0.0
    for tau in rng.uniform(0, 25, size=50):
        diff = np.abs(
            delay(h_subspace, float(tau)) - closed_form_free_propagator(system, float(tau))
        ).max()
        worst_closed = max(worst_closed, float(diff))

    worst_comp = 0.0
    for _ in range(20):
        a, b = rng.uniform(0, 8, size=2)
        diff = np.abs(
            delay(h_subspace, a) @ delay(h_subspace, b) - delay(h_subspace, a + b)
        ).max()
        worst_comp = max(worst_comp, float(diff))

    ok = worst_oracle < 1e-10 and worst_unitary < 1e-10 and worst_closed < 1e-12 \
        and worst_comp < 1e-10
    report(8, "numerical kernels", ok,
           f"engine vs series={worst_oracle:.1e}, unitarity={worst_unitary:.1e}, "
           f"closed form={worst_closed:.1e}, composition={worst_comp:.1e}")
    assert worst_oracle < 1e-10
    assert worst_unitary < 1e-10
    assert worst_closed < 1e-12
    assert worst_comp < 1e-10


def test_criterion_09_spectra(system, registers, h_subspace):
    h6 = icspin.multiqubit_hamiltonian(registers)
    spec6 = esr_spectrum(h6, linewidth=0.005, detuning=5.0)
    oracle = sorted(5.0 + np.array(eigen_difference_lines(h6)))
    positions = sorted(p for p, _ in spec6.lines)
    stick_err = float(np.abs(np.array(positions) - np.array(oracle)).max())

    spec2 = esr_spectrum(h_subspace, linewidth=0.01, detuning=3.0)
    n_lower = len(spec2.resolvable_lines())
    spec_up = esr_spectrum(icspin.multiqubit_hamiltonian(system, m_s=+1),
                           linewidth=0.01, detuning=3.0)
    n_upper = len(spec_up.resolvable_lines())

    ok = stick_err < 1e-10 and n_lower == 4 and n_upper == 2
    report(9, "spectra", ok,
           f"six-qubit stick err={stick_err:.1e}, working-subspace lines={n_lower}, "
           f"upper-manifold resolvable={n_upper}")
    assert stick_err < 1e-10
    assert n_lower == 4
    assert n_upper == 2


def test_criterion_10_cli_determinism(tmp_path):
    system = str(data_path("system_2q.json"))
    cnot = str(data_path("sequences/cnot.json"))
    jobs = [
        ["verify", "--system", system, "--sequence", cnot, "--target", "cnot"],
        ["scan", "--kind", "hadamard", "--system", system, "--points", "128",
         "--dt", "0.2"],
        ["scan", "--kind", "theta", "--system", system, "--points", "41"],
        ["report", "--system", system],
        ["optimize", "--system", system, "--target", "hadamard", "--pulses", "2",
         "--seed", "9", "--ga-config", str(tmp_path / "ga.json")],
    ]
    (tmp_path / "ga.json").write_text(json.dumps({"population": 16, "generations": 4}))
    identical = True
    for k, job in enumerate(jobs):
        out1, out2 = tmp_path / f"r{k}a", tmp_path / f"r{k}b"
        assert cli_main(job + ["--out", str(out1)]) == 0
        assert cli_main(job + ["--out", str(out2)]) == 0
        for p in sorted(out1.iterdir()):
            if p.name == "manifest.json":
                continue
            identical &= p.read_bytes() == (out2 / p.name).read_bytes()
    report(10, "CLI determinism", identical, f"{len(jobs)} commands, repeated runs")
    assert identical
