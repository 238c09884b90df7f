import json
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import icspin
from icspin.cli import main
from icspin.fidelity import RobustnessReport
from icspin.kernels import BATCH_ENTRIES
from icspin.optimize import MAX_POPULATION, ga_config_from_dict
from icspin.operators import ConfigError
from icspin.sequence import MAX_DURATION_US, MAX_SEGMENTS
from icspin.system import MAX_CONFIG_VALUE, data_path
from icspin.targets import TargetGate


SYSTEM = str(data_path("system_2q.json"))
HADAMARD = str(data_path("sequences/hadamard.json"))
CNOT = str(data_path("sequences/cnot.json"))


def run(args):
    return main(args)


def data_files(out: Path):
    return sorted(p for p in out.iterdir() if p.name != "manifest.json")


def write_two_carbon_system(path: Path) -> Path:
    """The four-carbon register's document with its carbons 1 and 2 only."""
    doc = json.loads(data_path("system_4c.json").read_text())
    doc["carbons"] = doc["carbons"][:2]
    path.write_text(json.dumps(doc))
    return path


# A one-carbon (d = 4) GA on this grid whose population is two kernel chunks
TWO_CHUNK_GRID = "0.48,0.52,101"
TWO_CHUNK_POPULATION = 2 * (BATCH_ENTRIES // (101 * 4 * 4))


def test_verify_bundled_hadamard(tmp_path, capsys):
    out = tmp_path / "v"
    assert run(["verify", "--system", SYSTEM, "--sequence", HADAMARD,
                "--target", "hadamard", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["mean_fidelity"] >= 0.96
    assert len(doc["fidelities"]) == 5
    assert "mean F" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


def test_verify_exit_zero_on_low_fidelity(tmp_path):
    """A poor match is data, not a failure."""
    out = tmp_path / "v"
    assert run(["verify", "--system", SYSTEM, "--sequence", HADAMARD,
                "--target", "cnot", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["mean_fidelity"] < 0.9


def test_verify_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--system", str(bad), "--sequence", HADAMARD,
                "--target", "hadamard", "--out", str(tmp_path / "o")]) == 1


def test_verify_target_must_fit_register(tmp_path):
    multi = str(data_path("system_4c.json"))
    assert run(["verify", "--system", multi, "--sequence", HADAMARD,
                "--target", "ccrot:1,180", "--out", str(tmp_path / "o")]) == 0
    # carbon index beyond the register is a usage error
    assert run(["verify", "--system", multi, "--sequence", HADAMARD,
                "--target", "ccrot:7,180", "--out", str(tmp_path / "o2")]) == 1


def test_verify_unknown_target_is_usage_error(tmp_path):
    assert run(["verify", "--system", SYSTEM, "--sequence", HADAMARD,
                "--target", "nope", "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["verify", "optimize"])
@pytest.mark.parametrize("target", ["hadamard:7", "cnot:junk", "cnot:", "ccrot:0,90",
                                    "ccrot:1,nan", "ccrot:nope", "toffoli"])
def test_bad_target_is_usage_error_naming_the_flag(tmp_path, capsys, command, target):
    """hadamard and cnot took any parameters and recorded the mistyped name,
    and the carbon-range, parameter and angle errors did not name --target."""
    args = ["--sequence", CNOT] if command == "verify" else []
    out = tmp_path / "o"
    assert run([command, "--system", SYSTEM, "--target", target, *args,
                "--out", str(out)]) == 1
    assert "--target" in capsys.readouterr().err
    assert not out.exists()


def test_empty_sequence_against_identity(tmp_path):
    """A zero-duration genome scores unit fidelity against a zero-angle
    conditional rotation."""
    seq = tmp_path / "empty.json"
    seq.write_text(json.dumps({"omega1_MHz": 0.5, "segments": []}))
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", str(seq),
                "--target", "ccrot:1,0", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["mean_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_optimize_writes_artifacts_and_is_deterministic(tmp_path):
    args = ["optimize", "--system", SYSTEM, "--target", "hadamard",
            "--pulses", "2", "--seed", "3",
            "--ga-config", str(tmp_path / "ga.json")]
    (tmp_path / "ga.json").write_text(json.dumps({"population": 20, "generations": 6}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("best_sequence.json", "history.csv", "result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    result = json.loads((out1 / "result.json").read_text())
    hist = result["history"]
    assert all(b >= a for a, b in zip(hist, hist[1:]))
    seq = icspin.load_sequence(out1 / "best_sequence.json")
    assert seq.n_pulses == 2


def test_optimize_manifest_explains_the_search(tmp_path):
    ga = tmp_path / "ga.json"
    base = ["optimize", "--system", SYSTEM, "--target", "hadamard", "--pulses", "2",
            "--seed", "2", "--grid", "0.48,0.52,3", "--ga-config", str(ga)]
    ga.write_text(json.dumps({"population": 10, "generations": 3, "early_stop": None}))
    assert run(base + ["--out", str(tmp_path / "budget")]) == 0
    ga.write_text(json.dumps({"population": 10, "generations": 3, "early_stop": 0.0,
                              "restarts": 2}))
    assert run(base + ["--out", str(tmp_path / "early")]) == 0
    facts = ("generations_run", "fitness_evaluations", "stop_reason")
    # genomes scored: the population and 8 children a generation, summed
    # over restarts, and the best once, times 3 grid points
    for name, expected in (("budget", (3, (10 + 3 * 8 + 1) * 3, "budget")),
                           ("early", (0, (2 * 10 + 1) * 3, "early_stop"))):
        out = tmp_path / name
        manifest = json.loads((out / "manifest.json").read_text())
        assert tuple(manifest[key] for key in facts) == expected
        for data in data_files(out):
            assert not any(key in data.read_text() for key in facts), data.name


def _no_mode_dicts(mode=None):
    raise TypeError("show_config() got an unexpected keyword argument 'mode'")


@pytest.mark.parametrize("show_config", [
    _no_mode_dicts, lambda mode: {}, lambda mode: {"Build Dependencies": {}},
], ids=["no_mode_dicts", "no_build_dependencies", "no_blas"])
def test_manifest_blas_unknown_without_numpy_build_facts(monkeypatch, show_config):
    """A numpy without show_config(mode="dicts"), or without a BLAS entry in
    it, gives an unknown BLAS rather than an error."""
    monkeypatch.setattr(np, "show_config", show_config)
    assert icspin.cli._blas() == {"name": "unknown", "version": "unknown"}


@pytest.mark.parametrize("command", ["verify", "optimize", "scan", "report"])
def test_manifest_records_cpus_and_versions(tmp_path, command):
    """Every manifest records the CPUs the fitness kernel may run on, from
    which the threads of its calls follow. verify and optimize time their
    phases; the scan and report phases are checked below."""
    out = tmp_path / "o"
    (tmp_path / "ga.json").write_text(json.dumps({"population": 10, "generations": 1}))
    argv = {"verify": ["verify", "--sequence", CNOT, "--target", "cnot"],
            "optimize": ["optimize", "--target", "cnot", "--pulses", "2",
                         "--ga-config", str(tmp_path / "ga.json")],
            "scan": ["scan", "--kind", "spectrum"],
            "report": ["report"]}[command]
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cpus"] == icspin.kernels.cpu_workers()
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["thread_env"] == {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if command in ("verify", "optimize"):
        work = "evaluate" if command == "verify" else "search"
        phases = manifest["phase_seconds"]
        assert sorted(phases) == sorted(["load", "hamiltonian", work, "write"])
        assert all(seconds >= 0.0 for seconds in phases.values())
    assert manifest["phase_cpu_seconds"].keys() == manifest["phase_seconds"].keys()
    assert all(math.isfinite(seconds) and seconds >= 0.0
               for seconds in manifest["phase_cpu_seconds"].values())
    for data in data_files(out):
        for key in ("cpus", "phase_seconds", "phase_cpu_seconds", "thread_env"):
            assert key not in data.read_text(), (data.name, key)


@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_verify_and_optimize_build_one_engine_in_the_hamiltonian_phase(tmp_path, monkeypatch,
                                                                       command):
    """The eigendecomposition is timed with the Hamiltonian: the command
    builds the engine of its band before the kernel, which reuses it."""
    events = []
    original = icspin.propagation.PropagationEngine.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        events.append("engine")

    monkeypatch.setattr(icspin.propagation.PropagationEngine, "__init__", spy)
    work = icspin.cli.robust_fidelity if command == "verify" else icspin.cli.optimize

    def traced(*args):
        events.append(work.__name__)
        return work(*args)

    monkeypatch.setattr(icspin.cli, work.__name__, traced)
    if command == "verify":
        argv = ["verify", "--sequence", CNOT, "--target", "cnot"]
    else:
        (tmp_path / "ga.json").write_text(json.dumps({"population": 10, "generations": 1}))
        argv = ["optimize", "--target", "cnot", "--ga-config", str(tmp_path / "ga.json")]
    assert run(argv + ["--system", SYSTEM, "--out", str(tmp_path / "o")]) == 0
    assert events == ["engine", work.__name__]


def test_a_second_pass_of_commands_builds_no_engine(tmp_path, monkeypatch):
    """Commands that move among registers and bands in one process
    diagonalize each of them once: the second pass reuses every engine."""
    built = []
    original = icspin.propagation.PropagationEngine.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.omega1s.size)

    monkeypatch.setattr(icspin.propagation.PropagationEngine, "__init__", spy)
    register = str(data_path("system_4c.json"))
    passes = [["verify", "--sequence", CNOT, "--target", "cnot", "--system", SYSTEM],
              ["verify", "--sequence", HADAMARD, "--target", "hadamard", "--system", SYSTEM,
               "--grid", "0.48,0.52,81"],
              ["verify", "--sequence", str(data_path("sequences/ccrot_n6_a.json")),
               "--target", "ccrot:1,180", "--system", register, "--grid", "0.48,0.52,81"],
              ["scan", "--kind", "theta", "--system", SYSTEM],
              ["scan", "--kind", "spectrum", "--system", SYSTEM]]
    counts = []
    for attempt in range(2):
        before = len(built)
        for i, argv in enumerate(passes):
            assert run(argv + ["--out", str(tmp_path / f"{attempt}_{i}")]) == 0
        counts.append(len(built) - before)
    assert counts[0] >= 3
    assert counts[1] == 0


@pytest.mark.parametrize("argv", [
    ["scan", "--kind", "hadamard"],
    ["scan", "--kind", "theta"],
    ["scan", "--kind", "fid"],
    ["scan", "--kind", "spectrum"],
    ["scan", "--kind", "trajectory", "--sequence", CNOT],
    ["report"],
], ids=lambda argv: argv[2] if argv[0] == "scan" else argv[0])
def test_scan_and_report_manifests_time_their_phases(tmp_path, argv):
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("phase_seconds", "phase_cpu_seconds"):
        assert sorted(manifest[key]) == ["compute", "load", "write"]
        assert all(math.isfinite(seconds) and seconds >= 0.0
                   for seconds in manifest[key].values())
    for data in data_files(out):
        assert "phase_seconds" not in data.read_text(), data.name
        assert "phase_cpu_seconds" not in data.read_text(), data.name


def test_python_dash_m_icspin_runs_the_cli():
    src = str(Path(icspin.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "icspin", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert icspin.__version__ in proc.stdout


def test_optimize_zero_generations(tmp_path):
    (tmp_path / "ga.json").write_text(json.dumps({"population": 16, "generations": 0}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "hadamard",
                "--pulses", "2", "--seed", "1",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert len(result["history"]) == 1


@pytest.mark.parametrize("band", ["flag", "ga_config"])
def test_optimize_saves_the_sequence_at_the_band_centre(tmp_path, band):
    """The saved sequence runs at the centre of the band it was optimized
    on; it was saved at 0.5 MHz whatever the band."""
    ga = {"population": 8, "elites": 1, "generations": 1}
    argv = ["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "2",
            "--ga-config", str(tmp_path / "ga.json"), "--out", str(tmp_path / "o")]
    if band == "flag":
        argv += ["--grid", "0.9,1.1,3"]
    else:
        ga["omega1_grid"] = {"min_MHz": 0.9, "max_MHz": 1.1, "points": 3}
    (tmp_path / "ga.json").write_text(json.dumps(ga))
    assert run(argv) == 0
    result = json.loads((tmp_path / "o" / "result.json").read_text())
    assert result["omega1_nominal_MHz"] == 1.0
    assert result["robustness"]["omega1s_MHz"] == [0.9, 1.0, 1.1]
    assert json.loads((tmp_path / "o" / "best_sequence.json").read_text())["omega1_MHz"] == 1.0


def test_grid_flag_and_ga_document_band_write_the_same_files(tmp_path):
    """--grid and a GA document's omega1_grid are one band: the same data
    files byte for byte, and the same ``ga`` in the manifest."""
    band = {"min_MHz": 0.45, "max_MHz": 0.55, "points": 4}
    ga = {"population": 12, "elites": 1, "generations": 3}
    argv = ["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "2", "--seed", "3"]
    (tmp_path / "flag.json").write_text(json.dumps(ga))
    (tmp_path / "doc.json").write_text(json.dumps({**ga, "omega1_grid": band}))
    assert run(argv + ["--grid", "0.45,0.55,4", "--ga-config", str(tmp_path / "flag.json"),
                       "--out", str(tmp_path / "flag")]) == 0
    assert run(argv + ["--ga-config", str(tmp_path / "doc.json"),
                       "--out", str(tmp_path / "doc")]) == 0
    flag, doc = data_files(tmp_path / "flag"), data_files(tmp_path / "doc")
    assert [p.name for p in flag] == [p.name for p in doc]
    assert [p.read_bytes() for p in flag] == [p.read_bytes() for p in doc]
    manifests = [json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in ("flag", "doc")]
    assert manifests[0]["inputs"]["ga"] == manifests[1]["inputs"]["ga"]
    assert manifests[0]["inputs"]["ga"]["omega1_grid"] == band


def test_optimize_invalid_bounds_usage_error(tmp_path):
    assert run(["optimize", "--system", SYSTEM, "--target", "hadamard",
                "--pulses", "0", "--out", str(tmp_path / "o")]) == 1


def test_optimize_multiqubit_target(tmp_path):
    sys_path = write_two_carbon_system(tmp_path / "system_2c.json")
    (tmp_path / "ga.json").write_text(json.dumps({"population": 60, "generations": 60}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", str(sys_path), "--target", "ccrot:1,180",
                "--pulses", "4", "--tau-max", "4.5", "--t-max", "2.5",
                "--seed", "1", "--ga-config", str(tmp_path / "ga.json"),
                "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["best_fitness"] > 0.8
    seq = icspin.load_sequence(out / "best_sequence.json")
    assert seq.duration < 20.0


def test_scan_hadamard_peak(tmp_path):
    out = tmp_path / "s"
    assert run(["scan", "--kind", "hadamard", "--system", SYSTEM,
                "--points", "512", "--dt", "0.2", "--out", str(out)]) == 0
    doc = json.loads((out / "hadamard.json").read_text())
    assert doc.keys() == {"peak_MHz"}   # the signal and its times live in the CSV
    assert doc["peak_MHz"] == pytest.approx(0.158, abs=0.005)
    text = (out / "hadamard_signal.csv").read_text().splitlines()
    assert text[0] == "time_us,signal"
    assert len(text) == 513


def test_scan_theta_matches_law(tmp_path):
    out = tmp_path / "s"
    assert run(["scan", "--kind", "theta", "--system", SYSTEM, "--gate", "cnot",
                "--points", "101", "--out", str(out)]) == 0
    rows = (out / "theta_scan.csv").read_text().splitlines()[1:]
    thetas, p = np.array([[float(x) for x in r.split(",")] for r in rows]).T
    assert np.abs(p - (1 - np.cos(thetas)) / 2).max() < 1e-9


NOOP = TargetGate(np.eye(4))   # the control runs' gate: the identity on electron and carbon


@pytest.mark.parametrize("kind, flags, gate", [
    ("hadamard", ["--noop"], NOOP),
    ("theta", ["--gate", "noop"], NOOP),
    ("theta", ["--gate", "cnot"], None),
    ("theta", ["--gate", "noop", "--readout", "0"], NOOP),
], ids=["hadamard_noop", "theta_noop", "theta_cnot", "theta_noop_readout_0"])
def test_scan_gate_flags_are_gate_values(tmp_path, kind, flags, gate):
    """--noop and --gate noop are the identity TargetGate, and --gate cnot
    is None, the scan's ideal gate: the CLI writes the library's arrays."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--points", "64", *flags,
                "--out", str(out)]) == 0
    cfg = icspin.load_system(SYSTEM)
    if kind == "hadamard":
        written = np.loadtxt(out / "hadamard_signal.csv", delimiter=",", skiprows=1)[:, 1]
        expected = icspin.hadamard_circuit_scan(None, np.arange(64) * 0.1, cfg,
                                                first_gate=gate).signal
    else:
        written = np.loadtxt(out / "theta_scan.csv", delimiter=",", skiprows=1)[:, 1]
        readout = int(flags[-1]) if "--readout" in flags else -1
        expected = icspin.theta_scan(gate, np.linspace(0.0, 2 * np.pi, 64), readout, cfg)
    assert np.array_equal(written, expected)


def test_scan_fid_and_spectrum_and_trajectory(tmp_path):
    out = tmp_path / "f"
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--state", "thermal",
                "--points", "1024", "--dt", "0.12", "--out", str(out)]) == 0
    assert (out / "fid_spectrum.csv").exists()

    out = tmp_path / "sp"
    assert run(["scan", "--kind", "spectrum", "--system", SYSTEM,
                "--detuning", "3.0", "--out", str(out)]) == 0
    lines = json.loads((out / "esr_lines.json").read_text())["lines"]
    assert len(lines) == 4

    out = tmp_path / "tr"
    assert run(["scan", "--kind", "trajectory", "--system", SYSTEM,
                "--sequence", HADAMARD, "--dt", "0.1", "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "time_us,ex,ey,ez,cx,cy,cz"


def test_trajectory_csv_columns(tmp_path):
    """One carbon's columns are cx,cy,cz; several carbons' are numbered in
    label order."""
    two_carbons = write_two_carbon_system(tmp_path / "two_carbons.json")
    seq = tmp_path / "delay.json"
    seq.write_text(json.dumps({"omega1_MHz": 0.5, "segments": [{"delay_us": 0.5}]}))
    headers = []
    for i, system in enumerate((SYSTEM, two_carbons)):
        out = tmp_path / f"o{i}"
        assert run(["scan", "--kind", "trajectory", "--system", str(system),
                    "--sequence", str(seq), "--dt", "0.25", "--out", str(out)]) == 0
        headers.append((out / "trajectory.csv").read_text().splitlines()[0])
    assert headers == ["time_us,ex,ey,ez,cx,cy,cz",
                       "time_us,ex,ey,ez,c1x,c1y,c1z,c2x,c2y,c2z"]


def test_scan_trajectory_requires_sequence(tmp_path):
    assert run(["scan", "--kind", "trajectory", "--system", SYSTEM,
                "--out", str(tmp_path / "o")]) == 1


def test_report_contents(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["report", "--system", SYSTEM, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert 86.0 <= doc["kappa_minus_deg"] <= 87.0
    assert doc["nu_minus_MHz"] == pytest.approx(0.110, abs=1e-3)
    assert doc["init_tau1_us"] == pytest.approx(2.28, abs=0.01)
    assert doc["init_tau2_us"] == pytest.approx(1.53, abs=0.01)
    assert doc["dipolar_r_nm"] == pytest.approx(0.8924, abs=0.01)
    assert doc["dipolar_theta_deg"] == pytest.approx(78.0, abs=1.0)
    assert doc["min_T2_star_us"] == pytest.approx(30.0, abs=0.2)
    assert (out / "report.txt").exists()


def test_report_linewidth_scaling(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["report", "--system", SYSTEM, "--linewidth", "0.01", "--out", str(out1)])
    run(["report", "--system", SYSTEM, "--linewidth", "0.02", "--out", str(out2)])
    t1 = json.loads((out1 / "report.json").read_text())["min_T2_star_us"]
    t2 = json.loads((out2 / "report.json").read_text())["min_T2_star_us"]
    assert t2 == pytest.approx(t1 / 2, rel=1e-12)


def test_report_flags_unavailable_delays(tmp_path):
    cfg = {
        "D_MHz": 2870.0, "nu_e_MHz": -414.0, "nu_C_MHz": 0.158, "A_N_MHz": -2.16,
        "carbons": [{"A_zz_MHz": 0.3, "A_zx_MHz": 0.0}],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run(["report", "--system", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["init_tau1_us"] == "n/a"
    assert doc["kappa_minus_deg"] == 0.0


def test_report_flags_unavailable_cleanup(tmp_path):
    """A register without a secular coupling has no clean-up delay: it is
    reported as n/a with the reason, like the init delays."""
    cfg = json.loads(Path(SYSTEM).read_text())
    cfg["carbons"] = [{"A_zz_MHz": 0, "A_zx_MHz": 0.2}]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run(["report", "--system", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["cleanup_tau_c_us"] == "n/a"
    assert "secular" in doc["cleanup_note"]


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus_nu_c", "plus_nu_c"])
def test_report_field_free_manifold_writes_na(tmp_path, sign):
    """A_zz = -nu_C (or +nu_C) with A_zx = 0 leaves the m_S = -1 (or +1) tilt
    angle undefined: the tilts, frequencies and init delays are n/a with the
    reason, and the rest of the register is still reported."""
    cfg = json.loads(Path(SYSTEM).read_text())
    cfg["carbons"] = [{"A_zz_MHz": sign * cfg["nu_C_MHz"], "A_zx_MHz": 0.0}]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run(["report", "--system", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    for key in ("kappa_minus_deg", "kappa_plus_deg", "nu_minus_MHz", "nu_plus_MHz",
                "init_tau1_us", "init_tau2_us"):
        assert doc[key] == "n/a", key
    assert "effective field vanishes" in doc["eigenstructure_note"]
    assert "effective field vanishes" in doc["init_delay_note"]
    assert doc["cleanup_tau_c_us"] == pytest.approx(0.5 / cfg["nu_C_MHz"])
    assert doc["dipolar_theta_deg"] == pytest.approx(90.0 if sign < 0 else 0.0)
    assert "eigenstructure_note" in (out / "report.txt").read_text()


def test_report_nan_quantity_is_internal_error(tmp_path, monkeypatch, capsys):
    """A NaN in a data file is a fault of the program, not of --out."""
    monkeypatch.setattr(icspin.cli, "min_coherence_time", lambda linewidth: float("nan"))
    assert run(["report", "--system", SYSTEM, "--out", str(tmp_path / "r")]) == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["carbon_eigenstructure", "dipolar_geometry"])
def test_report_program_fault_is_no_na(tmp_path, monkeypatch, capsys, name):
    """The n/a table catches only ConfigError, a refused register: a plain
    ValueError from a computation is a fault of the program, which exits 2
    and is written as no "n/a"."""
    def fault(*args):
        raise ValueError("planted fault")

    monkeypatch.setattr(icspin.cli, name, fault)
    out = tmp_path / "r"
    assert run(["report", "--system", SYSTEM, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "internal error: planted fault" in captured.err
    assert "n/a" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("early_stop", [2.0, -1.0])
def test_early_stop_outside_the_unit_interval_is_usage_error(tmp_path, capsys, early_stop):
    """A fidelity threshold lies in [0, 1]: 2.0 ran the whole budget like
    null, and -1.0 stopped before the first generation like 0.0."""
    (tmp_path / "ga.json").write_text(json.dumps({"early_stop": early_stop}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "GA config early_stop must be finite and in [0, 1]" in err
    assert not out.exists()


# One cheap run of each command, and a data file it writes
OUT_RUNS = {
    "verify": (["verify", "--sequence", CNOT, "--target", "cnot"], "verify.json"),
    "optimize": (["optimize", "--target", "cnot", "--pulses", "1"], "result.json"),
    "scan": (["scan", "--kind", "theta", "--points", "8"], "theta_scan.csv"),
    "report": (["report"], "report.txt"),
}


@pytest.mark.parametrize("case", ["a_file", "under_a_file", "data_file_is_a_dir",
                                  "manifest_is_a_dir"])
@pytest.mark.parametrize("command", list(OUT_RUNS))
def test_unusable_out_is_usage_error(tmp_path, capsys, command, case):
    """An --out that is a file, lies under one, or has a directory where a
    file goes exits 1 naming --out; it exited 2 as an internal error."""
    argv, data_file = OUT_RUNS[command]
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = {"a_file": afile, "under_a_file": afile / "sub"}.get(case, tmp_path / "o")
    if case.endswith("is_a_dir"):
        (out / (data_file if case == "data_file_is_a_dir" else "manifest.json")).mkdir(parents=True)
    if command == "optimize":
        (tmp_path / "ga.json").write_text(json.dumps({"population": 4, "generations": 0}))
        argv = argv + ["--ga-config", str(tmp_path / "ga.json")]
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--out {out} cannot be written" in err
    assert "internal error" not in err
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("command", list(OUT_RUNS))
def test_rerun_over_longer_files_writes_the_same_bytes(tmp_path, command):
    """A rerun into an --out whose every output file holds longer bytes
    writes each file over in place and cuts it to length: the data files
    are byte-equal to those of the run into a fresh --out, and the manifest
    differs only in its timings and its time of writing."""
    argv, _ = OUT_RUNS[command]
    if command == "optimize":
        (tmp_path / "ga.json").write_text(json.dumps({"population": 4, "generations": 2}))
        argv = argv + ["--ga-config", str(tmp_path / "ga.json"), "--seed", "3"]
    out = tmp_path / "o"
    argv = argv + ["--system", SYSTEM, "--out", str(out)]
    assert run(argv) == 0
    fresh = {path.name: path.read_bytes() for path in out.iterdir()}
    for name, data in fresh.items():
        (out / name).write_bytes(data * 3 + b"\x00stale tail\n")
    assert run(argv) == 0
    rerun = {path.name: path.read_bytes() for path in out.iterdir()}
    assert rerun.keys() == fresh.keys() and len(fresh) > 1
    manifests = [json.loads(files.pop("manifest.json")) for files in (fresh, rerun)]
    assert rerun == fresh
    for manifest in manifests:
        for key in ("phase_seconds", "phase_cpu_seconds", "written_at_unix"):
            del manifest[key]
    assert manifests[0] == manifests[1]


def test_report_needs_one_carbon(tmp_path, capsys):
    """Its tilt angles, delays and geometry describe one carbon; on a larger
    register they described carbon 1 without saying so."""
    out = tmp_path / "r"
    assert run(["report", "--system", str(data_path("system_4c.json")), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "exactly one carbon" in err
    assert "carbons holds 4" in err
    assert not out.exists()


def test_rerun_reproduces_data_files_byte_identically(tmp_path):
    """Identical inputs and seed give byte-identical data files; only the
    manifest carries a timestamp."""
    for kind, extra in (
        ("verify", ["--sequence", CNOT, "--target", "cnot"]),
        ("scan", ["--kind", "hadamard", "--points", "128", "--dt", "0.2"]),
        ("report", []),
    ):
        out1, out2 = tmp_path / f"{kind}1", tmp_path / f"{kind}2"
        base = [kind, "--system", SYSTEM] + extra
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        names1 = [p.name for p in data_files(out1)]
        names2 = [p.name for p in data_files(out2)]
        assert names1 == names2 and names1
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (kind, name)


# "" is a given --grid, refused like any other
BAD_GRIDS = ["0.48,0.52,0", "0.48,0.52,-3", "0.52,0.48,5", "nan,0.52,5", "0.48,inf,5", ""]


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_verify_bad_grid_is_usage_error(tmp_path, grid):
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
                "--grid", grid, "--out", str(out)]) == 1
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_optimize_bad_grid_is_usage_error(tmp_path, grid):
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--grid", grid, "--out", str(out)]) == 1
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_negative_grid_amplitude_is_usage_error(tmp_path, command):
    out = tmp_path / "o"
    args = ["--sequence", CNOT] if command == "verify" else []
    assert run([command, "--system", SYSTEM, "--target", "cnot", *args,
                "--grid=-0.1,0.52,5", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("ga_doc", [
    {"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 0}},
    {"mutation_scale": -0.05},
    {"omega1_grid": {"min_MHz": -0.2, "max_MHz": 0.52, "points": 5}},
    [{"population": 10}],
    {"omega1_grid": {"min_MHz": 0.48, "points": 5}},
    {"populaton": 5, "generations": 0},
    {"generations": 1.5},
    {"seed": -1},
    {"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 2.7}},
    {"population": "10"},
    [1, 2],
])
def test_optimize_bad_ga_config_is_usage_error(tmp_path, capsys, ga_doc):
    (tmp_path / "ga.json").write_text(json.dumps(ga_doc))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    assert not (out / "result.json").exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [[], ["--seed", "2"], ["--grid", "0.48,0.52,3"]],
                         ids=["no_flag", "seed", "grid"])
@pytest.mark.parametrize("ga_doc", [[1, 2], "abc", 5], ids=["list", "str", "int"])
def test_optimize_non_object_ga_config_is_usage_error(tmp_path, capsys, ga_doc, flags):
    """The document reaches ga_config_from_dict before a flag is applied, so
    its one rule refuses it, with or without --seed and --grid."""
    (tmp_path / "ga.json").write_text(json.dumps(ga_doc))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", *flags,
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"GA config must be a JSON object, got {type(ga_doc).__name__}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,error", [
    ("--seed", "-1", "error: --seed: seed must be an integer >= 0, got -1"),
    ("--grid", "", "error: --grid expects 'min,max,points', got ''"),
    ("--ga-config", "", "error: cannot read "),
], ids=["seed", "grid", "ga_config"])
def test_optimize_refuses_a_given_flag_value(tmp_path, capsys, flag, value, error):
    """A refused --seed names --seed, not the GA config's seed; an empty
    --grid or --ga-config is given, not left out (both ran on the defaults)."""
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", flag, value,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


@pytest.mark.parametrize("ga_doc,key", [
    ({"mutation_scale": 1e308}, "mutation_scale"),
    ({"elites": 0}, "elites"),
    ({"omega1_grid": {"min_MHz": 1.0, "max_MHz": 0.5, "points": 3}}, "min_MHz"),
], ids=["mutation_scale_1e308", "elites_0", "omega1_grid_min_above_max"])
def test_ga_config_error_names_its_key(tmp_path, capsys, ga_doc, key):
    """The mutation noise overflowed at a scale of 1e308 (exit 2), and the
    other two messages named GAConfig fields, not the document's keys."""
    (tmp_path / "ga.json").write_text(json.dumps({**ga_doc, "generations": 1}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_optimize_infinite_mutation_scale_is_usage_error(tmp_path, capsys):
    """Python's json reads Infinity; the GA config still needs a finite scale."""
    (tmp_path / "ga.json").write_text('{"mutation_scale": Infinity, "generations": 1}')
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    assert "mutation_scale" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command,where,value", [
    ("verify", "--grid", "0.48,1e300,3"),
    ("optimize", "--grid", "0.48,2870,3"),
    ("optimize", "omega1_grid max_MHz", 1e308),
], ids=["verify_grid", "optimize_grid", "optimize_ga_config"])
def test_amplitude_not_below_d_is_usage_error(tmp_path, capsys, command, where, value):
    """The driven two-level working subspace needs drive amplitudes below the
    register's zero-field splitting D (2870 MHz here)."""
    out = tmp_path / "o"
    argv = [command, "--system", SYSTEM, "--target", "cnot", "--out", str(out)]
    if command == "verify":
        argv += ["--sequence", CNOT]
    if where == "--grid":
        argv += ["--grid", value]
    else:
        (tmp_path / "ga.json").write_text(json.dumps(
            {"omega1_grid": {"min_MHz": 0.48, "max_MHz": value, "points": 3}}))
        argv += ["--ga-config", str(tmp_path / "ga.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert where in err and "D_MHz" in err
    assert not out.exists()


@pytest.mark.parametrize("ga, flags, where", [
    (None, [], "default band max_MHz"),
    ({"population": 4, "elites": 1}, [], "default band max_MHz"),
    (None, ["--grid", "0.48,0.52,5"], "--grid max"),
    ({"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 5}}, [],
     "GA config omega1_grid max_MHz"),
], ids=["default", "ga_config_without_band", "grid", "ga_config_band"])
def test_amplitude_not_below_d_names_what_set_the_band(tmp_path, capsys, ga, flags, where):
    """With D_MHz 0.5 the default band's 0.52 MHz is refused. Without --grid
    the message named the GA config's omega1_grid, also when no GA config
    was given or it set no band."""
    doc = json.loads(Path(SYSTEM).read_text())
    doc["D_MHz"] = 0.5
    (tmp_path / "system.json").write_text(json.dumps(doc))
    if ga is not None:
        (tmp_path / "ga.json").write_text(json.dumps(ga))
        flags = flags + ["--ga-config", str(tmp_path / "ga.json")]
    out = tmp_path / "o"
    assert run(["optimize", "--system", str(tmp_path / "system.json"), "--target", "cnot",
                *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {where} (below D_MHz) must be finite and in [0, 0.5), got 0.52" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--system", ""],
    ["verify", "--system", SYSTEM, "--sequence", "", "--target", "cnot"],
    ["optimize", "--system", SYSTEM, "--target", "cnot", "--ga-config", ""],
], ids=["report_system", "verify_sequence", "optimize_ga_config"])
def test_an_empty_path_flag_is_usage_error(tmp_path, capsys, argv):
    """An empty path named the working directory, and the command said
    "cannot read : [Errno 21] Is a directory: '.'"."""
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert "error: cannot read '': the path is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["hadamard", "theta", "trajectory"])
def test_scan_sequence_amplitude_not_below_d_is_usage_error(tmp_path, capsys, kind):
    doc = json.loads(Path(CNOT).read_text())
    doc["omega1_MHz"] = 3000
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--sequence", str(seq),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--sequence omega1_MHz" in err and "D_MHz" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case", ["verify_grid", "optimize_ga_config_grid", "scan_points",
                                  "trajectory_dt", "trajectory_segments", "optimize_pulses",
                                  "optimize_population", "verify_sequence_pulses",
                                  "scan_sequence_pulses", "sequence_segments"])
def test_size_past_its_budget_is_usage_error(tmp_path, capsys, case):
    """Each size is past its budget, so the command is refused before it
    allocates anything of that size. The GA configs run no generation, so a
    missing check costs one small population. 12_000 delays of 1e-6 us
    last less than one --dt, yet the trajectory samples each of them: 12_000
    steps. Zero-length delays pass every duration and step budget; only
    the segment count bounds them."""
    ga = tmp_path / "ga.json"
    ga.write_text(json.dumps({"omega1_grid": {
        "min_MHz": 0.48, "max_MHz": 0.52, "points": icspin.fidelity.MAX_GRID_POINTS + 1}}))
    small_ga = tmp_path / "small_ga.json"
    small_ga.write_text(json.dumps({"population": 4, "elites": 1, "generations": 0}))
    large_ga = tmp_path / "large_ga.json"
    large_ga.write_text(json.dumps(
        {"population": MAX_POPULATION + 1, "generations": 0}))
    dt = icspin.load_sequence(CNOT).duration / (icspin.experiments.MAX_TRAJECTORY_STEPS + 1)
    delays = tmp_path / "delays.json"
    delays.write_text(json.dumps({"omega1_MHz": 0.5, "segments": [{"delay_us": 1e-6}] * 12_000}))
    pulses = tmp_path / "pulses.json"
    pulses.write_text(json.dumps(
        {"omega1_MHz": 0.5, "segments": [{"pulse_us": 0.01}] * (icspin.sequence.MAX_PULSES + 1)}))
    empty_delays = tmp_path / "empty_delays.json"
    empty_delays.write_text(json.dumps(
        {"omega1_MHz": 0.5, "segments": [{"delay_us": 0}] * (MAX_SEGMENTS + 1)}))
    argv, flag, written = {
        "verify_grid": (["verify", "--sequence", CNOT, "--target", "cnot", "--grid",
                         f"0.48,0.52,{icspin.fidelity.MAX_GRID_POINTS + 1}"],
                        "--grid points", "verify.json"),
        "optimize_ga_config_grid": (["optimize", "--target", "cnot", "--ga-config", str(ga)],
                                    "GA config omega1_grid points", "result.json"),
        "scan_points": (["scan", "--kind", "hadamard",
                         "--points", str(icspin.experiments.MAX_SCAN_POINTS + 1)],
                        "--points", "hadamard.json"),
        "trajectory_dt": (["scan", "--kind", "trajectory", "--sequence", CNOT, "--dt", repr(dt)],
                          "--dt", "trajectory.json"),
        "trajectory_segments": (["scan", "--kind", "trajectory", "--sequence", str(delays),
                                 "--dt", "0.1"], "trajectory steps", "trajectory.json"),
        "optimize_pulses": (["optimize", "--target", "cnot", "--ga-config", str(small_ga),
                             "--pulses", str(icspin.sequence.MAX_PULSES + 1)],
                            "--pulses", "result.json"),
        "optimize_population": (["optimize", "--target", "cnot", "--ga-config", str(large_ga)],
                                "GA config population", "result.json"),
        "verify_sequence_pulses": (["verify", "--sequence", str(pulses), "--target", "cnot"],
                                   "--sequence pulses", "verify.json"),
        "scan_sequence_pulses": (["scan", "--kind", "theta", "--sequence", str(pulses)],
                                 "--sequence pulses", "theta_scan.csv"),
        "sequence_segments": (["verify", "--sequence", str(empty_delays), "--target", "cnot"],
                              "segments", "verify.json"),
    }[case]
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert flag in err and "at most" in err
    assert not (out / written).exists()


def test_verify_reports_band_mean(tmp_path, capsys):
    out = tmp_path / "v"
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
                "--grid", "0.48,0.52,81", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    rep = RobustnessReport(np.array(doc["omega1_grid_MHz"]),
                                  np.array(doc["fidelities"]))
    assert doc["band_mean_fidelity"] == rep.band_mean
    assert doc["mean_fidelity"] == rep.mean
    assert doc["band_mean_fidelity"] >= 0.97
    assert "band mean F" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {"omega1_MHz": 0.5, "segments": [{"delay_us": "abc"}]},
    {"omega1_MHz": 0.5, "segments": [{"pulse_us": 1.0, "phase_rad": "x"}]},
    {"omega1_MHz": 0.5, "segments": "xx"},
    {"omega1_MHz": float("nan"), "segments": [{"delay_us": 1.0}]},
], ids=["delay_string", "phase_string", "segments_string", "omega1_nan"])
def test_verify_malformed_sequence_is_usage_error(tmp_path, capsys, doc):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", str(seq), "--target", "cnot",
                "--out", str(out)]) == 1
    assert not (out / "verify.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("segments" in err or "omega1" in err)


def _typo_docs():
    """cnot.json with a misspelt phase key, an unknown top-level key, and a
    segment that is both a delay and a pulse, each with the key to name."""
    doc = json.loads(Path(CNOT).read_text())
    phase = json.loads(json.dumps(doc))
    for seg in phase["segments"]:
        if "phase_rad" in seg:
            seg["phase"] = seg.pop("phase_rad")
    both = json.loads(json.dumps(doc))
    both["segments"][0]["pulse_us"] = 1.0
    return [(phase, "'phase'"), ({**doc, "omega1_Mhz": 0.5}, "'omega1_Mhz'"),
            (both, "'pulse_us'")]


@pytest.mark.parametrize("doc, key", _typo_docs(), ids=["phase", "omega1_Mhz", "delay_and_pulse"])
def test_verify_sequence_with_unknown_key_is_usage_error(tmp_path, capsys, doc, key):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", str(seq), "--target", "cnot",
                "--out", str(out)]) == 1
    assert not (out / "verify.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("flag", ["--system", "--sequence", "--ga-config"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_input_file_is_usage_error(tmp_path, capsys, flag, kind):
    """A directory or a file that is not UTF-8 exits 1, naming the path."""
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"omega1_MHz": "\xff"}')
    if flag == "--ga-config":
        argv = ["optimize", "--system", SYSTEM, "--ga-config", str(bad)]
    else:
        argv = ["verify", "--system", SYSTEM, "--sequence", CNOT]
        argv[argv.index(flag) + 1] = str(bad)
    assert run(argv + ["--target", "cnot", "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


@pytest.mark.parametrize("kind", ["hadamard", "theta", "fid", "spectrum", "trajectory"])
@pytest.mark.parametrize("dt", ["0", "-0.1", "nan", "inf"])
def test_scan_bad_dt_is_usage_error(tmp_path, kind, dt):
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--sequence", CNOT,
                "--dt", dt, "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_non_finite_fidelity_is_internal_error(tmp_path, monkeypatch, capsys):
    """A chain that produced NaN propagators makes verify exit 2 and
    write no data file."""
    def broken(self, genomes, u, spare, pulses, grid):
        u[...] = np.nan
        return u, np.ones((len(genomes), self.dim), dtype=complex)

    monkeypatch.setattr(icspin.propagation.PropagationEngine, "chain", broken)
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
                "--out", str(out)]) == 2
    assert not (out / "verify.json").exists()
    assert "internal error: fidelity outside [0, 1]" in capsys.readouterr().err


def test_optimize_non_finite_fitness_is_internal_error(tmp_path, monkeypatch, capsys):
    """An engine with NaN mixing matrices makes the kernel raise before the
    GA ranks a genome, so optimize exits 2 and writes no result."""
    original = icspin.propagation.PropagationEngine.__init__

    def broken(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.mix = np.full_like(self.mix, np.nan)

    monkeypatch.setattr(icspin.propagation.PropagationEngine, "__init__", broken)
    (tmp_path / "ga.json").write_text(json.dumps({"population": 10, "generations": 2}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "2",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 2
    assert not (out / "result.json").exists()
    assert "internal error" in capsys.readouterr().err


def test_optimize_nan_from_a_pool_thread_is_internal_error(tmp_path, monkeypatch, capsys):
    """NaN propagators in the chunk that a pool thread runs still make
    optimize exit 2 and write no result: the range check covers the rows of
    every thread. The calling thread holds its first chunk until the pool
    thread has taken the other one."""
    original = icspin.propagation.PropagationEngine.chain
    poisoned = threading.Event()

    def broken(self, genomes, u, spare, pulses, grid):
        u, last = original(self, genomes, u, spare, pulses, grid)
        if threading.current_thread() is threading.main_thread():
            poisoned.wait(timeout=30.0)
        else:
            u[...] = np.nan
            poisoned.set()
        return u, last

    monkeypatch.setattr(icspin.kernels, "cpu_workers", lambda: 2)
    monkeypatch.setattr(icspin.propagation.PropagationEngine, "chain", broken)
    (tmp_path / "ga.json").write_text(
        json.dumps({"population": TWO_CHUNK_POPULATION, "generations": 2}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "2",
                "--grid", TWO_CHUNK_GRID, "--ga-config", str(tmp_path / "ga.json"),
                "--out", str(out)]) == 2
    assert poisoned.is_set()
    assert not (out / "result.json").exists()
    assert "internal error" in capsys.readouterr().err


def test_verify_non_finite_target_angle_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["verify", "--system", str(data_path("system_4c.json")), "--sequence", CNOT,
                "--target", "ccrot:1,nan", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("angle, code", [("1e308", 1), ("-1e7", 1), ("-720", 0), ("1e6", 0)])
def test_verify_target_angle_past_its_ceiling_is_usage_error(tmp_path, capsys, angle, code):
    """A ccrot angle of 1e308 degrees kept no digit below 720 and was scored;
    |theta| is capped at MAX_CONFIG_VALUE degrees, like the CLI's other numbers."""
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT,
                "--target", f"ccrot:1,{angle}", "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        limit = np.radians(MAX_CONFIG_VALUE)
        assert err.startswith(f"error: --target: ccrot angle in radians must be finite and in "
                              f"[{-limit:g}, {limit:g}], got {math.radians(float(angle))!r}")
        assert not out.exists()


def test_scan_fid_negative_detuning_beyond_nyquist_is_usage_error(tmp_path, capsys):
    """--detuning -5 at the default dt 0.1 us (Nyquist 5 MHz) would alias."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", "-5",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "undersamples" in err and "detuning" in err
    assert not out.exists()


def test_scan_fid_detuning_inside_line_span_is_usage_error(tmp_path, capsys):
    """The sticks sit at detuning + offset, offsets up to 0.134 MHz on this
    register: a smaller |--detuning| folded lines over zero, as spectrum
    refuses. A negative detuning outside the span still runs."""
    out = tmp_path / "o"
    for detuning in ("0", "-0.1"):
        assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", detuning,
                    "--out", str(out)]) == 1
        assert "detuning" in capsys.readouterr().err
        assert not out.exists()
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", "-3",
                "--out", str(out)]) == 0
    doc = json.loads((out / "fid_spectrum.json").read_text())
    assert doc.keys() == {"lines"}   # the spectrum's arrays live in fid_spectrum.csv
    assert all(p < 0 for p, _ in doc["lines"])


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_scan_leaves_out_as_it_found_it(tmp_path, capsys, existing):
    """A scan that fails after its inputs loaded makes no --out, nor a parent
    of it, and keeps an --out that was there, with its files."""
    out = tmp_path / "parent" / "o"
    if existing:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept")
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", "1e5",
                "--out", str(out)]) == 1
    assert "undersamples" in capsys.readouterr().err
    if existing:
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
    else:
        assert not out.parent.exists()


@pytest.mark.parametrize("kind", ["hadamard", "theta", "fid"])
def test_two_qubit_scans_need_one_carbon(tmp_path, capsys, kind):
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", str(data_path("system_4c.json")),
                "--out", str(out)]) == 1
    assert "exactly one carbon" in capsys.readouterr().err
    assert not out.exists()


def _edit_nu_c_nan(doc):
    doc["nu_C_MHz"] = float("nan")


def _edit_coupling_inf(doc):
    doc["carbons"][0]["A_zx_MHz"] = float("inf")


def _edit_d_bool(doc):
    doc["D_MHz"] = True


def _edit_coupling_string(doc):
    doc["carbons"][0]["A_zz_MHz"] = "-0.152"


def _edit_b0_string(doc):
    doc["B0_mT"] = "14.8"


def _edit_carbon_unknown_key(doc):
    doc["carbons"][0]["label"] = 2


def _edit_nu_c_zero(doc):
    doc["nu_C_MHz"] = 0


def _edit_couplings_zero(doc):
    doc["carbons"][0].update(A_zz_MHz=0, A_zx_MHz=0)


def _edit_no_carbons(doc):
    doc["carbons"] = []


def _edit_five_carbons(doc):
    doc["carbons"] *= 5


@pytest.mark.parametrize("edit,field", [
    (_edit_nu_c_nan, "nu_C_MHz"),
    (_edit_coupling_inf, "carbons[0].A_zx_MHz"),
    (_edit_d_bool, "D_MHz"),
    (_edit_coupling_string, "carbons[0].A_zz_MHz"),
    (_edit_b0_string, "B0_mT"),
    (_edit_carbon_unknown_key, "label"),
    (_edit_nu_c_zero, "nu_C_MHz"),
    (_edit_couplings_zero, "A_zz_MHz"),
    (_edit_no_carbons, "number of carbons must be an integer >= 1, got 0"),
    (_edit_five_carbons, "number of carbons must be at most 4, got 5"),
], ids=["nu_c_nan", "coupling_inf", "d_bool", "coupling_string", "b0_string",
        "carbon_unknown_key", "nu_c_zero", "couplings_zero", "no_carbons", "five_carbons"])
def test_verify_malformed_system_is_usage_error(tmp_path, capsys, edit, field):
    doc = json.loads(Path(SYSTEM).read_text())
    edit(doc)
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["verify", "--system", str(system), "--sequence", CNOT, "--target", "cnot",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("command", ["report", "verify"])
def test_system_with_negative_d_is_usage_error(tmp_path, capsys, command):
    """A negative D loaded: report ran on it, and verify blamed --grid max.
    Both now refuse the register itself."""
    doc = json.loads(Path(SYSTEM).read_text())
    doc["D_MHz"] = -5
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = {"report": ["report"],
            "verify": ["verify", "--sequence", CNOT, "--target", "cnot"]}[command]
    assert run(argv + ["--system", str(system), "--out", str(out)]) == 1
    assert "error: D_MHz must be finite and in (0, 1e+06], got -5" in capsys.readouterr().err
    assert not out.exists()


def test_report_on_a_system_without_carbons_is_usage_error(tmp_path, capsys):
    doc = json.loads(Path(SYSTEM).read_text())
    doc["carbons"] = []
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["report", "--system", str(system), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: number of carbons must be an integer >= 1, got 0")
    assert not out.exists()


@pytest.mark.parametrize("argv,field", [
    (["report", "--linewidth", "nan"], "--linewidth"),
    (["scan", "--kind", "spectrum", "--linewidth", "nan"], "--linewidth"),
    (["optimize", "--target", "cnot", "--tau-max", "nan"], "tau_max"),
    (["scan", "--kind", "theta", "--points", "0"], "--points"),
    (["scan", "--kind", "spectrum", "--detuning", "nan"], "--detuning"),
    (["scan", "--kind", "fid", "--detuning", "nan"], "--detuning"),
    (["report", "--linewidth", "1e308"], "--linewidth"),
    (["scan", "--kind", "spectrum", "--linewidth", "1e308"], "--linewidth"),
    (["optimize", "--target", "cnot", "--pulses", "0"], "pulses"),
    (["scan", "--kind", "hadamard", "--points", "1"],
     "--points for --kind hadamard must be an integer >= 2, got 1"),
    (["scan", "--kind", "fid", "--points", "1"],
     "--points for --kind fid must be an integer >= 2, got 1"),
], ids=["report_linewidth_nan", "spectrum_linewidth_nan", "optimize_tau_max_nan",
        "theta_points_0", "spectrum_detuning_nan", "fid_detuning_nan",
        "report_linewidth_1e308", "spectrum_linewidth_1e308", "optimize_pulses_0",
        "hadamard_points_1", "fid_points_1"])
def test_bad_flag_is_usage_error(tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


LINEWIDTH_FLOOR = 1.0 / (np.pi * MAX_DURATION_US)


@pytest.mark.parametrize("argv", [["report"], ["scan", "--kind", "spectrum"]],
                         ids=["report", "scan_spectrum"])
@pytest.mark.parametrize("linewidth", ["1e-300", "1e-320", repr(0.99 * LINEWIDTH_FLOOR)])
def test_linewidth_below_its_floor_is_usage_error(tmp_path, capsys, argv, linewidth):
    """A tiny linewidth wrote NaN spectrum rows or an infinite T2*; below
    1 / (pi * MAX_DURATION_US) the T2* it implies is longer than any
    duration the package accepts."""
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--linewidth", linewidth, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --linewidth must be finite and in "
                          f"[{LINEWIDTH_FLOOR:g}, {MAX_CONFIG_VALUE:g}], got {float(linewidth)!r}")
    assert not out.exists()


def test_linewidth_at_its_floor_runs(tmp_path):
    out = tmp_path / "o"
    floor = repr(LINEWIDTH_FLOOR)
    assert run(["report", "--system", SYSTEM, "--linewidth", floor, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["min_T2_star_us"] == \
        pytest.approx(MAX_DURATION_US, rel=1e-12)
    assert run(["scan", "--kind", "spectrum", "--system", SYSTEM, "--linewidth", floor,
                "--out", str(out)]) == 0
    assert "nan" not in (out / "esr_spectrum.csv").read_text()


@pytest.mark.parametrize("kind,flag", [
    ("fid", ["--sequence", CNOT]),
    ("spectrum", ["--sequence", CNOT]),
    ("theta", ["--noop"]),
    ("fid", ["--noop"]),
    ("hadamard", ["--gate", "noop"]),
    ("spectrum", ["--gate", "cnot"]),
    ("trajectory", ["--readout", "0"]),
    ("hadamard", ["--readout", "-1"]),
    ("spectrum", ["--state", "thermal"]),
    ("theta", ["--state", "pure"]),
    ("theta", ["--dt", "5"]),
    ("spectrum", ["--points", "3"]),
    ("fid", ["--linewidth", "0.2"]),
    ("trajectory", ["--points", "7"]),
], ids=lambda v: v if isinstance(v, str) else v[0][2:])
def test_scan_flag_its_kind_never_reads_is_usage_error(tmp_path, capsys, kind, flag):
    """A flag the kind ignores is refused, even at its default value, before
    --out is made."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, *flag, "--out", str(out)]) == 1
    assert f"error: {flag[0]} is not read by --kind {kind}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,extra,inputs", [
    ("spectrum", [], {"detuning": 3.0, "linewidth": 0.0106}),
    ("fid", ["--state", "thermal"], {"state": "thermal", "detuning": 3.0, "points": 256,
                                     "dt": 0.1}),
    ("hadamard", ["--noop"], {"sequence": None, "noop": True, "points": 256, "dt": 0.1}),
    ("theta", ["--sequence", CNOT], {"sequence": CNOT, "readout": -1, "points": 256}),
    ("trajectory", ["--sequence", CNOT], {"sequence": CNOT, "dt": 0.1}),
    ("theta", [], {"sequence": None, "gate": "cnot", "readout": -1, "points": 256}),
])
def test_scan_manifest_records_the_inputs_its_kind_read(tmp_path, kind, extra, inputs):
    """Only the flags the scan read: with --sequence the theta scan never
    reads --gate, so its default is not recorded."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, *extra, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"system": SYSTEM, "kind": kind, **inputs}


@pytest.mark.parametrize("argv", [
    ["verify", "--sequence", CNOT, "--target", "cnot"],
    ["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
     "--grid", "-0.1,0.52,5"],
], ids=["missing_system", "grid_value_after_space"])
def test_argparse_usage_error_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["scan", "--help"]])
def test_help_and_version_exit_0(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    """After the first call, no call builds a parser, and the parser's
    messages go to the streams of the call that prints them."""
    run(["report", "--system", SYSTEM, "--out", str(tmp_path / "warm")])
    built = []
    original = icspin.cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(icspin.cli._Parser, "__init__", spy)
    capsys.readouterr()
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
                "--out", str(tmp_path / "v")]) == 0
    assert run(["scan", "--kind", "spectrum", "--system", SYSTEM,
                "--out", str(tmp_path / "s")]) == 0
    assert run(["report", "--system", SYSTEM, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--sequence", CNOT, "--target", "cnot"])
    assert exc.value.code == 1
    assert "--system" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert icspin.__version__ in capsys.readouterr().out
    assert built == []


def test_no_flag_carries_over_to_the_next_call(tmp_path):
    """Scan defaults and --seed belong to the call that parsed them."""
    manifests = []
    for i, gate in enumerate((["--gate", "noop"], [])):
        out = tmp_path / f"theta{i}"
        assert run(["scan", "--kind", "theta", "--system", SYSTEM, "--points", "8", *gate,
                    "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert [m["inputs"]["gate"] for m in manifests] == ["noop", "cnot"]

    ga_doc = {"population": 4, "elites": 1, "generations": 0}
    (tmp_path / "ga.json").write_text(json.dumps(ga_doc))
    seeds = []
    for i, seed in enumerate((["--seed", "5"], [])):
        out = tmp_path / f"ga{i}"
        assert run(["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "1",
                    "--ga-config", str(tmp_path / "ga.json"), *seed, "--out", str(out)]) == 0
        seeds.append(json.loads((out / "manifest.json").read_text())["seed"])
    assert seeds == [5, ga_config_from_dict(ga_doc).seed]


def _overflowing_system(tmp_path, edit):
    doc = json.loads(Path(SYSTEM).read_text())
    edit(doc)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _edit_nu_c_huge(doc):
    doc["nu_C_MHz"] = 1e308


def _edit_couplings_huge(doc):
    doc["carbons"][0].update(A_zz_MHz=1e308, A_zx_MHz=1e308)


@pytest.mark.parametrize("argv,edit,field,low", [
    (["verify", "--sequence", CNOT, "--target", "cnot"], _edit_nu_c_huge, "nu_C_MHz", "(0"),
    (["optimize", "--target", "cnot", "--pulses", "1"], _edit_nu_c_huge, "nu_C_MHz", "(0"),
    (["scan", "--kind", "fid"], _edit_nu_c_huge, "nu_C_MHz", "(0"),
    (["scan", "--kind", "hadamard"], _edit_nu_c_huge, "nu_C_MHz", "(0"),
    (["report"], _edit_couplings_huge, "carbons[0].A_zz_MHz", "[-1e+06"),
], ids=["verify", "optimize", "scan_fid", "scan_hadamard", "report"])
def test_system_number_past_its_ceiling_is_usage_error(tmp_path, capsys, argv, edit, field,
                                                       low):
    """A frequency of 1e308 MHz overflowed 2 pi f t into NaN signals, an
    invalid report.json or a misleading internal error; the register's
    ceiling refuses it with the field (and the interval's floor) named."""
    out = tmp_path / "o"
    system = _overflowing_system(tmp_path, edit)
    assert run(argv + ["--system", system, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite and in {low}, 1e+06], got 1e+308")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--target", "cnot"],
    ["scan", "--kind", "hadamard"],
    ["scan", "--kind", "theta"],
], ids=["verify", "scan_hadamard", "scan_theta"])
def test_sequence_duration_past_its_ceiling_is_usage_error(tmp_path, capsys, argv):
    doc = json.loads(Path(CNOT).read_text())
    doc["segments"][0]["delay_us"] = 1e308
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--sequence", str(seq), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: segments[0].delay_us must be finite and in [0, 1e+06]")
    assert not out.exists()


@pytest.mark.parametrize("index,key,value,field", [
    (1, "pulse_us", -1.0, "segments[1].pulse_us"),
    (3, "phase_rad", 7.0, "segments[3].phase_rad"),
    (None, "omega1_MHz", -0.5, "omega1_MHz"),
], ids=["pulse_us", "phase_rad", "omega1"])
def test_sequence_value_error_names_its_path(tmp_path, capsys, index, key, value, field):
    doc = json.loads(Path(CNOT).read_text())
    (doc if index is None else doc["segments"][index])[key] = value
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", str(seq), "--target", "cnot",
                "--out", str(out)]) == 1
    assert f"error: {field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tau-max", "--t-max"])
def test_optimize_bound_past_the_duration_ceiling_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", flag, "1e308",
                "--out", str(out)]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["hadamard", "fid"])
def test_scan_time_span_past_the_duration_ceiling_is_usage_error(tmp_path, capsys, kind):
    out = tmp_path / "o"
    dt = repr(1.01 * MAX_DURATION_US / 255)
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--points", "256", "--dt", dt,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--dt in us must be finite and in (-inf, 1e+06]" in err
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("flag,value,ga_doc", [
    ("--seed", "5", {"seed": 3, "generations": 0}),
    ("--grid", "0.48,0.52,3",
     {"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 3}, "generations": 0}),
], ids=["seed", "grid"])
def test_flag_and_the_ga_config_key_it_also_sets_is_usage_error(tmp_path, capsys, flag, value,
                                                                 ga_doc):
    (tmp_path / "ga.json").write_text(json.dumps(ga_doc))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", flag, value,
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert flag in err and next(iter(ga_doc)) in err
    assert not out.exists()


def test_optimize_faulty_genome_is_internal_error(tmp_path, monkeypatch, capsys):
    """A best genome that is no valid sequence is the GA's fault, not the
    user's: the ConfigError it raises exits 2, not 1, and nothing is
    written."""
    def faulty(*args, **kwargs):
        raise ConfigError("faulty genome")

    monkeypatch.setattr(sys.modules["icspin.optimize"], "sequence_from_genome", faulty)
    (tmp_path / "ga.json").write_text(json.dumps({"population": 4, "elites": 1,
                                                  "generations": 1}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "1",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 2
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["hadamard", "theta", "fid", "spectrum", "trajectory"])
def test_scan_internal_fault_is_internal_error(tmp_path, monkeypatch, capsys, kind):
    """A Hamiltonian builder that returns a complex h is the program's fault:
    the propagation engine's plain ValueError exits 2, as it does in verify,
    and no --out is made. A blanket re-wrap of every ValueError in the scans
    made it exit 1, blaming the user."""
    original = icspin.hamiltonian.multiqubit_hamiltonian

    def complex_h(config, m_s=-1):
        h = original(config, m_s)
        h[0, 1], h[1, 0] = h[0, 1] + 1e-3j, h[1, 0] - 1e-3j   # still Hermitian
        return h

    for module in (icspin.experiments, icspin.cli):
        monkeypatch.setattr(module, "multiqubit_hamiltonian", complex_h)
    out = tmp_path / "o"
    sequence = ["--sequence", CNOT] if kind in ("theta", "trajectory") else []
    assert run(["scan", "--kind", kind, "--system", SYSTEM, *sequence, "--out", str(out)]) == 2
    assert "internal error: the propagation engine needs a real Hamiltonian" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,text,field", [
    ("--system", Path(SYSTEM).read_text().replace("0.158", "1" + "0" * 400), "nu_C_MHz"),
    ("--sequence", Path(CNOT).read_text().replace("3.78", "1" + "0" * 400), "delay_us"),
    ("--ga-config", '{"population": 1%s, "generations": 0}' % ("0" * 400), "population"),
], ids=["system", "sequence", "ga_config"])
def test_integer_past_the_float_range_is_usage_error(tmp_path, capsys, flag, text, field):
    """Python's json reads a 401-digit integer exactly; converting it to a
    float raised OverflowError, an internal error."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {"--system": ["verify", "--system", str(path), "--sequence", CNOT],
            "--sequence": ["verify", "--system", SYSTEM, "--sequence", str(path)],
            "--ga-config": ["optimize", "--system", SYSTEM, "--ga-config", str(path)]}[flag]
    out = tmp_path / "o"
    assert run(argv + ["--target", "cnot", "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def edited_system(tmp_path: Path, **fields) -> str:
    """The bundled one-carbon system with top-level or carbon fields replaced."""
    doc = json.loads(Path(SYSTEM).read_text())
    for key, value in fields.items():
        (doc["carbons"][0] if key.startswith("A_") else doc)[key] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind", ["hadamard", "fid"])
def test_scan_dt_below_its_nyquist_floor_is_usage_error(tmp_path, capsys, kind):
    """At --dt 1e-310 the spectra's frequencies overflowed: hadamard wrote
    non-finite rows and fid exited 2, leaving its CSVs behind. At the floor
    the Nyquist frequency 0.5 / dt is MAX_CONFIG_VALUE MHz."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--dt", "1e-310",
                "--out", str(out)]) == 1
    assert "--dt must be finite and in [5e-07, inf), got 1e-310" in capsys.readouterr().err
    assert not out.exists()
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--dt", repr(0.5 / MAX_CONFIG_VALUE),
                "--points", "16", "--out", str(tmp_path / "floor")]) == 0


@pytest.mark.parametrize("kind", ["spectrum", "fid"])
def test_scan_detuning_past_the_config_ceiling_is_usage_error(tmp_path, capsys, kind):
    """--detuning 1e300 made spectrum exit 0, writing 4,001 identical rows
    with its four sticks collapsed onto 1e300. Like the CLI's other
    frequencies it is at most MAX_CONFIG_VALUE MHz in magnitude; within
    that, fid's Nyquist check still refuses what its --dt undersamples."""
    for detuning in ("1e300", "-1e300", "inf"):
        out = tmp_path / "o"
        assert run(["scan", "--kind", kind, "--system", SYSTEM, f"--detuning={detuning}",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--detuning must be finite and in [-1e+06, 1e+06]" in err
        assert not out.exists()
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", "1e5",
                "--out", str(tmp_path / "o")]) == 1
    assert "undersamples" in capsys.readouterr().err
    assert run(["scan", "--kind", "spectrum", "--system", SYSTEM, "--detuning",
                repr(MAX_CONFIG_VALUE), "--out", str(tmp_path / "ceiling")]) == 0


@pytest.mark.parametrize("fields,notes", [
    ({"A_zz_MHz": 5e-324}, ("cleanup_note",)),
    ({"A_zz_MHz": 1e-320, "nu_C_MHz": 1e-320}, ("init_delay_note",)),
    ({"A_zz_MHz": 1e-320, "A_zx_MHz": 1e-320}, ("dipolar_note", "cleanup_note")),
], ids=["subnormal_a_zz", "subnormal_a_zz_and_nu_c", "subnormal_a_zz_and_a_zx"])
def test_report_subnormal_coupling_writes_na(tmp_path, fields, notes):
    """A subnormal A_zz_MHz made report exit 2: the clean-up delay
    1 / (2 |A_zz|) was infinite, and with a subnormal nu_C_MHz so was the
    second initialization delay. Its geometry is that of A_zz = 0; only
    couplings whose squares underflow have none."""
    out = tmp_path / "o"
    assert run(["report", "--system", edited_system(tmp_path, **fields), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(note in report for note in notes)
    if "dipolar_note" in notes:
        assert report["dipolar_r_nm"] == "n/a"
    else:
        zero = tmp_path / "zero"
        zero.mkdir()
        assert run(["report", "--system", edited_system(zero, A_zz_MHz=0),
                    "--out", str(zero / "o")]) == 0
        want = json.loads((zero / "o" / "report.json").read_text())
        assert report["dipolar_r_nm"] == want["dipolar_r_nm"]
        assert report["dipolar_theta_deg"] == want["dipolar_theta_deg"]


@pytest.mark.parametrize("key", ["generations", "restarts"])
def test_ga_work_past_its_budget_is_usage_error(tmp_path, capsys, monkeypatch, key):
    """At 2**63 generations or restarts the search never ended. The work is
    refused before the kernel is built; a search that starts here fails the
    test instead of hanging it."""
    def search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(icspin.cli, "optimize", search)
    (tmp_path / "ga.json").write_text(json.dumps({key: 2**63}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "GA config work population * (generations + 1) * restarts must be at most" in err
    assert not (out / "result.json").exists()


def test_ga_work_budget_admits_the_population_budget_at_the_default_generations(
        tmp_path, capsys, monkeypatch):
    def search(*args):
        raise RuntimeError("the search started")

    monkeypatch.setattr(icspin.cli, "optimize", search)
    (tmp_path / "ga.json").write_text(json.dumps({"population": MAX_POPULATION}))
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(tmp_path / "o")]) == 2
    assert "the search started" in capsys.readouterr().err


def test_scan_theta_gate_and_sequence_is_usage_error(tmp_path, capsys):
    """--gate was ignored when --sequence was given, yet the manifest
    recorded it."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", "theta", "--system", SYSTEM, "--sequence", CNOT,
                "--gate", "noop", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--gate" in err and "--sequence" in err
    assert not out.exists()
