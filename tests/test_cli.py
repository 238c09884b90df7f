import json
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
from icspin.propagation import BATCH_ENTRIES
from icspin.sequence import MAX_DURATION_US, SequenceError
from icspin.system import data_path


SYSTEM = str(data_path("system_2q.json"))
HADAMARD = str(data_path("sequences/hadamard.json"))
CNOT = str(data_path("sequences/cnot.json"))


def run(args):
    return main(args)


def data_files(out: Path):
    return sorted(p for p in out.iterdir() if p.name != "manifest.json")


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
    # genomes scored: the population, 8 children a generation and the final
    # best, times 3 grid points, summed over restarts
    for name, expected in (("budget", (3, (10 + 3 * 8 + 1) * 3, "budget")),
                           ("early", (0, 2 * (10 + 1) * 3, "early_stop"))):
        out = tmp_path / name
        manifest = json.loads((out / "manifest.json").read_text())
        assert tuple(manifest[key] for key in facts) == expected
        for data in data_files(out):
            assert not any(key in data.read_text() for key in facts), data.name


@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_manifest_records_kernel_workers_and_versions(tmp_path, command):
    """verify scores one genome on one thread; optimize runs two chunks of
    genomes, one per CPU up to two. Both time their phases."""
    out = tmp_path / "o"
    if command == "verify":
        argv = ["verify", "--sequence", CNOT, "--target", "cnot"]
        workers = 1
    else:
        (tmp_path / "ga.json").write_text(
            json.dumps({"population": TWO_CHUNK_POPULATION, "generations": 1}))
        argv = ["optimize", "--target", "cnot", "--pulses", "2", "--grid", TWO_CHUNK_GRID,
                "--ga-config", str(tmp_path / "ga.json")]
        workers = min(2, icspin.kernels.cpu_workers())
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kernel_workers"] == workers
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["thread_env"] == {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    work = "evaluate" if command == "verify" else "search"
    phases = manifest["phase_seconds"]
    assert sorted(phases) == sorted(["load", "hamiltonian", work, "write"])
    assert all(seconds >= 0.0 for seconds in phases.values())
    for data in data_files(out):
        assert "kernel_workers" not in data.read_text(), data.name
        assert "phase_seconds" not in data.read_text(), data.name
        assert "thread_env" not in data.read_text(), data.name


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


def test_optimize_invalid_bounds_usage_error(tmp_path):
    assert run(["optimize", "--system", SYSTEM, "--target", "hadamard",
                "--pulses", "0", "--out", str(tmp_path / "o")]) == 1


def test_optimize_multiqubit_target(tmp_path):
    two_carbons = icspin.registers_system().subset([1, 2])
    sys_path = tmp_path / "system_2c.json"
    icspin.save_system(two_carbons, sys_path)
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


def test_report_degenerate_manifold_is_usage_error(tmp_path, capsys):
    """A_zz = -nu_C with A_zx = 0 leaves the m_S = -1 tilt angle undefined."""
    cfg = json.loads(Path(SYSTEM).read_text())
    cfg["carbons"] = [{"A_zz_MHz": -cfg["nu_C_MHz"], "A_zx_MHz": 0.0}]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert run(["report", "--system", str(path), "--out", str(out)]) == 1
    assert not (out / "report.json").exists()
    assert "effective field vanishes" in capsys.readouterr().err


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


BAD_GRIDS = ["0.48,0.52,0", "0.48,0.52,-3", "0.52,0.48,5", "nan,0.52,5", "0.48,inf,5"]


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


@pytest.mark.parametrize("kind", ["hadamard", "theta", "trajectory"])
def test_scan_sequence_amplitude_not_below_d_is_usage_error(tmp_path, capsys, kind):
    doc = json.loads(Path(CNOT).read_text())
    doc["omega1_MHz"] = 3000
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", SYSTEM, "--sequence", str(seq),
                "--dt", "0.01", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--sequence omega1_MHz" in err and "D_MHz" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case", ["verify_grid", "optimize_ga_config_grid", "scan_points",
                                  "trajectory_dt", "optimize_pulses", "optimize_population"])
def test_size_past_its_budget_is_usage_error(tmp_path, capsys, case):
    """Each size is one past its budget, so the command is refused before it
    allocates anything of that size. The GA configs run no generation, so a
    missing check costs one small population."""
    ga = tmp_path / "ga.json"
    ga.write_text(json.dumps({"omega1_grid": {
        "min_MHz": 0.48, "max_MHz": 0.52, "points": icspin.cli.MAX_GRID_POINTS + 1}}))
    small_ga = tmp_path / "small_ga.json"
    small_ga.write_text(json.dumps({"population": 4, "elites": 1, "generations": 0}))
    large_ga = tmp_path / "large_ga.json"
    large_ga.write_text(json.dumps(
        {"population": icspin.cli.MAX_POPULATION + 1, "generations": 0}))
    dt = icspin.load_sequence(CNOT).duration / (icspin.cli.MAX_TRAJECTORY_STEPS + 1)
    argv, flag, written = {
        "verify_grid": (["verify", "--sequence", CNOT, "--target", "cnot", "--grid",
                         f"0.48,0.52,{icspin.cli.MAX_GRID_POINTS + 1}"],
                        "--grid points", "verify.json"),
        "optimize_ga_config_grid": (["optimize", "--target", "cnot", "--ga-config", str(ga)],
                                    "GA config omega1_grid points", "result.json"),
        "scan_points": (["scan", "--kind", "hadamard",
                         "--points", str(icspin.cli.MAX_SCAN_POINTS + 1)],
                        "--points", "hadamard.json"),
        "trajectory_dt": (["scan", "--kind", "trajectory", "--sequence", CNOT, "--dt", repr(dt)],
                          "--dt", "trajectory.json"),
        "optimize_pulses": (["optimize", "--target", "cnot", "--ga-config", str(small_ga),
                             "--pulses", str(icspin.cli.MAX_PULSES + 1)],
                            "--pulses", "result.json"),
        "optimize_population": (["optimize", "--target", "cnot", "--ga-config", str(large_ga)],
                                "GA config population", "result.json"),
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
    rep = icspin.RobustnessReport(np.array(doc["omega1_grid_MHz"]),
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
    def broken(self, genomes, dphis, u, spare, grid):
        u[...] = np.nan
        return u, np.ones((len(genomes), self.dim), dtype=complex)

    monkeypatch.setattr(icspin.propagation.PropagationEngine, "chain", broken)
    out = tmp_path / "o"
    assert run(["verify", "--system", SYSTEM, "--sequence", CNOT, "--target", "cnot",
                "--out", str(out)]) == 2
    assert not (out / "verify.json").exists()
    assert "internal error" in capsys.readouterr().err


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

    def broken(self, genomes, dphis, u, spare, grid):
        u, last = original(self, genomes, dphis, u, spare, grid)
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


def test_scan_fid_negative_detuning_beyond_nyquist_is_usage_error(tmp_path, capsys):
    """--detuning -5 at the default dt 0.1 us (Nyquist 5 MHz) would alias."""
    out = tmp_path / "o"
    assert run(["scan", "--kind", "fid", "--system", SYSTEM, "--detuning", "-5",
                "--out", str(out)]) == 1
    assert "undersamples" in capsys.readouterr().err
    assert not any(out.glob("fid_*"))


@pytest.mark.parametrize("kind", ["hadamard", "theta", "fid"])
def test_two_qubit_scans_need_one_carbon(tmp_path, capsys, kind):
    out = tmp_path / "o"
    assert run(["scan", "--kind", kind, "--system", str(data_path("system_4c.json")),
                "--out", str(out)]) == 1
    assert "exactly one carbon" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("edit,field", [
    (_edit_nu_c_nan, "nu_C_MHz"),
    (_edit_coupling_inf, "carbons[0].A_zx_MHz"),
    (_edit_d_bool, "D_MHz"),
    (_edit_coupling_string, "carbons[0].A_zz_MHz"),
    (_edit_b0_string, "B0_mT"),
    (_edit_carbon_unknown_key, "label"),
], ids=["nu_c_nan", "coupling_inf", "d_bool", "coupling_string", "b0_string",
        "carbon_unknown_key"])
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


@pytest.mark.parametrize("argv,field", [
    (["report", "--linewidth", "nan"], "--linewidth"),
    (["scan", "--kind", "spectrum", "--linewidth", "nan"], "--linewidth"),
    (["optimize", "--target", "cnot", "--tau-max", "nan"], "tau_max"),
    (["scan", "--kind", "theta", "--points", "0"], "--points"),
    (["scan", "--kind", "spectrum", "--detuning", "nan"], "--detuning"),
    (["scan", "--kind", "fid", "--detuning", "nan"], "--detuning"),
], ids=["report_linewidth_nan", "spectrum_linewidth_nan", "optimize_tau_max_nan",
        "theta_points_0", "spectrum_detuning_nan", "fid_detuning_nan"])
def test_bad_flag_is_usage_error(tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    assert run(argv + ["--system", SYSTEM, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv,edit,field", [
    (["verify", "--sequence", CNOT, "--target", "cnot"], _edit_nu_c_huge, "nu_C_MHz"),
    (["optimize", "--target", "cnot", "--pulses", "1"], _edit_nu_c_huge, "nu_C_MHz"),
    (["scan", "--kind", "fid"], _edit_nu_c_huge, "nu_C_MHz"),
    (["scan", "--kind", "hadamard"], _edit_nu_c_huge, "nu_C_MHz"),
    (["report"], _edit_couplings_huge, "carbons[0].A_zz_MHz"),
], ids=["verify", "optimize", "scan_fid", "scan_hadamard", "report"])
def test_system_number_past_its_ceiling_is_usage_error(tmp_path, capsys, argv, edit, field):
    """A frequency of 1e308 MHz overflowed 2 pi f t into NaN signals, an
    invalid report.json or a misleading internal error; the reader's
    ceiling refuses it with the field named."""
    out = tmp_path / "o"
    system = _overflowing_system(tmp_path, edit)
    assert run(argv + ["--system", system, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "at most" in err
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
    assert err.startswith("error: ") and "delay_us" in err
    assert not out.exists() or not any(out.glob("*.csv"))


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
    assert "--dt" in err and "at most" in err
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
    user's: the SequenceError it raises exits 2, not 1, and nothing is
    written."""
    def faulty(*args, **kwargs):
        raise SequenceError("faulty genome")

    monkeypatch.setattr(sys.modules["icspin.optimize"], "sequence_from_genome", faulty)
    (tmp_path / "ga.json").write_text(json.dumps({"population": 4, "elites": 1,
                                                  "generations": 1}))
    out = tmp_path / "o"
    assert run(["optimize", "--system", SYSTEM, "--target", "cnot", "--pulses", "1",
                "--ga-config", str(tmp_path / "ga.json"), "--out", str(out)]) == 2
    assert "internal error" in capsys.readouterr().err
    assert not (out / "result.json").exists()


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
