"""Tests of the benchmark itself: its checks reject corrupted outputs, and a
short run of every workload completes.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

run.require_sources()
import checks  # noqa: E402  (needs numpy, which comes with the package)

ROOT = run.ROOT
DATA = workloads.data_dir(ROOT)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_calls(calls) -> None:
    from icspin import cli

    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(call.argv)) == 0, call.argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One one-carbon search and one verify/scan/report pass, run for real."""
    dest = tmp_path_factory.mktemp("outputs")
    ga_path = dest / "ga.json"
    ga_path.write_text(json.dumps(workloads.GA_1C), encoding="utf-8")
    system = DATA / "system_2q.json"
    search = workloads.optimize_call(system, "cnot", 3, ga_path, workloads.GA_1C, 0,
                                     dest / "search", json.loads(system.read_text()))
    calls = {"search": search}
    for call in workloads.verify_scan_pass(ROOT, dest, random.Random(0)):
        calls.setdefault(call.check, call)
    _run_calls(calls.values())
    return calls


@pytest.fixture()
def copy_of(outputs, tmp_path):
    """A call whose output directory is a private copy, safe to corrupt."""
    def make(key):
        call = outputs[key]
        out = tmp_path / key
        shutil.copytree(call.out, out)
        argv = list(call.argv)
        argv[argv.index("--out") + 1] = str(out)
        return workloads.Call(argv, call.check, call.spec)
    return make


@pytest.fixture(scope="module")
def oracles():
    return checks.load_oracles(ROOT)


def _edit(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_every_check_accepts_real_outputs(outputs, oracles):
    checker = checks.Checker(oracles)
    for call in outputs.values():
        assert checker.check(call) == [], call.argv


def _perturb_fidelity(doc):
    doc["robustness"]["fidelities"][2] += 1e-6


def _decrease_history(doc):
    doc["history"][-1] = doc["history"][0] - 0.01


def _leave_bounds(doc):
    doc["best_genome"][0] = 4.5


@pytest.mark.parametrize("corrupt", [_perturb_fidelity, _decrease_history, _leave_bounds])
def test_optimize_check_rejects(copy_of, oracles, corrupt):
    call = copy_of("search")
    _edit(call.out / "result.json", corrupt)
    assert checks.check_optimize(oracles, call.out, call.spec)


def test_early_stop_below_target_is_rejected(copy_of, oracles):
    call = copy_of("search")
    spec = {**call.spec, "early_stop": 0.999}
    assert checks.check_optimize(oracles, call.out, spec)


def test_repeated_seed_with_other_bytes_is_rejected(copy_of, oracles):
    checker = checks.Checker(oracles)
    call = copy_of("search")
    assert checker.check(call) == []
    _edit(call.out / "best_sequence.json",
          lambda doc: doc["segments"][0].update(delay_us=doc["segments"][0]["delay_us"] + 1e-12))
    assert any("repeated" in p for p in checker.check(call))


def test_verify_check_rejects_a_perturbed_fidelity(copy_of, oracles):
    call = copy_of("verify")
    point = call.spec["points"][0]

    def perturb(doc):
        doc["fidelities"][point] += 1e-6
        doc["mean_fidelity"] += 1e-6 / len(doc["fidelities"])

    _edit(call.out / "verify.json", perturb)
    assert checks.check_verify(oracles, call.out, call.spec)


@pytest.mark.parametrize("key,name", [("scan_spectrum", "esr_lines.json"),
                                      ("scan_fid", "fid_spectrum.json")])
def test_stick_checks_reject_a_shifted_stick(copy_of, oracles, key, name):
    call = copy_of(key)
    _edit(call.out / name, lambda doc: doc["lines"][1].__setitem__(0, doc["lines"][1][0] + 1e-6))
    assert checks.CHECKS[key](oracles, call.out, call.spec)


def test_trajectory_check_rejects_a_moved_end_point(copy_of, oracles):
    call = copy_of("scan_trajectory")
    _edit(call.out / "trajectory.json",
          lambda doc: doc["bloch_vectors"][-1][1].__setitem__(2, doc["bloch_vectors"][-1][1][2] * 0.99))
    assert checks.check_scan_trajectory(oracles, call.out, call.spec)


def test_trajectory_check_rejects_a_long_bloch_vector(copy_of, oracles):
    call = copy_of("scan_trajectory")
    _edit(call.out / "trajectory.json",
          lambda doc: doc["bloch_vectors"][1].__setitem__(0, [1.0, 0.1, 0.0]))
    assert checks.check_scan_trajectory(oracles, call.out, call.spec)


def test_hadamard_check_rejects_a_moved_peak(copy_of, oracles):
    call = copy_of("scan_hadamard")
    _edit(call.out / "hadamard.json", lambda doc: doc.update(peak_MHz=doc["peak_MHz"] + 0.01))
    assert checks.check_scan_hadamard(oracles, call.out, call.spec)


def test_report_check_rejects_a_wrong_tilt(copy_of, oracles):
    call = copy_of("report")
    _edit(call.out / "report.json",
          lambda doc: doc.update(kappa_minus_deg=doc["kappa_minus_deg"] + 1e-6))
    assert checks.check_report(oracles, call.out, call.spec)


def _bench(tmp_root: Path | None, *args: str) -> subprocess.CompletedProcess:
    cwd = tmp_root or ROOT
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_end_to_end(workload):
    done = _bench(None, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_reports_every_layer_metric():
    done = _bench(None, "--workload", "ga_4c", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "ga_1c", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
