"""Workload inputs and operation lists of the icspin benchmark.

Every operation is one call, or a fixed list of calls, to
``icspin.cli.main``. ``setup`` starts its clock before ``import icspin``,
so this module imports neither numpy nor icspin at module level: set-up
time includes the package import, which is mostly ``import numpy``.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ga_1c", "ga_4c", "verify_scan")

# Operations per second of requested run length, sized so that one run of
# the default length takes about that long on a 2-CPU machine.
OPS_PER_SECOND = {"ga_1c": 5.0, "ga_4c": 0.75, "verify_scan": 0.6}

# The GA settings are written out in full, so a changed default in the
# program does not change the work measured.
BAND = {"min_MHz": 0.48, "max_MHz": 0.52, "points": 5}
GA_COMMON = {
    "population": 100,
    "elites": 2,
    "crossover_rate": 0.9,
    "mutation_rate": 0.25,
    "mutation_scale": 0.05,
    "restarts": 1,
    "omega1_grid": BAND,
}
GA_1C = {**GA_COMMON, "generations": 300, "early_stop": 0.95}
GA_4C = {**GA_COMMON, "generations": 8, "early_stop": None}
TAU_MAX = 4.0
T_MAX = 4.0

VERIFY_GRID = "0.48,0.52,81"
VERIFY_POINTS = 81
CHECK_POINTS = 3        # oracle-checked grid points per verified sequence
SCAN_DETUNING = 3.0     # the CLI's default --detuning, used by fid and spectrum
SEED_SPACE = 1_000_000


@dataclass
class Call:
    """One CLI invocation and what its output is checked against."""

    argv: list
    check: str                      # name of the check in checks.py
    spec: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


def data_dir(root: Path) -> Path:
    return root / "src" / "icspin" / "data"


def n_ops(workload: str, seconds: float) -> int:
    return max(1, round(OPS_PER_SECOND[workload] * seconds))


def draw_ga_seeds(rng: random.Random, count: int) -> list[int]:
    """`count` GA seeds: distinct draws plus a few repeats, shuffled.

    A repeated seed must reproduce its output byte for byte, so every list
    of two or more holds at least one repeat.
    """
    repeats = 0 if count < 2 else max(1, count // 25)
    distinct = rng.sample(range(SEED_SPACE), count - repeats)
    seeds = distinct + rng.sample(distinct, repeats)
    rng.shuffle(seeds)
    return seeds


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def optimize_call(system: Path, target: str, pulses: int, ga_path: Path, ga: dict,
                  seed: int, out: Path, system_doc: dict) -> Call:
    argv = ["optimize", "--system", str(system), "--target", target,
            "--pulses", str(pulses), "--tau-max", str(TAU_MAX), "--t-max", str(T_MAX),
            "--seed", str(seed), "--ga-config", str(ga_path), "--out", str(out)]
    spec = {"system": system_doc, "target": target, "pulses": pulses, "seed": seed,
            "generations": ga["generations"], "early_stop": ga["early_stop"],
            "band": BAND, "tau_max": TAU_MAX, "t_max": T_MAX}
    return Call(argv, "optimize", spec)


def _ga_ops(root: Path, dest: Path, rng: random.Random, count: int, system_file: str,
            target: str, pulses: int, ga: dict) -> list:
    system = data_dir(root) / system_file
    system_doc = _read_json(system)
    ga_path = _write_json(dest / "ga.json", ga)
    return [[optimize_call(system, target, pulses, ga_path, ga, seed,
                           dest / f"search_{i}", system_doc)]
            for i, seed in enumerate(draw_ga_seeds(rng, count))]


def _subset_doc(doc: dict, labels: list[int]) -> dict:
    """The register keeping the carbons with the given 1-based labels."""
    return {**doc, "carbons": [doc["carbons"][label - 1] for label in labels]}


def verify_scan_pass(root: Path, dest: Path, rng: random.Random) -> list:
    """Nine verifies on the 81-point band, every scan kind, and report."""
    data = data_dir(root)
    system_2q = data / "system_2q.json"
    doc_2q = _read_json(system_2q)
    rows = [(system_2q, doc_2q, data / "sequences/hadamard.json", "hadamard"),
            (system_2q, doc_2q, data / "sequences/cnot.json", "cnot")]
    suite = _read_json(data / "suite_ccrot.json")
    doc_4c = _read_json(data / suite["system"])
    for case in suite["cases"]:
        sub = _subset_doc(doc_4c, case["carbon_labels"])
        path = _write_json(dest / f"system_{case['name']}.json", sub)
        rows.append((path, sub, data / case["sequence"], case["target"]))

    calls = []
    for i, (system, doc, sequence, target) in enumerate(rows):
        argv = ["verify", "--system", str(system), "--sequence", str(sequence),
                "--target", target, "--grid", VERIFY_GRID, "--out", str(dest / f"verify_{i}")]
        spec = {"system": doc, "sequence": _read_json(sequence), "target": target,
                "points": sorted(rng.sample(range(VERIFY_POINTS), CHECK_POINTS))}
        calls.append(Call(argv, "verify", spec))
    scans = {"hadamard": "hadamard", "theta": "cnot", "fid": None, "spectrum": None,
             "trajectory": "cnot"}
    for kind, seq in scans.items():
        argv = ["scan", "--kind", kind, "--system", str(system_2q),
                "--detuning", str(SCAN_DETUNING), "--out", str(dest / f"scan_{kind}")]
        spec = {"system": doc_2q, "detuning": SCAN_DETUNING}
        if seq:
            argv += ["--sequence", str(data / f"sequences/{seq}.json")]
            spec["sequence"] = _read_json(data / f"sequences/{seq}.json")
        calls.append(Call(argv, f"scan_{kind}", spec))
    calls.append(Call(["report", "--system", str(system_2q), "--out", str(dest / "report")],
                      "report", {"system": doc_2q}))
    return calls


def build(workload: str, seed: int, seconds: float, root: Path, dest: Path) -> list:
    """Write the workload's input files under `dest` and list its operations.

    An operation is a list of calls, timed as a whole.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    count = n_ops(workload, seconds)
    if workload == "ga_1c":
        ops = _ga_ops(root, dest, rng, count, "system_2q.json", "cnot", 3, GA_1C)
    elif workload == "ga_4c":
        ops = _ga_ops(root, dest, rng, count, "system_4c.json", "ccrot:1,180", 4, GA_4C)
    elif workload == "verify_scan":
        one_pass = verify_scan_pass(root, dest, rng)
        ops = [one_pass] * count
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def setup(workload: str, seed: int, seconds: float, root: Path, dest: Path):
    """Import icspin and make the workload's inputs.

    Returns (operations, seconds spent importing, seconds for the whole set-up).
    """
    t0 = time.perf_counter()
    import icspin.cli  # noqa: F401  (numpy is imported here)
    t_import = time.perf_counter() - t0
    ops = build(workload, seed, seconds, root, dest)
    return ops, t_import, time.perf_counter() - t0
