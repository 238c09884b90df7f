"""Check that two source trees give the CLI's outputs byte for byte.

    python scripts/same_outputs.py PARENT_TREE CHANGE_TREE

Runs one command set in each tree, with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``, on the same input files (the parent tree's
bundled data), each command in a process of its own and its outputs in a
temporary directory. It reports every data file, stdout or exit code that
differs. Manifests are compared as JSON without their timings
(``phase_seconds`` and ``phase_cpu_seconds`` are reduced to their keys),
``written_at_unix`` and ``output_dir``. Exits 0 when the outputs are
identical and 1 otherwise.

The command set: one ``verify_scan`` pass of perfbench (nine verifies,
every scan kind and ``report``); ``optimize`` cnot and hadamard on
``system_2q.json`` with the default GA at seeds 0-3, criterion 7's two
gates; the pulse-free CNOT search (``--pulses 0 --tau-max 16``, one delay,
seed 0); perfbench's ``GA_4C`` search for
``ccrot:1,180`` on ``system_4c.json`` with 4 pulses at seeds 0-1; ``verify``
of ``ccrot_n6_a.json`` for ``ccrot:1,180`` on ``system_4c.json`` at 600 grid
points, whose d32 engine (5.08 MB) is over ``ENGINE_MEMO_BYTES``, so the
memo hands the newest engine, kept over budget, from the CLI's pre-build to
the kernel; the controls ``scan --kind hadamard --noop``, ``scan --kind theta
--gate noop --readout 0`` and ``scan --kind fid --state thermal``; one refused
command; and seven commands that give every scan flag, ``report --linewidth``
and a one-point ``verify`` grid a value other than its default:
``scan --kind spectrum`` on ``system_4c.json`` (``--linewidth 0.02 --detuning
5``), ``scan --kind hadamard --sequence hadamard.json --points 512 --dt
0.05``, ``scan --kind fid --points 300 --dt 0.05 --detuning -3``, ``scan
--kind theta --sequence cnot.json --points 33 --readout 0``, ``scan --kind
trajectory`` on ``system_4c.json`` with ``ccrot_n6_a.json`` at ``--dt 0.05``,
``verify --grid 0.5,0.5,1`` of ``hadamard.json``, and ``report --linewidth
0.02``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMINGS = ("phase_seconds", "phase_cpu_seconds")
UNCOMPARED = ("written_at_unix", "output_dir")


def _without_out(argv: list) -> tuple[str, list]:
    """The name of a call's --out directory, and its argv without --out."""
    at = argv.index("--out")
    return Path(argv[at + 1]).name, argv[:at] + argv[at + 2:]


def commands(tree: Path, inputs: Path) -> dict:
    """name -> argv without --out, reading `tree`'s bundled data and the
    files this writes under `inputs`."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    inputs.mkdir(parents=True)
    data = workloads.data_dir(tree)
    system_2q, system_4c = str(data / "system_2q.json"), data / "system_4c.json"
    named = dict(_without_out(call.argv)
                 for call in workloads.verify_scan_pass(tree, inputs, random.Random(0)))
    for target in ("cnot", "hadamard"):
        for seed in range(4):
            named[f"optimize_{target}_{seed}"] = ["optimize", "--system", system_2q,
                                                  "--target", target, "--seed", str(seed)]
    named["optimize_cnot_pulse_free"] = ["optimize", "--system", system_2q, "--target", "cnot",
                                         "--pulses", "0", "--tau-max", "16", "--seed", "0"]
    ga_path = inputs / "ga_4c.json"
    ga_path.write_text(json.dumps(workloads.GA_4C), encoding="utf-8")
    for seed in range(2):
        call = workloads.optimize_call(system_4c, "ccrot:1,180", 4, ga_path, workloads.GA_4C,
                                       seed, Path(f"ga_4c_{seed}"), {})
        named.update([_without_out(call.argv)])
    named["verify_over_budget"] = ["verify", "--system", str(system_4c),
                                   "--sequence", str(data / "sequences" / "ccrot_n6_a.json"),
                                   "--target", "ccrot:1,180", "--grid", "0.48,0.52,600"]
    named["control_hadamard_noop"] = ["scan", "--kind", "hadamard", "--noop",
                                      "--system", system_2q]
    named["control_theta_noop"] = ["scan", "--kind", "theta", "--gate", "noop", "--readout", "0",
                                   "--system", system_2q]
    named["control_fid_thermal"] = ["scan", "--kind", "fid", "--state", "thermal",
                                    "--system", system_2q]
    named["refused_grid"] = ["verify", "--system", system_2q, "--target", "cnot",
                             "--sequence", str(data / "sequences" / "cnot.json"),
                             "--grid", "0.52,0.48,5"]
    sequences = data / "sequences"
    named["flags_spectrum_4c"] = ["scan", "--kind", "spectrum", "--system", str(system_4c),
                                  "--linewidth", "0.02", "--detuning", "5"]
    named["flags_hadamard"] = ["scan", "--kind", "hadamard", "--system", system_2q,
                               "--sequence", str(sequences / "hadamard.json"),
                               "--points", "512", "--dt", "0.05"]
    named["flags_fid"] = ["scan", "--kind", "fid", "--system", system_2q,
                          "--points", "300", "--dt", "0.05", "--detuning", "-3"]
    named["flags_theta"] = ["scan", "--kind", "theta", "--system", system_2q,
                            "--sequence", str(sequences / "cnot.json"),
                            "--points", "33", "--readout", "0"]
    named["flags_trajectory_4c"] = ["scan", "--kind", "trajectory", "--system", str(system_4c),
                                    "--sequence", str(sequences / "ccrot_n6_a.json"),
                                    "--dt", "0.05"]
    named["flags_verify_one_point"] = ["verify", "--system", system_2q, "--target", "hadamard",
                                       "--sequence", str(sequences / "hadamard.json"),
                                       "--grid", "0.5,0.5,1"]
    named["flags_report"] = ["report", "--system", system_2q, "--linewidth", "0.02"]
    return named


def run(tree: Path, named: dict, dest: Path) -> None:
    """Each command of `named` in `tree`, its outputs in dest/<name>, and its
    stdout and exit code in dest/<name>.stdout and dest/<name>.exit."""
    dest.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    for name, argv in named.items():
        proc = subprocess.run([sys.executable, "-m", "icspin", *argv, "--out", str(dest / name)],
                              capture_output=True, text=True, env=env, timeout=600)
        (dest / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")
        (dest / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")


def _manifest(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in UNCOMPARED:
        doc.pop(key, None)
    for key in TIMINGS:
        if key in doc:
            doc[key] = sorted(doc[key])
    return doc


def differences(parent: Path, change: Path) -> list[str]:
    """One line for each file that is on one side only or differs: a
    manifest as `_manifest` reads it, any other file byte for byte."""
    names = sorted({path.relative_to(side) for side in (parent, change)
                    for path in side.rglob("*") if path.is_file()})
    found = []
    for name in names:
        old, new = parent / name, change / name
        if not (old.is_file() and new.is_file()):
            found.append(f"{name}: only in {'parent' if old.is_file() else 'change'}")
        elif name.name == "manifest.json":
            if _manifest(old) != _manifest(new):
                found.append(f"{name}: the manifests differ")
        elif old.read_bytes() != new.read_bytes():
            found.append(f"{name}: differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree whose outputs are the reference")
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        named = commands(args.parent.resolve(), tmp / "inputs")
        for side, tree in (("parent", args.parent), ("change", args.change)):
            run(tree.resolve(), named, tmp / side)
        found = differences(tmp / "parent", tmp / "change")
        files = sum(1 for path in (tmp / "change").rglob("*") if path.is_file())
    for line in found:
        print(line)
    print(f"{len(named)} commands, {files} files and captures: "
          + (f"{len(found)} differ" if found else "identical"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
