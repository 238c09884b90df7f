"""Benchmark of what icspin users wait for, through its CLI.

    python3 perfbench/run.py --workload ga_1c|ga_4c|verify_scan \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and the independent oracle from ``tests/oracles.py``. Each
operation is one call, or a fixed list of calls, to ``icspin.cli.main``
in this process; its outputs go to a scratch directory under
``.perfbench_work/`` and are checked after the operation's clock stops.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``setup_s``, ``op_s`` and ``peak_rss_mb``; with
``--trace 1`` the same operations run with spans recorded around calls
into icspin's public names, and the last line carries the per-layer
metrics. The exit code is 0 when the run completed; it is 1, with no
result printed, when the sources to benchmark are not there.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

# One BLAS thread, set before numpy loads: the benchmark starts no threads
# of its own, and a second BLAS thread on a 2-CPU machine adds contention
# without saving time. The settings found are reported with the results.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_FOUND = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import workloads  # noqa: E402  (stdlib only; numpy comes with icspin, in set-up)

# Set-ups timed per run: this process's own, and six in fresh interpreters
# spread evenly between the operations, so that all samples do not fall in
# one slow spell of the machine.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length; sets how many operations the fixed list holds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="time one set-up into DIR and print it as JSON (internal)")
    return parser.parse_args(argv)


def require_sources() -> None:
    missing = [p for p in ("src/icspin/__init__.py", "src/icspin/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: run from a source checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def setup_in_fresh_process(args, dest: Path) -> tuple[float, float]:
    """(import seconds, set-up seconds) of one set-up in a new interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(dest)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    return doc["import_s"], doc["setup_s"]


def run_op(cli, op, tracer) -> int:
    """Run one operation's CLI calls; the first non-zero exit code, or 0."""
    worst = 0
    for call in op:
        span = tracer.span(f"cli.{call.command}", budget=call.spec.get("generations")) \
            if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(call.argv))
        worst = worst or code
    return worst


def machine_facts() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads_found": BLAS_FOUND, "blas_threads_used": 1}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    if args.setup_only:
        ops, t_import, t_setup = workloads.setup(args.workload, args.seed, args.seconds,
                                                 ROOT, Path(args.setup_only))
        print(json.dumps({"import_s": t_import, "setup_s": t_setup, "operations": len(ops)}))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(args, work: Path) -> int:
    ops, t_import, t_setup = workloads.setup(args.workload, args.seed, args.seconds,
                                             ROOT, work / "inputs")
    import icspin
    import icspin.cli as cli

    if Path(icspin.__file__).resolve().parent != ROOT / "src" / "icspin":
        raise SystemExit(f"perfbench: imported icspin from {icspin.__file__}, not this checkout")
    samples = [(t_import, t_setup)]
    # operations done before each fresh set-up
    due = [len(ops) * k // (SETUP_SAMPLES - 1) for k in range(1, SETUP_SAMPLES)]

    import checks
    import tracing

    checker = checks.Checker(checks.load_oracles(ROOT))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)

    times, failed, correct = [], 0, True
    for done, op in enumerate(ops, start=1):
        t0 = time.perf_counter()
        with tracer.span("op") if tracer else contextlib.nullcontext():
            code = run_op(cli, op, tracer)
        times.append(time.perf_counter() - t0)
        if code != 0:
            failed += 1
            print(f"perfbench: operation exited {code}", file=sys.stderr)
        else:
            problems = [p for call in op for p in checker.check(call)]
            if problems:
                failed += 1
                correct = False
                print("perfbench: output rejected: " + "; ".join(problems), file=sys.stderr)
        while due and due[0] <= done:
            due.pop(0)
            samples.append(setup_in_fresh_process(args, work / f"setup_{len(samples)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_s = statistics.median(times)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "operations": len(ops),
                      **machine_facts()}))
    if tracer:
        tracer.phase = "probe"
        for op in probe_ops(work / "probe"):
            with tracer.span("op"):
                if run_op(cli, op, tracer) != 0:
                    print("perfbench: a probe call failed", file=sys.stderr)
        tracer.unwrap_all()
        n_segments = tracing.time_layers(tracer, workloads.data_dir(ROOT))
        for name in tracer.missing:
            print(f"perfbench: missing span {name}", file=sys.stderr)
        print(f"traced op_s {op_s!r} s")
        values = tracing.layer_metrics(tracer, [s[0] for s in samples], n_segments)
    else:
        values = {"setup_s": (statistics.median(s[1] for s in samples), "s"),
                  "op_s": (op_s, "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    for name, m in metrics.items():
        print(f"{name:>32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def probe_ops(dest: Path) -> list:
    """One fixed one-carbon search and one verify/scan/report pass."""
    import random

    dest.mkdir(parents=True)
    data = workloads.data_dir(ROOT)
    system = data / "system_2q.json"
    ga_path = dest / "ga.json"
    ga_path.write_text(json.dumps(workloads.GA_1C), encoding="utf-8")
    search = workloads.optimize_call(system, "cnot", 3, ga_path, workloads.GA_1C, 0,
                                     dest / "search", {})
    return [[search], workloads.verify_scan_pass(ROOT, dest, random.Random(0))]


if __name__ == "__main__":
    sys.exit(main())
