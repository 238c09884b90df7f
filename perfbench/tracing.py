"""The traced run: spans around calls into icspin's public names.

Spans are recorded from here, never from inside the program. For the
traced run only, public names are replaced by wrappers that record a span
(name, start, end, parent, and counts such as evaluations made) and call
the original. A name that no longer exists is reported as missing and its
metrics are left out; the run carries on.

Three kinds of span feed the per-layer metrics:

* spans of the workload's own operations (phase ``workload``);
* spans of a fixed probe pass of CLI calls (phase ``probe``), which stands
  in for a layer the workload never calls, so every traced run reports
  every metric;
* direct timings of single layer calls on fixed inputs (phase ``layers``).
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from functools import partial

# Calls the CLI makes, wrapped where the CLI looks them up.
CLI_LAYERS = {
    "load_system": "system.load",
    "load_sequence": "sequence.load",
    "multiqubit_hamiltonian": "hamiltonian.build",
    "optimize": "optimize.search",
    "robust_fidelity": "fidelity.robust",
    "hadamard_circuit_scan": "experiments.hadamard_scan",
    "theta_scan": "experiments.theta_scan",
    "electron_fid_scan": "experiments.fid_scan",
    "esr_spectrum": "experiments.esr_spectrum",
    "bloch_trajectory": "experiments.trajectory",
    "carbon_eigenstructure": "report.eigenstructure",
    "analytic_init_delays": "report.init_delays",
    "cleanup_delay": "report.cleanup_delay",
    "dipolar_geometry": "report.geometry",
    "min_coherence_time": "report.coherence_time",
}
# Spans that are the command's own work; the rest of a command's time
# (loading, Hamiltonian, writing files and the manifest) is CLI overhead.
INNER = ("optimize.", "fidelity.", "experiments.", "report.")

LAYER_REPEATS = 7
KERNEL_POPULATION = 100
KERNEL_PULSES = 4
KERNEL_AMPLITUDES = 5
DIMS = (4, 8, 16, 32)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "workload"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "name": name, "phase": self.phase,
               "parent": self._stack[-1] if self._stack else None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if count is not None:
                    rec.update(count(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def time_layer(self, name: str, make, repeats: int = LAYER_REPEATS) -> None:
        """Time `make()()` directly; `make` builds the call outside the timing.

        A layer whose public names no longer fit is reported missing.
        """
        try:
            fn = make()
            fn()                            # warm caches; not timed
        except (AttributeError, ImportError, TypeError) as exc:
            self.missing.append(f"{name} ({exc})")
            return
        phase, self.phase = self.phase, "layers"
        try:
            for _ in range(repeats):
                with self.span(name):
                    fn()
        finally:
            self.phase = phase


def install(tracer: Tracer) -> None:
    import icspin.cli
    import icspin.kernels

    kernel = getattr(icspin.kernels, "FitnessKernel", None)
    if kernel is None:
        tracer.missing.append("icspin.kernels.FitnessKernel")
    else:
        tracer.wrap(kernel, "evaluate", "kernels.evaluate",
                    count=lambda fids: {"evals": int(fids.size)})
        tracer.wrap(kernel, "__init__", "kernels.precompute")
    for attr, name in CLI_LAYERS.items():
        count = None
        if attr == "optimize":
            count = lambda result: {"generations": len(result.history) - 1}  # noqa: E731
        tracer.wrap(icspin.cli, attr, name, count)


def time_layers(tracer: Tracer, data) -> int:
    """Direct layer timings on fixed inputs, the same on every workload.

    Returns the number of segments of the sequence timed per propagation.
    """
    import numpy as np

    import icspin
    from icspin.states import basis_state

    sys_2q = icspin.load_system(data / "system_2q.json")
    sys_4c = icspin.load_system(data / "system_4c.json")
    cnot = icspin.load_sequence(data / "sequences/cnot.json")
    hadamard = icspin.load_sequence(data / "sequences/hadamard.json")
    seq4 = icspin.load_sequence(data / "sequences/ccrot_n6_a.json")
    t_grid = np.arange(256) * 0.1
    psi0 = basis_state(0, 4)

    tracer.time_layer("system.load",
                      lambda: partial(icspin.load_system, data / "system_4c.json"), 50)
    tracer.time_layer("sequence.load", lambda: partial(
        icspin.load_sequence, data / "sequences/ccrot_n6_a.json"), 50)
    tracer.time_layer("hamiltonian.build",
                      lambda: partial(icspin.multiqubit_hamiltonian, sys_4c), 50)

    # The kernel table: population 100, 4 pulses, 5 amplitudes, d = 4..32.
    genomes = np.random.default_rng(0).uniform(
        0.0, 4.0, (KERNEL_POPULATION, 3 * KERNEL_PULSES + 1))
    grid = np.linspace(0.48, 0.52, KERNEL_AMPLITUDES)
    registers = [sys_2q] + [sys_4c.subset(list(range(1, n + 1))) for n in (2, 3, 4)]
    for dim, cfg in zip(DIMS, registers):
        def kernel(cfg=cfg):
            h = icspin.multiqubit_hamiltonian(cfg)
            target = icspin.cc_rotation(cfg.n_carbons, 1, np.pi)
            return partial(icspin.FitnessKernel(h, target, grid, KERNEL_PULSES).evaluate,
                           genomes)

        def propagate(cfg=cfg):
            return partial(icspin.sequence_propagator, seq4,
                           icspin.multiqubit_hamiltonian(cfg))

        tracer.time_layer(f"kernels.evaluate.d{dim}", kernel)
        tracer.time_layer(f"propagation.sequence.d{dim}", propagate, 50)

    h_2q = icspin.multiqubit_hamiltonian(sys_2q)
    tracer.time_layer("fidelity.robust", lambda: partial(
        icspin.robust_fidelity, cnot, icspin.cnot_on_carbon(1), h_2q, (0.48, 0.52), 81))
    tracer.time_layer("experiments.hadamard_scan", lambda: partial(
        icspin.hadamard_circuit_scan, hadamard, t_grid, sys_2q))
    tracer.time_layer("experiments.theta_scan", lambda: partial(
        icspin.theta_scan, cnot, np.linspace(0.0, 2 * np.pi, 256), -1, sys_2q))
    tracer.time_layer("experiments.fid_scan", lambda: partial(
        icspin.electron_fid_scan, psi0, 3.0, t_grid, sys_2q))
    tracer.time_layer("experiments.esr_spectrum", lambda: partial(
        icspin.esr_spectrum, h_2q, linewidth=0.0106, detuning=3.0))
    tracer.time_layer("experiments.trajectory", lambda: partial(
        icspin.bloch_trajectory, cnot, h_2q, psi0, 0.1))
    return len(seq4.segments)


def _median_ms(spans) -> float:
    return 1e3 * statistics.median(s["end"] - s["start"] for s in spans)


def layer_metrics(tracer: Tracer, import_seconds: list[float], n_segments: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the recorded spans.

    An optimize command's span carries its generation budget, so searches
    that used all of it can be counted.
    """
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def op_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    def named(name, phase):
        return [s for s in spans if s["name"] == name and s["phase"] == phase]

    def pick(name):
        """Workload spans of a layer, or the probe's if the workload never calls it."""
        found = named(name, "workload")
        return found if found else named(name, "probe")

    out = {"import.s": (statistics.median(import_seconds), "s")}

    def layer(metric, name, unit="ms", scale=1.0):
        found = named(name, "layers")
        if found:
            out[metric] = (scale * _median_ms(found), unit)

    layer("system.load_ms", "system.load")
    layer("sequence.load_ms", "sequence.load")
    layer("hamiltonian.build_ms", "hamiltonian.build")
    for dim in DIMS:
        found = named(f"kernels.evaluate.d{dim}", "layers")
        if found:
            out[f"kernels.evals_per_s.d{dim}"] = (
                KERNEL_POPULATION * KERNEL_AMPLITUDES / (_median_ms(found) / 1e3), "1/s")
        layer(f"propagation.segment_us.d{dim}", f"propagation.sequence.d{dim}", "us",
              1e3 / n_segments)
    layer("fidelity.robust_ms", "fidelity.robust")
    for kind in ("hadamard_scan", "theta_scan", "fid_scan", "esr_spectrum", "trajectory"):
        layer(f"experiments.{kind}_ms", f"experiments.{kind}")

    evaluate = pick("kernels.evaluate")
    if evaluate:
        evals = sum(s["evals"] for s in evaluate)
        busy = sum(dur(s) for s in evaluate)
        ops = {op_of(s)["id"]: op_of(s) for s in evaluate}
        out["kernels.evaluate_ms"] = (_median_ms(evaluate), "ms")
        out["kernels.evals_per_s"] = (evals / busy, "1/s")
        out["kernels.share"] = (busy / sum(dur(o) for o in ops.values()), "ratio")
        out["kernels.evals_per_op"] = (evals / len(ops), "count")
    precompute = pick("kernels.precompute")
    if precompute:
        out["kernels.precompute_ms"] = (_median_ms(precompute), "ms")

    searches = pick("optimize.search")
    if searches:
        generations = sum(s["generations"] for s in searches)
        search_ids = {s["id"] for s in searches}
        inside = [s for s in spans if s["parent"] in search_ids
                  and s["name"] in ("kernels.evaluate", "kernels.precompute")]
        breed = sum(dur(s) for s in searches) - sum(dur(s) for s in inside)
        out["optimize.generations_per_op"] = (generations / len(searches), "count")
        out["optimize.unconverged"] = (sum(
            s["generations"] >= by_id[s["parent"]]["budget"] for s in searches), "count")
        out["optimize.breed_ms_per_gen"] = (1e3 * breed / max(generations, 1), "ms")

    commands = [s for s in spans if s["name"].startswith("cli.") and s["phase"] == "workload"]
    for command in ("verify", "scan", "report", "optimize"):
        found = pick(f"cli.{command}")
        if found:
            out[f"cli.{command}_ms"] = (_median_ms(found), "ms")
    if commands:
        inner = {}
        for s in spans:
            if s["parent"] is not None and s["name"].startswith(INNER):
                inner[s["parent"]] = inner.get(s["parent"], 0.0) + dur(s)
        out["cli.overhead_ms"] = (1e3 * statistics.median(
            dur(c) - inner.get(c["id"], 0.0) for c in commands), "ms")
    return out
