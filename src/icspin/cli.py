"""Batch command-line front end.

Subcommands
-----------
verify    evaluate a pulse sequence against a target over an amplitude grid
optimize  run the genetic-algorithm search and write the best sequence
scan      simulate a circuit scan (hadamard | theta | fid | spectrum | trajectory)
report    derived quantities of a register config

Exit codes: 0 = ran, 1 = a refused input (``ConfigError``), 2 = an internal
invariant violation, each chosen in ``main`` by the error's type alone. Low
fidelity is data, never an error. Every run writes a manifest next to
its outputs; rerunning with the same inputs and seed reproduces all data
files byte for byte (timestamps live only in the manifest).
"""
from __future__ import annotations

import argparse
import functools
import os
import platform
import sys
import time
from dataclasses import asdict, astuple, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .eigenstructure import carbon_eigenstructure
from .experiments import (
    analytic_init_delays,
    bloch_trajectory,
    check_detuning,
    check_linewidth,
    check_scan_points,
    check_time_span,
    check_time_step,
    cleanup_delay,
    electron_fid_scan,
    esr_spectrum,
    hadamard_circuit_scan,
    min_coherence_time,
    segment_samples,
    theta_scan,
)
from .fidelity import Band, robust_fidelity
from .files import read_json, write_csv, write_json, write_text
from .geometry import dipolar_geometry
from .hamiltonian import multiqubit_hamiltonian
from .kernels import cpu_workers
from .operators import PROJ_UP, ConfigError, on_register
from .optimize import ParameterBounds, ga_config_from_dict, optimize
from .propagation import engine_for
from .sequence import check_pulses, load_sequence, sequence_to_dict
from .states import basis_state
from .system import load_system
from .targets import TargetGate, target_library

USAGE_ERROR = 1
INTERNAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse's own usage errors exit 1 like every other usage error;
    subparsers inherit the class. --help and --version still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _Phases:
    """Wall and process CPU seconds of a command's phases, each timed from the
    end of the one before; the manifest records them as ``phase_seconds`` and
    ``phase_cpu_seconds``."""

    def __init__(self):
        self.seconds = {}
        self.cpu_seconds = {}
        self._last = time.perf_counter()
        self._last_cpu = time.process_time()

    def done(self, phase: str) -> None:
        now, now_cpu = time.perf_counter(), time.process_time()
        self.seconds[phase] = now - self._last
        self.cpu_seconds[phase] = now_cpu - self._last_cpu
        self._last, self._last_cpu = now, now_cpu


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 has no mode="dicts"
        blas = {}
    return {key: blas.get(key, "unknown") for key in ("name", "version")}


def _write_manifest(out: Path, command: str, inputs: dict, seed: int | None,
                    **run_facts) -> None:
    manifest = {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "output_dir": str(out),
        "tool_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name, "unset") for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": cpu_workers(),
        "written_at_unix": time.time(),
        **run_facts,
    }
    write_json(out / "manifest.json", manifest)


def _finish(args, phases: _Phases, command: str, files: dict, summary: str, inputs: dict,
            seed: int | None = None, **run_facts) -> int:
    """The end of every command once it has computed: make --out (only now, so a
    failed command leaves no directory), write `files` in order, a name's content
    by its suffix (a CSV's ``(header, *columns)``, a JSON document or text), print
    the summary, then write the manifest. An --out not made or written is a usage error."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            elif name.endswith(".json"):
                write_json(out / name, content)
            else:
                write_text(out / name, content)
        print(summary)
        phases.done("write")
        _write_manifest(out, command, inputs, seed, **run_facts, phase_seconds=phases.seconds,
                        phase_cpu_seconds=phases.cpu_seconds)
    except OSError as exc:
        raise ConfigError(f"--out {args.out} cannot be written: {exc}") from exc
    return 0


def _parse_grid(text: str) -> Band:
    try:
        lo, hi, points = text.split(",")
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError as exc:
        raise ConfigError(f"--grid expects 'min,max,points', got {text!r}") from exc
    try:
        return Band(lo, hi, points)
    except ConfigError as exc:
        raise ConfigError(f"--grid {exc}") from exc


def _load_sequence(path):
    seq = load_sequence(path)
    check_pulses(seq.n_pulses, "--sequence pulses")
    return seq


def _target(args, cfg):
    try:
        return target_library(args.target, n_carbons=cfg.n_carbons)
    except ConfigError as exc:
        raise ConfigError(f"--target: {exc}") from exc


def cmd_verify(args, phases: _Phases) -> int:
    cfg = load_system(args.system)
    seq = _load_sequence(args.sequence)
    target = _target(args, cfg)
    band = _parse_grid(args.grid)
    cfg.check_drive_amplitude(band.max_MHz, "--grid max")
    phases.done("load")
    h = multiqubit_hamiltonian(cfg)
    engine_for(h, band.omega1s())   # the kernel reuses it
    phases.done("hamiltonian")
    report = robust_fidelity(seq, target, h, (band.min_MHz, band.max_MHz), band.points)
    phases.done("evaluate")
    files = {
        "fidelity_points.csv": (("omega1_MHz", "fidelity"), report.omega1s, report.fidelities),
        "verify.json": {
            "system": str(args.system),
            "sequence": str(args.sequence),
            "target": args.target,
            "omega1_grid_MHz": report.omega1s,
            "fidelities": report.fidelities,
            "mean_fidelity": report.mean,
            "band_mean_fidelity": report.band_mean,
            "min_fidelity": report.min,
            "duration_us": seq.duration,
        },
    }
    summary = "\n".join([
        f"verify: target={args.target} duration={seq.duration:.4f} us",
        *(f"  omega1 = {w:.4f} MHz  F = {f:.6f}"
          for w, f in zip(report.omega1s, report.fidelities)),
        f"  mean F = {report.mean:.6f}   band mean F = {report.band_mean:.6f}"
        f"   min F = {report.min:.6f}"])
    return _finish(args, phases, "verify", files, summary,
                   {"system": str(args.system), "sequence": str(args.sequence),
                    "target": args.target, "grid": args.grid})


def cmd_optimize(args, phases: _Phases) -> int:
    cfg = load_system(args.system)
    target = _target(args, cfg)
    ga_doc = read_json(args.ga_config) if args.ga_config is not None else {}
    ga = ga_config_from_dict(ga_doc)
    for flag, value, key in (("--seed", args.seed, "seed"), ("--grid", args.grid, "omega1_grid")):
        if value is not None and key in ga_doc:
            raise ConfigError(f"{flag} and the GA config's {key} set the same value; give one")
    if args.seed is not None:
        try:
            ga = replace(ga, seed=args.seed)
        except ConfigError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    where = "GA config omega1_grid max_MHz" if "omega1_grid" in ga_doc else "default band max_MHz"
    if args.grid is not None:
        ga, where = replace(ga, omega1_grid=_parse_grid(args.grid)), "--grid max"
    try:
        bounds = ParameterBounds(args.pulses, args.tau_max, args.t_max)
    except ConfigError as exc:   # each message starts with the field it names
        flags = {"n_pulses": "--pulses", "tau_max": "--tau-max", "t_max": "--t-max"}
        raise ConfigError(f"{flags[str(exc).split()[0]]}: {exc}") from exc
    cfg.check_drive_amplitude(ga.omega1_grid.max_MHz, where)
    phases.done("load")
    h = multiqubit_hamiltonian(cfg)
    engine_for(h, ga.omega1_grid.omega1s())   # the kernel reuses it
    phases.done("hamiltonian")

    result = optimize(target, h, bounds, ga)
    best = result.best_sequence()
    phases.done("search")
    files = {
        "best_sequence.json": sequence_to_dict(best),
        "history.csv": (("generation", "best_fitness"), range(len(result.history)),
                        result.history),
        "result.json": {
            "best_genome": result.best_genome,
            "best_fitness": result.best_fitness,
            "history": result.history,
            "robustness": {
                "mean": result.robustness.mean,
                "min": result.robustness.min,
                "omega1s_MHz": result.robustness.omega1s,
                "fidelities": result.robustness.fidelities,
            },
            "seed": result.seed,
            "n_pulses": result.n_pulses,
            "omega1_nominal_MHz": result.omega1_nominal,
        },
    }
    summary = (f"optimize: target={args.target} best mean-robust F = {result.best_fitness:.6f}\n"
               f"  duration = {best.duration:.4f} us over "
               f"{result.generations_run} generations (seed {result.seed})")
    return _finish(args, phases, "optimize", files, summary,
                   {"system": str(args.system), "target": args.target,
                    "pulses": args.pulses, "tau_max": args.tau_max,
                    "t_max": args.t_max, "ga": asdict(ga)},
                   ga.seed,
                   generations_run=result.generations_run,
                   fitness_evaluations=result.fitness_evaluations,
                   stop_reason=result.stop_reason)


def _scan_sequence(args, cfg):
    """The --sequence of a scan, its amplitude checked against D; None
    without the flag."""
    if args.sequence is None:
        return None
    seq = _load_sequence(args.sequence)
    cfg.check_drive_amplitude(seq.omega1, "--sequence omega1_MHz")
    return seq


def _scan_times(args) -> np.ndarray:
    """The sample times of a time-domain scan."""
    check_scan_points(args.points, f"--points for --kind {args.kind}", 2)
    check_time_span((args.points - 1) * args.dt, "scan time span (--points - 1) * --dt in us")
    return np.arange(args.points) * args.dt


# Each scan computes its result from the flags, the config and the loaded
# --sequence (or None), and returns its files, as `_finish` takes them, and its
# summary. The arrays live in the CSVs; a JSON companion holds only what no CSV
# does, its arrays as they are, so that `write_json` lists them in the write phase.

def _spectrum_csv(spec) -> tuple:
    return ("frequency_MHz", "amplitude"), spec.frequencies, spec.amplitudes


def _time_scan_files(kind: str, result) -> dict:
    return {f"{kind}_signal.csv": (("time_us", "signal"), result.times, result.signal),
            f"{kind}_spectrum.csv": _spectrum_csv(result.spectrum)}


def _scan_hadamard(args, cfg, seq):
    t_grid = _scan_times(args)
    result = hadamard_circuit_scan(seq, t_grid, cfg, _GATES["noop"] if args.noop else None)
    peak = result.spectrum.peak_frequency()
    return ({**_time_scan_files("hadamard", result), "hadamard.json": {"peak_MHz": peak}},
            f"scan hadamard: spectrum peak at {peak:.4f} MHz")


def _scan_theta(args, cfg, seq):
    thetas = np.linspace(0.0, 2 * np.pi, args.points)
    values = theta_scan(_GATES[args.gate] if seq is None else seq, thetas, args.readout, cfg)
    return ({"theta_scan.csv": (("theta_rad", "p0_down"), thetas, values)},
            f"scan theta: {args.points} points, readout m_S={args.readout}")


def _scan_fid(args, cfg, seq):
    cfg.single_carbon()   # the prepared states below are two-qubit
    t_grid = _scan_times(args)
    state = basis_state(0, 4)
    if args.state == "thermal":
        # electron polarized, carbon unpolarized: the no-carbon-init control.
        # A fully mixed 4-level state is unitary-invariant and gives no signal.
        state = on_register(PROJ_UP, 1) / 2
    result = electron_fid_scan(state, args.detuning, t_grid, cfg)
    return ({**_time_scan_files("fid", result),
             "fid_spectrum.json": {"lines": result.spectrum.lines}},
            f"scan fid: {len(result.spectrum.lines)} transition sticks")


def _scan_spectrum(args, cfg, seq):
    h = multiqubit_hamiltonian(cfg)
    spec = esr_spectrum(h, linewidth=args.linewidth, detuning=args.detuning)
    return ({"esr_spectrum.csv": _spectrum_csv(spec), "esr_lines.json": {"lines": spec.lines}},
            f"scan spectrum: {len(spec.lines)} sticks, {len(spec.resolvable_lines())} resolvable")


def _scan_trajectory(args, cfg, seq):
    if seq is None:
        raise ConfigError("trajectory scan needs --sequence")
    segment_samples(seq, args.dt, "--dt")   # the step budget, before anything is built
    h = multiqubit_hamiltonian(cfg)
    initial = basis_state(0, h.shape[0])
    traj = bloch_trajectory(seq, h, initial, args.dt)
    # one carbon is c, several are c1, c2, ... in label order
    carbons = [""] if cfg.n_carbons == 1 else range(1, cfg.n_carbons + 1)
    header = ["time_us", "ex", "ey", "ez", *(f"c{j}{axis}" for j in carbons for axis in "xyz")]
    return ({"trajectory.csv": (header, traj.times, *traj.vectors.reshape(traj.times.size, -1).T),
             "trajectory.json": {"times_us": traj.times, "bloch_vectors": traj.vectors}},
            f"scan trajectory: {traj.times.size} samples over {traj.times[-1]:.4f} us")


# _SCAN_OPTIONS: the defaults of the flags only some scan kinds read. The
# parser leaves those None, so one given to a kind that never reads it is
# refused. --detuning is not among them: every kind accepts it, as scripts
# pass it to all five. _SCANS: kind -> (scan, the flags it reads, which the
# manifest records). _GATES: --gate name (and --noop: "noop") -> gate, None = ideal.
_SCAN_OPTIONS = {"sequence": None, "gate": "cnot", "noop": False, "readout": -1,
                 "state": "pure", "points": 256, "dt": 0.1, "linewidth": 0.0106}
_SCANS = {
    "hadamard": (_scan_hadamard, ("sequence", "noop", "points", "dt")),
    "theta": (_scan_theta, ("sequence", "gate", "readout", "points")),
    "fid": (_scan_fid, ("state", "detuning", "points", "dt")),
    "spectrum": (_scan_spectrum, ("detuning", "linewidth")),
    "trajectory": (_scan_trajectory, ("sequence", "dt")),
}
_GATES = {"cnot": None, "noop": TargetGate(np.eye(4, dtype=complex))}


def cmd_scan(args, phases: _Phases) -> int:
    scan, reads = _SCANS[args.kind]
    if args.kind == "theta" and args.sequence is not None:
        if args.gate is not None:
            raise ConfigError("--gate and --sequence both choose the theta scan's gate; give one")
        reads = tuple(name for name in reads if name != "gate")   # the sequence is the gate
    for name, default in _SCAN_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in reads:
            raise ConfigError(f"--{name} is not read by --kind {args.kind}")
    check_time_step(args.dt, "--dt")
    check_linewidth(args.linewidth, "--linewidth")
    check_scan_points(args.points, "--points", 1)
    check_detuning(args.detuning, "--detuning")
    cfg = load_system(args.system)
    seq = _scan_sequence(args, cfg)
    phases.done("load")
    files, summary = scan(args, cfg, seq)
    phases.done("compute")
    return _finish(args, phases, f"scan:{args.kind}", files, summary,
                   {"system": str(args.system), "kind": args.kind,
                    **{name: getattr(args, name) for name in reads}})


def cmd_report(args, phases: _Phases) -> int:
    check_linewidth(args.linewidth, "--linewidth")
    cfg = load_system(args.system)
    phases.done("load")
    carbon = cfg.single_carbon()   # every quantity below describes one carbon
    # What a register may lack, in report order: keys, the note saying why they
    # are "n/a" when the computation refuses the register, and the computation
    # (its names looked up when called, so a patched icspin.cli.<name> is the one
    # that runs). A fault that is no ConfigError reaches main and exits 2.
    groups = (
        (("kappa_minus_deg", "kappa_plus_deg", "nu_minus_MHz", "nu_plus_MHz"),
         "eigenstructure_note",
         lambda: attrgetter("kappa_minus_deg", "kappa_plus_deg", "nu_minus",
                            "nu_plus")(carbon_eigenstructure(cfg))),
        (("init_tau1_us", "init_tau2_us"), "init_delay_note", lambda: analytic_init_delays(cfg)),
        (("cleanup_tau_c_us",), "cleanup_note", lambda: (cleanup_delay(cfg),)),
        (("dipolar_r_nm", "dipolar_theta_deg"), "dipolar_note",
         lambda: attrgetter("r_nm", "theta_deg")(dipolar_geometry(carbon))),
    )
    payload: dict = {}
    for keys, note, compute in groups:
        try:
            payload.update(zip(keys, compute()))
        except ConfigError as exc:
            payload.update(dict.fromkeys(keys, "n/a"), **{note: str(exc)})
    payload["esr_linewidth_MHz"] = args.linewidth
    payload["min_T2_star_us"] = min_coherence_time(args.linewidth)
    phases.done("compute")
    text = "\n".join(f"{key:>22s} : {value}" for key, value in payload.items())
    return _finish(args, phases, "report", {"report.json": payload, "report.txt": text + "\n"},
                   text, {"system": str(args.system), "linewidth": args.linewidth})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icspin",
        description="Pulse-sequence simulator and compiler for electron-nuclear spin registers",
    )
    parser.add_argument("--version", action="version", version=f"icspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--system", required=True)
    common.add_argument("--out", default="out")

    p = sub.add_parser("verify", parents=[common], help="evaluate a sequence against a target")
    p.add_argument("--sequence", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", default=",".join(map(str, astuple(Band()))))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", parents=[common], help="search pulse parameters for a target")
    p.add_argument("--target", required=True)
    p.add_argument("--pulses", type=int, default=3)
    p.add_argument("--tau-max", type=float, default=ParameterBounds.tau_max)
    p.add_argument("--t-max", type=float, default=ParameterBounds.t_max)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ga-config", default=None)
    p.add_argument("--grid", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("scan", parents=[common], help="simulate a circuit scan")
    p.add_argument("--kind", required=True, choices=list(_SCANS))
    p.add_argument("--sequence", default=None)
    d = _SCAN_OPTIONS   # each scan flag's help names its default
    p.add_argument("--gate", choices=list(_GATES), help=f"theta only; default {d['gate']}")
    p.add_argument("--noop", action="store_true", default=None,
                   help="replace the first gate of the hadamard scan with NOOP")
    p.add_argument("--readout", type=int, choices=[0, -1],
                   help=f"theta only; default {d['readout']}")
    p.add_argument("--points", type=int, help=f"hadamard, theta and fid; default {d['points']}")
    p.add_argument("--dt", type=float, help=f"hadamard, fid and trajectory; default {d['dt']} us")
    p.add_argument("--detuning", type=float, default=3.0)
    p.add_argument("--linewidth", type=float, help=f"spectrum only; default {d['linewidth']} MHz")
    p.add_argument("--state", choices=["pure", "thermal"], help=f"fid only; default {d['state']}")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", parents=[common], help="derived quantities of a register")
    p.add_argument("--linewidth", type=float, default=_SCAN_OPTIONS["linewidth"])
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main parses with, built on its first call: parsing leaves
    it unchanged (each call fills its own Namespace), and building it costs
    about 1 ms. Two threads that race here may each build one; either serves."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command. It may be called repeatedly in one process; the
    ``cmd_*`` are bound when the parser is built, so patch the names they
    call, not the commands."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _Phases())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # invariant violations and bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
