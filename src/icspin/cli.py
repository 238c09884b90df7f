"""Batch command-line front end.

Subcommands
-----------
verify    evaluate a pulse sequence against a target over an amplitude grid
optimize  run the genetic-algorithm search and write the best sequence
scan      simulate a circuit scan (hadamard | theta | fid | spectrum | trajectory)
report    derived quantities of a register config

Exit codes: 0 = ran, 1 = usage/config error, 2 = internal invariant
violation. Low fidelity is data, never an error. Every run writes a
manifest next to its outputs; rerunning with the same inputs and seed
reproduces all data files byte for byte (timestamps live only in the
manifest).
"""
from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .eigenstructure import DegenerateManifoldError, carbon_eigenstructure
from .experiments import (
    InitializationDomainError,
    analytic_init_delays,
    bloch_trajectory,
    cleanup_delay,
    electron_fid_scan,
    esr_spectrum,
    hadamard_circuit_scan,
    min_coherence_time,
    theta_scan,
)
from .fidelity import robust_fidelity
from .files import read_json, write_csv, write_json
from .geometry import GeometryError, dipolar_geometry
from .hamiltonian import multiqubit_hamiltonian
from .optimize import ParameterBounds, ga_config_from_dict, ga_config_to_dict, optimize
from .sequence import MAX_DURATION_US, SequenceError, load_sequence, save_sequence
from .states import basis_state, density_matrix
from .system import ConfigError, load_system
from .targets import TargetError, target_library

USAGE_ERROR = 1
INTERNAL_ERROR = 2

# Size budgets, checked before anything is allocated. At d = 32 an amplitude
# grid costs about 32 kB a point in the engine's batched eigensystem (96 MB
# peak at 4096 points); 2**16 scan points cost about 50 MB, and a trajectory
# about 2 kB a step (222 MB at 10**5 steps, on one carbon). A GA population
# of 10_000 genomes of 64 pulses is 15 MB; a one-carbon search at both
# budgets peaks near 165 MB.
MAX_GRID_POINTS = 2048
MAX_SCAN_POINTS = 2**16
MAX_TRAJECTORY_STEPS = 10_000
MAX_PULSES = 64
MAX_POPULATION = 10_000


class CliError(Exception):
    """Usage problem found by the CLI itself; maps to exit code 1."""


USAGE_ERRORS = (CliError, ConfigError, SequenceError, TargetError, DegenerateManifoldError)


class _Parser(argparse.ArgumentParser):
    """argparse's own usage errors exit 1 like every other usage error;
    subparsers inherit the class. --help and --version still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _check_positive(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise CliError(f"{flag} must be positive and finite, got {value!r}")


def _check_size(what: str, size: float, budget: int) -> None:
    if size > budget:
        raise CliError(f"{what} must be at most {budget}, got {size}")


class _Phases:
    """Wall seconds of a command's phases, each timed from the end of the
    one before; the manifest records them as ``phase_seconds``."""

    def __init__(self):
        self.seconds = {}
        self._phase, self._last = None, time.perf_counter()

    def done(self, phase: str, earlier: float = 0.0) -> None:
        """End `phase`; `earlier` seconds of it count to the phase before."""
        now = time.perf_counter()
        if earlier:
            self.seconds[self._phase] += earlier
        self.seconds[phase] = now - self._last - earlier
        self._phase, self._last = phase, now


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
        "written_at_unix": time.time(),
        **run_facts,
    }
    write_json(out / "manifest.json", manifest)


def _parse_grid(text: str) -> tuple[tuple[float, float], int]:
    try:
        lo, hi, points = text.split(",")
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError as exc:
        raise CliError(f"--grid expects 'min,max,points', got {text!r}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise CliError(f"--grid bounds must be finite, got {text!r}")
    if lo < 0:
        raise CliError(f"--grid amplitudes must be >= 0, got {text!r}")
    if lo > hi:
        raise CliError(f"--grid min must not exceed max, got {text!r}")
    if points < 1:
        raise CliError(f"--grid needs at least one point, got {text!r}")
    _check_size("--grid points", points, MAX_GRID_POINTS)
    return (lo, hi), points


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    phases = _Phases()
    cfg = load_system(args.system)
    seq = load_sequence(args.sequence)
    target = target_library(args.target, n_carbons=cfg.n_carbons)
    omega1_range, points = _parse_grid(args.grid)
    cfg.check_drive_amplitude(omega1_range[1], "--grid max")
    phases.done("load")
    h = multiqubit_hamiltonian(cfg)
    phases.done("hamiltonian")
    report = robust_fidelity(seq, target, h, omega1_range, points)
    phases.done("evaluate", earlier=report.precompute_seconds)

    out = _out_dir(args)
    write_csv(out / "fidelity_points.csv", ("omega1_MHz", "fidelity"),
              report.omega1s, report.fidelities)
    write_json(
        out / "verify.json",
        {
            "system": str(args.system),
            "sequence": str(args.sequence),
            "target": args.target,
            "omega1_grid_MHz": report.omega1s.tolist(),
            "fidelities": report.fidelities.tolist(),
            "mean_fidelity": report.mean,
            "band_mean_fidelity": report.band_mean,
            "min_fidelity": report.min,
            "duration_us": seq.duration,
        },
    )
    phases.done("write")
    _write_manifest(out, "verify",
                    {"system": str(args.system), "sequence": str(args.sequence),
                     "target": args.target, "grid": args.grid}, None,
                    kernel_workers=report.kernel_workers, phase_seconds=phases.seconds)
    print(f"verify: target={args.target} duration={seq.duration:.4f} us")
    for w, f in zip(report.omega1s, report.fidelities):
        print(f"  omega1 = {w:.4f} MHz  F = {f:.6f}")
    print(f"  mean F = {report.mean:.6f}   band mean F = {report.band_mean:.6f}"
          f"   min F = {report.min:.6f}")
    return 0


def cmd_optimize(args) -> int:
    phases = _Phases()
    cfg = load_system(args.system)
    target = target_library(args.target, n_carbons=cfg.n_carbons)
    ga_doc = {}
    if args.ga_config:
        ga_doc = read_json(args.ga_config, CliError)
        if not isinstance(ga_doc, dict):
            raise CliError("GA config must be a JSON object")
    for flag, value, key in (("--seed", args.seed, "seed"), ("--grid", args.grid, "omega1_grid")):
        if value is not None and key in ga_doc:
            raise CliError(f"{flag} and the GA config's {key} set the same value; give one")
    if args.seed is not None:
        ga_doc["seed"] = args.seed
    if args.grid:
        omega1_range, points = _parse_grid(args.grid)
        ga_doc["omega1_grid"] = {
            "min_MHz": omega1_range[0], "max_MHz": omega1_range[1], "points": points,
        }
    try:
        ga = ga_config_from_dict(ga_doc)
        bounds = ParameterBounds(args.pulses, args.tau_max, args.t_max)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    _check_size("--pulses", args.pulses, MAX_PULSES)
    _check_size("GA config population", ga.population_size, MAX_POPULATION)
    if not args.grid:   # --grid's points were checked as it was parsed
        _check_size("GA config omega1_grid points", ga.omega1_points, MAX_GRID_POINTS)
    where = "--grid max" if args.grid else "GA config omega1_grid max_MHz"
    cfg.check_drive_amplitude(ga.omega1_range[1], where)
    phases.done("load")
    h = multiqubit_hamiltonian(cfg)
    phases.done("hamiltonian")

    result = optimize(target, h, bounds, ga)
    phases.done("search", earlier=result.precompute_seconds)
    out = _out_dir(args)
    save_sequence(result.best_sequence(), out / "best_sequence.json")
    write_csv(out / "history.csv", ("generation", "best_fitness"),
              range(len(result.history)), result.history)
    write_json(out / "result.json", result.to_dict())
    phases.done("write")
    _write_manifest(out, "optimize",
                    {"system": str(args.system), "target": args.target,
                     "pulses": args.pulses, "tau_max": args.tau_max,
                     "t_max": args.t_max, "ga": ga_config_to_dict(ga)},
                    ga.rng_seed,
                    generations_run=result.generations_run,
                    fitness_evaluations=result.fitness_evaluations,
                    stop_reason=result.stop_reason,
                    kernel_workers=result.kernel_workers,
                    phase_seconds=phases.seconds)
    print(f"optimize: target={args.target} best mean-robust F = {result.best_fitness:.6f}")
    print(f"  duration = {result.best_sequence().duration:.4f} us over "
          f"{result.generations_run} generations (seed {result.seed})")
    return 0


def _scan_sequence(args, cfg):
    """The --sequence of a scan, its amplitude checked against D."""
    seq = load_sequence(args.sequence)
    cfg.check_drive_amplitude(seq.omega1, "--sequence omega1_MHz")
    return seq


def _scan_times(args) -> np.ndarray:
    """The sample times of a time-domain scan; their span, like any
    duration, is at most MAX_DURATION_US."""
    _check_size("scan time span (--points - 1) * --dt in us", (args.points - 1) * args.dt,
                MAX_DURATION_US)
    return np.arange(args.points) * args.dt


def _scan_hadamard(args, cfg, out: Path) -> None:
    t_grid = _scan_times(args)
    gate = "ideal" if not args.sequence else _scan_sequence(args, cfg)
    first = "noop" if args.noop else None
    result = hadamard_circuit_scan(gate, t_grid, cfg, first_gate=first)
    result.to_csv(out / "hadamard_signal.csv")
    result.spectrum.to_csv(out / "hadamard_spectrum.csv")
    write_json(out / "hadamard.json", {
        "peak_MHz": result.spectrum.peak_frequency(),
        "signal": result.signal.tolist(),
        "times_us": result.times.tolist(),
    })
    print(f"scan hadamard: spectrum peak at {result.spectrum.peak_frequency():.4f} MHz")


def _scan_theta(args, cfg, out: Path) -> None:
    thetas = np.linspace(0.0, 2 * np.pi, args.points)
    gate = args.gate if not args.sequence else _scan_sequence(args, cfg)
    values = theta_scan(gate, thetas, args.readout, cfg)
    write_csv(out / "theta_scan.csv", ("theta_rad", "p0_down"), thetas, values)
    print(f"scan theta: {args.points} points, readout m_S={args.readout}")


def _scan_fid(args, cfg, out: Path) -> None:
    cfg.single_carbon()   # the prepared states below are two-qubit
    t_grid = _scan_times(args)
    state = density_matrix(basis_state(0, 4))
    if args.state == "thermal":
        # electron polarized, carbon unpolarized: the no-carbon-init control.
        # A fully mixed 4-level state is unitary-invariant and gives no signal.
        state = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0).astype(complex)
    result = electron_fid_scan(state, args.detuning, t_grid, cfg)
    result.to_csv(out / "fid_signal.csv")
    result.spectrum.to_csv(out / "fid_spectrum.csv")
    write_json(out / "fid_spectrum.json", result.spectrum.to_dict())
    print(f"scan fid: {len(result.spectrum.lines)} transition sticks")


def _scan_spectrum(args, cfg, out: Path) -> None:
    h = multiqubit_hamiltonian(cfg)
    spec = esr_spectrum(h, linewidth=args.linewidth, detuning=args.detuning)
    spec.to_csv(out / "esr_spectrum.csv")
    write_json(out / "esr_lines.json", {"lines": [[p, w] for p, w in spec.lines]})
    print(f"scan spectrum: {len(spec.lines)} sticks, "
          f"{len(spec.resolvable_lines())} resolvable")


def _scan_trajectory(args, cfg, out: Path) -> None:
    if not args.sequence:
        raise CliError("trajectory scan needs --sequence")
    seq = _scan_sequence(args, cfg)
    _check_size("trajectory steps (sequence duration / --dt)", seq.duration / args.dt,
                MAX_TRAJECTORY_STEPS)
    h = multiqubit_hamiltonian(cfg)
    initial = basis_state(0, h.shape[0])
    traj = bloch_trajectory(seq, h, initial, args.dt)
    traj.to_csv(out / "trajectory.csv")
    write_json(out / "trajectory.json", {
        "times_us": traj.times.tolist(),
        "bloch_vectors": traj.vectors.tolist(),
    })
    print(f"scan trajectory: {traj.times.size} samples over {traj.times[-1]:.4f} us")


_SCANS = {
    "hadamard": _scan_hadamard,
    "theta": _scan_theta,
    "fid": _scan_fid,
    "spectrum": _scan_spectrum,
    "trajectory": _scan_trajectory,
}


def cmd_scan(args) -> int:
    _check_positive("--dt", args.dt)
    _check_positive("--linewidth", args.linewidth)
    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}")
    _check_size("--points", args.points, MAX_SCAN_POINTS)
    if not np.isfinite(args.detuning):
        raise CliError(f"--detuning must be finite, got {args.detuning!r}")
    cfg = load_system(args.system)
    out = _out_dir(args)
    try:
        _SCANS[args.kind](args, cfg, out)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_manifest(out, f"scan:{args.kind}",
                    {"system": str(args.system), "kind": args.kind,
                     "sequence": args.sequence or "", "points": args.points,
                     "dt": args.dt}, None)
    return 0


def cmd_report(args) -> int:
    _check_positive("--linewidth", args.linewidth)
    cfg = load_system(args.system)
    single = cfg.subset([cfg.carbons[0].label])
    eig = carbon_eigenstructure(single)
    payload: dict = {
        "kappa_minus_deg": eig.kappa_minus_deg,
        "kappa_plus_deg": eig.kappa_plus_deg,
        "nu_minus_MHz": eig.nu_minus,
        "nu_plus_MHz": eig.nu_plus,
    }
    try:
        tau1, tau2 = analytic_init_delays(single)
        payload["init_tau1_us"] = tau1
        payload["init_tau2_us"] = tau2
    except InitializationDomainError as exc:
        payload["init_tau1_us"] = "n/a"
        payload["init_tau2_us"] = "n/a"
        payload["init_delay_note"] = str(exc)
    try:
        payload["cleanup_tau_c_us"] = cleanup_delay(single)
    except ValueError as exc:
        payload["cleanup_tau_c_us"] = "n/a"
        payload["cleanup_note"] = str(exc)
    try:
        geom = dipolar_geometry(single.carbons[0])
        payload["dipolar_r_nm"] = geom.r_nm
        payload["dipolar_theta_deg"] = geom.theta_deg
    except GeometryError as exc:
        payload["dipolar_r_nm"] = "n/a"
        payload["dipolar_theta_deg"] = "n/a"
        payload["dipolar_note"] = str(exc)
    payload["esr_linewidth_MHz"] = args.linewidth
    payload["min_T2_star_us"] = min_coherence_time(args.linewidth)

    out = _out_dir(args)
    write_json(out / "report.json", payload)
    lines = [f"{key:>22s} : {value}" for key, value in payload.items()]
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    _write_manifest(out, "report",
                    {"system": str(args.system), "linewidth": args.linewidth}, None)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icspin",
        description="Pulse-sequence simulator and compiler for electron-nuclear spin registers",
    )
    parser.add_argument("--version", action="version", version=f"icspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate a sequence against a target")
    p.add_argument("--system", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", default="0.48,0.52,5")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="search pulse parameters for a target")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--pulses", type=int, default=3)
    p.add_argument("--tau-max", type=float, default=4.0)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ga-config", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("scan", help="simulate a circuit scan")
    p.add_argument("--kind", required=True,
                   choices=list(_SCANS))
    p.add_argument("--system", required=True)
    p.add_argument("--sequence", default=None)
    p.add_argument("--gate", default="cnot", choices=["noop", "cnot"])
    p.add_argument("--noop", action="store_true",
                   help="replace the first gate of the hadamard scan with NOOP")
    p.add_argument("--readout", type=int, default=-1, choices=[0, -1])
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--detuning", type=float, default=3.0)
    p.add_argument("--linewidth", type=float, default=0.0106)
    p.add_argument("--state", default="pure", choices=["pure", "thermal"])
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="derived quantities of a register")
    p.add_argument("--system", required=True)
    p.add_argument("--linewidth", type=float, default=0.0106)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # invariant violations and bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
