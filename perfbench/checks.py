"""Output checks of the benchmark's CLI calls, run outside the timed region.

No check calls icspin's propagation or kernel code. Propagators come from
the scaling-and-squaring Taylor series in ``tests/oracles.py``, spectra
from its direct eigen-differences, and the register Hamiltonian, drive
term, Bloch vectors and carbon tilt angle are written out here. Target
matrices come from ``icspin.targets``.

Each check returns a list of problems; an empty list accepts the output.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

TOL = 1e-9
PEAK_TOL_MHZ = 0.005

IZ = np.diag([0.5, -0.5]).astype(complex)
IX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
IY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
PAULI = (2 * IX, 2 * IY, 2 * IZ)
UP = np.diag([1.0, 0.0]).astype(complex)      # electron |0>
DOWN = np.diag([0.0, 1.0]).astype(complex)    # electron |-1>


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("icspin_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _embed(op: np.ndarray, slot: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == slot else np.eye(2))
    return out


def register_hamiltonian(doc: dict) -> np.ndarray:
    """Working-subspace H/2pi (MHz): electron {|0>, |-1>} first, then carbons."""
    nu_c = doc["nu_C_MHz"]
    n = len(doc["carbons"])
    h = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
    for k, c in enumerate(doc["carbons"]):
        h0 = -nu_c * IZ
        h1 = -(nu_c + c["A_zz_MHz"]) * IZ - c["A_zx_MHz"] * IX
        h += np.kron(UP, _embed(h0, k, n)) + np.kron(DOWN, _embed(h1, k, n))
    return h


def sequence_unitary(oracles, seq: dict, h: np.ndarray, omega1: float) -> np.ndarray:
    n = int(np.log2(h.shape[0])) - 1
    eye_c = np.eye(2**n)
    sx, sy = np.kron(IX, eye_c), np.kron(IY, eye_c)
    u = np.eye(h.shape[0], dtype=complex)
    for seg in seq["segments"]:
        if "delay_us" in seg:
            step = oracles.oracle_propagator(h, seg["delay_us"])
        else:
            phi = seg.get("phase_rad", 0.0)
            drive = omega1 * (np.cos(phi) * sx + np.sin(phi) * sy)
            step = oracles.oracle_propagator(h + drive, seg["pulse_us"])
        u = step @ u
    return u


def target_matrix(name: str, n_carbons: int) -> np.ndarray:
    from icspin.targets import target_library

    return target_library(name, n_carbons=n_carbons).matrix


def trace_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    return float(abs(np.trace(u.conj().T @ target)) / u.shape[0])


def bloch_vectors(psi: np.ndarray) -> np.ndarray:
    """(x, y, z) Pauli expectations of each qubit of a pure state."""
    n = int(np.log2(psi.size))
    t = psi.reshape((2,) * n)
    out = np.empty((n, 3))
    for q in range(n):
        m = np.moveaxis(t, q, 0).reshape(2, -1)
        rho = m @ m.conj().T
        out[q] = [np.real(np.trace(rho @ p)) for p in PAULI]
    return out


def _oracle_fidelities(oracles, spec: dict, seq: dict, grid) -> np.ndarray:
    h = register_hamiltonian(spec["system"])
    target = target_matrix(spec["target"], len(spec["system"]["carbons"]))
    return np.array([trace_fidelity(sequence_unitary(oracles, seq, h, w), target)
                     for w in grid])


def check_optimize(oracles, out: Path, spec: dict) -> list[str]:
    problems = []
    result = _read(out / "result.json")
    seq = _read(out / "best_sequence.json")
    history = np.array(result["history"])
    drops = np.nonzero(np.diff(history) < 0)[0]
    if drops.size:
        problems.append(f"best-fitness history decreases at generation {drops[0] + 1}")

    n = spec["pulses"]
    genome = np.array(result["best_genome"])
    upper = np.concatenate([np.full(n + 1, spec["tau_max"]), np.full(n, spec["t_max"]),
                            np.full(n, 2 * np.pi)])
    if genome.shape != upper.shape:
        problems.append(f"genome has {genome.size} genes, expected {upper.size}")
    elif (genome < 0).any() or (genome[: 2 * n + 1] > upper[: 2 * n + 1]).any() \
            or (genome[2 * n + 1:] >= 2 * np.pi).any():
        problems.append("genome leaves its bounds")

    rob = result["robustness"]
    band = spec["band"]
    grid = np.linspace(band["min_MHz"], band["max_MHz"], band["points"])
    if len(rob["omega1s_MHz"]) != grid.size or \
            np.abs(np.array(rob["omega1s_MHz"]) - grid).max() > TOL:
        problems.append(f"amplitude grid {rob['omega1s_MHz']} is not the requested band")
        return problems
    oracle = _oracle_fidelities(oracles, spec, seq, grid)
    err = np.abs(oracle - np.array(rob["fidelities"])).max()
    if err > TOL:
        problems.append(f"per-point fidelities differ from the oracle by {err:.3e}")
    for key, value in (("robustness mean", rob["mean"]), ("best fitness", result["best_fitness"])):
        if abs(oracle.mean() - value) > TOL:
            problems.append(f"{key} {value!r} differs from the oracle mean {oracle.mean()!r}")

    generations = history.size - 1
    if spec["early_stop"] is None:
        if generations != spec["generations"]:
            problems.append(f"ran {generations} generations with early stop off, "
                            f"budget {spec['generations']}")
    elif generations < spec["generations"] and result["best_fitness"] < spec["early_stop"]:
        problems.append(f"stopped at generation {generations} below the early-stop "
                        f"fidelity: {result['best_fitness']!r}")
    return problems


def check_verify(oracles, out: Path, spec: dict) -> list[str]:
    problems = []
    doc = _read(out / "verify.json")
    fids = np.array(doc["fidelities"])
    grid = np.array(doc["omega1_grid_MHz"])
    if abs(fids.mean() - doc["mean_fidelity"]) > TOL:
        problems.append("mean_fidelity is not the mean of the fidelities")
    points = spec["points"]
    oracle = _oracle_fidelities(oracles, spec, spec["sequence"], grid[points])
    err = np.abs(oracle - fids[points]).max()
    if err > TOL:
        problems.append(f"fidelities at grid points {points} differ from the oracle by {err:.3e}")
    return problems


def _sticks_problems(oracles, positions, spec: dict, what: str) -> list[str]:
    expected = np.array(oracles.eigen_difference_lines(register_hamiltonian(spec["system"])))
    got = np.sort(np.array(positions, dtype=float) - spec["detuning"])
    if got.size != expected.size:
        return [f"{what}: {got.size} sticks, the oracle has {expected.size}"]
    err = np.abs(got - expected).max()
    return [f"{what}: sticks differ from the oracle by {err:.3e} MHz"] if err > TOL else []


def check_scan_spectrum(oracles, out: Path, spec: dict) -> list[str]:
    lines = _read(out / "esr_lines.json")["lines"]
    return _sticks_problems(oracles, [p for p, _ in lines], spec, "esr_lines.json")


def check_scan_fid(oracles, out: Path, spec: dict) -> list[str]:
    lines = _read(out / "fid_spectrum.json")["lines"]
    return _sticks_problems(oracles, [p for p, _ in lines], spec, "fid_spectrum.json")


def check_scan_trajectory(oracles, out: Path, spec: dict) -> list[str]:
    problems = []
    vectors = np.array(_read(out / "trajectory.json")["bloch_vectors"])
    norms = np.linalg.norm(vectors, axis=-1)
    if norms.max() > 1 + TOL:
        problems.append(f"a Bloch vector has norm {norms.max()!r} > 1")
    h = register_hamiltonian(spec["system"])
    seq = spec["sequence"]
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[0] = 1.0
    end = bloch_vectors(sequence_unitary(oracles, seq, h, seq["omega1_MHz"]) @ psi0)
    err = np.abs(vectors[-1] - end).max()
    if err > TOL:
        problems.append(f"trajectory end point differs from the oracle state by {err:.3e}")
    return problems


def check_scan_hadamard(oracles, out: Path, spec: dict) -> list[str]:
    peak = _read(out / "hadamard.json")["peak_MHz"]
    nu_c = spec["system"]["nu_C_MHz"]
    if abs(peak - nu_c) > PEAK_TOL_MHZ:
        return [f"hadamard spectrum peaks at {peak!r} MHz, nu_C is {nu_c} MHz"]
    return []


def check_scan_theta(oracles, out: Path, spec: dict) -> list[str]:
    rows = (out / "theta_scan.csv").read_text(encoding="utf-8").split()[1:]
    probs = np.array([float(row.split(",")[1]) for row in rows])
    if probs.min() < -TOL or probs.max() > 1 + TOL:
        return [f"theta scan population leaves [0, 1]: {probs.min()!r}..{probs.max()!r}"]
    return []


def check_report(oracles, out: Path, spec: dict) -> list[str]:
    doc = _read(out / "report.json")
    system = spec["system"]
    c = system["carbons"][0]
    shifted = c["A_zz_MHz"] + system["nu_C_MHz"]
    expected = {
        "nu_minus_MHz": float(np.hypot(c["A_zx_MHz"], shifted)),
        "kappa_minus_deg": float(abs(np.degrees(np.arctan(c["A_zx_MHz"] / shifted)))),
    }
    return [f"report {key} = {doc[key]!r}, expected {value!r}"
            for key, value in expected.items() if abs(doc[key] - value) > TOL]


CHECKS = {
    "optimize": check_optimize,
    "verify": check_verify,
    "scan_hadamard": check_scan_hadamard,
    "scan_theta": check_scan_theta,
    "scan_fid": check_scan_fid,
    "scan_spectrum": check_scan_spectrum,
    "scan_trajectory": check_scan_trajectory,
    "report": check_report,
}


class Checker:
    """Runs each call's check; remembers GA outputs to test repeated seeds."""

    def __init__(self, oracles):
        self.oracles = oracles
        self.seen: dict = {}

    def check(self, call) -> list[str]:
        problems = CHECKS[call.check](self.oracles, call.out, call.spec)
        if call.check == "optimize":
            key = tuple(call.argv[: call.argv.index("--out")])
            data = (call.out / "best_sequence.json").read_bytes()
            if self.seen.setdefault(key, data) != data:
                problems.append(f"seed {call.spec['seed']} repeated with a different "
                                "best_sequence.json")
        return problems
