"""Exact propagators for delays and microwave pulses.

Hamiltonians are stored as H/2pi in MHz, so a duration t in microseconds
propagates as U = exp(-i 2pi H t). The drive is resonant with the electron
pseudo-qubit transition; a pulse of amplitude omega1 (MHz) and phase phi
adds omega1 * (cos phi s_x + sin phi s_y) ⊗ E to the free Hamiltonian.

``PropagationEngine`` composes sequences of delays and pulses over an
amplitude grid in the eigenbasis of the free Hamiltonian h, which every
register builder gives real and block-diagonal in the electron:

* Each electron block is diagonalized on its own, both in one batched
  eigh. The eigenvector matrix V = diag(V_0, V_1) is real orthogonal, and
  the electron z-rotation Z(phi) = exp(-i phi s_z) stays diagonal even when
  eigenvalues of the two blocks coincide.
* A delay tau is the diagonal exp(-i 2pi w tau).
* A pulse at phase phi is Z(phi) P Z(phi)^dag, where P is the phase-zero
  pulse. The phase-zero drive Hamiltonian at grid point g is real with
  eigenpairs (w_p, V_p), so in the free eigenbasis P = W diag(q) W^T with the
  real mixing matrix W_g = V^T V_p(g) and q = exp(-i 2pi w_p t). The drive
  Hamiltonians of the whole grid go through one batched eigh.

Any sequence maps to the template genome: delay, then pulse and delay n
times. A delay and the z-rotations on either side of it merge into one row
phase, and each pulse costs two left-multiplications by a real matrix, each
run as one real matmul on the float64 view of the complex propagator.
``PropagationEngine.chain`` is that one chain; ``sequence_propagator`` and
the fitness kernel, and through them every whole-sequence propagator of
the package, run on it. ``hadamard_circuit_scan``, ``electron_fid_scan``
and ``bloch_trajectory`` do not: they sample free and pulse evolution
directly from the engine's ``w``, ``v``, ``zhalf``, ``mix`` and ``w_p``.

Every engine of the package comes from ``engine_for``, which keeps the
engines of its recent calls, least recently used first, within
``ENGINE_MEMO_BYTES`` of arrays, and hands one back when h and the grid are
the same value for value. A run of commands that moves among a few registers
and bands diagonalizes each of them once a process. The engine's arrays are
read-only, as one engine may serve many callers.
"""
from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .operators import PAULI_X, TWO_PI, assert_hermitian, on_register
from .sequence import PulseSequence, genome_from_sequence, genome_parts


def real_left_mul(a: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ u for real a and C-contiguous complex u, as one real matmul into
    the C-contiguous complex `out`."""
    return np.matmul(a, u.view(np.float64), out=out.view(np.float64)).view(np.complex128)


class PropagationEngine:
    """Free eigensystem of h and phase-zero pulse eigensystems on a grid.

    Parameters
    ----------
    h : working-subspace Hamiltonian (MHz) of 2^(n+1) levels; real and
        block-diagonal in the electron
    omega1s : amplitude grid (MHz), finite and non-negative; may be empty
        when only delays are propagated. A grid on which the drive
        Hamiltonian's angular frequencies 2 pi w_p overflow raises
        ValueError; the physical ceiling, the zero-field splitting D, is
        ``SpinSystemConfig.check_drive_amplitude``.

    Attributes
    ----------
    v, w : real eigenvectors (columns) and eigenvalues of h, block by block
    zhalf : the s_z eigenvalue (+1/2 or -1/2) of each eigenvector
    w_p : (G, d) eigenvalues of the phase-zero drive Hamiltonian per grid point
    mix : (G, d, d) real mixing matrices W = V^T V_p; the chain reads W^T as
        a transposed view

    All of them, and ``omega1s``, are read-only.
    """

    def __init__(self, h, omega1s=()):
        h = np.asarray(h)
        d = h.shape[0] if h.ndim == 2 else 0
        if h.shape != (d, d) or d < 2 or d & (d - 1):
            raise ValueError("the propagation engine needs a square Hamiltonian of 2^(n+1) "
                             f"levels for n carbons, got shape {h.shape}")
        assert_hermitian(h)
        if np.iscomplexobj(h) and np.any(h.imag != 0):
            raise ValueError("the propagation engine needs a real Hamiltonian")
        h = h.real
        half = h.shape[0] // 2
        if np.any(h[:half, half:] != 0) or np.any(h[half:, :half] != 0):
            raise ValueError(
                "the propagation engine needs a Hamiltonian block-diagonal in the electron")
        self.omega1s = np.array(omega1s, dtype=float).reshape(-1)
        if not np.isfinite(self.omega1s).all() or np.any(self.omega1s < 0):
            raise ValueError("amplitude grid must be finite and non-negative")

        w, v = np.linalg.eigh(np.stack([h[:half, :half], h[half:, half:]]))
        self.w = w.reshape(-1)
        self.v = np.zeros_like(h)
        self.v[:half, :half], self.v[half:, half:] = v
        self.zhalf = np.repeat([0.5, -0.5], half)

        drive = on_register(PAULI_X.real / 2, half.bit_length() - 1)
        self.w_p, v_p = np.linalg.eigh(h + self.omega1s[:, None, None] * drive)
        if not (np.abs(self.w_p) < np.finfo(float).max / TWO_PI).all():   # NaN too
            raise ValueError("amplitude grid too large: the drive Hamiltonian's angular "
                             "frequencies are not finite at omega1 up to "
                             f"{float(self.omega1s.max())!r} MHz")
        self.mix = self.v.T @ v_p
        for array in (self.omega1s, self.v, self.w, self.zhalf, self.w_p, self.mix):
            array.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.w.size

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V^T m V: an operator of the lab basis in the free eigenbasis."""
        return self.v.T @ m @ self.v

    def to_lab(self, u: np.ndarray) -> np.ndarray:
        """V u V^T for one operator or a stack of them."""
        return self.v @ u @ self.v.T

    def chain(self, genomes, u, spare, grid):
        """Propagators of template genomes on the grid points `grid`, in the
        free eigenbasis, less the row phase of the last delay.

        A genome [tau_0..tau_n, t_1..t_n, phi_1..phi_n] is delay, then pulse
        and delay n times. Delay i and the z-rotations on either side of it
        merge into one row phase through the phase step dphis[:, i] =
        phi_{i+1} - phi_i, with phi_0 = phi_{n+1} = 0. The chain alternates
        between the C-contiguous (P, len(grid), d, d) stacks `u` and `spare`
        and returns the one holding the result (the identity when n = 0) and
        the (P, d) row phase of the last delay. The caller keeps the two
        stacks; the chain makes each call's row phases and the pulses'
        (P, n, len(grid), d) eigenphase factors itself.
        """
        taus, ts, inner_phis = genome_parts(genomes)
        n = ts.shape[1]
        # phi_0..phi_{n+1}; np.diff with prepend and append takes five times
        # as long, and the kernel calls the chain once a chunk
        phis = np.zeros((len(genomes), n + 2))
        phis[:, 1:-1] = inner_phis
        dphis = phis[:, 1:] - phis[:, :-1]                                    # (P, n+1)
        rows = np.exp(-1j * (TWO_PI * taus[:, :, None] * self.w
                             - dphis[:, :, None] * self.zhalf))               # (P, n+1, d)
        if n == 0:
            u[...] = np.eye(self.dim)
            return u, rows[:, 0]
        mix = self.mix[grid]
        mix_t = mix.transpose(0, 2, 1)
        q = np.multiply(-1j * TWO_PI * ts[:, :, None, None], self.w_p[grid])
        np.exp(q, out=q)                                                      # (P, n, G, d)
        np.multiply(q[:, 0, :, :, None], mix_t, out=u)
        u *= rows[:, 0, None, None, :]
        u, spare = real_left_mul(mix, u, out=spare), u
        for i in range(1, n):
            u *= rows[:, i, None, :, None]
            u, spare = real_left_mul(mix_t, u, out=spare), u
            u *= q[:, i, :, :, None]
            u, spare = real_left_mul(mix, u, out=spare), u
        return u, rows[:, n]


# Bytes of engine arrays that ``engine_for`` keeps: about four times the
# seven engines (about 1 MB) of one verify of the bundled sequences with
# every scan and report.
ENGINE_MEMO_BYTES = 2**22

# The engines of recent ``engine_for`` calls, least recently used first, by
# (h key, grid key). The lock covers lookup, build and eviction.
_engines: OrderedDict = OrderedDict()
_engines_lock = threading.Lock()


def engine_for(h, omega1s=()) -> PropagationEngine:
    """``PropagationEngine(h, omega1s)``, or a kept engine built from an h and
    a float grid of the same dtype, shape and bytes.

    The engines of recent calls are kept until their arrays exceed
    ``ENGINE_MEMO_BYTES``; then the least recently used go first. The newest
    engine is always kept, however large: at d = 32 an engine holds about
    8 kB a grid point, 17 MB at 2048 points. A one-ulp change in h or the
    grid builds anew. One lock covers lookup, build and eviction, so a key is
    built once while it is kept, and builds of different keys wait for each
    other.
    """
    h = np.asarray(h)
    grid = np.asarray(omega1s, dtype=float).reshape(-1)
    key = tuple((a.dtype, a.shape, a.tobytes()) for a in (h, grid))
    with _engines_lock:
        if key in _engines:
            _engines.move_to_end(key)
            return _engines[key]
        engine = _engines[key] = PropagationEngine(h, grid)
        kept = sum(_nbytes(e) for e in _engines.values())
        while kept > ENGINE_MEMO_BYTES and len(_engines) > 1:
            kept -= _nbytes(_engines.popitem(last=False)[1])
        return engine


def _nbytes(engine: PropagationEngine) -> int:
    return sum(array.nbytes for array in vars(engine).values())


def sequence_propagator(seq: PulseSequence, h: np.ndarray) -> np.ndarray:
    """Time-ordered propagator of the whole sequence (first segment acts first)
    at its own amplitude.

    Any order of delays and pulses runs as its template genome in one chain.
    """
    engine = engine_for(h, [seq.omega1])
    u = np.empty((1, 1, engine.dim, engine.dim), dtype=complex)
    u, last = engine.chain(genome_from_sequence(seq)[None], u, np.empty_like(u), slice(None))
    return engine.to_lab(u[0, 0] * last[0, :, None])
