"""Independent reference implementations used only to check production code.

Nothing here may call into the package's propagator or spectrum paths: the
matrix exponential is a scaling-and-squaring Taylor series, the free
propagator is a hand-written closed form, and spectra come from direct
eigen-differences.
"""
import numpy as np

# Spin-1/2 operators written out by hand, s_z = diag(+1/2, -1/2)
SX_HALF = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY_HALF = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ_HALF = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)


def taylor_expm(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor series exp(m)."""
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 4)
    a = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 24):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def oracle_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i 2 pi h t) via the series oracle."""
    return taylor_expm(-2j * np.pi * h * t)


def best_single_delay(h: np.ndarray, target: np.ndarray, tau_max: float) -> tuple[float, float]:
    """The delay in [0, tau_max] whose series propagator is closest to
    `target` in |Tr(U_T^dag U)| / d, and that fidelity: a 0.01 us grid,
    then a 1e-5 us grid over the best point's two neighbours."""
    def fidelity(tau):
        return abs(np.trace(target.conj().T @ oracle_propagator(h, tau))) / h.shape[0]

    coarse = np.linspace(0.0, tau_max, int(round(tau_max / 0.01)) + 1)
    best = coarse[int(np.argmax([fidelity(tau) for tau in coarse]))]
    fine = np.linspace(max(0.0, best - 0.01), min(tau_max, best + 0.01), 2001)
    fids = [fidelity(tau) for tau in fine]
    at = int(np.argmax(fids))
    return float(fine[at]), float(fids[at])


def electron_drive(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hand-written (s_x ⊗ E, s_y ⊗ E) on the electron of a dim-level register."""
    half = dim // 2
    drive_x = np.zeros((dim, dim), dtype=complex)
    drive_x[:half, half:] = drive_x[half:, :half] = 0.5 * np.eye(half)
    drive_y = np.zeros((dim, dim), dtype=complex)
    drive_y[:half, half:] = -0.5j * np.eye(half)
    drive_y[half:, :half] = 0.5j * np.eye(half)
    return drive_x, drive_y


def oracle_sequence_propagator(segments, h: np.ndarray, omega1: float) -> np.ndarray:
    """Segment-by-segment series propagation with a hand-written drive.

    A segment with a ``tau`` attribute is a delay; any other carries a
    duration ``t`` and a phase ``phi`` and is a pulse of amplitude omega1.
    """
    drive_x, drive_y = electron_drive(h.shape[0])
    u = np.eye(h.shape[0], dtype=complex)
    for seg in segments:
        if hasattr(seg, "tau"):
            u = oracle_propagator(h, seg.tau) @ u
        else:
            hp = h + omega1 * (np.cos(seg.phi) * drive_x + np.sin(seg.phi) * drive_y)
            u = oracle_propagator(hp, seg.t) @ u
    return u


def closed_form_free_propagator(config, tau: float) -> np.ndarray:
    """Analytic 4x4 free propagator of the working subspace.

    Diagonal carbon phases in the electron-|0> block; in the lower manifold
    a rotation about the tilted carbon axis, written with the tilt angle and
    transition frequency.
    """
    c = config.single_carbon()
    nu_c = config.nu_c
    nu_m = np.hypot(c.a_zx, nu_c + c.a_zz)
    kappa = np.arctan2(c.a_zx, c.a_zz + nu_c)
    ph = np.pi * nu_m * tau
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = np.exp(1j * np.pi * nu_c * tau)
    u[1, 1] = np.exp(-1j * np.pi * nu_c * tau)
    u[2, 2] = np.cos(ph) + 1j * np.cos(kappa) * np.sin(ph)
    u[3, 3] = np.cos(ph) - 1j * np.cos(kappa) * np.sin(ph)
    u[2, 3] = 1j * np.sin(kappa) * np.sin(ph)
    u[3, 2] = 1j * np.sin(kappa) * np.sin(ph)
    return u


EYE2 = np.eye(2, dtype=complex)
PROJ_UP = np.diag([1.0, 0.0]).astype(complex)     # electron |0><0|
PROJ_DOWN = np.diag([0.0, 1.0]).astype(complex)   # electron |m_s><m_s|


def kron_fold(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the operators left to right, the first cast to complex."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def kronecker_register_hamiltonian(config, m_s: int = -1) -> np.ndarray:
    """The working-subspace Hamiltonian as a sum of Kronecker products, one
    |0>-conditioned and one |m_S>-conditioned term per carbon, added in slot
    order."""
    n = config.n_carbons
    h = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
    for slot, c in enumerate(config.carbons):
        ops0 = [PROJ_UP] + [EYE2] * n
        opsm = [PROJ_DOWN] + [EYE2] * n
        ops0[slot + 1] = -config.nu_c * SZ_HALF
        opsm[slot + 1] = -(config.nu_c - m_s * c.a_zz) * SZ_HALF + m_s * c.a_zx * SX_HALF
        h += kron_fold(*ops0) + kron_fold(*opsm)
    return h


# The register operators as Kronecker products written out one by one,
# electron first, then carbons in label order. The package places each of
# them with ``operators.on_register``; these are the forms it must equal.
def kron_hadamard_on_carbon(n_carbons: int) -> np.ndarray:
    """Hadamard on carbon 1, identity on the electron and the other carbons."""
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return kron_fold(EYE2, hadamard, *[EYE2] * (n_carbons - 1))


def kron_cc_rotation(rot: np.ndarray, n_carbons: int, carbon: int) -> np.ndarray:
    """The 2x2 `rot` on `carbon` if the electron is in |m_s>, identity if in |0>."""
    ops = [EYE2] * n_carbons
    ops[carbon - 1] = rot
    return (kron_fold(PROJ_UP, np.eye(2**n_carbons, dtype=complex))
            + kron_fold(PROJ_DOWN, kron_fold(*ops)))


def kron_electron_rotation(rot: np.ndarray, n_carbons: int) -> np.ndarray:
    """The 2x2 `rot` on the electron, identity on the carbons."""
    return np.kron(rot, np.eye(2**n_carbons))


def kron_fid_readout(n_carbons: int) -> np.ndarray:
    """The projector on electron |0>, identity on the carbons."""
    return kron_fold(PROJ_UP, np.eye(2**n_carbons, dtype=complex))


def kron_thermal_state() -> np.ndarray:
    """Electron |0>, one fully mixed carbon."""
    return np.kron(PROJ_UP, EYE2) / 2


def kron_drive(dim: int) -> np.ndarray:
    """The real phase-zero drive s_x ⊗ E of a dim-level register."""
    return np.kron(SX_HALF.real, np.eye(dim // 2))


def random_register_hamiltonian(rng: np.random.Generator, dim: int,
                                scale: float = 1.0) -> np.ndarray:
    """A random real symmetric h, block-diagonal in the electron: the shape
    every register builder of the package gives."""
    half = dim // 2
    h = np.zeros((dim, dim))
    for block in (slice(None, half), slice(half, None)):
        a = rng.normal(size=(half, half))
        h[block, block] = scale * (a + a.T) / 2.0
    return h


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def eigen_difference_lines(h: np.ndarray) -> list[float]:
    """Signed electron-flip transition offsets by direct diagonalization."""
    dim = h.shape[0]
    half = dim // 2
    w, v = np.linalg.eigh(h)
    p_lower = np.zeros((dim, dim), dtype=complex)
    p_lower[:half, :half] = np.eye(half)
    flip = np.zeros((dim, dim), dtype=complex)
    flip[:half, half:] = np.eye(half)
    flip[half:, :half] = np.eye(half)
    pop0 = np.real(np.einsum("ij,jk,ki->i", v.conj().T, p_lower, v))
    lower = np.where(pop0 > 0.5)[0]
    upper = np.where(pop0 <= 0.5)[0]
    out = []
    for i in lower:
        for f in upper:
            if abs(v[:, f].conj() @ flip @ v[:, i]) ** 2 > 1e-12:
                out.append(float(w[f] - w[i]))
    return sorted(out)
