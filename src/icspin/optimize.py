"""Genetic-algorithm search over pulse-sequence parameters.

Genomes are flat real vectors [tau_1..tau_{n+1}, t_1..t_n, phi_1..phi_n].
The fitness of a genome is the mean trace fidelity against the target over
the configured amplitude grid. Selection is tournament (default size 3),
crossover is uniform, mutation is Gaussian with a per-gene scale
proportional to the gene's range; out-of-bounds genes are clamped. Elites
pass through unchanged, which makes the best-fitness history
non-decreasing.

All random draws happen in the serial generation loop, in the per-child
order ``_breed`` documents, and the kernel scores a genome bit for bit the
same alone or in any batch, so a fixed seed reproduces the trajectory bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fidelity import DEFAULT_GRID_POINTS, DEFAULT_OMEGA1_RANGE, omega1_grid
from .files import check_keys, json_number
from .kernels import FitnessKernel
from .operators import TWO_PI
from .sequence import MAX_DURATION_US, PulseSequence, SequenceError, sequence_from_genome
from .targets import TargetGate

_PHASE_MAX = np.nextafter(TWO_PI, 0.0)


@dataclass(frozen=True)
class ParameterBounds:
    """Box bounds of the genome: per-delay and per-pulse maxima in us."""

    n_pulses: int
    tau_max: float = 4.0
    t_max: float = 4.0

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        for name in ("tau_max", "t_max"):
            v = getattr(self, name)
            if not 0 < v <= MAX_DURATION_US:
                raise ValueError(f"{name} must lie in (0, {MAX_DURATION_US:g}] us, got {v!r}")

    @property
    def genome_length(self) -> int:
        return 3 * self.n_pulses + 1

    def lower(self) -> np.ndarray:
        return np.zeros(self.genome_length)

    def upper(self) -> np.ndarray:
        n = self.n_pulses
        up = np.empty(self.genome_length)
        up[: n + 1] = self.tau_max
        up[n + 1 : 2 * n + 1] = self.t_max
        up[2 * n + 1 :] = _PHASE_MAX
        return up


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    generations: int = 300
    crossover_rate: float = 0.9
    mutation_rate: float = 0.25
    mutation_scale: float = 0.05
    elite_count: int = 2
    tournament_size: int = 3
    rng_seed: int = 0
    omega1_range: tuple[float, float] = DEFAULT_OMEGA1_RANGE
    omega1_points: int = DEFAULT_GRID_POINTS
    omega1_nominal: float = 0.5
    early_stop_fitness: float | None = 0.999
    restarts: int = 1

    def __post_init__(self):
        if self.elite_count < 1:
            raise ValueError("elite_count must be >= 1")
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be smaller than the population")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("seed must be >= 0")
        if self.early_stop_fitness is not None and not np.isfinite(self.early_stop_fitness):
            raise ValueError("early_stop must be finite or null")
        if self.omega1_points < 1:
            raise ValueError("omega1_points must be >= 1")
        lo, hi = self.omega1_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo <= hi):
            raise ValueError(f"omega1 range must be finite with 0 <= min <= max, got {lo}, {hi}")
        if not (np.isfinite(self.mutation_scale) and self.mutation_scale >= 0.0):
            raise ValueError(
                f"mutation_scale must be finite and >= 0, got {self.mutation_scale!r}")
        k = self.tournament_size
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"tournament_size must be an integer >= 1, got {k!r}")
        if not (np.isfinite(self.omega1_nominal) and self.omega1_nominal >= 0.0):
            raise ValueError(
                f"omega1_nominal must be finite and >= 0, got {self.omega1_nominal!r}")


# GA-config document key -> GAConfig field; "omega1_grid" holds the _GRID_KEYS
_GA_KEYS = {
    "population": "population_size",
    "generations": "generations",
    "crossover_rate": "crossover_rate",
    "mutation_rate": "mutation_rate",
    "mutation_scale": "mutation_scale",
    "elites": "elite_count",
    "seed": "rng_seed",
    "restarts": "restarts",
    "early_stop": "early_stop_fitness",
}
_GA_INT_KEYS = {"population", "generations", "elites", "seed", "restarts", "points"}
_GRID_KEYS = ("min_MHz", "max_MHz", "points")


def _ga_value(doc: dict, key: str, where: str = "GA config"):
    return json_number(doc[key], f"{where} {key}", TypeError, integer=key in _GA_INT_KEYS)


def ga_config_from_dict(doc: dict) -> GAConfig:
    """Build a GAConfig from its JSON document form.

    The document holds any of the keys ``ga_config_to_dict`` writes; an
    ``omega1_grid`` needs all three of its fields. Wrong types raise
    TypeError, unknown or missing keys ValueError, each naming the key.
    """
    if not isinstance(doc, dict):
        raise TypeError("GA config must be a JSON object")
    check_keys(doc, "GA config", ValueError, optional=(*_GA_KEYS, "omega1_grid"))
    kwargs = {attr: None if key == "early_stop" and doc[key] is None else _ga_value(doc, key)
              for key, attr in _GA_KEYS.items() if key in doc}
    if "omega1_grid" in doc:
        g = doc["omega1_grid"]
        if not isinstance(g, dict):
            raise TypeError("GA config omega1_grid must be a JSON object")
        check_keys(g, "GA config omega1_grid", ValueError, required=_GRID_KEYS)
        lo, hi, points = (_ga_value(g, k, "GA config omega1_grid") for k in _GRID_KEYS)
        kwargs["omega1_range"] = (lo, hi)
        kwargs["omega1_points"] = points
    return GAConfig(**kwargs)


def ga_config_to_dict(cfg: GAConfig) -> dict:
    doc = {key: getattr(cfg, attr) for key, attr in _GA_KEYS.items()}
    doc["omega1_grid"] = dict(zip(_GRID_KEYS, (*cfg.omega1_range, cfg.omega1_points)))
    return doc


@dataclass(frozen=True)
class OptimizationResult:
    best_genome: np.ndarray
    best_fitness: float
    history: np.ndarray
    robustness_mean: float
    robustness_min: float
    per_point: np.ndarray
    omega1s: np.ndarray
    seed: int
    n_pulses: int
    omega1_nominal: float
    fitness_evaluations: int
    stop_reason: str
    kernel_workers: int
    precompute_seconds: float

    @property
    def generations_run(self) -> int:
        return len(self.history) - 1

    def best_sequence(self) -> PulseSequence:
        """The best genome as a sequence; a genome that is no valid sequence
        is an internal fault, so its SequenceError becomes RuntimeError."""
        try:
            return sequence_from_genome(self.best_genome, self.n_pulses, self.omega1_nominal)
        except SequenceError as exc:
            raise RuntimeError(f"the best genome is no valid sequence: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "best_genome": self.best_genome.tolist(),
            "best_fitness": self.best_fitness,
            "history": self.history.tolist(),
            "robustness": {
                "mean": self.robustness_mean,
                "min": self.robustness_min,
                "omega1s_MHz": self.omega1s.tolist(),
                "fidelities": self.per_point.tolist(),
            },
            "seed": self.seed,
            "n_pulses": self.n_pulses,
            "omega1_nominal_MHz": self.omega1_nominal,
        }


def fitness(genome, target: TargetGate, h: np.ndarray, cfg: GAConfig) -> float:
    """Mean robust fidelity of one genome (the GA objective)."""
    n_pulses = (np.asarray(genome).size - 1) // 3
    kern = _kernel(target, h, cfg, n_pulses)
    return float(kern.evaluate(genome).mean())


def _kernel(target, h, cfg: GAConfig, n_pulses: int) -> FitnessKernel:
    return FitnessKernel(h, target, omega1_grid(cfg.omega1_range, cfg.omega1_points), n_pulses)


def _duration(genomes: np.ndarray, n_pulses: int) -> np.ndarray:
    return genomes[:, : 2 * n_pulses + 1].sum(axis=1)


def _rank_keys(fits: np.ndarray, genomes: np.ndarray, n_pulses: int):
    """Sort order: fitness desc, then duration asc, then genome lexicographic."""
    dur = _duration(genomes, n_pulses)
    order = np.lexsort(tuple(genomes.T[::-1]) + (dur, -fits))
    return order


_DOUBLE_UNIT = 2.0**-53       # Generator.random's double is (word >> 11) * 2**-53
_REWIND = 2**128              # PCG64.advance(_REWIND - n) steps the stream n words back


def _words_to_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` makes of PCG64 words, one a word."""
    return (words >> 11) * _DOUBLE_UNIT


def _tournament_draws(words: np.ndarray, population: int):
    """The draws ``integers(0, population, size=2k)`` makes of k PCG64 words
    a row, and whether any of them needed more words.

    The 2k 32-bit halves are used low half first, each by Lemire's method:
    the draw is (u32 * P) >> 32, unless the low 32 bits of u32 * P fall
    below (2**32 - P) % P, where numpy rejects it and draws again. Returns
    the (rows, 2k) draws and True when any draw was rejected, which makes
    the draws wrong from that one on.
    """
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(len(words), -1)
    scaled = halves * np.uint64(population)
    rejected = bool(((scaled & 0xFFFFFFFF) < (2**32 - population) % population).any())
    return (scaled >> 32).astype(np.int64), rejected


def _draws_per_call(rng: np.random.Generator, cfg: GAConfig, n_genes: int):
    """Each child's draws by one Generator call per draw kind, in the order
    ``_breed`` documents. The reference stream, and the path for the
    generations that ``_draws_from_words`` cannot decode."""
    n_children = cfg.population_size - cfg.elite_count
    draws = np.empty((n_children, 2 * cfg.tournament_size), dtype=np.int64)
    doubles = np.empty((n_children, 2 * n_genes + 1))
    noise = np.empty((n_children, n_genes))
    for c in range(n_children):
        draws[c] = rng.integers(0, cfg.population_size, size=2 * cfg.tournament_size)
        doubles[c, : n_genes + 1] = rng.random(n_genes + 1)
        if doubles[c, 0] < cfg.crossover_rate:
            doubles[c, n_genes + 1 :] = rng.random(n_genes)
        noise[c] = rng.normal(0.0, cfg.mutation_scale, n_genes)
    return draws, doubles, noise


def _draws_from_words(rng: np.random.Generator, cfg: GAConfig, n_genes: int):
    """``_draws_per_call``'s draws and end state, from one ``random_raw``
    and one ``standard_normal`` call per child; None, with the stream as
    it was at entry, when the generation cannot be decoded this way.

    A child's k + 2L + 1 words are its tournaments' k words, the coin and
    the L gene doubles, then the L mask doubles, which are stepped back
    over when the coin does not cross over. The noise is what
    ``normal(0, s, L)`` computes, 0.0 + s * z. Integer draws leave the
    high half of the last tournament word in PCG64's ``uinteger``, so the
    end state gets it too. Decoding needs PCG64 with no spare 32-bit half
    buffered, and no tournament draw that Lemire's method rejects.
    """
    bit_gen = rng.bit_generator
    if type(bit_gen) is not np.random.PCG64:
        return None
    entry = bit_gen.state
    if entry["has_uint32"]:
        return None
    n_children = cfg.population_size - cfg.elite_count
    k = cfg.tournament_size
    words = np.empty((n_children, k + 2 * n_genes + 1), dtype=np.uint64)
    z = np.empty((n_children, n_genes))
    for c in range(n_children):
        row = words[c] = bit_gen.random_raw(words.shape[1])
        if (int(row[k]) >> 11) * _DOUBLE_UNIT >= cfg.crossover_rate:
            bit_gen.advance(_REWIND - n_genes)
        rng.standard_normal(out=z[c])

    draws, rejected = _tournament_draws(words[:, :k], cfg.population_size)
    if rejected:
        bit_gen.state = entry
        return None
    end = bit_gen.state
    end["uinteger"] = int(words[-1, k - 1] >> 32)
    bit_gen.state = end
    return draws, _words_to_doubles(words[:, k:]), 0.0 + cfg.mutation_scale * z


def _breed(rng: np.random.Generator, pop: np.ndarray, cfg: GAConfig,
           bounds: ParameterBounds) -> np.ndarray:
    """The population_size - elite_count children of the ranked `pop`.

    A fixed seed must keep its stream, so each child's draws are those of
    these Generator calls, made one after the other in this order (L genes,
    tournament size k, population size P):

    1. ``integers(0, P, size=2k)``: both tournaments; a parent is the
       lowest (best-ranked) index of its k draws;
    2. ``random(L + 1)``: the crossover coin, then L doubles;
    3. ``random(L)``, only when the coin crossed over: the mutation mask's
       doubles; the L doubles of step 2 then pick each gene's parent
       (< 0.5: the first). Without crossover the doubles of step 2 are the
       mutation mask's;
    4. ``normal(0, mutation_scale, L)``: the mutation noise.

    These draw exactly what two ``size=k`` calls, a scalar coin and
    separate masks drew: PCG64 keeps its spare 32-bit half in the
    bit-generator state, and doubles take whole 64-bit words. Drawing the
    masks as whole (children, L) arrays would reorder the stream.
    ``_draws_from_words`` decodes steps 1-3 from raw PCG64 words, and
    ``_draws_per_call`` makes the calls themselves where it cannot. The
    comparisons and the arithmetic run once over all children.
    """
    n_genes = bounds.genome_length
    tournaments, doubles, noise = (_draws_from_words(rng, cfg, n_genes)
                                   or _draws_per_call(rng, cfg, n_genes))
    n_children, k = len(tournaments), cfg.tournament_size
    parents = tournaments.reshape(n_children, 2, k).min(axis=2)
    crossed = doubles[:, :1] < cfg.crossover_rate
    genes, masks = doubles[:, 1 : n_genes + 1], doubles[:, n_genes + 1 :]
    from_first = ~crossed | (genes < 0.5)
    mutate = np.where(crossed, masks, genes) < cfg.mutation_rate
    children = np.where(from_first, pop[parents[:, 0]], pop[parents[:, 1]])
    lo, hi = bounds.lower(), bounds.upper()
    return np.clip(np.where(mutate, children + noise * (hi - lo), children), lo, hi)


def _single_run(kern: FitnessKernel, bounds: ParameterBounds, cfg: GAConfig,
                seed: int) -> OptimizationResult:
    rng = np.random.default_rng(seed)
    pop = rng.uniform(bounds.lower(), bounds.upper(),
                      size=(cfg.population_size, bounds.genome_length))

    fits = kern.evaluate(pop).mean(axis=1)
    order = _rank_keys(fits, pop, bounds.n_pulses)
    pop, fits = pop[order], fits[order]
    history = [float(fits[0])]
    scored = len(pop)

    def reached() -> bool:
        return cfg.early_stop_fitness is not None and fits[0] >= cfg.early_stop_fitness

    for _ in range(cfg.generations):
        if reached():
            break
        children = _breed(rng, pop, cfg, bounds)
        child_fits = kern.evaluate(children).mean(axis=1)
        scored += len(children)
        pop = np.vstack([pop[: cfg.elite_count], children])
        fits = np.concatenate([fits[: cfg.elite_count], child_fits])
        order = _rank_keys(fits, pop, bounds.n_pulses)
        pop, fits = pop[order], fits[order]
        history.append(float(fits[0]))

    per_point = kern.evaluate(pop[0])[0]
    scored += 1
    return OptimizationResult(
        best_genome=pop[0].copy(),
        best_fitness=float(fits[0]),
        history=np.array(history),
        robustness_mean=float(per_point.mean()),
        robustness_min=float(per_point.min()),
        per_point=per_point,
        omega1s=kern.omega1s,
        seed=seed,
        n_pulses=bounds.n_pulses,
        omega1_nominal=cfg.omega1_nominal,
        fitness_evaluations=scored * kern.omega1s.size,
        stop_reason="early_stop" if reached() else "budget",
        kernel_workers=kern.threads_used,
        precompute_seconds=kern.precompute_seconds,
    )


def optimize(
    target: TargetGate,
    h: np.ndarray,
    bounds: ParameterBounds,
    cfg: GAConfig = GAConfig(),
) -> OptimizationResult:
    """Search for a pulse sequence implementing `target` under Hamiltonian `h`.

    With cfg.restarts > 1 the search is repeated with derived seeds
    (seed + i) and the best run is returned. Non-convergence is simply a
    low best fitness, never an exception.

    The result's ``stop_reason`` ("early_stop" once the best fitness
    reaches cfg.early_stop_fitness, else "budget") and ``generations_run``
    describe the returned run; ``fitness_evaluations`` counts the genomes
    scored times the grid points over all restarts. Every restart runs on
    one fitness kernel: ``kernel_workers`` is the most threads it ran on,
    and ``precompute_seconds`` the wall time of building it.
    """
    kern = _kernel(target, h, cfg, bounds.n_pulses)
    runs = [_single_run(kern, bounds, cfg, cfg.rng_seed + i) for i in range(cfg.restarts)]
    best = max(runs, key=lambda run: run.best_fitness)   # the first of equal bests
    return replace(best, fitness_evaluations=sum(run.fitness_evaluations for run in runs),
                   kernel_workers=kern.threads_used)
