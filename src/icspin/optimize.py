"""Genetic-algorithm search over pulse-sequence parameters.

Genomes are flat real vectors [tau_0..tau_n, t_1..t_n, phi_1..phi_n].
The fitness of a genome is the mean trace fidelity against the target over
the configured amplitude grid. Selection is tournament (TOURNAMENT_SIZE),
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

from dataclasses import dataclass, fields, replace

import numpy as np

from .fidelity import Band, RobustnessReport, equal_weight_score
from .files import check_keys
from .kernels import FitnessKernel
from .operators import TWO_PI, ConfigError, check_count, check_real
from .sequence import (MAX_DURATION_US, PulseSequence, check_pulses, genome_durations,
                       genome_length, genome_parts, sequence_from_genome)
from .system import MAX_CONFIG_VALUE
from .targets import TargetGate

_PHASE_MAX = np.nextafter(TWO_PI, 0.0)
TOURNAMENT_SIZE = 3


@dataclass(frozen=True)
class ParameterBounds:
    """Box bounds of the genome: per-delay and per-pulse maxima in us; every floor is 0."""

    n_pulses: int
    tau_max: float = 4.0
    t_max: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "n_pulses", check_pulses(self.n_pulses, "n_pulses"))
        for name in ("tau_max", "t_max"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, 0.0,
                                                      MAX_DURATION_US, "(]"))

    @property
    def genome_length(self) -> int:
        return genome_length(self.n_pulses)

    def upper(self) -> np.ndarray:
        up = np.empty(self.genome_length)
        taus, ts, phis = genome_parts(up)
        taus[:] = self.tau_max
        ts[:] = self.t_max
        phis[:] = _PHASE_MAX
        return up


# A search's size budgets. MAX_POPULATION genomes of MAX_PULSES pulses are 15 MB, and a
# one-carbon search at both budgets peaks near 165 MB. A search scores population *
# (generations + 1) * restarts genomes, about 13 us each on one carbon and 0.24 ms at d = 32
# (5 amplitudes, 4 pulses): the 3.01e6 of MAX_GA_GENOMES take about 40 s and 12 min.
MAX_POPULATION = 10_000
# The GA's integer settings, each with its least and its greatest value (None: no ceiling)
_GA_COUNTS = {"population": (2, MAX_POPULATION), "generations": (0, None), "seed": (0, None),
              "restarts": (1, None)}


@dataclass(frozen=True)
class GAConfig:
    """The GA's settings; each field is the GA-document key of its own name,
    and the band is a ``Band``, the document's "omega1_grid" object."""

    population: int = 100
    generations: int = 300
    crossover_rate: float = 0.9
    mutation_rate: float = 0.25
    mutation_scale: float = 0.05
    elites: int = 2
    seed: int = 0
    restarts: int = 1
    early_stop: float | None = 0.999
    omega1_grid: Band = Band()

    def __post_init__(self):
        for name, (least, most) in _GA_COUNTS.items():
            object.__setattr__(self, name, check_count(getattr(self, name), name, least, most))
        object.__setattr__(self, "elites", check_count(self.elites, "elites (below population)",
                                                       1, high=self.population - 1))
        for name, most in (("crossover_rate", 1.0), ("mutation_rate", 1.0),
                           ("mutation_scale", MAX_CONFIG_VALUE), ("early_stop", 1.0)):
            if name != "early_stop" or self.early_stop is not None:   # None: no early stop
                object.__setattr__(self, name, check_real(getattr(self, name), name, 0.0, most))
        if not isinstance(self.omega1_grid, Band):
            raise ConfigError(f"omega1_grid must be a Band, got {self.omega1_grid!r}")
        work = self.population * (self.generations + 1) * self.restarts
        check_count(work, "work population * (generations + 1) * restarts", 0, high=MAX_GA_GENOMES)


MAX_GA_GENOMES = MAX_POPULATION * (GAConfig.generations + 1)


def ga_config_from_dict(doc: dict) -> GAConfig:
    """Build a GAConfig from its JSON document form, ``dataclasses.asdict``
    of one, or any part of it; an ``omega1_grid`` needs all of ``Band``'s
    fields. Every fault, a wrong type, an unknown or missing key or a value
    out of range, raises ConfigError naming the key.
    """
    check_keys(doc, "GA config", optional=[f.name for f in fields(GAConfig)])
    kwargs = dict(doc)
    if "omega1_grid" in doc:
        check_keys(doc["omega1_grid"], "GA config omega1_grid",
                   required=[f.name for f in fields(Band)])
        try:
            kwargs["omega1_grid"] = Band(**doc["omega1_grid"])
        except ConfigError as exc:   # each message starts with the field it names
            raise ConfigError(f"GA config omega1_grid {exc}") from exc
    try:
        return GAConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"GA config {exc}") from exc


@dataclass(frozen=True)
class OptimizationResult:
    """One search, ``optimize``'s the best restart's, and ``robustness``: the report
    on the band of its best genome's row as the search measured it. The best fitness
    is the history's last entry; n pulses take 3n + 1 genes."""

    best_genome: np.ndarray
    history: np.ndarray
    robustness: RobustnessReport
    seed: int
    fitness_evaluations: int
    stop_reason: str

    @property
    def best_fitness(self) -> float:
        return float(self.history[-1])

    @property
    def n_pulses(self) -> int:
        return genome_parts(self.best_genome)[1].size

    @property
    def generations_run(self) -> int:
        return len(self.history) - 1

    @property
    def omega1_nominal(self) -> float:   # the band's centre, the saved sequence's amplitude
        return float((self.robustness.omega1s[0] + self.robustness.omega1s[-1]) / 2.0)

    def best_sequence(self) -> PulseSequence:
        """The best genome as a sequence; a genome that is no valid sequence
        is an internal fault, so its ConfigError becomes RuntimeError."""
        try:
            return sequence_from_genome(self.best_genome, self.omega1_nominal)
        except ConfigError as exc:
            raise RuntimeError(f"the best genome is no valid sequence: {exc}") from exc


def _rank_keys(fits: np.ndarray, genomes: np.ndarray):
    """Sort order: fitness desc, then duration (``genome_durations``) asc,
    then genome lexicographic."""
    return np.lexsort(tuple(genomes.T[::-1]) + (genome_durations(genomes), -fits))


_DOUBLE_UNIT = 2.0**-53       # Generator.random's double is (word >> 11) * 2**-53
_REWIND = 2**128              # PCG64.advance(_REWIND - n) steps the stream n words back


def _words_to_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` makes of PCG64 words, one a word."""
    return (words >> 11) * _DOUBLE_UNIT


def _tournament_draws(words: np.ndarray, population: int) -> np.ndarray:
    """The (rows, 2k) tournament draws of k PCG64 words a row: each 32-bit
    half, low half first, becomes (u32 * P) >> 32, Lemire's draw. numpy
    redraws a half whose low 32 bits of u32 * P fall below (2**32 - P) % P
    (probability below P / 2**32); this keeps it."""
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(len(words), -1)
    return ((halves * np.uint64(population)) >> 32).astype(np.int64)


def _draws_from_words(rng: np.random.Generator, cfg: GAConfig, n_genes: int):
    """The draws and end state of the Generator calls ``_breed`` lists, from
    one ``random_raw`` and one ``standard_normal`` call per child.

    A child's k + 2L + 1 words are its tournaments' k words, the coin and
    the L gene doubles, then the L mask doubles, which are stepped back
    over when the coin does not cross over. The noise is what
    ``normal(0, s, L)`` computes, 0.0 + s * z. Integer draws leave the
    high half of the last tournament word in PCG64's ``uinteger``, so the
    end state gets it too. The Generator is PCG64 with no spare 32-bit
    half buffered, as ``_single_run`` makes it and as every generation
    leaves it.
    """
    bit_gen = rng.bit_generator
    n_children, k = cfg.population - cfg.elites, TOURNAMENT_SIZE
    words = np.empty((n_children, k + 2 * n_genes + 1), dtype=np.uint64)
    z = np.empty((n_children, n_genes))
    for c in range(n_children):
        row = words[c] = bit_gen.random_raw(words.shape[1])
        if (int(row[k]) >> 11) * _DOUBLE_UNIT >= cfg.crossover_rate:
            bit_gen.advance(_REWIND - n_genes)
        rng.standard_normal(out=z[c])

    end = bit_gen.state
    end["uinteger"] = int(words[-1, k - 1] >> 32)
    bit_gen.state = end
    return (_tournament_draws(words[:, :k], cfg.population), _words_to_doubles(words[:, k:]),
            0.0 + cfg.mutation_scale * z)


def _breed(rng: np.random.Generator, pop: np.ndarray, cfg: GAConfig,
           bounds: ParameterBounds) -> np.ndarray:
    """The population - elites children of the ranked `pop`.

    A fixed seed must keep its stream, so each child's draws are those of
    these Generator calls, made one after the other in this order (L genes,
    k = TOURNAMENT_SIZE, population size P):

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
    ``_draws_from_words`` decodes steps 1-3 from raw PCG64 words; the one
    difference from the calls is that a tournament draw numpy would reject
    and redraw is kept, and the stream changes from there on. The
    comparisons and the arithmetic run once over all children.
    """
    n_genes = bounds.genome_length
    tournaments, doubles, noise = _draws_from_words(rng, cfg, n_genes)
    n_children, k = len(tournaments), TOURNAMENT_SIZE
    parents = tournaments.reshape(n_children, 2, k).min(axis=2)
    crossed = doubles[:, :1] < cfg.crossover_rate
    genes, masks = doubles[:, 1 : n_genes + 1], doubles[:, n_genes + 1 :]
    from_first = ~crossed | (genes < 0.5)
    mutate = np.where(crossed, masks, genes) < cfg.mutation_rate
    children = np.where(from_first, pop[parents[:, 0]], pop[parents[:, 1]])
    hi = bounds.upper()
    return np.clip(np.where(mutate, children + noise * hi, children), 0.0, hi)


def _single_run(kern: FitnessKernel, bounds: ParameterBounds, cfg: GAConfig,
                seed: int) -> OptimizationResult:
    """One search from `seed`. Each generation's (population, grid) fidelities
    stay next to its population, so the result reads the best genome's
    ``robustness`` from the row the search measured."""
    rng = np.random.Generator(np.random.PCG64(seed))   # _breed decodes PCG64 words
    pop = rng.uniform(0.0, bounds.upper(), size=(cfg.population, bounds.genome_length))
    rows, history = kern.evaluate(pop), []
    while True:
        fits = equal_weight_score(rows)
        order = _rank_keys(fits, pop)
        pop, rows = pop[order], rows[order]
        history.append(float(fits[order[0]]))
        if cfg.early_stop is not None and history[-1] >= cfg.early_stop:
            stop_reason = "early_stop"
            break
        if len(history) > cfg.generations:
            stop_reason = "budget"
            break
        children = _breed(rng, pop, cfg, bounds)
        pop = np.vstack([pop[: cfg.elites], children])
        rows = np.vstack([rows[: cfg.elites], kern.evaluate(children)])

    scored = cfg.population + (len(history) - 1) * (cfg.population - cfg.elites)
    grid = cfg.omega1_grid.omega1s()
    return OptimizationResult(
        best_genome=pop[0].copy(), history=np.array(history),
        robustness=RobustnessReport(grid, rows[0].copy()), seed=seed,
        fitness_evaluations=scored * grid.size, stop_reason=stop_reason)


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
    reaches cfg.early_stop, else "budget"), ``generations_run`` and
    ``robustness``, the best genome's fidelities as the search measured
    them, describe the returned run. Every restart runs on one fitness
    kernel; ``fitness_evaluations`` counts the genomes scored over all
    restarts times the grid points.
    """
    kern = FitnessKernel(h, target, cfg.omega1_grid.omega1s(), bounds.n_pulses)
    best, scored = None, 0   # only the run whose history ends highest is kept
    for seed in range(cfg.seed, cfg.seed + cfg.restarts):
        run = _single_run(kern, bounds, cfg, seed)
        scored += run.fitness_evaluations
        if best is None or run.best_fitness > best.best_fitness:   # the first of equal ones stays
            best = run
    return replace(best, fitness_evaluations=scored)
