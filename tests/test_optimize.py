import importlib
import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icspin
from icspin.fidelity import Band
from icspin.optimize import (
    MAX_GA_GENOMES,
    MAX_POPULATION,
    GAConfig,
    ParameterBounds,
    _breed,
    _draws_from_words,
    _rank_keys,
    _tournament_draws,
    _words_to_doubles,
    ga_config_from_dict,
    optimize,
)
from icspin.sequence import MAX_PULSES
from icspin.system import ConfigError
from oracles import best_single_delay

# the module; ``icspin.optimize`` the attribute is the function
optimize_module = importlib.import_module("icspin.optimize")


def fitness(genome, target, h, cfg):
    """The GA objective of one genome: its mean fidelity over cfg's grid."""
    grid = cfg.omega1_grid.omega1s()
    n_pulses = (genome.size - 1) // 3
    return icspin.FitnessKernel(h, target, grid, n_pulses).evaluate(genome).mean()


def small_cfg(seed=0, **kw):
    base = dict(population=24, generations=12, seed=seed)
    base.update(kw)
    return GAConfig(**base)


def test_bounds_layout():
    b = ParameterBounds(n_pulses=3, tau_max=4.0, t_max=2.0)
    assert b.genome_length == 10
    up = b.upper()
    assert np.all(up[:4] == 4.0)
    assert np.all(up[4:7] == 2.0)
    assert np.all(up[7:] < 2 * np.pi)


def test_rank_keys_break_fitness_ties_by_duration_then_genome():
    """Fitness first; among equal fitnesses the shorter sequence, whose
    duration is the 2n + 1 delays and pulses of the 3n + 1 genes and never
    the phases; then the genome in lexicographic order."""
    genomes = np.array([[1.0, 1.0, 0.5, 0.0],    # duration 2.5
                        [1.0, 0.9, 0.5, 3.0],    # 2.4, the largest phase
                        [0.5, 1.0, 1.0, 1.0],    # 2.5, lexicographically first
                        [9.0, 9.0, 9.0, 0.0]])   # 27, the fittest
    fits = np.array([0.5, 0.5, 0.5, 0.9])
    assert _rank_keys(fits, genomes).tolist() == [3, 1, 2, 0]


def test_bounds_validation():
    with pytest.raises(ConfigError):
        ParameterBounds(n_pulses=-1)
    with pytest.raises(ConfigError):
        ParameterBounds(n_pulses=1, tau_max=-1.0)
    for field in ("tau_max", "t_max"):
        for value in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match=field):
                ParameterBounds(n_pulses=2, **{field: value})


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(elites=0)
    with pytest.raises(ConfigError):
        GAConfig(mutation_rate=1.5)
    with pytest.raises(ConfigError, match=r"^elites \(below population\) must be at most 99, "
                                          r"got 100"):
        GAConfig(elites=100, population=100)
    top = icspin.fidelity.MAX_GRID_POINTS
    for bad, message in ((0, "an integer >= 1, got 0"), (top + 1, f"at most {top}, got {top + 1}")):
        with pytest.raises(ConfigError, match=f"^points must be {message}$"):
            GAConfig(omega1_grid=Band(points=bad))
    for bad in (-0.01, np.inf, np.nan):
        with pytest.raises(ConfigError, match="mutation_scale"):
            GAConfig(mutation_scale=bad)
    for bad, message in (((-0.1, 0.5), r"min_MHz must be finite and in \[0, inf\)"),
                         ((0.5, 0.4), r"max_MHz \(at least min_MHz\) must be finite and in "
                                      r"\[0.5, inf\)"),
                         ((0.48, np.nan), r"max_MHz \(at least min_MHz\) must be finite and in "
                                          r"\[0.48, inf\)")):
        with pytest.raises(ConfigError, match=f"^{message}"):
            GAConfig(omega1_grid=Band(*bad))


@pytest.mark.parametrize("value", [(0.4, 0.6, 3), {"min_MHz": 0.4, "max_MHz": 0.6, "points": 3},
                                   None])
def test_ga_config_band_must_be_a_band(value):
    """A band in another form is refused, not read as one: the fields are a
    ``Band``'s, checked once where it is built."""
    message = f"omega1_grid must be a Band, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        GAConfig(omega1_grid=value)


@pytest.mark.parametrize("name", ["crossover_rate", "mutation_rate", "mutation_scale",
                                  "early_stop"])
@pytest.mark.parametrize("value", [True, False, "0.9", [0.5]])
def test_ga_config_real_settings_refuse_what_is_not_a_number(name, value):
    """A bool passed the range checks, and a string reached them and raised
    numpy's or Python's bare TypeError."""
    with pytest.raises(ConfigError, match=f"^{name} must be a number"):
        GAConfig(**{name: value})


def test_ga_config_real_settings_take_numpy_floats_and_early_stop_none():
    cfg = GAConfig(crossover_rate=np.float32(0.5), mutation_rate=np.float64(0.1),
                   mutation_scale=np.int64(1), early_stop=np.float32(0.9))
    assert cfg.crossover_rate == 0.5
    assert GAConfig(early_stop=None).early_stop is None
    with pytest.raises(ConfigError, match="^crossover_rate must be a number"):
        GAConfig(crossover_rate=None)


@pytest.mark.parametrize("call, error, name", [
    (lambda h: GAConfig(population=MAX_POPULATION + 1), ConfigError, "population"),
    (lambda h: GAConfig(generations=2**63), ConfigError, "generations"),
    (lambda h: GAConfig(restarts=2**63), ConfigError, "restarts"),
    (lambda h: GAConfig(generations=np.int64(2**62)), ConfigError, "generations"),
    (lambda h: ParameterBounds(MAX_PULSES + 1), ConfigError, "n_pulses"),
    (lambda h: icspin.FitnessKernel(h, icspin.cnot_on_carbon(1), [0.5], MAX_PULSES + 1),
     ConfigError, "n_pulses"),
], ids=["population", "generations", "restarts", "int64_generations", "bounds_pulses",
        "kernel_pulses"])
def test_search_sizes_past_their_budget_are_refused(h_subspace, call, error, name):
    """The CLI's budgets hold for every caller; a search of 2**63 generations
    never ended. The work is counted in Python integers, so numpy counts
    whose product overflows int64 are refused too."""
    with pytest.raises(error, match=f"{name}.* must be at most"):
        call(h_subspace)


def test_search_sizes_at_their_budget_are_accepted(h_subspace):
    """MAX_GA_GENOMES is the population budget at the default generations."""
    cfg = GAConfig(population=MAX_POPULATION)
    assert cfg.population * (cfg.generations + 1) * cfg.restarts == MAX_GA_GENOMES
    assert ParameterBounds(MAX_PULSES).genome_length == 3 * MAX_PULSES + 1
    kernel = icspin.FitnessKernel(h_subspace, icspin.cnot_on_carbon(1), [0.5], MAX_PULSES)
    assert kernel.evaluate(np.zeros(3 * MAX_PULSES + 1)).shape == (1, 1)


@pytest.mark.parametrize("doc,exc,key", [
    ([1, 2], ValueError, "object"),
    ({"populaton": 5}, ValueError, "populaton"),
    ({"omega1_grid": {"min_MHz": 0.48, "points": 5}}, ValueError, "max_MHz"),
    ({"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 5, "n": 1}}, ValueError, "'n'"),
    ({"omega1_grid": [0.48, 0.52, 5]}, ValueError, "omega1_grid"),
    ({"generations": 1.5}, ValueError, "generations"),
    ({"population": "10"}, ValueError, "population"),
    ({"elites": True}, ValueError, "elites"),
    ({"crossover_rate": "0.9"}, ValueError, "crossover_rate"),
    ({"omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 2.7}}, ValueError, "points"),
    ({"seed": -1}, ValueError, "seed"),
    ({"generations": -1}, ValueError, "generations"),
    ({"early_stop": float("nan")}, ValueError, "early_stop"),
])
def test_ga_config_from_dict_names_the_bad_key(doc, exc, key):
    with pytest.raises(exc, match=key):
        ga_config_from_dict(doc)


def test_ga_config_json_roundtrip():
    cfg = GAConfig(population=64, seed=7, omega1_grid=Band(0.4, 0.6, 3))
    doc = json.loads(json.dumps(asdict(cfg)))
    again = ga_config_from_dict(doc)
    assert again == cfg


def test_ga_document_with_a_band_roundtrips():
    """A document's band is a ``Band`` in the config and its own object again in ``asdict``."""
    doc = {"population": 64, "omega1_grid": {"min_MHz": 0.45, "max_MHz": 0.55, "points": 4}}
    cfg = ga_config_from_dict(doc)
    assert cfg.omega1_grid == Band(0.45, 0.55, 4)
    assert asdict(cfg) == {**asdict(GAConfig()), **doc}


def test_fitness_equals_robust_mean(system, h_subspace, cnot_seq):
    genome = icspin.genome_from_sequence(cnot_seq)
    cfg = GAConfig()
    f = fitness(genome, icspin.cnot_on_carbon(1), h_subspace, cfg)
    rep = icspin.robust_fidelity(cnot_seq, icspin.cnot_on_carbon(1), h_subspace)
    assert f == pytest.approx(rep.mean, abs=1e-12)
    # repeated evaluation is bit-identical (pure function)
    assert fitness(genome, icspin.cnot_on_carbon(1), h_subspace, cfg) == f


def test_empty_sequence_fidelity_to_hadamard_is_zero(h_subspace):
    """An all-zero genome leaves the register untouched; the carbon Hadamard
    target is traceless against the identity."""
    genome = np.zeros(10)
    f = fitness(genome, icspin.hadamard_on_carbon(1), h_subspace, GAConfig())
    assert f == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("carbons, name", [
    (None, "cnot"), (None, "hadamard"), ([1, 2], "ccrot:1,180"), ([1, 2], "ccrot:2,180")],
    ids=["d4_cnot", "d4_hadamard", "d8_ccrot_1", "d8_ccrot_2"])
def test_zero_pulse_search_finds_the_best_single_delay(system, registers, carbons, name):
    """ParameterBounds(0) searches the one-gene genome [tau_0], and the GA
    finds the best delay of a brute-force series scan; d4 is system_2q.json,
    d8 carbons 1-2 of system_4c.json."""
    cfg = system if carbons is None else registers.subset(carbons)
    h = icspin.multiqubit_hamiltonian(cfg)
    target = icspin.target_library(name, n_carbons=cfg.n_carbons)
    res = optimize(target, h, ParameterBounds(0, tau_max=16.0), GAConfig(seed=0))
    assert res.best_genome.shape == (1,) and res.n_pulses == 0
    assert 0.0 <= res.best_genome[0] <= 16.0
    tau, best = best_single_delay(h, target.matrix, 16.0)
    assert abs(res.best_fitness - best) < 1e-6 and abs(res.best_genome[0] - tau) < 1e-3
    assert res.robustness.fidelities == pytest.approx([res.best_fitness] * 5, abs=1e-12)
    if name == "cnot":
        assert round(best, 6) == 0.980852


def test_same_seed_reproduces_bitwise(h_subspace):
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2, tau_max=3.0, t_max=2.0)
    r1 = optimize(target, h_subspace, bounds, small_cfg(seed=5))
    r2 = optimize(target, h_subspace, bounds, small_cfg(seed=5))
    assert np.array_equal(r1.best_genome, r2.best_genome)
    assert r1.best_fitness == r2.best_fitness
    assert np.array_equal(r1.history, r2.history)


def test_history_monotone_and_best_reported(h_subspace):
    target = icspin.cnot_on_carbon(1)
    bounds = ParameterBounds(n_pulses=3)
    res = optimize(target, h_subspace, bounds, small_cfg(seed=3, generations=20))
    assert np.all(np.diff(res.history) >= 0.0)
    assert res.best_fitness == res.history[-1]
    assert res.robustness.mean == pytest.approx(res.best_fitness, abs=1e-12)


def test_best_beats_initial_population(h_subspace):
    """The returned genome is at least as fit as every initial individual."""
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2)
    cfg = small_cfg(seed=11, generations=8)
    res = optimize(target, h_subspace, bounds, cfg)
    rng = np.random.default_rng(11)
    init = rng.uniform(0.0, bounds.upper(),
                       size=(cfg.population, bounds.genome_length))
    kern_fits = icspin.FitnessKernel(
        h_subspace, target, res.robustness.omega1s, bounds.n_pulses
    ).evaluate(init).mean(axis=1)
    assert res.best_fitness >= kern_fits.max() - 1e-12
    assert res.best_fitness >= res.history[0] - 1e-12


def test_zero_generations_returns_initial_best(h_subspace):
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2)
    res = optimize(target, h_subspace, bounds, small_cfg(seed=2, generations=0))
    assert len(res.history) == 1
    assert res.best_fitness == res.history[0]


def test_degenerate_bounds_recover_known_genome(system, h_subspace, hadamard_seq):
    """Collapsing the search box to a known genome returns that genome with
    its fidelity."""
    genome = icspin.genome_from_sequence(hadamard_seq)
    eps = 1e-12
    bounds = ParameterBounds(n_pulses=3, tau_max=max(genome[:4]) + eps,
                             t_max=max(genome[4:7]) + eps)

    # a pinched box: lower == upper == genome via direct kernel check
    cfg = small_cfg(seed=0, generations=2)
    kern_fit = fitness(genome, icspin.hadamard_on_carbon(1), h_subspace, cfg)
    rep = icspin.robust_fidelity(hadamard_seq, icspin.hadamard_on_carbon(1), h_subspace)
    assert kern_fit == pytest.approx(rep.mean, abs=1e-12)


def test_genomes_respect_bounds_after_evolution(h_subspace):
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2, tau_max=1.5, t_max=0.8)
    res = optimize(target, h_subspace, bounds, small_cfg(seed=7, generations=15))
    assert np.all(res.best_genome >= -1e-15)
    assert np.all(res.best_genome <= bounds.upper() + 1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clamping_property(seed):
    """Mutation + clamp keeps every gene inside the box for arbitrary seeds."""
    rng = np.random.default_rng(seed)
    bounds = ParameterBounds(n_pulses=2, tau_max=2.0, t_max=1.0)
    hi = bounds.upper()
    child = rng.uniform(0.0, hi)
    child = child + rng.normal(0.0, 0.5, child.size)
    clamped = np.clip(child, 0.0, hi)
    assert np.all(clamped >= 0.0) and np.all(clamped <= hi)


def _breed_per_child(rng, pop, cfg, bounds, k=optimize_module.TOURNAMENT_SIZE):
    """The per-child breeding loop as it stood before ``_breed`` batched
    its draws, kept as the oracle of the fixed-seed stream; `k` is the
    tournament size."""
    lo, hi = np.zeros(bounds.genome_length), bounds.upper()
    span = hi - lo
    n_children = cfg.population - cfg.elites
    parents = np.empty((2, n_children), dtype=int)
    from_first = np.ones((n_children, bounds.genome_length), dtype=bool)
    mutate = np.empty((n_children, bounds.genome_length), dtype=bool)
    noise = np.empty((n_children, bounds.genome_length))
    for c in range(n_children):
        parents[0, c] = rng.integers(0, cfg.population, size=k).min()
        parents[1, c] = rng.integers(0, cfg.population, size=k).min()
        if rng.random() < cfg.crossover_rate:
            from_first[c] = rng.random(bounds.genome_length) < 0.5
        mutate[c] = rng.random(bounds.genome_length) < cfg.mutation_rate
        noise[c] = rng.normal(0.0, cfg.mutation_scale, bounds.genome_length)
    children = np.where(from_first, pop[parents[0]], pop[parents[1]])
    return np.clip(np.where(mutate, children + noise * span, children), lo, hi)


@pytest.mark.parametrize("tournament_size", [1, 2, 3, 4])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.5, 1.0])
def test_breed_keeps_the_per_child_stream(crossover_rate, mutation_rate, tournament_size,
                                         monkeypatch):
    """_breed returns the per-child loop's children bit for bit and leaves
    the Generator in the same state, over several generations in a row (an
    odd tournament size leaves PCG64's spare 32-bit half buffered). The GA
    runs TOURNAMENT_SIZE = 3; the decoding is written for any k, so the
    other sizes patch the constant."""
    monkeypatch.setattr(optimize_module, "TOURNAMENT_SIZE", tournament_size)
    for case in range(6):
        n_pulses = (1, 3, 4)[case % 3]                     # genome lengths 4, 10, 13
        population = (3, 7, 24, 100, 5, 51)[case]
        cfg = GAConfig(population=population, elites=min(2, population - 1),
                       crossover_rate=crossover_rate, mutation_rate=mutation_rate,
                       mutation_scale=0.3)
        bounds = ParameterBounds(n_pulses, tau_max=2.0, t_max=1.5)
        for seed in range(4 * case, 4 * case + 4):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pop = rng.uniform(0.0, bounds.upper(),
                              size=(population, bounds.genome_length))
            oracle_rng.uniform(0.0, bounds.upper(),
                               size=(population, bounds.genome_length))
            for _ in range(3):
                children = _breed(rng, pop, cfg, bounds)
                expected = _breed_per_child(oracle_rng, pop, cfg, bounds, tournament_size)
                assert children.tobytes() == expected.tobytes()
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
                pop = np.vstack([pop[: cfg.elites], children])


def _zero_word_next(seed):
    """A Generator whose next PCG64 word is 0: its XSL-RR output is the
    rotated xor of the state's halves, which are equal here."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's LCG multiplier
    equal_halves = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    state["state"]["state"] = ((equal_halves - state["state"]["inc"])
                               * pow(multiplier, -1, 2**128)) % 2**128
    rng.bit_generator.state = state
    probe = np.random.PCG64()
    probe.state = state
    assert probe.random_raw() == 0, "numpy's PCG64 step or output function changed"
    return rng


@pytest.mark.parametrize("population", [3, 100])
def test_breed_keeps_a_rejection_zone_draw(population):
    """u32 = 0 is in Lemire's rejection zone for any P that does not divide
    2**32, where numpy draws again. The decoder keeps every draw as
    (u32 * P) >> 32, so a first word of 0 gives the first child the
    tournament winner 0, the best-ranked genome."""
    words = np.array([[0, (0xFFFFFFFF << 32) | (1 << 31)]], dtype=np.uint64)
    assert _tournament_draws(words, population).tolist() == [[0, 0, population // 2,
                                                              population - 1]]

    cfg = GAConfig(population=population, elites=1, crossover_rate=0.0, mutation_rate=0.0)
    bounds = ParameterBounds(2)
    tournaments = _draws_from_words(_zero_word_next(4), cfg, bounds.genome_length)[0]
    assert tournaments[0, :2].tolist() == [0, 0]
    pop = np.random.default_rng(0).uniform(0.0, bounds.upper(),
                                           size=(population, bounds.genome_length))
    rng = _zero_word_next(4)
    children = _breed(rng, pop, cfg, bounds)
    assert children[0].tobytes() == pop[0].tobytes()
    assert rng.bit_generator.state["has_uint32"] == 0


def test_raw_word_decodes_match_numpy():
    """The decodes of ``_draws_from_words`` against the Generator calls they
    stand in for, on random states. A numpy release that changes how a
    double, a bounded integer or a normal is made from PCG64 words fails
    here, and then the decodes must change with it."""
    for seed in range(20):
        state = np.random.default_rng(1000 + seed).bit_generator.state
        bit_gen = np.random.PCG64()
        rng = np.random.Generator(bit_gen)

        bit_gen.state = state
        doubles = rng.random(7)
        bit_gen.state = state
        assert _words_to_doubles(bit_gen.random_raw(7)).tobytes() == doubles.tobytes(), \
            "Generator.random no longer makes (word >> 11) * 2**-53"

        for population in (2, 3, 24, 100, 1000, 2**31 - 1, 2**32 - 5):
            bit_gen.state = state
            expected = rng.integers(0, population, size=6)
            after_integers = bit_gen.state
            bit_gen.state = state
            words = bit_gen.random_raw(3)
            draws = _tournament_draws(words[None], population)
            assert draws[0].tolist() == expected.tolist(), \
                "Generator.integers no longer draws (u32 * P) >> 32, low half first"
            assert after_integers["has_uint32"] == 0
            assert after_integers["uinteger"] == int(words[-1]) >> 32, \
                "Generator.integers no longer leaves the last high half in uinteger"

        bit_gen.state = state
        noise = rng.normal(0.0, 0.3, 9)
        bit_gen.state = state
        assert (0.0 + 0.3 * rng.standard_normal(9)).tobytes() == noise.tobytes(), \
            "Generator.normal(0, s) is no longer 0.0 + s * standard_normal"


def test_a_search_leaves_no_half_buffered(h_subspace, monkeypatch):
    """The decoder's one assumption holds in every generation: ``_single_run``
    draws from PCG64, and no generation starts or ends with PCG64's spare
    32-bit half buffered."""
    buffered = []
    breed = optimize_module._breed

    def checked(rng, *args):
        assert type(rng.bit_generator) is np.random.PCG64
        buffered.append(rng.bit_generator.state["has_uint32"])
        children = breed(rng, *args)
        buffered.append(rng.bit_generator.state["has_uint32"])
        return children

    monkeypatch.setattr(optimize_module, "_breed", checked)
    for seed in range(4):
        optimize(icspin.cnot_on_carbon(1), h_subspace, ParameterBounds(n_pulses=3),
                 small_cfg(seed=seed, generations=20, early_stop=None))
    assert len(buffered) == 4 * 2 * 20 and not any(buffered)


def test_optimize_breeds_like_the_per_child_oracle(h_subspace, monkeypatch):
    """Whole searches give the same bits with ``_breed`` swapped for the
    per-child oracle, on seeds that draw nothing in the rejection zone."""
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=3)
    decoded = [optimize(target, h_subspace, bounds, small_cfg(seed=s, generations=20))
               for s in range(4)]
    monkeypatch.setattr(optimize_module, "_breed", _breed_per_child)
    for seed, result in enumerate(decoded):
        again = optimize(target, h_subspace, bounds, small_cfg(seed=seed, generations=20))
        assert again.best_genome.tobytes() == result.best_genome.tobytes()
        assert again.history.tobytes() == result.history.tobytes()


def test_restarts_pick_best(h_subspace):
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2)
    single0 = optimize(target, h_subspace, bounds, small_cfg(seed=0, generations=6))
    single1 = optimize(target, h_subspace, bounds, small_cfg(seed=1, generations=6))
    multi = optimize(target, h_subspace, bounds, small_cfg(seed=0, generations=6, restarts=2))
    assert multi.best_fitness == pytest.approx(
        max(single0.best_fitness, single1.best_fitness), abs=1e-12
    )
    assert multi.seed in (0, 1)


@pytest.mark.parametrize("carbons, name, cfg", [
    (None, "cnot", small_cfg(seed=3, restarts=2, early_stop=None)),
    ([1, 2], "ccrot:2,180", small_cfg(seed=1, population=8, generations=3, early_stop=None))],
    ids=["d4_restarts", "d8_small_budget"])
def test_robustness_is_the_row_the_search_measured(system, registers, carbons, name, cfg):
    """The report holds the best genome's fidelities bit for bit as a fresh
    kernel gives them, and no scoring is counted but the search's own:
    restarts * (population + generations * (population - elites)) * points."""
    register = system if carbons is None else registers.subset(carbons)
    h = icspin.multiqubit_hamiltonian(register)
    target = icspin.target_library(name, n_carbons=register.n_carbons)
    bounds = ParameterBounds(n_pulses=2)
    res = optimize(target, h, bounds, cfg)
    grid = cfg.omega1_grid.omega1s()
    fresh = icspin.FitnessKernel(h, target, grid, bounds.n_pulses).evaluate(res.best_genome)[0]
    assert np.array_equal(res.robustness.fidelities, fresh)
    assert np.array_equal(res.robustness.omega1s, grid)
    per_run = cfg.population + cfg.generations * (cfg.population - cfg.elites)
    assert res.fitness_evaluations == cfg.restarts * per_run * grid.size


def test_restarts_keep_only_the_best_run(h_subspace):
    """Each restart's genome and history were kept until the end, about
    0.38 kB a restart (1.11 MB traced at 100 restarts, 1.46 MB at 1,000).
    Only the best run so far is kept now, so the peak does not grow."""
    target, bounds = icspin.cnot_on_carbon(1), ParameterBounds(n_pulses=1)

    def peak(restarts):
        cfg = GAConfig(population=2, elites=1, generations=0, restarts=restarts)
        tracemalloc.start()
        try:
            optimize(target, h_subspace, bounds, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)   # builds the engine, which the memo keeps for the two runs below
    assert peak(1000) - peak(100) < 0.2 * 2**20


def test_early_stop_halts_history(h_subspace):
    target = icspin.hadamard_on_carbon(1)
    bounds = ParameterBounds(n_pulses=2)
    cfg = small_cfg(seed=4, generations=50, early_stop=0.2)
    res = optimize(target, h_subspace, bounds, cfg)
    assert len(res.history) - 1 < 50
    assert res.best_fitness >= 0.2


def test_multiqubit_conditional_not_search(registers):
    """Four-pulse conditional-NOT search on the two-carbon register.

    Short sequences on this register plateau near 0.89-0.92 under this
    model (confirmed against long-budget runs and derivative-free polish);
    the small budget here lands inside that plateau quickly.
    """
    cfg = registers.subset([1, 2])
    h = icspin.multiqubit_hamiltonian(cfg)
    target = icspin.cc_rotation(2, 1, np.pi)
    bounds = ParameterBounds(n_pulses=4, tau_max=4.5, t_max=2.5)
    res = optimize(target, h, bounds,
                   GAConfig(seed=1, population=60, generations=60))
    assert res.best_fitness >= 0.85
    assert res.best_sequence().duration < 20.0
    assert np.all(np.diff(res.history) >= 0)
