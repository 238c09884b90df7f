"""Design invariants of the package, most of them read from its source files."""
import ast
import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import icspin
from icspin import cli, experiments, system, targets
from icspin.fidelity import Band
from icspin.files import read_json
from icspin.geometry import DipolarGeometry, dipolar_prefactor_mhz
from icspin.kernels import FitnessKernel
from icspin.operators import ConfigError, assert_hermitian, check_count
from icspin.optimize import (MAX_GA_GENOMES, MAX_POPULATION, GAConfig, OptimizationResult,
                             ParameterBounds, ga_config_from_dict)
from icspin.propagation import PropagationEngine
from icspin.sequence import Delay, Pulse, PulseSequence, check_pulses, sequence_from_genome
from icspin.system import HyperfineCoupling, SpinSystemConfig, data_path, system_from_dict
from icspin.targets import cc_rotation

SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in Path(icspin.__file__).parent.glob("*.py")}


def test_one_propagation_engine_and_one_hamiltonian_builder():
    """Only the propagation engine diagonalizes, and one function builds
    the register Hamiltonian."""
    eigh_users = sorted(name for name, text in SOURCES.items() if "linalg.eigh" in text)
    assert eigh_users == ["propagation.py"]
    builders = sorted(f"{name}:{node.name}" for name, text in SOURCES.items()
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name.endswith("_hamiltonian"))
    assert builders == ["hamiltonian.py:multiqubit_hamiltonian"]


def test_only_the_cli_reads_the_clock():
    """Run timing belongs to the CLI and its manifests, never to the physics
    results."""
    users = sorted(name for name, text in SOURCES.items()
                   for node in ast.walk(ast.parse(text))
                   if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names))
                   or (isinstance(node, ast.ImportFrom) and node.module == "time"))
    assert users == ["cli.py"]


def test_every_engine_comes_from_the_memo():
    """Only ``engine_for`` constructs a ``PropagationEngine``, so every engine
    of the package is kept and shared by one memo."""
    def calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and _called_name(node) == "PropagationEngine"]

    everywhere = sum(len(calls(ast.parse(text))) for text in SOURCES.values())
    memo = next(node for node in ast.parse(SOURCES["propagation.py"]).body
                if isinstance(node, ast.FunctionDef) and node.name == "engine_for")
    assert everywhere == len(calls(memo)) == 1


def test_the_engine_has_three_entry_points():
    """Every whole-sequence propagator is one ``chain``, and the rest a
    change of basis; the Hadamard and FID scans and ``bloch_trajectory``
    sample free and pulse evolution from the engine's arrays directly."""
    public = sorted(name for name in vars(PropagationEngine) if not name.startswith("_"))
    assert public == ["chain", "dim", "to_eigenbasis", "to_lab"]
    assert isinstance(vars(PropagationEngine)["dim"], property)


def test_result_objects_write_no_files():
    """The CLI lays out every output file; of the input formats, only the
    sequence, which ``optimize`` saves, keeps a writer next to its reader.
    No class writes itself."""
    writers = sorted(name for name, text in SOURCES.items()
                     for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.ImportFrom)
                     and {"write_csv", "write_json"} & {alias.name for alias in node.names})
    assert writers == ["cli.py", "sequence.py"]
    methods = sorted(f"{name}:{cls.name}.{node.name}" for name, text in SOURCES.items()
                     for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)
                     for node in cls.body if isinstance(node, ast.FunctionDef)
                     and node.name in ("to_csv", "to_dict"))
    assert methods == []


def test_only_files_writes_files():
    """Every file the package writes goes through ``files``: no other module
    calls ``open``, ``os.open`` or a path's ``write_text`` or ``write_bytes``."""
    def opens(call: ast.Call) -> bool:
        func = call.func
        return (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in ("open", "write_text", "write_bytes"))

    openers = sorted({name for name, text in SOURCES.items()
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.Call) and opens(node)})
    assert openers == ["files.py"]


def _called_name(call: ast.Call) -> str:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


def _threading_for_a_lock_only(tree: ast.Module) -> bool:
    """``import threading`` as it is, and every use of the name is
    ``threading.Lock``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading":
            return False
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "threading"
                                                and alias.asname for alias in node.names):
            return False
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "threading"]
    locks = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "Lock"}
    return all(id(node) in locks for node in uses)


def test_only_the_kernel_starts_threads_and_no_module_keeps_an_executor():
    """Threads belong to the fitness kernel, and an executor lives for one
    ``with`` block of one call: no module binds one, at import or later.
    Another module may take a ``threading.Lock`` and nothing else of it."""
    importers = set()
    for name, text in SOURCES.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "concurrent" for module in modules):
                importers.add(name)
            if (any(module.split(".")[0] == "threading" for module in modules)
                    and (name == "kernels.py" or not _threading_for_a_lock_only(tree))):
                importers.add(name)
        in_with = {id(item.context_expr) for node in ast.walk(tree)
                   if isinstance(node, ast.With) for item in node.items}
        executors = [node for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and _called_name(node).endswith("Executor")]
        assert all(id(node) in in_with for node in executors), name
    assert sorted(importers) == ["kernels.py"]


def test_only_the_cli_builds_a_parser_and_main_reuses_it():
    """Parsing arguments belongs to the CLI, and ``main`` parses with the
    parser built on its first call, not a new one each call."""
    builders = set()
    for name, text in SOURCES.items():
        tree = ast.parse(text)
        parsers = {"ArgumentParser"} | {
            cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any((base.id if isinstance(base, ast.Name) else getattr(base, "attr", ""))
                    == "ArgumentParser" for base in cls.bases)}
        if any(isinstance(node, ast.Call) and _called_name(node) in parsers
               for node in ast.walk(tree)):
            builders.add(name)
    assert sorted(builders) == ["cli.py"]
    main = next(node for node in ast.parse(SOURCES["cli.py"]).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    called = {_called_name(node) for node in ast.walk(main) if isinstance(node, ast.Call)}
    assert "build_parser" not in called


def test_one_function_ends_every_command():
    """In the CLI one function makes --out and writes the manifest, for every
    command; no ``cmd_*`` does either itself."""
    functions = [node for node in ast.walk(ast.parse(SOURCES["cli.py"]))
                 if isinstance(node, ast.FunctionDef)]
    for name in ("_write_manifest", "mkdir"):
        callers = sorted(func.name for func in functions
                         if any(isinstance(node, ast.Call) and _called_name(node) == name
                                for node in ast.walk(func)))
        assert callers == ["_finish"], name


def test_no_library_setting_without_a_caller():
    """A parameter, field, function or error type that nothing sets, reads,
    calls or catches is a constant or goes; the CNOT is the pi case of
    ``cc_rotation``. A register keeps only what the model reads, and no
    writer round-trips its document."""
    assert tuple(f.name for f in dataclasses.fields(targets.TargetGate)) == ("matrix",)
    assert tuple(f.name for f in dataclasses.fields(system.SpinSystemConfig)) == (
        "d", "nu_c", "carbons")
    assert not hasattr(system, "save_system") and not hasattr(system, "system_to_dict")
    removed = {icspin.sequence_propagator: "omega1",
               targets.hadamard_on_carbon: "carbon", targets.cnot_on_carbon: "carbon",
               assert_hermitian: "rtol", experiments.Spectrum.resolvable_lines: "threshold"}
    for func, name in removed.items():
        assert name not in inspect.signature(func).parameters, func.__qualname__
    assert not hasattr(experiments, "NyquistError")
    assert not hasattr(targets, "_conditional_rotation")


def test_each_ga_setting_has_one_name():
    """GAConfig's fields are exactly the GA document's keys, and the band's
    fields those of the document's ``omega1_grid``: ``asdict`` writes a
    document that ``ga_config_from_dict`` reads back, and any other key is
    refused. The fields' retired names are gone from the package."""
    doc = dataclasses.asdict(GAConfig())
    assert ga_config_from_dict(doc) == GAConfig()
    for retired in ("omega1_range", "omega1_points"):
        with pytest.raises(ConfigError, match=f"unknown keys: \\['{retired}'\\]"):
            ga_config_from_dict({retired: doc["omega1_grid"]["points"]})
    retired = ("population_size", "elite_count", "rng_seed", "early_stop_fitness",
               "omega1_points", "DEFAULT_OMEGA1_RANGE", "DEFAULT_GRID_POINTS",
               "ga_config_to_dict", "_GRID_KEYS", "def omega1_grid")
    assert [name for name in retired if any(name in text for text in SOURCES.values())] == []


def test_each_value_has_one_source():
    """A carbon's label is its position, every gene's floor is 0, a search
    result reads its best fitness and pulse count from its history and
    genome, and each CLI default is the library's."""
    assert tuple(f.name for f in dataclasses.fields(HyperfineCoupling)) == ("a_zz", "a_zx")
    result_fields = {f.name for f in dataclasses.fields(OptimizationResult)}
    assert not result_fields & {"best_fitness", "n_pulses"}
    assert not hasattr(ParameterBounds, "lower")
    assert "n_pulses" not in inspect.signature(sequence_from_genome).parameters
    detuning = inspect.signature(experiments.esr_spectrum).parameters["detuning"]
    assert detuning.default is inspect.Parameter.empty

    parser = cli.build_parser()
    verify = parser.parse_args(["verify", "--system", "s", "--sequence", "q", "--target", "t"])
    assert cli._parse_grid(verify.grid) == Band()
    search = parser.parse_args(["optimize", "--system", "s", "--target", "t"])
    assert (search.tau_max, search.t_max) == (ParameterBounds.tau_max, ParameterBounds.t_max)
    assert parser.parse_args(["report", "--system", "s"]).linewidth == \
        cli._SCAN_OPTIONS["linewidth"]
    scan = next(a for a in parser._actions if a.dest == "command").choices["scan"]
    helps = {action.dest: action.help for action in scan._actions}
    for name, default in cli._SCAN_OPTIONS.items():
        if default not in (None, False):   # --sequence and --noop name none
            assert f"default {default}" in helps[name], name
    assert MAX_GA_GENOMES == MAX_POPULATION * (GAConfig.generations + 1) == 3_010_000


def test_each_scan_flag_help_names_the_kinds_that_read_it():
    """A scan flag's help that names scan kinds names exactly those that
    ``cli._SCANS`` says read the flag, so the table and the help agree."""
    scan = next(a for a in cli.build_parser()._actions
                if a.dest == "command").choices["scan"]
    helps = {action.dest: action.help or "" for action in scan._actions}
    named = {}
    for name in cli._SCAN_OPTIONS:
        kinds = {kind for kind in cli._SCANS if re.search(rf"\b{kind}\b", helps[name])}
        if kinds:
            named[name] = kinds
    assert named.keys() == {"gate", "noop", "readout", "points", "dt", "linewidth", "state"}
    for name, kinds in named.items():
        assert kinds == {kind for kind, (_, reads) in cli._SCANS.items() if name in reads}, name


_GA_COUNT_KEYS = ("population", "generations", "elites", "seed", "restarts")
# Each library count: the parameter its ConfigError names, and a call that
# passes `value` as the count
COUNTS = {
    "kernel_n_pulses": ("n_pulses", lambda cfg, value: FitnessKernel(
        icspin.multiqubit_hamiltonian(cfg), cc_rotation(cfg.n_carbons, 1, np.pi), [0.5], value)),
    "bounds_n_pulses": ("n_pulses", lambda cfg, value: ParameterBounds(value)),
    "check_pulses": ("--pulses", lambda cfg, value: check_pulses(value, "--pulses", 1)),
    "subset_label": ("carbon labels", lambda cfg, value: cfg.subset([value])),
    "grid_points": ("points", lambda cfg, value: Band(0.4, 0.6, value)),
    "scan_points": ("--points",
                    lambda cfg, value: experiments.check_scan_points(value, "--points", 1)),
    "ccrot_n_carbons": ("n_carbons", lambda cfg, value: cc_rotation(value, 1, np.pi)),
    "ccrot_carbon": ("carbon index", lambda cfg, value: cc_rotation(3, value, np.pi)),
    "electron_rotation_n_carbons": ("n_carbons", lambda cfg, value:
                                    experiments.electron_rotation(np.pi, 0.0, value)),
    **{f"ga_{name}": (name, lambda cfg, value, name=name: GAConfig(**{name: value}))
       for name in _GA_COUNT_KEYS},
    **{f"ga_doc_{name}": (f"GA config {name}",
                          lambda cfg, value, name=name: ga_config_from_dict({name: value}))
       for name in _GA_COUNT_KEYS},
    "ga_doc_points": ("GA config omega1_grid points", lambda cfg, value:
                      ga_config_from_dict({"omega1_grid": {"min_MHz": 0.4, "max_MHz": 0.6,
                                                           "points": value}})),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site in COUNTS for value in (True, 1.0, 2.5, "1", None)])
def test_library_counts_refuse_what_is_not_an_integer(system, site, value):
    """A bool, a float, a string or None given as a count raises the
    ConfigError of an out-of-range count, naming the parameter."""
    name, call = COUNTS[site]
    with pytest.raises(ConfigError, match=name):
        call(system, value)


def test_library_counts_take_numpy_integers(registers):
    """A numpy integer is a count like a Python int."""
    for _, call in COUNTS.values():
        call(registers, np.int64(3))


_SYSTEM_DOC = read_json(data_path("system_2q.json"))
# Each real-valued library input: the name its ConfigError gives, and a call
# that passes `value` as the input
REALS = {
    "delay_us": ("delay_us", lambda cfg, value: Delay(value)),
    "pulse_us": ("pulse_us", lambda cfg, value: Pulse(value, 0.0)),
    "phase_rad": ("phase_rad", lambda cfg, value: Pulse(1.0, value)),
    "omega1_MHz": ("omega1_MHz", lambda cfg, value: PulseSequence((Delay(1.0),), value)),
    "A_zz_MHz": ("A_zz_MHz", lambda cfg, value: HyperfineCoupling(value, 0.1)),
    "A_zx_MHz": ("A_zx_MHz", lambda cfg, value: HyperfineCoupling(-0.1, value)),
    "D_MHz": ("D_MHz", lambda cfg, value: SpinSystemConfig(value, 0.4, cfg.carbons)),
    "nu_C_MHz": ("nu_C_MHz", lambda cfg, value: SpinSystemConfig(3000.0, value, cfg.carbons)),
    "drive_amplitude": ("grid max",
                        lambda cfg, value: cfg.check_drive_amplitude(value, "grid max")),
    "config_number": ("nu_e_MHz",
                      lambda cfg, value: system_from_dict({**_SYSTEM_DOC, "nu_e_MHz": value})),
    "geometry_r_nm": ("r_nm", lambda cfg, value: DipolarGeometry(value, 90.0)),
    "theta_deg": ("theta_deg", lambda cfg, value: DipolarGeometry(1.0, value)),
    "prefactor_r_nm": ("r_nm", lambda cfg, value: dipolar_prefactor_mhz(value)),
    "tau_max": ("tau_max", lambda cfg, value: ParameterBounds(3, tau_max=value)),
    "t_max": ("t_max", lambda cfg, value: ParameterBounds(3, t_max=value)),
    **{f"ga_{name}": (name, lambda cfg, value, name=name: GAConfig(**{name: value}))
       for name in ("crossover_rate", "mutation_rate", "mutation_scale", "early_stop")},
    # a GA document's band, then a library caller's
    **{f"ga_{name}": (f"GA config omega1_grid {name}",
                      lambda cfg, value, name=name: ga_config_from_dict({"omega1_grid": {
                          "min_MHz": 0.4, "max_MHz": 1.0, "points": 3, name: value}}))
       for name in ("min_MHz", "max_MHz")},
    "grid_min_MHz": ("min_MHz", lambda cfg, value: Band(value, 1.0)),
    "grid_max_MHz": ("max_MHz", lambda cfg, value: Band(0.4, value)),
    "time_step": ("--dt", lambda cfg, value: experiments.check_time_step(value, "--dt")),
    "linewidth": ("--linewidth",
                  lambda cfg, value: experiments.check_linewidth(value, "--linewidth")),
    "detuning": ("--detuning",
                 lambda cfg, value: experiments.check_detuning(value, "--detuning")),
    "time_span": ("span", lambda cfg, value: experiments.check_time_span(value, "span")),
    "ccrot_angle": ("ccrot angle", lambda cfg, value: cc_rotation(1, 1, value)),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site in REALS for value in (True, np.True_, "1", None, math.nan)
    if (site, value) != ("ga_early_stop", None)   # None turns early stopping off
])
def test_library_reals_refuse_what_is_not_a_number(system, site, value):
    """A bool, a string, None or NaN given as a real input raises
    ConfigError, naming the input; a bool passed every range check and a
    string raised a bare TypeError."""
    name, call = REALS[site]
    with pytest.raises(ConfigError, match=name):
        call(system, value)


def test_library_reals_take_numpy_floats_and_ints(system):
    """A numpy float and a Python int are reals like a Python float."""
    for _, call in REALS.values():
        for value in (np.float64(1.0), 1):
            call(system, value)


def test_no_real_input_is_compared_outside_the_rule():
    """A value that a library function hands to ``check_real`` is compared
    with no bound and tested for finiteness nowhere else in that function,
    and the ceilings of real inputs are compared only inside the rule."""
    ceilings = {"MAX_DURATION_US", "MAX_CONFIG_VALUE"}
    for where, func in _top_functions():
        checked = {ast.unparse(node.args[0]) for node in ast.walk(func)
                   if isinstance(node, ast.Call) and _called_name(node) == "check_real"}
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                refused = checked | ceilings
            elif isinstance(node, ast.Call) and _called_name(node) in ("isfinite", "isnan"):
                refused = checked
            else:
                continue
            parts = {ast.unparse(part) for part in ast.walk(node)}
            assert not parts & refused, f"{where}: {ast.unparse(node)}"


def _is_number(node: ast.AST, kind: type) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(value, kind) and not isinstance(value, bool)


def test_no_count_is_compared_outside_the_rule():
    """Outside ``operators``, no library function compares a ``MAX_*``
    budget, or the ``len()``, ``.size`` or ``sum()`` of an input, with an
    integer by hand: ``check_count`` is the one rule of a count. No CLI
    function compares a flag's value with a number."""
    module_names = {module: {ast.unparse(target) for node in ast.parse(text).body
                             if isinstance(node, (ast.Assign, ast.AnnAssign))
                             for target in (node.targets if isinstance(node, ast.Assign)
                                            else [node.target])}
                    for module, text in SOURCES.items()}

    def size_of_input(node, module):
        if isinstance(node, ast.Call) and _called_name(node) in ("len", "sum") and node.args:
            measured = node.args[0]
        elif isinstance(node, ast.Attribute) and node.attr == "size":
            measured = node.value
        else:
            return False
        root = next((part.id for part in ast.walk(measured) if isinstance(part, ast.Name)), None)
        return root is not None and root not in module_names[module]   # module state is no input

    def budget(part):
        return any(getattr(node, "id", getattr(node, "attr", "")).startswith("MAX_")
                   for node in ast.walk(part))

    found = []
    for where, func in _top_functions():
        module = where.split(":")[0]
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            if module == "cli.py":
                if (any(ast.unparse(part).startswith("args.") for part in operands)
                        and any(_is_number(part, (int, float)) for part in operands)):
                    found.append(f"{where}: {ast.unparse(node)}")
            elif module != "operators.py" and ordered and (
                    any(budget(part) for part in operands)
                    or (any(size_of_input(part, module) for part in operands)
                        and any(_is_number(part, int) for part in operands))):
                found.append(f"{where}: {ast.unparse(node)}")
    assert found == []


def test_one_rule_per_kind_of_number():
    """Only ``operators`` asks whether a value is a number: its
    ``check_count`` and ``check_real`` are the one rule of a count and of a
    real input, for library callers and documents alike. No other module
    tests for a bool, an int, a float, a ``numbers.Real`` or an
    ``np.integer``, and neither a document number rule nor a count
    predicate is defined."""
    kinds = {"bool", "int", "float", "Real", "integer"}
    askers = set()
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and _called_name(node) == "isinstance":
                classes = node.args[1]
                classes = classes.elts if isinstance(classes, ast.Tuple) else [classes]
                if {c.attr if isinstance(c, ast.Attribute) else getattr(c, "id", "")
                        for c in classes} & kinds:
                    askers.add(name)
    assert askers == {"operators.py"}
    assert [where for where, func in _top_functions()
            if func.name in ("json_number", "is_integer")] == []


def test_main_alone_maps_errors_to_exit_codes():
    """An error's type alone picks its exit code, in ``main``: a refused
    input value raises ``ConfigError`` where it is checked, so no CLI
    handler re-raises the bare text of what it caught, and an internal
    ValueError exits 2. The search, the band and the scans hand no bare
    ValueError to an input rule; the one ``except ValueError`` of the CLI
    reads the text of --grid."""
    tree = ast.parse(SOURCES["cli.py"])
    rewraps = [ast.unparse(node) for handler in ast.walk(tree)
               if isinstance(handler, ast.ExceptHandler) and handler.name
               for node in ast.walk(handler) if isinstance(node, ast.Raise)
               and isinstance(node.exc, ast.Call) and _called_name(node.exc) == "ConfigError"
               and [ast.unparse(arg) for arg in node.exc.args] == [f"str({handler.name})"]]
    assert rewraps == []
    catchers = [where for where, func in _top_functions() if where.startswith("cli.py:")
                for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)
                and node.type is not None and "ValueError" in ast.unparse(node.type)]
    assert catchers == ["cli.py:_parse_grid"]
    bare = [f"{name}:{ast.unparse(node)}" for name in ("experiments.py", "optimize.py",
                                                       "fidelity.py")
            for node in ast.walk(ast.parse(SOURCES[name])) if isinstance(node, ast.Call)
            and _called_name(node) in ("check_real", "check_count", "check_keys")
            and "ValueError" in [ast.unparse(k.value) for k in node.keywords if k.arg == "error"]]
    assert bare == []


def test_one_error_type():
    """``operators.ConfigError``, a ValueError, is the package's one
    exception class, and the input rules raise it themselves: only
    ``check_count`` takes an ``error``, for a code-supplied argument.
    ``main`` maps it to exit 1 and every other exception to exit 2."""
    modules = [importlib.import_module(f"icspin.{name[:-3]}") for name in SOURCES
               if name not in ("__init__.py", "__main__.py")]
    raisable = [f"{module.__name__}.{name}" for module in modules
                for name, value in vars(module).items() if inspect.isclass(value)
                and issubclass(value, BaseException) and value.__module__ == module.__name__]
    assert raisable == ["icspin.operators.ConfigError"]
    assert ConfigError.__bases__ == (ValueError,)
    retired = ("CliError", "TargetError", "GeometryError", "DegenerateManifoldError",
               "InitializationDomainError", "SequenceError", "USAGE_ERRORS")
    assert [name for name in retired if any(name in text for text in SOURCES.values())] == []
    rules = {"operators": ("check_real",), "files": ("check_keys", "json_list", "read_json"),
             "system": ("check_carbons",)}
    for module, names in rules.items():
        for name in names:
            func = getattr(importlib.import_module(f"icspin.{module}"), name)
            assert "error" not in inspect.signature(func).parameters, name
    error = inspect.signature(check_count).parameters["error"]
    assert (error.kind, error.default) == (inspect.Parameter.KEYWORD_ONLY, ConfigError)

    main = next(node for node in ast.parse(SOURCES["cli.py"]).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [(ast.unparse(handler.type), [getattr(cli, ast.unparse(node.value))
                                             for node in ast.walk(handler)
                                             if isinstance(node, ast.Return)])
                for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)]
    assert handlers == [("ConfigError", [1]), ("Exception", [2])]


def _spin_matrix_literals(tree: ast.Module) -> list:
    """2x2 nested list or tuple literals, and ``diag`` calls on a pair."""
    def pair(node):
        return isinstance(node, (ast.List, ast.Tuple)) and len(node.elts) == 2
    return [node for node in ast.walk(tree)
            if (pair(node) and all(pair(elt) for elt in node.elts))
            or (isinstance(node, ast.Call) and _called_name(node) == "diag"
                and node.args and pair(node.args[0]))]


def test_one_spin_half_algebra():
    """Every 2x2 spin matrix, the closed-form rotation among them, is
    written in ``operators``; ``hamiltonian`` holds only the Hamiltonian
    builder, and the targets do not import it."""
    writers = sorted(name for name, text in SOURCES.items()
                     if _spin_matrix_literals(ast.parse(text)))
    assert writers == ["operators.py"]
    tree = ast.parse(SOURCES["hamiltonian.py"])
    defined = [getattr(node, "name", None) or ast.unparse(node) for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr))]
    assert defined == ["multiqubit_hamiltonian"]
    imported = [node.module for node in ast.walk(ast.parse(SOURCES["targets.py"]))
                if isinstance(node, ast.ImportFrom)]
    assert not [module for module in imported if "hamiltonian" in (module or "")]


# Each scan input's check and every function that calls it; bloch_trajectory
# reads dt through segment_samples
SCAN_INPUT_RULES = {
    "check_time_step": {"experiments.py:_check_uniform", "experiments.py:segment_samples",
                        "cli.py:cmd_scan"},
    "check_linewidth": {"experiments.py:esr_spectrum", "experiments.py:min_coherence_time",
                        "cli.py:cmd_scan", "cli.py:cmd_report"},
    "check_detuning": {"experiments.py:electron_fid_scan", "experiments.py:esr_spectrum",
                       "cli.py:cmd_scan"},
}


def test_each_scan_input_has_one_rule():
    """The time step, the linewidth and the detuning each have one range
    rule, a single ``check_real`` call written in ``experiments``, which
    every library reader and the CLI call; the CLI writes none of its own."""
    functions = [(f"{name}:{node.name}", node) for name, text in SOURCES.items()
                 for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
    for check, readers in SCAN_INPUT_RULES.items():
        rule = dict(functions)[f"experiments.py:{check}"]
        assert [_called_name(node) for node in ast.walk(rule)
                if isinstance(node, ast.Call)] == ["check_real"], check
        callers = {where for where, func in functions
                   if any(isinstance(node, ast.Call) and _called_name(node) == check
                          for node in ast.walk(func))}
        assert callers == readers, check
    cli_functions = {where for where, _ in functions if where.startswith("cli.py:")}
    assert not cli_functions & {"cli.py:_check_dt", "cli.py:_check_linewidth"}
    imported = {alias.name for node in ast.walk(ast.parse(SOURCES["cli.py"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "MAX_CONFIG_VALUE" not in imported


# Each size budget: the function that holds its one rule, and every function
# that calls that rule (for a method, that builds its class). The hadamard and
# fid scans check their grids in _check_uniform, and bloch_trajectory counts
# its steps with segment_samples.
SIZE_BUDGETS = {
    "MAX_SCAN_POINTS": ("experiments.py:check_scan_points",
                        {"experiments.py:_check_uniform", "experiments.py:theta_scan",
                         "cli.py:cmd_scan", "cli.py:_scan_times"}),
    "MAX_DURATION_US": ("experiments.py:check_time_span",
                        {"experiments.py:_check_uniform", "cli.py:_scan_times"}),
    "MAX_TRAJECTORY_STEPS": ("experiments.py:segment_samples",
                             {"experiments.py:bloch_trajectory", "cli.py:_scan_trajectory"}),
    "MAX_PULSES": ("sequence.py:check_pulses",
                   {"optimize.py:ParameterBounds.__post_init__",
                    "kernels.py:FitnessKernel.__init__", "cli.py:_load_sequence",
                    "cli.py:cmd_optimize"}),
    "MAX_SEGMENTS": ("sequence.py:sequence_from_dict", {"sequence.py:load_sequence"}),
    "MAX_GRID_POINTS": ("fidelity.py:Band.__post_init__",
                        {"fidelity.py:robust_fidelity", "optimize.py:ga_config_from_dict",
                         "cli.py:_parse_grid", "cli.py:build_parser"}),
    "MAX_POPULATION": ("optimize.py:GAConfig.__post_init__",
                       {"optimize.py:ga_config_from_dict", "optimize.py:optimize"}),
    "MAX_GA_GENOMES": ("optimize.py:GAConfig.__post_init__",
                       {"optimize.py:ga_config_from_dict", "optimize.py:optimize"}),
    "MAX_CARBONS": ("system.py:check_carbons",
                    {"system.py:SpinSystemConfig.__post_init__", "system.py:system_from_dict",
                     "targets.py:_check_carbon", "experiments.py:electron_rotation"}),
}
# The ceiling of a real input, not of a size: check_real holds its rule
REAL_CEILINGS = {"MAX_CONFIG_VALUE"}


def _top_functions():
    """(module:name, node) of every module-level function and method, a
    method named Class.method."""
    for module, text in SOURCES.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}:{node.name}", node
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{module}:{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))


def _says_at_most(node: ast.AST, budget: str, tables: set) -> bool:
    """A message saying "at most {budget}", a ``check_real`` call whose one
    bound is ``high=budget``, a ``check_count`` call with ``high=budget``, or
    a loop that calls ``check_count`` over one of `tables`, the module
    tables that hold the budget."""
    if isinstance(node, ast.JoinedStr):
        return f"at most {{{budget}}}" in ast.unparse(node)
    if isinstance(node, ast.For):
        return (ast.unparse(node.iter).split(".")[0] in tables
                and any(isinstance(call, ast.Call) and _called_name(call) == "check_count"
                        for call in ast.walk(node)))
    if not isinstance(node, ast.Call):
        return False
    keywords = list(map(ast.unparse, node.keywords))
    if _called_name(node) == "check_count":
        return f"high={budget}" in keywords
    return (_called_name(node) == "check_real" and len(node.args) == 2
            and keywords == [f"high={budget}"])


def test_each_size_has_one_budget():
    """Each size budget is one constant and one rule, which every library
    reader and the CLI call; the CLI holds no budget of its own. Every
    ``MAX_*`` constant of the package but a real ceiling is in the table."""
    functions = list(_top_functions())
    assignments = [node for text in SOURCES.values() for node in ast.parse(text).body
                   if isinstance(node, ast.Assign)]
    budgets = {ast.unparse(target) for node in assignments for target in node.targets
               if ast.unparse(target).startswith("MAX_")}
    assert budgets == SIZE_BUDGETS.keys() | REAL_CEILINGS
    for budget, (rule, callers) in SIZE_BUDGETS.items():
        defined = [node for node in assignments if budget in map(ast.unparse, node.targets)]
        assert len(defined) == 1, budget
        tables = {ast.unparse(target) for node in assignments if isinstance(node.value, ast.Dict)
                  and budget in {getattr(name, "id", "") for name in ast.walk(node.value)}
                  for target in node.targets}
        writers = sorted(where for where, func in functions for node in ast.walk(func)
                         if _says_at_most(node, budget, tables))
        assert writers == [rule], budget
        called = rule.split(":")[1].split(".")[0]
        assert {where for where, func in functions
                if any(isinstance(node, ast.Call) and _called_name(node) == called
                       for node in ast.walk(func))} == callers, budget
    tree = ast.parse(SOURCES["cli.py"])
    names = {getattr(node, "name", None) for node in tree.body}
    names |= {ast.unparse(target) for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    names |= {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [name for name in names if name and name.startswith("MAX_")]
    assert "_check_size" not in names


def test_a_band_document_is_only_a_band():
    """No module writes the band's document keys by hand: a band document is
    ``asdict`` of a ``Band``, and ``Band(**obj)`` reads one, so no dict is
    built, and no value subscripted, with the literal key "min_MHz" or
    "max_MHz"."""
    keys = {"min_MHz", "max_MHz"}

    def literal(node):
        return isinstance(node, ast.Constant) and node.value in keys

    found = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, text in SOURCES.items()
             for node in ast.walk(ast.parse(text))
             if (isinstance(node, ast.Dict) and any(map(literal, node.keys)))
             or (isinstance(node, ast.Subscript) and literal(node.slice))
             or (isinstance(node, ast.Call) and _called_name(node) == "dict"
                 and {k.arg for k in node.keywords} & keys)]
    assert found == []


def _constant(node, value) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def _scaled(node, factor):
    """x of ``factor * x`` or ``x * factor``, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        if _constant(node.left, factor):
            return node.right
        if _constant(node.right, factor):
            return node.left
    return None


def _plus_one(node):
    """x of ``x + 1`` or ``1 + x``, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        if _constant(node.right, 1):
            return node.left
        if _constant(node.left, 1):
            return node.right
    return None


def _is_pulse_count(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name == "n" or name.endswith("n_pulses")


def _layout_arithmetic(tree: ast.AST) -> list:
    """The genome-layout arithmetic of a module, as "line: code": a floor
    division or remainder by 3, a ``3 * x + 1``, and a slice bound at
    ``2 * x + 1`` or at ``n + 1`` for a pulse count n (a name ``n`` or one
    ending in ``n_pulses``). Slices at ``n_genes + 1``, the breeding draws'
    coin and genes, are no layout."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(node.op, (ast.FloorDiv, ast.Mod)) and _constant(right, 3):
                found.append(node)
            elif _scaled(_plus_one(node), 3) is not None:
                found.append(node)
        elif isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper):
                x = _plus_one(bound)
                if x is not None and (_scaled(x, 2) is not None or _is_pulse_count(x)):
                    found.append(node)
                    break
    return [f"{node.lineno}: {ast.unparse(node)}" for node in found]


@pytest.mark.parametrize("code, layout", [
    ("n = (genomes.shape[1] - 1) // 3", True),
    ("n = genome.size // 3", True),
    ("ok = genome.size % 3 != 1", True),
    ("width = 3 * self.n_pulses + 1", True),
    ("taus = genomes[:, : n + 1]", True),
    ("ts = genome[n_pulses + 1 : 2 * n_pulses + 1]", True),
    ("dur = genomes[:, : 2 * (genomes.shape[1] // 3) + 1].sum(axis=1)", True),
    ("up[n + 1 :] = t_max", True),
    ("azz = np.ldexp(f * (3 * np.cos(th) ** 2 - 1), -3 * e)", False),
    ("genes = doubles[:, 1 : n_genes + 1]", False),
    ("doubles = np.empty((n_children, 2 * n_genes + 1))", False),
    ("dim = 2 ** (n + 1)", False),
])
def test_the_layout_detector(code, layout):
    assert bool(_layout_arithmetic(ast.parse(code))) is layout


def test_only_sequence_knows_the_genome_layout():
    """The template genome [tau_0..tau_n, t_1..t_n, phi_1..phi_n] is laid out
    in sequence.py alone: every other module reads it through
    ``genome_length``, ``genome_parts`` and ``genome_durations``."""
    assert _layout_arithmetic(ast.parse(SOURCES["sequence.py"]))
    found = [f"{name}:{where}" for name, text in sorted(SOURCES.items()) if name != "sequence.py"
             for where in _layout_arithmetic(ast.parse(text))]
    assert found == []


_CASE_FOLDS = {"lower", "casefold"}   # upper() is also ParameterBounds' box


def _spelling_reads(func: ast.AST) -> list:
    """Where a function reads a spelling: a case-folding call, and a
    comparison of one of its arguments, case-folded or not, with a string
    literal, or its membership in a collection of them. A key looked up in
    an argument (``"seed" in doc``) reads a document, not a spelling."""
    arguments = {node.arg for node in ast.walk(func.args) if isinstance(node, ast.arg)}

    def case_fold(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CASE_FOLDS)

    def argument(node):
        node = node.func.value if case_fold(node) else node
        return isinstance(node, ast.Name) and node.id in arguments

    def spelling(node):
        try:
            value = ast.literal_eval(node)
        except (ValueError, TypeError):
            return False
        values = value if isinstance(value, (tuple, list, set, frozenset)) else [value]
        return bool(values) and all(isinstance(v, str) for v in values)

    def compares(node):
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            if isinstance(op, (ast.In, ast.NotIn)):
                if argument(left) and spelling(right):
                    return True
            elif (argument(left) and spelling(right)) or (spelling(left) and argument(right)):
                return True
        return False

    return [node for node in ast.walk(func)
            if case_fold(node) or (isinstance(node, ast.Compare) and compares(node))]


@pytest.mark.parametrize("code, reads", [
    ("def f(gate):\n    return gate == 'noop'", True),
    ("def f(gate):\n    return gate.lower() in ('ideal', 'noop')", True),
    ("def f(gate):\n    return isinstance(gate, str) and 'cnot' == gate", True),
    ("def f(name):\n    base = name.strip().casefold()", True),
    ("def f(ends):\n    return ends[0] == '('", False),
    ("def f(gate):\n    return gate is None", False),
    ("def f(kind):\n    return kind == 3", False),
    ("def f():\n    name = 'a'\n    return name == 'a'", False),
    ("def f(doc):\n    return 'seed' in doc", False),
    ("def f(gate):\n    return gate not in {'noop'}", True),
])
def test_the_spelling_detector(code, reads):
    assert bool(_spelling_reads(ast.parse(code).body[0])) is reads


def test_only_the_cli_reads_gate_spellings():
    """A library gate is a value: a ``TargetGate`` or a ``PulseSequence``,
    and the kernel takes a ``TargetGate``. Outside cli.py and the target
    names of ``targets.target_library``, no function compares an argument
    with a string literal or case-folds a string, and the kernel asks no
    object what it has."""
    found = [f"{where}: {ast.unparse(node)}" for where, func in _top_functions()
             if not where.startswith("cli.py:") and where != "targets.py:target_library"
             for node in _spelling_reads(func)]
    assert found == []
    assert [node for node in ast.walk(ast.parse(SOURCES["kernels.py"]))
            if isinstance(node, ast.Call) and _called_name(node) == "hasattr"] == []
