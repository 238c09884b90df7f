"""Input fuzzing of the CLI, run in-process on the bundled documents.

Two registers are the bases: the one-carbon system with the CNOT sequence,
and the four-carbon system with the ccrot_n4_c12 sequence and target
ccrot:2,90. Each case sets one or two fields of the system, sequence or
GA-config document, or one flag, to an edge value; a flag that holds several values
gets the edge value in one of them. Whatever the value, the command
exits 0 and every data file it wrote holds only finite numbers, or it exits
1 with a message that names the field or flag and writes no file. It never
exits 2, and never runs on without bound: a case past CASE_SECONDS fails.
Every real-valued library input of ``test_design.REALS`` gets each edge value
too, and builds or raises ConfigError.
"""
import contextlib
import io
import json
import math
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icspin.cli import main
from icspin.operators import ConfigError
from icspin.system import data_path
from test_design import REALS

EDGE_VALUES = (0, -1, 5e-324, 1e-320, 1e6 + 1, 1e308, math.nan, math.inf, -math.inf,
               "x", None, True, [1.0], 2**63, 10**400)

DOCUMENTS = {
    "system": json.loads(data_path("system_2q.json").read_text()),
    "sequence": json.loads(data_path("sequences/cnot.json").read_text()),
    "system_4c": json.loads(data_path("system_4c.json").read_text()),
    "sequence_4c": json.loads(data_path("sequences/ccrot_n4_c12.json").read_text()),
    "ga": {"population": 8, "elites": 1, "generations": 2, "early_stop": None,
           "omega1_grid": {"min_MHz": 0.48, "max_MHz": 0.52, "points": 3}},
}
# The fields a case may set: a key path into one document
FIELDS = {
    "system": [("D_MHz",), ("nu_e_MHz",), ("nu_C_MHz",), ("A_N_MHz",), ("B0_mT",), ("carbons",),
               ("carbons", 0, "A_zz_MHz"), ("carbons", 0, "A_zx_MHz")],
    "sequence": [("omega1_MHz",), ("segments",), ("segments", 0, "delay_us"),
                 ("segments", 1, "pulse_us"), ("segments", 1, "phase_rad")],
    "system_4c": [("D_MHz",), ("nu_C_MHz",), ("carbons",),
                  *[("carbons", i, key) for i in range(4) for key in ("A_zz_MHz", "A_zx_MHz")]],
    "sequence_4c": [("omega1_MHz",), ("segments", 0, "delay_us"), ("segments", 1, "pulse_us"),
                    ("segments", 1, "phase_rad")],
    "ga": [("population",), ("generations",), ("crossover_rate",), ("mutation_rate",),
           ("mutation_scale",), ("elites",), ("seed",), ("restarts",), ("early_stop",),
           ("omega1_grid",), ("omega1_grid", "min_MHz"), ("omega1_grid", "max_MHz"),
           ("omega1_grid", "points")],
}
# A flag whose text holds several values: the case's name for one of them ->
# (the flag, its text around the edge value)
FLAG_FIELDS = {"--grid max": ("--grid", "0.48,{},3"),
               "--target carbon": ("--target", "ccrot:{},90"),
               "--target angle": ("--target", "ccrot:1,{}")}
TARGET_FIELDS = ("--target carbon", "--target angle")
# command -> (its argv, the documents it reads, the flags a case may set)
COMMANDS = {
    "verify": (["verify", "--target", "cnot", "--grid", "0.48,0.52,3"],
               ("system", "sequence"), ("--grid max", *TARGET_FIELDS)),
    "optimize": (["optimize", "--target", "cnot", "--pulses", "2"], ("system", "ga"),
                 ("--pulses", "--tau-max", "--t-max", "--seed", *TARGET_FIELDS)),
    "scan hadamard": (["scan", "--kind", "hadamard", "--points", "32"], ("system", "sequence"),
                      ("--points", "--dt")),
    "scan theta": (["scan", "--kind", "theta", "--points", "32"], ("system", "sequence"),
                   ("--points", "--readout")),
    "scan fid": (["scan", "--kind", "fid", "--points", "32"], ("system",),
                 ("--points", "--dt", "--detuning")),
    "scan spectrum": (["scan", "--kind", "spectrum"], ("system",),
                      ("--detuning", "--linewidth")),
    "scan trajectory": (["scan", "--kind", "trajectory", "--dt", "0.1"], ("system", "sequence"),
                        ("--dt",)),
    "report": (["report"], ("system",), ("--linewidth",)),
    "verify 4c": (["verify", "--target", "ccrot:2,90", "--grid", "0.48,0.52,3"],
                  ("system_4c", "sequence_4c"), ("--grid max", *TARGET_FIELDS)),
    "optimize 4c": (["optimize", "--target", "ccrot:2,90", "--pulses", "2"], ("system_4c", "ga"),
                    ("--pulses", "--tau-max", *TARGET_FIELDS)),
    "scan spectrum 4c": (["scan", "--kind", "spectrum"], ("system_4c",),
                         ("--detuning", "--linewidth")),
    "scan trajectory 4c": (["scan", "--kind", "trajectory", "--dt", "1.0"],
                           ("system_4c", "sequence_4c"), ("--dt",)),
}
DOCUMENT_FLAGS = {"system": "--system", "sequence": "--sequence", "system_4c": "--system",
                  "sequence_4c": "--sequence", "ga": "--ga-config"}
CASE_SECONDS = 20


class _Overran(BaseException):
    """A case ran past CASE_SECONDS; a BaseException, so the CLI cannot catch it."""


def _overran(signum, frame):
    raise _Overran(f"the case ran past {CASE_SECONDS} s")


@st.composite
def cases(draw):
    """(command, [(target, value), ...]): one flag, or one or two fields."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, documents, flags = COMMANDS[command]
    values = st.sampled_from(EDGE_VALUES)
    if draw(st.booleans()):
        return command, [(draw(st.sampled_from(flags)), draw(values))]
    fields = st.sampled_from([(doc, *path) for doc in documents for path in FIELDS[doc]])
    return command, draw(st.lists(st.tuples(fields, values), min_size=1, max_size=2,
                                  unique_by=lambda change: change[0]))


def _text(value) -> str:
    return str(value) if isinstance(value, (str, float)) else json.dumps(value)


def _run(command: str, changes: list, root: Path) -> tuple[int, str]:
    argv, documents, _ = COMMANDS[command]
    argv = list(argv)
    docs = {doc: json.loads(json.dumps(DOCUMENTS[doc])) for doc in documents}
    # a field is set before the document or list that holds it, which then replaces it
    for target, value in sorted(changes, key=lambda change: -len(change[0])):
        if isinstance(target, str):   # a flag, given after any default it replaces
            flag, text = FLAG_FIELDS.get(target, (target, "{}"))
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            argv.append(f"{flag}={text.format(_text(value))}")
        else:
            doc, *path = target
            node = docs[doc]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
    for doc, content in docs.items():
        path = root / f"{doc}.json"
        path.write_text(json.dumps(content))
        argv += [DOCUMENT_FLAGS[doc], str(path)]
    argv += ["--out", str(root / "out")]

    stderr = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, stderr.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not a finite number")


def _assert_finite(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=_reject_constant)
    elif path.suffix == ".csv":
        for row in text.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")), (path, row)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=("scan hadamard", [("--dt", 5e-324)]))
@example(case=("scan fid", [("--dt", 5e-324)]))
@example(case=("report", [(("system", "carbons", 0, "A_zz_MHz"), 5e-324)]))
@example(case=("optimize", [(("ga", "generations"), 2**63)]))
@example(case=("optimize", [(("ga", "restarts"), 2**63)]))
@example(case=("verify", [("--target carbon", 0)]))
@example(case=("verify 4c", [(("system_4c", "carbons", 3, "A_zx_MHz"), math.nan)]))
@example(case=("scan spectrum 4c", [(("system_4c", "carbons", 1, "A_zz_MHz"), 1e6 + 1)]))
def test_edge_value_exits_zero_with_finite_files_or_one_naming_it(case):
    command, changes = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, err = _run(command, changes, root)
        out = root / "out"
        files = sorted(out.iterdir()) if out.exists() else []
        assert code in (0, 1), err
        if code == 0:
            for path in files:
                _assert_finite(path)
        else:
            # a flag is named as itself or as its parameter, e.g. tau_max
            flags = [FLAG_FIELDS.get(target, (target,))[0] for target, _ in changes
                     if isinstance(target, str)]
            names = [name for flag in flags for name in (flag, flag[2:].replace("-", "_"))]
            names += [next(key for key in reversed(target) if isinstance(key, str))
                      for target, _ in changes if not isinstance(target, str)]
            assert any(name in err for name in names), err
            assert not files, files


@pytest.mark.parametrize("site", sorted(REALS))
def test_edge_value_builds_or_raises_the_library_error(system, site):
    """No edge value, 10**400 and [1.0] among them, escapes a library input
    as a bare TypeError or OverflowError."""
    _, call = REALS[site]
    for value in EDGE_VALUES:
        try:
            call(system, value)
        except ConfigError:
            pass
        except Exception as exc:
            pytest.fail(f"{site} given {value!r} raised {exc!r}")
