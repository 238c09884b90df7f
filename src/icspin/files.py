"""The data-file format: reading and checking JSON documents, writing JSON
and CSV.

Every input document is checked with `check_keys`, `json_list` and
`json_number`, and every file the package writes goes through here. JSON
is sorted with a two-space indent; a CSV is a header line and one row per
sample. Numbers are written with `repr`, which round-trips a float
exactly, and each file ends in one newline, so the same inputs and seed
give the same bytes.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def read_json(path: str | Path, error: type[Exception]):
    """The JSON document at `path`. A file that is missing, unreadable, not
    UTF-8 or not JSON raises `error`, naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: bad UTF-8 or bad JSON
        raise error(f"cannot read {path}: {exc}") from exc


def check_keys(doc, where: str, error: type[Exception], required=(), optional=()) -> None:
    """Raise `error`, naming `where`, unless `doc` is a JSON object with all
    of `required` and no other key outside `optional`. Unknown keys are
    named before missing ones, so a misspelt key is reported as itself."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - {*required, *optional}
    if unknown:
        raise error(f"{where} has unknown keys: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{where} is missing keys: {missing}")


def json_list(value, where: str, error: type[Exception]) -> list:
    """`value`, which must be a JSON list; anything else raises `error`."""
    if not isinstance(value, list):
        raise error(f"{where} must be a list, got {value!r}")
    return value


def json_number(value, where: str, error: type[Exception], integer: bool = False):
    """`value` as a float, or with `integer` as the int it must be; booleans,
    strings, null and ints past the float range raise `error`, naming
    `where`. NaN and infinity, which Python's json reads, pass."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise error(f"{where} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise error(f"{where} is out of the float range, got {value!r}") from None


def write_json(path: str | Path, doc) -> None:
    """`doc` as sorted JSON. A NaN or an infinity is not JSON, so it raises
    RuntimeError, an internal fault, before the file is touched."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path: str | Path, header, *columns) -> None:
    """One column per name in `header`; integer columns are written as
    integers, real ones as floats."""
    columns = [np.asarray(column) for column in columns]
    cells = [map(repr, map(int if c.dtype.kind in "iu" else float, c)) for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
