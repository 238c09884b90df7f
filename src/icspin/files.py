"""The data-file format: reading and checking JSON documents, writing JSON
and CSV.

Every input document's structure is checked with `check_keys` and
`json_list`, and its numbers by the constructors that take them; every
file the package writes goes through here. JSON is sorted with a
two-space indent; a CSV is a header line and one row per sample. Numbers
are written with `repr`, which round-trips a float exactly, and each file
ends in one newline, so the same inputs and seed give the same bytes.
`write_text` writes an existing file over in place and then cuts it to
length, since emptying it first frees its blocks, which costs several
times the write on a filesystem that discards freed blocks.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .operators import ConfigError


def read_json(path: str | Path):
    """The JSON document at `path`. An empty path (the working directory) or a file that is
    missing, unreadable, not UTF-8 or not JSON raises ConfigError, naming the path."""
    if not str(path):
        raise ConfigError(f"cannot read {path!r}: the path is empty")
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def check_keys(doc, where: str, required=(), optional=()) -> None:
    """Raise ConfigError, naming `where`, unless `doc` is a JSON object with all
    of `required` and no other key outside `optional`. Unknown keys are
    named before missing ones, so a misspelt key is reported as itself."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - {*required, *optional}
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{where} is missing keys: {missing}")


def json_list(value, where: str) -> list:
    """`value`, which must be a JSON list; anything else raises ConfigError."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


# os.O_BINARY, on Windows only, stops the C runtime from translating line
# ends a second time, so the bytes are those of Path.write_text
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path: str | Path, text: str) -> None:
    """`text` as the whole of the file at `path`, in UTF-8. An existing file
    is written over from its start and then cut at the end of the new bytes;
    a new file gets the mode that ``open(path, "w")`` gives. A crash before
    the cut may leave the new bytes followed by the old file's tail."""
    with open(os.open(path, _WRITE_FLAGS, 0o666), "w", encoding="utf-8") as file:
        file.write(text)
        file.truncate()


def write_json(path: str | Path, doc) -> None:
    """`doc` as sorted JSON. A NaN or an infinity is not JSON, so it raises
    RuntimeError, an internal fault, before the file is touched."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    write_text(path, text + "\n")


def write_csv(path: str | Path, header, *columns) -> None:
    """One column per name in `header`; integer columns are written as
    integers, real ones as floats. A NaN or an infinity raises RuntimeError,
    an internal fault, before the file is touched, as in `write_json`."""
    columns = [np.asarray(column) for column in columns]
    if not all(np.isfinite(column).all() for column in columns):
        raise RuntimeError(f"cannot write {path}: a column holds NaN or infinity")
    cells = [map(repr, (c if c.dtype.kind in "iu" else c.astype(float)).tolist())
             for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    write_text(path, "\n".join(rows) + "\n")
