"""The data-file format: reading JSON documents, writing JSON and CSV.

Every file the package writes goes through here. JSON is sorted with a
two-space indent; a CSV is a header line and one row per sample. Numbers
are written with `repr`, which round-trips a float exactly, and each file
ends in one newline, so the same inputs and seed give the same bytes.
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


def write_json(path: str | Path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header, *columns) -> None:
    """One column per name in `header`; integer columns are written as
    integers, real ones as floats."""
    columns = [np.asarray(column) for column in columns]
    cells = [map(repr, map(int if c.dtype.kind in "iu" else float, c)) for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
