import numpy as np

from icspin.files import read_json, write_csv, write_json


def test_write_csv_keeps_ints_and_writes_floats_by_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("generation", "best_fitness"), range(2), [np.float64(0.1), 1.0 / 3.0])
    assert path.read_text(encoding="utf-8") == (
        "generation,best_fitness\n0,0.1\n1,0.3333333333333333\n")


def test_write_json_round_trips_sorted_with_one_newline(tmp_path):
    path = tmp_path / "t.json"
    doc = {"b": [0.1, 2], "a": None}
    write_json(path, doc)
    text = path.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert read_json(path, ValueError) == doc
