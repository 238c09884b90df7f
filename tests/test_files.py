import os
import stat

import numpy as np
import pytest

from icspin.files import check_keys, json_list, read_json, write_csv, write_json, write_text
from icspin.operators import ConfigError


def test_write_csv_keeps_ints_and_writes_floats_by_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("generation", "best_fitness"), range(2), [np.float64(0.1), 1.0 / 3.0])
    assert path.read_text(encoding="utf-8") == (
        "generation,best_fitness\n0,0.1\n1,0.3333333333333333\n")


def test_write_csv_writes_the_bytes_of_per_element_formatting(tmp_path):
    """Whole-column tolist gives the bytes of repr(int(x)) or repr(float(x))
    per element: a bool prints as 1.0, a float32 as its exact double."""
    rng = np.random.default_rng(7)
    columns = [
        np.array([0, -1, 2**63 - 1, -(2**63), 7], dtype=np.int64),
        np.array([1.0 / 3.0, -0.0, 5e-324, 1e308, 0.1]),
        rng.standard_normal(5).astype(np.float32),
        np.array([True, False, True, True, False]),
        np.array([0, 1, 2**64 - 1, 3, 4], dtype=np.uint64),
    ]
    header = ("i", "f", "f32", "b", "u")
    rows = [",".join(header)] + [
        ",".join(repr(int(x) if c.dtype.kind in "iu" else float(x)) for x, c in
                 zip(row, columns))
        for row in zip(*columns)]
    path = tmp_path / "t.csv"
    write_csv(path, header, *columns)
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    assert path.read_text().splitlines()[1].split(",")[3] == "1.0"


def test_write_json_round_trips_sorted_with_one_newline(tmp_path):
    path = tmp_path / "t.json"
    doc = {"b": [0.1, 2], "a": None}
    write_json(path, doc)
    text = path.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert read_json(path) == doc


def test_check_keys_names_unknown_keys_before_missing_ones():
    with pytest.raises(ConfigError, match=r"unknown keys: \['omega1_Mhz'\]"):
        check_keys({"omega1_Mhz": 0.5}, "doc", required=("omega1_MHz",))
    with pytest.raises(ConfigError, match=r"doc is missing keys: \['a'\]"):
        check_keys({"b": 1}, "doc", required=("a",), optional=("b",))
    with pytest.raises(ConfigError, match="doc must be a JSON object"):
        check_keys([("a", 1)], "doc", required=("a",))
    check_keys({"a": 1}, "doc", required=("a",), optional=("b",))


def test_json_list_rejects_an_object():
    assert json_list([1], "xs") == [1]
    with pytest.raises(ConfigError, match="xs must be a list"):
        json_list({"a": 1}, "xs")


def test_write_json_refuses_nan_and_leaves_no_file(tmp_path):
    path = tmp_path / "t.json"
    with pytest.raises(RuntimeError, match="t.json"):
        write_json(path, {"a": float("nan")})
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_csv_refuses_non_finite_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="t.csv"):
        write_csv(path, ("generation", "best_fitness"), range(2), [0.5, value])
    assert not path.exists()


def test_write_text_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"old bytes, three times longer than the new ones\n" * 3 + b"\xff\x00junk")
    write_text(path, "new \u00b5s\n")
    assert path.read_bytes() == "new \u00b5s\n".encode("utf-8")
    write_text(path, "")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_write_text_gives_a_new_file_the_mode_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "by_open", "w", encoding="utf-8") as file:
            file.write("x")
        write_text(tmp_path / "by_write_text", "x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("by_open", "by_write_text")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_refused_writes_leave_an_existing_file_untouched(tmp_path):
    """The NaN refusals run before the file is opened, so an old file keeps
    its bytes."""
    for name, refused in (
        ("t.json", lambda path: write_json(path, {"a": float("nan")})),
        ("t.csv", lambda path: write_csv(path, ("x",), [np.inf])),
    ):
        path = tmp_path / name
        path.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match=name):
            refused(path)
        assert path.read_bytes() == b"old bytes\n"
