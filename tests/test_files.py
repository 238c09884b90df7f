import numpy as np
import pytest

from icspin.files import (check_keys, json_list, json_number, read_json, write_csv,
                          write_json)


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


def test_check_keys_names_unknown_keys_before_missing_ones():
    with pytest.raises(KeyError, match=r"unknown keys: \['omega1_Mhz'\]"):
        check_keys({"omega1_Mhz": 0.5}, "doc", KeyError, required=("omega1_MHz",))
    with pytest.raises(KeyError, match=r"doc is missing keys: \['a'\]"):
        check_keys({"b": 1}, "doc", KeyError, required=("a",), optional=("b",))
    with pytest.raises(KeyError, match="doc must be a JSON object"):
        check_keys([("a", 1)], "doc", KeyError, required=("a",))
    check_keys({"a": 1}, "doc", KeyError, required=("a",), optional=("b",))


def test_json_list_rejects_an_object():
    assert json_list([1], "xs", ValueError) == [1]
    with pytest.raises(ValueError, match="xs must be a list"):
        json_list({"a": 1}, "xs", ValueError)


@pytest.mark.parametrize("value", [True, "1", None])
def test_json_number_rejects_booleans_strings_and_null(value):
    with pytest.raises(TypeError, match="x must be a number"):
        json_number(value, "x", TypeError)


def test_json_number_integer_rejects_a_fraction_and_keeps_ints():
    with pytest.raises(TypeError, match="x must be an integer"):
        json_number(1.5, "x", TypeError, integer=True)
    assert json_number(3, "x", TypeError, integer=True) == 3
    assert type(json_number(3, "x", TypeError)) is float


def test_json_number_rejects_an_integer_beyond_the_float_range():
    with pytest.raises(ValueError, match="x is out of the float range"):
        json_number(10**400, "x", ValueError)


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
