import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_jsonl_reference
from salience.errors import write_csv, write_jsonl


def test_write_csv_encodes_each_cell_by_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(["a", "b", "c", "d"], [(1, 0.1, None, "x"), (np.int64(2), np.float64(1 / 3), np.float64(-0.0), True)],
              path)
    assert path.read_bytes() == b"a,b,c,d\r\n1,0.1,,x\r\n2,0.3333333333333333,-0.0,True\r\n"


def assert_reference_bytes(rows, tmp_path):
    path, reference = tmp_path / "w.jsonl", tmp_path / "r.jsonl"
    write_jsonl(rows, path)
    write_jsonl_reference(rows, reference)
    assert path.read_bytes() == reference.read_bytes()
    return path.read_bytes()


B64 = base64.b64encode(bytes(range(256)))

ROWS = [
    {"a": 1, "s": 'q"b\\t\tc\x01\x1f ', "u": "café →", "f": [0.1, -0.0, 5e-324, float("nan"), float("-inf")]},
    {"nested": {"a": {"b": [1, {"c": None}]}}, "empty": {}, 3: {"int": {}}, 2.5: True, None: [], False: "f"},
    {"vectors": B64},
    {"head": 1, "table": {"vocab": {"tokens": ["é", '"']}, "vectors": B64, "dim": 2}, 7: {}, "tail": {"x": B64}},
    {"deep": {1: {"": {"v": b""}}, "after": 0}, "meta": {}},
    [1, "two", None],
    "just a string",
    {},
]


def test_write_jsonl_writes_the_one_dumps_lines(tmp_path):
    """bytes go out as the JSON strings of their ASCII text, at any depth of dicts under any key."""
    data = assert_reference_bytes(ROWS, tmp_path)
    assert data.count(b"\n") == len(ROWS) and data.endswith(b"\n")
    assert "café →".encode() in data and b'"vectors":"' + B64 + b'"' in data
    assert [json.loads(line) for line in data.splitlines()][2] == {"vectors": B64.decode("ascii")}


def test_write_jsonl_first_row_that_fails_leaves_no_file(tmp_path):
    for bad in ({"s": "\ud800"}, {"list": [b"AAAA"]}):
        with pytest.raises((UnicodeEncodeError, TypeError)):
            write_jsonl([bad, {"fine": 1}], tmp_path / "w.jsonl")
        assert not (tmp_path / "w.jsonl").exists()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl")


_KEYS = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.floats(allow_nan=False), st.booleans(), st.none())
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))


def _json_like(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_json_like(_SCALARS), min_size=1, max_size=4))
def test_write_jsonl_matches_the_reference_on_rows_without_bytes(scratch, rows):
    assert_reference_bytes(rows, scratch)


def _dicts_with_bytes(leaves):
    """Dicts that hold base64 bytes only where the writer accepts them: as a value of a dict, at any depth."""
    b64 = st.binary(max_size=12).map(base64.b64encode)
    return st.recursive(
        st.dictionaries(_KEYS, leaves | b64, min_size=1, max_size=4),
        lambda inner: st.dictionaries(_KEYS, inner | leaves | b64, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_dicts_with_bytes(_SCALARS | st.lists(_SCALARS, max_size=3)), min_size=1, max_size=3))
def test_write_jsonl_matches_the_reference_on_dicts_with_bytes(scratch, rows):
    assert_reference_bytes(rows, scratch)
