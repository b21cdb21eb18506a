"""Matrix-table files: the array check of a table's blocks against the
cell-by-cell oracle, and structural fuzz of whole table files."""

import contextlib
import io
import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyposym import cli, parse_spec
from hyposym.errors import SpecFileError
from hyposym.specfile import _matrix_array, _parse_matrix, _parse_table_label

from oracles import cellwise_parse_matrix, nested_matrix_array

_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),  # beyond 2^53: rounded to the nearest float
    st.sampled_from([0, -0.0, 0.0, 2**53 + 1, -(2**63), 2**64 - 1]),
)
_BAD_PART = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from(["1.5", None, float("nan"), float("inf"), -float("inf"),
                     10**309, -(10**400), [1, 2], {"re": 1}]),
)


def _cell():
    return st.lists(_FINITE, min_size=2, max_size=2)


@st.composite
def _matrices(draw):
    """A well-formed n x n table, then most often one defect: a bad part, a
    cell of 1 or 3 parts or not a list, a nested cell, a short, long or
    missing row, a non-square shape, or no matrix at all."""
    n = draw(st.integers(1, 4))
    raw = [[draw(_cell()) for _ in range(n)] for _ in range(n)]
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(["none", "part", "cell", "nested", "row", "shape", "raw"]))
    if defect == "part":
        raw[r][c][draw(st.integers(0, 1))] = draw(_BAD_PART)
    elif defect == "cell":
        raw[r][c] = draw(st.one_of(st.lists(_FINITE, min_size=1, max_size=1),
                                   st.lists(_FINITE, min_size=3, max_size=3),
                                   st.sampled_from([None, 1.0, "x", (1, 0), {}])))
    elif defect == "nested":
        raw[r][c] = [raw[r][c], raw[r][c]]
    elif defect == "row":
        raw[r] = draw(st.sampled_from([raw[r][:-1], raw[r] + [[0, 0]], None, "row", {}]))
    elif defect == "shape":
        raw = draw(st.sampled_from([raw[:-1], [row + [[0, 0]] for row in raw]])) or raw
    elif defect == "raw":
        raw = draw(st.sampled_from([[], None, {}, "m", 1, [[]], [[[]]]]))
    return raw


def _bits(arr):
    return None if arr is None else (arr.shape, arr.dtype, arr.tobytes())


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_array_check_equals_the_cellwise_parse(raw):
    fast, slow = [], []
    got = _parse_matrix(raw, "table entry 0", fast)
    want = cellwise_parse_matrix(raw, "table entry 0", slow)
    assert fast == slow
    assert _bits(got) == _bits(want)


def test_array_check_keeps_negative_zero_and_rounds_like_complex():
    raw = [[[-0.0, -0.0], [0, -0.0]], [[2**53 + 1, -(2**63) - 1], [1.5, 10**308]]]
    got = _parse_matrix(raw, "w", problems := [])
    assert problems == []
    assert got.tobytes() == np.array([[complex(*c) for c in row] for row in raw]).tobytes()
    assert np.signbit(got.real).tolist() == [[True, False], [False, False]]


_GOOD_PARTS = [0, -0.0, 0.0, 1, -3, 2.5, 1e-300, -1e308, 2**53 + 1, -(2**63), 2**64 - 1,
               2**70, 10**308]
_BAD_PARTS = [True, False, "1.5", None, float("nan"), float("inf"), -float("inf"), 10**309,
              -(10**400), [1, 2], {"re": 1}, (1, 0)]


def _damaged_table(rng: random.Random):
    """A well-formed n x n table, then up to two defects of the kinds
    ``_matrices`` draws, and tuples where lists belong."""
    n = rng.randint(1, 4)
    raw = [[[rng.choice(_GOOD_PARTS) if rng.random() < 0.3 else rng.uniform(-9, 9)
             for _ in range(2)] for _ in range(n)] for _ in range(n)]
    for _ in range(rng.choice([0, 1, 1, 2])):
        try:
            r = rng.randrange(len(raw))
            c = rng.randrange(len(raw[r]))
            defect = rng.choice(["part", "cell", "nested", "row", "shape", "raw", "tuple"])
            if defect == "part":
                raw[r][c][rng.randrange(2)] = rng.choice(_BAD_PARTS)
            elif defect == "cell":
                raw[r][c] = rng.choice([[1.0], [1, 2, 3], [], None, 1.0, "x", (1, 0), {}])
            elif defect == "nested":
                raw[r][c] = [raw[r][c], raw[r][c]]
            elif defect == "row":
                raw[r] = rng.choice([raw[r][:-1], raw[r] + [[0, 0]], None, "row", {}, []])
            elif defect == "shape":
                raw = rng.choice([raw[:-1], [row + [[0, 0]] for row in raw]])
            elif defect == "raw":
                raw = rng.choice([[], None, {}, "m", 1, [[]], [[[]]], [[[0, 0]], [[0, 0]]]])
            else:
                raw[r] = tuple(raw[r]) if rng.random() < 0.5 else raw[r]
                raw[r][c] = tuple(raw[r][c])
        except (TypeError, IndexError, ValueError, KeyError):  # the shape is already broken
            pass
    return raw


def test_flattened_array_check_equals_the_nested_conversion():
    rng = random.Random(2024)
    accepted = 0
    for _ in range(40000):
        raw = _damaged_table(rng)
        got, want = _matrix_array(raw), nested_matrix_array(raw)
        assert _bits(got) == _bits(want), raw
        accepted += want is not None
    assert 5000 < accepted < 35000  # both outcomes are common


# ---------------------------------------------------------------------------
# structural fuzz of table files

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_HUGE = st.integers(10**6, 10**12)
_LABELS = {
    "su2": st.one_of(st.integers(0, 3), _HUGE, st.integers(-3, -1),
                     st.fixed_dictionaries({"twice_ell": st.one_of(st.integers(-3, 3), _HUGE,
                                                                   st.booleans(), _JUNK)},
                                           optional={"extra": _JUNK}),
                     _JUNK),
    "torus2": st.one_of(st.lists(st.one_of(st.integers(-3, 3), _HUGE), min_size=2, max_size=2),
                        st.lists(st.integers(-3, 3), max_size=3), _JUNK),
}


@st.composite
def _entries(draw, model):
    """Up to four entries, then often one more repeating an entry's label."""
    entry = st.one_of(
        st.fixed_dictionaries({"label": _LABELS[model], "matrix": _matrices()},
                              optional={"extra": _JUNK}),
        st.fixed_dictionaries({}, optional={"label": _LABELS[model], "matrix": _matrices(),
                                            "other": _JUNK}),
        _JUNK,
    )
    entries = draw(st.lists(entry, max_size=4))
    if entries and draw(st.booleans()):
        twin = draw(st.sampled_from(entries))
        if isinstance(twin, dict):
            twin = {**twin, "matrix": draw(_matrices())}
        entries.insert(draw(st.integers(0, len(entries))), twin)
    return entries


def _tables(model):
    return st.one_of(
        st.fixed_dictionaries({"entries": _entries(model)}, optional={"extra": _JUNK}),
        st.fixed_dictionaries({"entries": _JUNK}),
        _JUNK,
    )


def _leaves(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [leaf for item in x for leaf in _leaves(item)]
    return [x]


def _expected_violations(doc, model) -> list[str]:
    """The unknown keys and repeated labels of a table with a nonempty entry
    list, each named by its entry (none when NaN or Infinity make the whole
    file invalid JSON)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list) or not doc["entries"]:
        return []
    if not np.isfinite([x for x in _leaves(doc) if isinstance(x, float)]).all():
        return []
    out = [f"table.json': unknown key {k!r}" for k in doc if k != "entries"]
    seen = {}
    for i, entry in enumerate(doc["entries"]):
        if not isinstance(entry, dict):
            continue
        out += [f"table entry {i}: unknown key {k!r}"
                for k in entry if k not in ("label", "matrix")]
        label = _parse_table_label(entry.get("label"), model, "", [])
        if label in seen:
            out.append(f"table entry {i}: label {label} repeats table entry {seen[label]}")
        elif label is not None:
            seen[label] = i
    return out


@pytest.mark.parametrize("model", ["su2", "torus2"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_files_fail_with_a_schema_or_precondition_code(model, data, tmp_path):
    doc = data.draw(_tables(model))
    (tmp_path / "table.json").write_text(json.dumps(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model": {"kind": model},
                                "operator": {"kind": "matrix_table", "path": "table.json"}}))
    try:
        parse_spec(str(spec))
        parsed = True
    except SpecFileError:
        parsed = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--spec", str(spec), "--cutoff", "2"])
    assert code in ((0, 3) if parsed else (2,)), err.getvalue()
    if code:
        assert set(json.loads(err.getvalue())) <= {"error", "kind", "violations"}
    expected = _expected_violations(doc, model)
    if expected:
        violations = json.loads(err.getvalue())["violations"]
        assert code == 2
        assert all(any(v.endswith(e) for v in violations) for e in expected), violations


def test_repeated_labels_and_unknown_keys_are_violations(tmp_path):
    (tmp_path / "table.json").write_text(json.dumps({
        "entries": [{"label": 0, "matrix": [[[1, 0]]], "typo": 5},
                    {"label": 0, "matrix": [[[0, 0]]]}],
        "note": "x"}))
    spec = {"model": {"kind": "su2"},
            "operator": {"kind": "matrix_table", "path": str(tmp_path / "table.json")}}
    with pytest.raises(SpecFileError) as exc:
        parse_spec(spec)
    assert exc.value.violations == [
        f"matrix table {str(tmp_path / 'table.json')!r}: unknown key 'note'",
        "table entry 0: unknown key 'typo'",
        "table entry 1: label l=0 repeats table entry 0",
    ]


def test_huge_label_with_a_small_block_fails_the_size_check(tmp_path):
    (tmp_path / "table.json").write_text(json.dumps({"entries": [
        {"label": 10**12, "matrix": [[[1, 0]]]},
        {"label": {"twice_ell": -1}, "matrix": [[[1, 0]]]},
        {"label": {"twice_ell": True}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ]}))
    spec = {"model": {"kind": "su2"},
            "operator": {"kind": "matrix_table", "path": str(tmp_path / "table.json")}}
    with pytest.raises(SpecFileError) as exc:
        parse_spec(spec)
    assert exc.value.violations == [
        "table entry 0: block size 1 does not match dimension 1000000000001",
        "table entry 1: su2 label must be a nonnegative twice_ell integer",
        "table entry 2: su2 label must be a nonnegative twice_ell integer",
    ]
