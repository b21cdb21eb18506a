"""Matrix-table files: the array check of a table's blocks against the
cell-by-cell oracle, structural fuzz of whole table files, the parse of
table text, whose object hook makes each block, against the whole-document
loader, and the cache of parsed tables against the parse it skips."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import random
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyposym import cli, parse_spec, symbols, tables
from hyposym.errors import PreconditionError, SpecFileError
from hyposym.spectral import Su2Label, Torus2Label
from hyposym.tables import _matrix_array, _parse_matrix, _parse_table_label
from hyposym.symbols import MatrixTable

from oracles import cellwise_parse_matrix, nested_matrix_array, whole_document_table

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


def _bits(block):
    """(shape, dtype, bits) of a block, given as an array or as the bytes of
    a square row-major complex128 array, or None."""
    if isinstance(block, bytes):
        n = math.isqrt(len(block) // 16)
        block = np.frombuffer(block, dtype=complex).reshape(n, n)
    return None if block is None else (block.shape, block.dtype, block.tobytes())


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_array_check_equals_the_cellwise_parse(raw):
    fast, slow = [], []
    got = _parse_matrix(tables._with_block({"matrix": raw})["matrix"], "table entry 0", fast)
    want = cellwise_parse_matrix(raw, "table entry 0", slow)
    assert fast == slow
    assert _bits(got) == _bits(want)


def test_array_check_keeps_negative_zero_and_rounds_like_complex():
    raw = [[[-0.0, -0.0], [0, -0.0]], [[2**53 + 1, -(2**63) - 1], [1.5, 10**308]]]
    got = _parse_matrix(tables._with_block({"matrix": raw})["matrix"], "w", problems := [])
    assert problems == []
    assert got == np.array([[complex(*c) for c in row] for row in raw]).tobytes()
    assert np.signbit(np.frombuffer(got, dtype=complex).real).tolist() == [True, False, False,
                                                                           False]


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
        if model == "su2" and isinstance(entry.get("label"), dict):
            out += [f"table entry {i}: unknown label key {k!r}"
                    for k in entry["label"] if k != "twice_ell"]
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


def test_an_unknown_key_in_a_label_object_is_a_violation(tmp_path):
    (tmp_path / "table.json").write_text(json.dumps({"entries": [
        {"label": {"twice_ell": 0, "typo": 5}, "matrix": [[[1, 0]]]},
        {"label": {"twice_ell": 1}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}))
    spec = json.dumps({"model": {"kind": "su2"},
                       "operator": {"kind": "matrix_table",
                                    "path": str(tmp_path / "table.json")}})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--spec", spec, "--cutoff", "0.75"])
    assert code == 2
    assert json.loads(err.getvalue())["violations"] == [
        "table entry 0: unknown label key 'typo'"]


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


# ---------------------------------------------------------------------------
# table text: the parse and its object hook against the whole-document loader

_LATE = 111111  # a part of the last block, replaced by each case's number text


def _blocks(model: str):
    """Seeded blocks of ints, floats and -0.0: five SU(2) levels, or six torus
    characters; ``_LATE`` is a part of the last block."""
    rng = random.Random(5)
    labels = range(5) if model == "su2" else [[x, -x] for x in range(-2, 4)]
    out = []
    for i, label in enumerate(labels):
        n = i + 1 if model == "su2" else 1
        parts = [rng.choice([rng.uniform(-9, 9), rng.randint(-5, 5), -0.0, 2**60 + 1])
                 for _ in range(2 * n * n)]
        if i == len(labels) - 1:
            parts[-1] = _LATE
        out.append((label, [[parts[2 * (r * n + c): 2 * (r * n + c) + 2] for c in range(n)]
                            for r in range(n)]))
    return out


def _text(entries) -> str:
    """A table's text from entries given as (key, value) pairs, so that keys
    may repeat and come in any order; a str value is written as it stands."""
    def value(v):
        return v if isinstance(v, str) else json.dumps(v)

    return '{"entries": [' + ", ".join(
        "{" + ", ".join(f"{json.dumps(k)}: {value(v)}" for k, v in entry) + "}"
        for entry in entries) + "]}"


def _plain(model="su2", order=("label", "matrix")):
    return _text([[(k, {"label": lab, "matrix": mat}[k]) for k in order]
                  for lab, mat in _blocks(model)])


def _with_entry(i: int, pairs, model="su2") -> str:
    """The plain table with entry i's pairs replaced."""
    entries = [[("label", lab), ("matrix", mat)] for lab, mat in _blocks(model)]
    entries[i] = pairs(*_blocks(model)[i])
    return _text(entries)


def _whitespace() -> str:
    doc = {"entries": [{"label": lab, "matrix": mat} for lab, mat in _blocks("su2")]}
    # JSON whitespace between every two tokens
    return "\r\n\t " + json.dumps(doc, indent="\t\r", separators=("\r,\n ", "\n:\t")) + "\n\r\t"


def _number(text: str) -> str:
    return _plain().replace(str(_LATE), text)


_TEXT_CASES = {
    "plain": _plain(),
    "whitespace": _whitespace(),
    "form feed in a block": _plain().replace("], [", "],\f[", 1),
    "vertical tab between entries": _plain().replace("}, {", "},\v{", 2),
    "no-break space before a key": _plain().replace(', "matrix"', ',\u00a0"matrix"', 3),
    "matrix before label": _plain(order=("matrix", "label")),
    "torus, matrix before label": _plain("torus2", order=("matrix", "label")),
    # a key given twice in one object is a violation, whichever value json kept
    "two matrices, the last kept": _with_entry(
        2, lambda lab, mat: [("label", lab), ("matrix", [[[1, 0]]]), ("matrix", mat)]),
    "two matrices, the last too small": _with_entry(
        2, lambda lab, mat: [("label", lab), ("matrix", mat), ("matrix", [[[1, 0]]])]),
    "two labels": _with_entry(
        1, lambda lab, mat: [("label", 7), ("matrix", mat), ("label", lab)]),
    "matrix text in a label's string": _with_entry(
        3, lambda lab, mat: [("label", {"twice_ell": lab, "note": '"matrix": [[[1, 2]]]'}),
                             ("matrix", mat)]),
    "matrix text in a key": _with_entry(
        3, lambda lab, mat: [("label", lab), ("matrix", mat), ('"matrix": [[[1, 2]]]', 0)]),
    "a key ending in matrix": _with_entry(
        3, lambda lab, mat: [("label", {"twice_ell": lab, 'x"matrix': [[[1, 2]]]}),
                             ("matrix", mat)]),
    "an escaped matrix key": _plain().replace('"matrix"', '"m\\u0061trix"', 1),
    "a matrix of no block": _with_entry(0, lambda lab, mat: [("label", lab), ("matrix", 5)]),
    "an empty matrix": _with_entry(4, lambda lab, mat: [("label", lab), ("matrix", [])]),
    "a block of the wrong size": _with_entry(3, lambda lab, mat: [("label", lab),
                                                                  ("matrix", [[[1, 0]]])]),
    "a repeated label": _with_entry(4, lambda lab, mat: [("label", 1), ("matrix", mat)]),
    "an entry of no object": _with_entry(2, lambda lab, mat: []).replace("{}", "5"),
    "an unknown table key": _plain()[:-1] + ', "note": "x"}',
    "a NaN label": _with_entry(0, lambda lab, mat: [("label", "NaN"), ("matrix", mat)]),
    "a NaN after every block": _plain()[:-1] + ', "note": NaN}',
    "NaN": _number("NaN"),
    "Infinity": _number("Infinity"),
    "-Infinity": _number("-Infinity"),
    "-0": _number("-0"),
    "-0.0": _number("-0.0"),
    "1e400": _number("1e400"),
    "past 2^53": _number(str(2**53 + 1)),
    "past float range": _number("1" + "0" * 400),
    "past Python's int text": _number("1" * 5000),
    "+1": _number("+1"),
    ".5": _number(".5"),
    "1.": _number("1."),
    "01": _number("01"),
    "nested too deeply": _number("[" * 100_000 + "]" * 100_000),
    "truncated": _plain()[:-9],
    "cut in half": _plain()[:len(_plain()) // 2],
    # the line and column of the error are those of the text read with
    # universal newlines, where each \r\n and \r is one \n
    "whitespace, cut short": _whitespace()[:-40],
    # objects the object hook sees that are not entries
    "matrix in a label object": _with_entry(
        1, lambda lab, mat: [("label", {"twice_ell": lab, "matrix": [[[1, 0]]]}),
                             ("matrix", mat)]),
    "matrix at the top level": _plain()[:-1] + ', "matrix": [[[1, 0]]]}',
    "matrix in a matrix cell": _with_entry(
        2, lambda lab, mat: [("label", lab),
                             ("matrix", [[{"matrix": [[[1, 0]]]}] + row[1:] for row in mat])]),
    "matrix of an object holding a matrix": _with_entry(
        0, lambda lab, mat: [("label", lab), ("matrix", {"matrix": mat})]),
    "a true cell": _with_entry(
        3, lambda lab, mat: [("label", lab), ("matrix", [[[True, 0]] + row[1:] for row in mat])]),
}


def _owner(arr):
    """What holds the data of ``arr``: the array that owns it, or the object
    under the buffer that an array made by ``np.frombuffer`` views."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def _flags(arr) -> tuple:
    """Whether no other array can write the data of ``arr`` (it owns its
    data, or views an immutable ``bytes``), then its writeable, contiguity
    and alignment flags."""
    f = arr.flags
    sealed = f.owndata or type(_owner(arr)) is bytes
    return sealed, f.writeable, f.c_contiguous, f.f_contiguous, f.aligned


def _assert_parse_equals_whole_document(tmp_path, data: bytes, model: str = "su2"):
    """parse_spec of a spec naming a table of ``data`` gives the whole-document
    loader's blocks (bits, shape and flags) or its violations, and leaves no
    child process."""
    path = tmp_path / "table.json"
    path.write_bytes(data)
    spec = {"model": {"kind": model}, "operator": {"kind": "matrix_table", "path": str(path)}}
    problems = []
    table = whole_document_table(str(path), model, problems)
    try:
        got = parse_spec(spec).operator.entries
    except SpecFileError as exc:
        assert exc.violations == problems
    else:
        assert problems == []
        want = MatrixTable(model, table).entries
        assert list(got) == list(want)
        for label, arr in got.items():
            assert (arr.shape, arr.dtype, arr.tobytes()) == \
                (want[label].shape, want[label].dtype, want[label].tobytes())
            assert _flags(arr) == _flags(want[label])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return problems


def _counted_forks(monkeypatch, cpus: int) -> list:
    """Let the process see ``cpus`` CPUs; the list returned records each
    fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", list(_TEXT_CASES))
def test_table_text_parses_as_the_whole_document(case, cpus, tmp_path, monkeypatch):
    forks = _counted_forks(monkeypatch, cpus)
    text = _TEXT_CASES[case]
    model = "torus2" if case.startswith("torus") else "su2"
    for _ in ("cold", "warm"):
        _assert_parse_equals_whole_document(tmp_path, text.encode("utf-8"), model)
    assert forks == []
    assert gc.isenabled()  # the parse pauses the collector, however it ends


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("data", [
    _plain().encode("utf-8")[:40] + b"\xff" + _plain().encode("utf-8")[40:],
    _plain().encode("utf-8")[:-40] + b"\xc3(" + _plain().encode("utf-8")[-40:],
    b"\xef\xbb\xbf" + _plain().encode("utf-8"),
], ids=["invalid UTF-8", "invalid UTF-8, late", "BOM"])
def test_table_bytes_fail_as_the_whole_document(data, cpus, tmp_path, monkeypatch):
    forks = _counted_forks(monkeypatch, cpus)
    for _ in ("cold", "warm"):
        assert len(_assert_parse_equals_whole_document(tmp_path, data)) == 1
    assert forks == []


def test_parsing_a_table_never_forks(tmp_path, monkeypatch):
    # about 1.3 MB of text, parsed on a machine of 8 CPUs
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((t + 1, t + 1, 2)) for t in range(44)]
    text = json.dumps({"entries": [{"label": t, "matrix": b.tolist()}
                                   for t, b in enumerate(blocks)]})
    assert len(text) > 2**20
    forks = _counted_forks(monkeypatch, 8)
    assert _assert_parse_equals_whole_document(tmp_path, text.encode("utf-8")) == []
    assert forks == []


def test_table_adopts_only_blocks_no_caller_can_write(tmp_path):
    def block(dtype=complex):
        return np.arange(1, 10, dtype=dtype).reshape(3, 3).copy()  # owns its data

    writable, base, owned, other = block(), block(), block(), block(float)
    view = base[:]
    for arr in (view, owned, other):
        arr.setflags(write=False)
    inputs = [writable, view, owned, other, block().tolist()]
    made = [MatrixTable("su2", {Su2Label(2): mat}) for mat in inputs]
    writable[0, 0] = base[0, 0] = 0
    for mat, table in zip(inputs, made):
        stored = table.block(Su2Label(2))
        assert stored.tolist() == block().tolist()
        assert _flags(stored) == (True, False, True, False, True)
        assert np.shares_memory(stored, np.asarray(mat)) == (mat is owned)
    assert all(table == made[0] for table in made)
    # the parsed blocks are immutable bytes, whose views are adopted
    for entry in tables._parse(_plain())["entries"]:
        assert type(entry["matrix"]) is bytes
    (tmp_path / "table.json").write_text(_plain())
    parsed = parse_spec({"model": {"kind": "su2"},
                         "operator": {"kind": "matrix_table",
                                      "path": str(tmp_path / "table.json")}}).operator
    for label, arr in parsed.entries.items():
        assert MatrixTable("su2", {label: arr}).block(label) is arr
    with pytest.raises(PreconditionError, match="table block for l=1 is not square"):
        MatrixTable("su2", {Su2Label(2): owned[:, :2].copy()})
    square = np.zeros((2, 2), dtype=complex)
    square.setflags(write=False)
    with pytest.raises(PreconditionError, match="table block for l=1 has size 2, expected 3"):
        MatrixTable("su2", {Su2Label(2): square})


# ---------------------------------------------------------------------------
# the cache of parsed tables: the cold parse is the oracle of a warm one


def _described(entries) -> list:
    """(label, type, shape, dtype, flags, bits) of each block, in table order."""
    return [(label, type(arr), arr.shape, arr.dtype, _flags(arr), arr.tobytes())
            for label, arr in entries.items()]


def _outcome(path, model: str = "su2"):
    """parse_spec of a spec naming the table at ``path``: its blocks as
    ``_described`` gives them, or its violations."""
    spec = {"model": {"kind": model}, "operator": {"kind": "matrix_table", "path": str(path)}}
    try:
        return _described(parse_spec(spec).operator.entries)
    except SpecFileError as exc:
        return exc.violations


def _cache_files(cache) -> list:
    """Every file under the cache's tables directory, at any depth."""
    return sorted(p for p in (cache / "hyposym" / "tables").rglob("*") if p.is_file())


def _counted_parses(monkeypatch) -> list:
    """Count the parses of table text; the list returned records each."""
    parses, parse = [], tables._parse
    monkeypatch.setattr(tables, "_parse", lambda text: parses.append(1) or parse(text))
    return parses


@pytest.mark.parametrize("case", [*_TEXT_CASES, "invalid UTF-8", "BOM"])
def test_a_warm_parse_gives_the_cold_parse(case, tmp_path, monkeypatch, table_cache):
    parses = _counted_parses(monkeypatch)
    plain = _plain().encode("utf-8")
    data = {"invalid UTF-8": plain[:40] + b"\xff" + plain[40:],
            "BOM": b"\xef\xbb\xbf" + plain}.get(case) or _TEXT_CASES[case].encode("utf-8")
    model = "torus2" if case.startswith("torus") else "su2"
    (tmp_path / "table.json").write_bytes(data)
    cold = _outcome(tmp_path / "table.json", model)
    stored = _cache_files(table_cache)
    parses.clear()
    assert _outcome(tmp_path / "table.json", model) == cold
    assert _cache_files(table_cache) == stored
    if cold and isinstance(cold[0], str):  # violations: never stored
        assert stored == []
    else:
        assert len(stored) == 1
        assert parses == []
        warm = tables.load_table(str(tmp_path / "table.json"), model, problems := [])
        assert problems == []
        views = MatrixTable.packed(model, *warm).entries
        adopted = MatrixTable(model, views).entries
        assert all(_flags(arr)[:2] == (True, False) and adopted[label] is arr
                   and type(_owner(arr)) is bytes for label, arr in views.items())


def test_one_changed_byte_is_a_miss(tmp_path, monkeypatch, table_cache):
    path = tmp_path / "table.json"
    path.write_text(_plain())
    first = _outcome(path)
    path.write_text(_plain().replace(str(_LATE), str(_LATE + 1)))
    parses = _counted_parses(monkeypatch)
    changed = _outcome(path)
    assert parses == [1]
    assert changed != first
    oracle = MatrixTable("su2", whole_document_table(str(path), "su2", problems := []))
    assert problems == []
    assert changed == _described(oracle.entries)
    assert len(_cache_files(table_cache)) == 2


def test_an_edited_source_is_a_miss(tmp_path, monkeypatch, table_cache):
    # the sources hashed into the key are the modules beside tables.py
    sources = tmp_path / "hyposym"
    shutil.copytree(Path(tables.__file__).parent, sources,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(tables, "__file__", str(sources / "tables.py"))
    parses = _counted_parses(monkeypatch)
    path = tmp_path / "table.json"
    path.write_text(_plain())
    first = _outcome(path)
    assert _outcome(path) == first
    assert (len(parses), len(_cache_files(table_cache))) == (1, 1)
    operators = sources / "operators.py"
    text = operators.read_text()
    edited = text.replace("# a character is a 1x1 representation",
                          "# a character is a representation of dimension 1")
    assert edited != text
    operators.write_text(edited)
    assert _outcome(path) == first
    # the write for the edited sources removed the directory of the others
    assert (len(parses), len(_cache_files(table_cache))) == (2, 1)


def test_a_write_removes_other_sources_and_the_flat_layout(tmp_path, monkeypatch, table_cache):
    tables_dir = table_cache / "hyposym" / "tables"
    flat, other = tables_dir / ("1" * 64 + ".npy"), tables_dir / ("2" * 64) / ("3" * 64 + ".npy")
    kept = [tables_dir / "notes.txt", tables_dir / ("4" * 63 + ".npy"), tables_dir / "x" / "y"]
    for name in [flat, other, *kept]:
        name.parent.mkdir(parents=True, exist_ok=True)
        name.write_bytes(b"old")
    path = tmp_path / "table.json"
    path.write_text(_plain())
    first = _outcome(path)
    [cache] = [p for p in _cache_files(table_cache) if p not in kept]
    assert cache.parent.parent == tables_dir and cache.parent.name != "2" * 64
    assert not flat.exists() and not other.parent.exists()
    assert all(name.read_bytes() == b"old" for name in kept)  # not names the cache writes
    parses = _counted_parses(monkeypatch)
    assert _outcome(path) == first
    assert parses == []


def test_a_failed_removal_changes_no_output(tmp_path, monkeypatch, table_cache):
    other = table_cache / "hyposym" / "tables" / ("2" * 64) / ("3" * 64 + ".npy")
    other.parent.mkdir(parents=True)
    other.write_bytes(b"old")

    def refuse(path):
        raise PermissionError(path)

    monkeypatch.setattr(tables.shutil, "rmtree", refuse)
    path = tmp_path / "table.json"
    path.write_text(_plain())
    assert _outcome(path) == _described(
        MatrixTable("su2", whole_document_table(str(path), "su2", [])).entries)
    assert other.read_bytes() == b"old" and len(_cache_files(table_cache)) == 2


def _write_version_2(cache) -> None:
    """Write back the array of a cache file with a header of format 2.0."""
    stored = np.load(cache, allow_pickle=False)
    with open(cache, "wb") as fh:
        np.lib.format.write_array(fh, stored, version=(2, 0))


def _rewrite_entry(cache, change) -> None:
    """Write back the int64 array of a cache file as ``change`` leaves it."""
    stored = np.load(cache, allow_pickle=False)
    change(stored)
    np.save(cache, stored)


_DAMAGE = {
    "truncated": lambda cache, good: cache.write_bytes(good[:-9]),
    "header only": lambda cache, good: cache.write_bytes(good[:128]),
    "empty": lambda cache, good: cache.write_bytes(b""),
    "foreign": lambda cache, good: cache.write_bytes(b'{"entries": []}'),
    "pickled": lambda cache, good: np.save(cache, np.array([{"label": 0}], dtype=object),
                                           allow_pickle=True),
    "floats": lambda cache, good: np.save(cache, np.zeros(70)),
    "two dimensions": lambda cache, good: np.save(cache, np.zeros((7, 10), dtype=np.int64)),
    "one entry fewer": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(0, 4)),
    "one entry more": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(0, 6)),
    "a negative label": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(1, -1)),
    "a label of another size": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(slice(1, 6), [0, 1, 1, 3, 4])),
    # torus labels are two ints each, and every block is 1 x 1
    "torus, a repeated label": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(slice(3, 5), stored[1:3])),
    "a huge label": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(5, 2**62)),
    "a NaN": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(-1, np.float64("nan").view(np.int64))),
    "an odd length": lambda cache, good: np.save(cache, np.load(cache)[:-1]),
    # the count and five SU(2) labels come first: 6 is the real part of the first value
    "an infinity in the first block": lambda cache, good: _rewrite_entry(
        cache, lambda stored: stored.__setitem__(6, np.float64("inf").view(np.int64))),
    "big-endian": lambda cache, good: np.save(cache, np.load(cache).astype(">i8")),
    "format 2.0": lambda cache, good: _write_version_2(cache),
}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_a_damaged_cache_file_is_parsed_again_and_replaced(damage, tmp_path, monkeypatch,
                                                           table_cache):
    model = "torus2" if damage.startswith("torus") else "su2"
    path = tmp_path / "table.json"
    path.write_text(_plain(model))
    cold = _outcome(path, model)
    [cache] = _cache_files(table_cache)
    good = cache.read_bytes()
    _DAMAGE[damage](cache, good)
    assert cache.read_bytes() != good
    parses = _counted_parses(monkeypatch)
    assert _outcome(path, model) == cold
    assert parses == [1]
    assert _cache_files(table_cache) == [cache]
    assert cache.read_bytes() == good


def test_finite_values_from_two_to_the_1009_are_read_from_the_cache(tmp_path, monkeypatch,
                                                                    table_cache):
    # their top byte is that of inf and NaN, and math.isfinite tells them apart
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [
        {"label": 0, "matrix": [[[2.0**1009, -1.7976931348623157e308]]]},
        {"label": 1, "matrix": [[[2.0**1023, -0.0], [5e-324, -(2.0**1010)]],
                                [[1, 0], [0, 1]]]}]}))
    cold = _outcome(path)
    parses = _counted_parses(monkeypatch)
    assert _outcome(path) == cold
    assert parses == [] and len(_cache_files(table_cache)) == 1


@pytest.mark.parametrize("model", ["su2", "torus2"])
def test_a_cache_file_is_what_np_save_writes(model, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(_plain(model))
    labels, values = tables.load_table(str(path), model, problems := [])
    assert problems == []
    cache = tmp_path / "tables" / ("0" * 64) / "table.npy"
    tables._write_cache(str(cache), labels, values)
    ints = [len(labels), *(n for label in labels for n in dataclasses.astuple(label))]
    stored = np.concatenate([np.array(ints, dtype=np.int64),
                             np.frombuffer(values, dtype=np.int64)])
    with io.BytesIO() as fh:
        np.save(fh, stored, allow_pickle=False)
        assert cache.read_bytes() == fh.getvalue()
    assert np.array_equal(np.load(cache, allow_pickle=False), stored)
    read_labels, read_values = tables._read_cache(str(cache), model)
    assert (read_labels, bytes(read_values)) == (labels, bytes(values))


_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,  # +0 and -0
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,  # subnormals
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,  # the largest finite magnitude
    0x7F00000000000000, 0xFF00000000000000, 0x7F0FFFFFFFFFFFFF, 0x7FE0000000000000,  # >= 2^1009
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf and -inf
    0x7FF0000000000001, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF,
    0xFFF0000000000001, 0x7FF4000000000000,  # NaN payloads, quiet and signalling
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                max_size=40),
       st.integers(0, 3))
def test_the_finite_check_equals_numpy(bits, skip):
    # the skipped doubles before ``start`` are NaN, which must not count
    data = struct.pack(f"<{skip + len(bits)}Q", *[0x7FF8000000000000] * skip, *bits)
    want = bool(np.isfinite(np.frombuffer(data, dtype="<f8")[skip:]).all())
    assert tables._all_finite(data, 8 * skip) is want


def test_a_label_beyond_int64_is_parsed_every_time(tmp_path, monkeypatch, table_cache):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": [{"label": [2**63, 0], "matrix": [[[1, 0]]]},
                                            {"label": [0, 1], "matrix": [[[0, 2]]]}]}))
    parses = _counted_parses(monkeypatch)
    cold = _outcome(path, "torus2")
    assert _outcome(path, "torus2") == cold
    assert [label for label, *_ in cold] == [Torus2Label(2**63, 0), Torus2Label(0, 1)]
    assert parses == [1, 1]
    assert _cache_files(table_cache) == []


def test_an_unwritable_cache_changes_no_output(tmp_path, monkeypatch, table_cache):
    (tmp_path / "table.json").write_text(_plain())
    spec = json.dumps({"model": {"kind": "su2"},
                       "operator": {"kind": "matrix_table",
                                    "path": str(tmp_path / "table.json")}})

    def analyze():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", "--spec", spec, "--cutoff", "3"])
        return code, out.getvalue(), err.getvalue()

    cached = analyze()
    assert cached[0] == 0 and cached[2] == ""
    blocked = tmp_path / "blocked"
    blocked.write_text("")  # a file where the cache directory would be
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    parses = _counted_parses(monkeypatch)
    assert analyze() == analyze() == cached
    assert parses == [1, 1]
    assert blocked.read_text() == ""
    assert len(_cache_files(table_cache)) == 1


# ---------------------------------------------------------------------------
# reports that do not depend on the CPU count


def _one_cpu():
    """Pin the calling process, a child before it runs the command, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="pinning changes nothing with fewer than two CPUs")
@pytest.mark.skipif(symbols._blas_thread_calls() is None, reason="no known BLAS thread setter")
def test_a_dense_report_is_the_same_pinned_to_one_cpu(tmp_path):
    # the seeded table of levels 2l = 0..80: OpenBLAS splits the SVD of a
    # block from 81 x 81 up by its threads, which changes its last bits
    rng = np.random.default_rng(2)
    blocks = [(rng.standard_normal((t + 1, t + 1)) + 1j * rng.standard_normal((t + 1, t + 1)))
              / np.sqrt(2.0) for t in range(81)]
    entries = [{"label": t, "matrix": np.stack([b.real, b.imag], axis=-1).tolist()}
               for t, b in enumerate(blocks)]
    (tmp_path / "table.json").write_text(json.dumps({"entries": entries}))
    spec = json.dumps({"model": {"kind": "su2"},
                       "operator": {"kind": "matrix_table", "path": "table.json"}})
    argv = [sys.executable, "-m", "hyposym.cli", "subelliptic", "--spec", spec, "--cutoff",
            "1640.0", "--s", "0", "--m", "1", "--probes", "20", "--seed", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    unpinned, pinned = (subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                                       check=True, preexec_fn=pin).stdout
                        for pin in (None, _one_cpu))
    assert json.loads(unpinned)["report"]["c_star"] > 0
    assert unpinned == pinned


def test_an_image_norm_beyond_float_range_warns_nothing(tmp_path):
    # blocks 1e200 * ones: a null vector's image is finite, its norm is not;
    # the refusal is the one JSON document on stderr, with no numpy warning
    entries = [{"label": t, "matrix": [[[1e200, 0]] * (t + 1)] * (t + 1)} for t in range(13)]
    (tmp_path / "table.json").write_text(json.dumps({"entries": entries}))
    spec = json.dumps({"model": {"kind": "su2"},
                       "operator": {"kind": "matrix_table", "path": "table.json"}})
    proc = subprocess.run(
        [sys.executable, "-m", "hyposym.cli", "counterexample", "--spec", spec, "--cutoff", "12",
         "--k", "1"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {"error": "the image norm at l=1 is beyond float range",
                                       "kind": "PreconditionError"}
