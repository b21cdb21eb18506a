"""Matrix-table files: the array check of a table's blocks against the
cell-by-cell oracle, structural fuzz of whole table files, and the
block-by-block parse of table text against the whole-document loader."""

import contextlib
import io
import json
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyposym import cli, forked, parse_spec, tables
from hyposym.errors import PreconditionError, SpecFileError
from hyposym.spectral import Su2Label
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


# ---------------------------------------------------------------------------
# table text: the block-by-block parse against the whole-document loader

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
}


def _flags(arr) -> tuple:
    f = arr.flags
    return f.owndata, f.writeable, f.c_contiguous, f.f_contiguous, f.aligned


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


def _forced_processes(monkeypatch, processes: int) -> list:
    """Let a table of any size fork for each block up to ``processes``; the
    list returned records each fork."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(forked, "cpu_count", lambda: processes)
    monkeypatch.setattr(tables, "TABLE_CHARS_PER_PROCESS", 1)
    return forks


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("case", list(_TEXT_CASES))
def test_table_text_parses_as_the_whole_document(case, processes, tmp_path, monkeypatch):
    forks = _forced_processes(monkeypatch, processes)
    text = _TEXT_CASES[case]
    model = "torus2" if case.startswith("torus") else "su2"
    _assert_parse_equals_whole_document(tmp_path, text.encode("utf-8"), model)
    assert len(forks) == min(processes, text.count('"matrix"')) - 1


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("data", [
    _plain().encode("utf-8")[:40] + b"\xff" + _plain().encode("utf-8")[40:],
    _plain().encode("utf-8")[:-40] + b"\xc3(" + _plain().encode("utf-8")[-40:],
    b"\xef\xbb\xbf" + _plain().encode("utf-8"),
], ids=["invalid UTF-8", "invalid UTF-8, late", "BOM"])
def test_table_bytes_fail_as_the_whole_document(data, processes, tmp_path, monkeypatch):
    _forced_processes(monkeypatch, processes)
    assert len(_assert_parse_equals_whole_document(tmp_path, data)) == 1


def test_a_worker_that_fails_leaves_its_blocks_to_the_parser(tmp_path, monkeypatch):
    forks = _forced_processes(monkeypatch, 3)
    parser, matrix_array = os.getpid(), tables._matrix_array

    def failing(raw):
        if os.getpid() != parser:
            raise RuntimeError("parsing failed")
        return matrix_array(raw)

    monkeypatch.setattr(tables, "_matrix_array", failing)
    assert _assert_parse_equals_whole_document(tmp_path, _plain().encode("utf-8")) == []
    assert len(forks) == 2


def test_a_parser_that_fails_leaves_no_worker(tmp_path, monkeypatch):
    _forced_processes(monkeypatch, 3)
    parser, matrix_array, calls = os.getpid(), tables._matrix_array, []

    def failing_late(raw):
        calls.append(1)
        if os.getpid() == parser and len(calls) > 1:  # the parser's second block, block 3
            raise RuntimeError("parsing failed")
        return matrix_array(raw)

    monkeypatch.setattr(tables, "_matrix_array", failing_late)
    (tmp_path / "table.json").write_text(_plain())
    with pytest.raises(RuntimeError, match="parsing failed"):
        parse_spec({"model": {"kind": "su2"},
                    "operator": {"kind": "matrix_table", "path": str(tmp_path / "table.json")}})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_large_table_forks_by_its_size(tmp_path, monkeypatch):
    # about 1.3 MB of text: two processes at the default size per process
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((t + 1, t + 1, 2)) for t in range(44)]
    text = json.dumps({"entries": [{"label": t, "matrix": b.tolist()}
                                   for t, b in enumerate(blocks)]})
    assert 1 < len(text) / tables.TABLE_CHARS_PER_PROCESS <= 2
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(forked, "cpu_count", lambda: 8)
    assert _assert_parse_equals_whole_document(tmp_path, text.encode("utf-8")) == []
    assert len(forks) == 1


def test_a_small_table_forks_nothing(tmp_path, monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(forked, "cpu_count", lambda: 8)
    assert _assert_parse_equals_whole_document(tmp_path, _plain().encode("utf-8")) == []
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
    # the parsed blocks are handed over read-only and adopted
    for entry in tables._blockwise(_plain())["entries"]:
        assert _flags(entry["matrix"])[:2] == (True, False)
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
