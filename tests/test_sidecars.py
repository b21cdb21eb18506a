"""CSV sidecars: the shared row kernel against the row-by-row writers of
``oracles.py``, byte for byte, written by one process, and its float
formatter against ``repr``."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import SU2, TORUS2, build_symbol, cli
from hyposym.coefficients import CoefficientField
from hyposym.spectral import Su2Label, Torus2Label, Window
from hyposym.symbols import MatrixTable, gain_table

from conftest import su2_laplace_minus_axis_sq, torus_translation
from oracles import rowwise_coeffs_csv, rowwise_gains_csv

CHUNKS = [1, 7, 16384, cli.CSV_CHUNK_ROWS]  # 16384: one chunk for every table here


def _counted_forks(monkeypatch) -> list:
    """The list returned records each ``os.fork``."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _torus_poly(big):
    # |xi + c eta| = |-xi - c eta|: every gain but (0,0)'s appears twice
    return build_symbol(torus_translation(0.5 + 5**0.5 / 2)), 6000 if big else 60


def _torus_table(big):
    rng = np.random.default_rng(1)
    window = Window(TORUS2, 40)
    labels = [window.label(i) for i in range(len(window))]
    # a few distinct entries, so equal gains repeat across chunk edges
    pool = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    entries = {lab: [[pool[i % 5] if i % 9 else 0.0]] for i, lab in enumerate(labels)}
    return build_symbol(MatrixTable("torus2", entries)), 40


def _su2_poly(big):
    # l(l+1) - m^2: half-integer levels, gain != opnorm from l = 1/2 on
    return build_symbol(su2_laplace_minus_axis_sq()), 2550 if big else 30


def _su2_dense(big):
    rng = np.random.default_rng(2)
    entries = {Su2Label(t): rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1)) for t in range(9)}
    return build_symbol(MatrixTable("su2", entries)), 8 * 10 / 4


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", [_torus_poly, _torus_table, _su2_poly, _su2_dense])
def test_gains_csv_equals_the_row_loop(case, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    symbol, cutoff = case(chunk == CHUNKS[-1])
    table = gain_table(symbol, cutoff)
    if case in (_su2_poly, _su2_dense):
        assert not np.array_equal(table.gain, table.opnorm)
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    rowwise_gains_csv(ref, table, chunk)
    forks = _counted_forks(monkeypatch)
    cli._write_gains_csv(str(out), table)
    assert out.read_bytes() == ref.read_bytes()
    assert forks == []


def _field(model, big):
    """Complex, negative and -0.0 components, in runs that repeat; on SU(2) a
    vector longer than the default chunk when ``big``."""
    rng = np.random.default_rng(3)
    if model is TORUS2:
        labels = [Torus2Label(x, e) for x in range(-4, 5) for e in (-3, 0, 2)]
    else:
        labels = [Su2Label(t) for t in (0, 1, 2, 5, 130 if big else 11)]
    pool = np.array([-0.0, 0.0, -1.5, 2.5, 1e-300, -1e300, 1e16, 1e-5, 0.1])
    data = {}
    for lab in labels:
        n = lab.block_dim()
        vec = np.empty(n, dtype=complex)  # re + 1j * im would lose the sign of a zero
        vec.real, vec.imag = pool[rng.integers(0, len(pool), n)], pool[rng.integers(0, len(pool), n)]
        if n > 1:
            vec[0] = complex(rng.standard_normal(), -rng.standard_normal())
        data[lab] = vec
    return CoefficientField.from_dict(data)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("model", [TORUS2, SU2])
def test_coeffs_csv_equals_the_row_loop(model, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    field = _field(model, chunk == CHUNKS[-1])
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    rowwise_coeffs_csv(ref, field, 1e5, chunk)
    forks = _counted_forks(monkeypatch)
    cli._write_coeffs_csv(str(out), field, 1e5)
    data = out.read_bytes()
    assert data == ref.read_bytes()
    assert b",-0.0," in data and b",-0.0\r\n" in data
    assert forks == []


def test_a_writer_that_fails_leaves_no_worker(tmp_path, monkeypatch):
    # a torus table of 27 chunks of 7 rows; the formatter fails on chunk 5
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    table = gain_table(*_torus_poly(False))
    assert -(-len(table) // 7) == 27
    float_texts, calls = cli._float_texts, []

    def fails_late(values):
        # two calls per chunk of 1x1 blocks (lambda, gain)
        calls.append(1)
        if len(calls) > 8:
            raise RuntimeError("formatting failed")
        return float_texts(values)

    monkeypatch.setattr(cli, "_float_texts", fails_late)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._write_gains_csv(str(tmp_path / "out.csv"), table)
    assert forks == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


_DOUBLE_BITS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),  # any double, NaN payloads included
    st.integers(1, 2**52 - 1).flatmap(lambda b: st.sampled_from([b, b - 2**63])),  # subnormal
    st.sampled_from([_bits(v) for v in (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                        5e-324, 1e16, 1e-4, 9999999999999998.0)]
                    + [0x7FF0000000000001, -1]),  # a signalling NaN, an all-ones NaN
    # where repr switches between positional and exponent notation
    st.floats(9e15, 2e16).map(_bits),
    st.floats(9e-5, 1.1e-4).map(_bits),
    st.floats(-2e16, -9e15).map(_bits),
)


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(_DOUBLE_BITS, min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 10**6), max_size=300))
def test_float_texts_equal_repr(pool, picks):
    bits = pool + [pool[i % len(pool)] for i in picks]  # many repeats
    values = np.array(bits, dtype=np.int64).view(np.float64)
    texts, inverse = cli._float_texts(values)
    assert len(texts) == len(set(bits))
    assert texts[inverse].tolist() == list(map(repr, values.tolist()))


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 1000), (5, 2500), (999, 1001),
                                    (1000, 1000), (98_765, 123_456), (10**12 - 3, 10**12 + 3)])
def test_int_texts_equal_str(lo, hi):
    assert cli._int_texts(lo, hi).tolist() == list(map(str, range(lo, hi)))
