"""The lean torus window: the row-by-row lattice, the stored layout, the
slice-based reductions and the memory budget, each against its oracle."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import SU2, TORUS2, Window, build_symbol, cli, estimate_order, gain_table, verdict
from hyposym import fitting, spectral
from hyposym.errors import NoFitError, PreconditionError, WindowTooSmallError
from hyposym.exact import parse_real
from hyposym.fitting import BIN_WIDTH, envelope_bound, envelope_points
from hyposym.hypo import fit_growth, singular_scan
from hyposym.spectral import torus_lattice
from hyposym.symbols import Coefficient, GainTable, OrderEstimate, TorusPoly, zero_mask

from conftest import su2_laplace_minus_axis_sq, torus_translation
from oracles import (
    brute_torus_points,
    mask_envelope_points,
    mask_estimate_order,
    mask_fit_growth,
    ordinals,
    sliced,
    square_torus_lattice,
)

# cutoffs on and next to a lattice eigenvalue, fractional ones, and 0
INTEGERS = [1, 2, 4, 5, 8, 25, 50, 65, 100, 325, 1000, 4225]
CUTOFFS = [0, 0.5, 1, 2, 4.999, 5, 25, 12345.6] + INTEGERS + [n - 1e-9 for n in INTEGERS]


def _assert_same_lattice(cutoff):
    got, want = torus_lattice(cutoff), square_torus_lattice(cutoff)
    assert [a.dtype for a in got] == [np.int32, np.int32, np.float64]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_torus_lattice_matches_the_square_lexsort(cutoff):
    _assert_same_lattice(cutoff)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0, max_value=1e5, allow_nan=False))
def test_torus_lattice_matches_the_square_lexsort_on_drawn_cutoffs(cutoff):
    _assert_same_lattice(cutoff)


@pytest.mark.parametrize("cutoff", [0, 0.5, 1, 2, 4.999, 5, 25, 65, 99.9, 200])
def test_torus_lattice_is_the_brute_force_disk(cutoff):
    xi, eta, lam = torus_lattice(cutoff)
    points = list(zip(xi.tolist(), eta.tolist()))
    assert len(points) == len(set(points))
    assert set(points) == brute_torus_points(cutoff)
    assert lam.tolist() == [x * x + e * e for x, e in points]
    assert sorted(zip(lam.tolist(), points)) == list(zip(lam.tolist(), points))


# with a band of 7 eigenvalues the edges are 7k: a cutoff on an edge opens
# a band of one eigenvalue, and 7k - 1 closes a full one
BAND_CUTOFFS = [0, 1, 6, 7, 8, 13, 14, 49, 50, 63, 64, 65, 100, 99.999999999, 168, 169,
                169 - 1e-9, 1e3, 2401, 2401 - 1e-9, 4225]


@pytest.mark.parametrize("band", [1, 2, 7, 64])
def test_band_lattice_matches_the_square_lexsort_across_many_bands(band, monkeypatch):
    monkeypatch.setattr(spectral, "LATTICE_BAND", band)
    for cutoff in BAND_CUTOFFS + [band * k + d for k in (1, 2, 5) for d in (-1, 0, 1)]:
        _assert_same_lattice(cutoff)


def test_the_default_band_splits_a_large_window_and_keeps_its_order():
    # 1e5 spans seven bands of 16384 eigenvalues; the last one ends at the cutoff
    cutoff = 3 * spectral.LATTICE_BAND + 5
    _assert_same_lattice(cutoff)
    _assert_same_lattice(1e5)


# ---------------------------------------------------------------------------
# the stored layout


def test_torus_window_keeps_labels_and_float_eigenvalues():
    window = Window(TORUS2, 2000)
    xi, eta, lam = torus_lattice(2000)
    assert np.array_equal(window.labels[0], xi) and np.array_equal(window.labels[1], eta)
    assert window.lam.dtype == float and np.array_equal(window.lam, lam)
    assert window.sizes.tolist() == [1] * len(window)
    assert not window.sizes.flags.writeable
    assert window.sizes.strides == (0,)  # a broadcast, not an array of ones


def test_torus_gain_table_shares_gain_and_norm():
    table = gain_table(build_symbol(torus_translation(parse_real("(1+1*sqrt(5))/2"))), 500)
    assert table.opnorm is table.gain
    assert ordinals(table).tolist() == list(range(len(table)))
    su2 = gain_table(build_symbol(su2_laplace_minus_axis_sq()), 500)
    assert su2.opnorm is not su2.gain
    assert ordinals(su2).tolist() == list(range(len(su2)))


# ---------------------------------------------------------------------------
# the reductions


@st.composite
def window_ordered_samples(draw):
    """Nondecreasing x with ties, gaps wider than a bin and runs inside one
    bin, and y with ties."""
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-13, 0.01, 0.2, BIN_WIDTH, 1.3, 7.0]),
                          min_size=1, max_size=120))
    x = np.cumsum([draw(st.floats(0, 3))] + steps)
    y = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 3.25, 1e300]),
                               min_size=len(x), max_size=len(x))))
    return x, y


@settings(max_examples=300, deadline=None)
@given(window_ordered_samples(), st.sampled_from(["min", "max"]))
def test_envelope_points_match_the_mask_loop(samples, mode):
    x, y = samples
    got, want = envelope_points(sliced(x, y), len(x), mode), mask_envelope_points(x, y, mode)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_envelope_points_reject_no_samples():
    with pytest.raises(WindowTooSmallError):
        envelope_points(sliced(np.array([]), np.array([])), 0)


def _tables():
    phi = parse_real("(1+1*sqrt(5))/2")
    d_t = TorusPoly.make([(Coefficient.make(1), 1, 0)])  # zero norm on the row xi = 0
    ops = [(torus_translation(phi), 3000), (torus_translation(parse_real("1/2")), 3000),
           (d_t, 800), (su2_laplace_minus_axis_sq(), 3000)]
    return [gain_table(build_symbol(op), cutoff) for op, cutoff in ops]


@pytest.mark.parametrize("tol", [1e-12, 0.0, -0.0, -1.0, 0.5, 1e3])
def test_fit_growth_matches_the_mask_fit(tol):
    for table in _tables():
        try:
            want = mask_fit_growth(table, tol)
        except NoFitError as exc:
            with pytest.raises(NoFitError, match=re.escape(str(exc))):
                fit_growth(table, tol)
            continue
        assert fit_growth(table, tol) == want


def _spanning_table(top: float):
    """A torus table up to eigenvalue 100, built directly, whose gains (and
    norms) run from 1/top at lambda = 0 to top at lambda = 100, log-linear
    in the bracket: with top = 1e300 the fitted slope (about +-600) puts
    (1 + lambda)^(slope/nu) out of float range at one end of the window."""
    window = Window(TORUS2, 100)
    x = np.log1p(window.lam) / np.log1p(100.0)
    values = np.exp((2 * x - 1) * np.log(top))
    return GainTable(build_symbol(torus_translation(1)), window, values, values)


@pytest.mark.parametrize("top", [1e300, 1e-300])
def test_fit_errors_when_the_bound_leaves_float_range(top):
    table = _spanning_table(top)
    with pytest.raises(WindowTooSmallError) as order_error:
        estimate_order(table)
    # the norm bound is the largest norm / weight: a weight of inf or of 0 leaves float range
    assert type(order_error.value) is WindowTooSmallError
    assert re.fullmatch(r"the order -?\d+\.\d+ leaves float range on the window",
                        str(order_error.value))
    if top < 1:  # the gain bound is the least gain / weight: a weight of 0 drops out
        fit = fit_growth(table, 0.0)
        assert fit == mask_fit_growth(table, 0.0) and fit.m < -500 and 0 < fit.L < np.inf
        return
    with pytest.raises(NoFitError) as fit_error:
        fit_growth(table, 0.0)
    assert re.fullmatch(r"the bound of slope \d+\.\d+ leaves float range on the window",
                        str(fit_error.value))
    with pytest.raises(NoFitError, match=re.escape(str(fit_error.value))):
        mask_fit_growth(table, 0.0)


def test_an_all_zero_table_has_order_minus_infinity():
    window = Window(TORUS2, 100)
    zeros = np.zeros(len(window))
    table = GainTable(build_symbol(torus_translation(1)), window, zeros, zeros)
    assert estimate_order(table) == OrderEstimate(float("-inf"), 0.0, 0)


def test_estimate_order_matches_the_mask_estimate():
    for table in _tables():
        got = estimate_order(table)
        assert (got.order_hat, got.c_hat, got.n_envelope) == mask_estimate_order(table)


def _small_tables():
    """Tables of a few hundred samples each, with envelope bins, ties and
    singular points on both sides of every chunk edge: the float translation
    by 1/2 (not certified) vanishes at lambda = 5 t^2, d_t with a float
    coefficient on the row xi = 0."""
    phi = parse_real("(1+1*sqrt(5))/2")
    d_t = TorusPoly.make([(Coefficient.make(1.0), 1, 0)])
    ops = [(torus_translation(phi), 400), (torus_translation(0.5), 400),
           (torus_translation(0.5), 60), (d_t, 150), (su2_laplace_minus_axis_sq(), 3000)]
    return [gain_table(build_symbol(op), cutoff) for op, cutoff in ops]


def _reductions(table, tol):
    """Everything the chunked passes compute on one table, errors included."""
    def attempt(f, *args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (NoFitError, WindowTooSmallError) as exc:
            return type(exc), str(exc)

    return (table.singular(tol).tolist(),
            attempt(verdict, table, tol),
            attempt(singular_scan, table, tol),
            attempt(fit_growth, table, tol),
            attempt(estimate_order, table))


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("tol", [1e-12, 0.0, -0.0, -1.0, 1e3])
def test_chunked_reductions_match_one_chunk_and_the_mask_oracles(chunk, tol, monkeypatch):
    for table in _small_tables():
        monkeypatch.setattr(fitting, "REDUCE_CHUNK", 10**9)
        whole = _reductions(table, tol)
        monkeypatch.setattr(fitting, "REDUCE_CHUNK", chunk)
        assert _reductions(table, tol) == whole
        hits, _, scan, fit, order = whole
        assert hits == np.flatnonzero(zero_mask(table.gain, table.opnorm, tol)).tolist()
        if not isinstance(scan, tuple):
            assert [f.j for f in scan] == hits
        if not isinstance(fit, tuple):
            assert fit == mask_fit_growth(table, tol)
        if not isinstance(order, tuple):
            assert (order.order_hat, order.c_hat, order.n_envelope) == mask_estimate_order(table)


@settings(max_examples=200, deadline=None)
@given(window_ordered_samples(), st.sampled_from(["min", "max"]), st.sampled_from([1, 2, 7, 4096]))
def test_chunked_envelope_points_match_the_mask_loop(samples, mode, chunk):
    x, y = samples
    want = mask_envelope_points(x, y, mode)
    old = fitting.REDUCE_CHUNK
    fitting.REDUCE_CHUNK = chunk
    # the same samples, each position followed by one that the reader drops
    padded_x, padded_y = np.repeat(x, 2), np.repeat(y, 2)

    def filtered(a, b):
        keep = np.arange(a, b) % 2 == 0
        return padded_x[a:b][keep], padded_y[a:b][keep]

    try:
        arrays = envelope_points(sliced(x, y), len(x), mode)
        dropped = envelope_points(filtered, 2 * len(x), mode)
    finally:
        fitting.REDUCE_CHUNK = old
    for got in (arrays, dropped):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_a_tie_across_a_chunk_edge_keeps_its_first_sample(mode, monkeypatch):
    # one bin of 12 samples over chunks of 7: the extreme y = 0 sits at
    # positions 5 and 9, and the first one, x = 0.05, is kept
    monkeypatch.setattr(fitting, "REDUCE_CHUNK", 7)
    x = np.concatenate([np.arange(12) / 100, [1.0, 2.0, 3.0]])
    y = np.full(15, 5.0 if mode == "min" else -5.0)
    y[[5, 9]] = 0.0
    xs, ys = envelope_points(sliced(x, y), len(x), mode)
    assert xs[0] == 0.05 and ys[0] == 0.0


def test_a_filter_that_leaves_no_sample_is_no_envelope():
    # the bound fit reads only the positive values
    with pytest.raises(WindowTooSmallError, match="no samples"):
        envelope_bound(np.arange(5.0), np.zeros(5), "max", WindowTooSmallError)


def test_the_reductions_stay_under_30_bytes_per_character():
    # 24 bytes are kept (the int32 xi and eta, lambda, gain); the window is
    # built band by band and every pass runs chunk by chunk, so the full-length
    # buffers of the earlier layouts (50 bytes, 98 for the square) are gone
    symbol = build_symbol(torus_translation(parse_real("(1+1*sqrt(5))/2")))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        table = gain_table(symbol, 1e5)
        verdict(table)
        estimate_order(table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(table) == 314197
    assert peak / len(table) < 30


def test_the_gains_csv_writer_stays_within_4_megabytes_at_1e5(tmp_path):
    table = gain_table(build_symbol(torus_translation(parse_real("(1+1*sqrt(5))/2"))), 1e5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cli._write_gains_csv(str(tmp_path / "gains.csv"), table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# ---------------------------------------------------------------------------
# the memory budget


@pytest.fixture
def one_megabyte(monkeypatch):
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 10**6)

    def refuse(*args):
        raise AssertionError("enumerated a window beyond the budget")

    return refuse


@pytest.mark.parametrize("model, cutoff", [(TORUS2, 1e4), (SU2, 1e11)])
def test_window_beyond_physical_memory_is_refused_before_enumerating(
        model, cutoff, one_megabyte, monkeypatch):
    # pi (100 + 1)^2 * 24 bytes and (2 * 316228 + 1) * 40 bytes exceed half a megabyte
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 5 * 10**5)
    monkeypatch.setattr(spectral, "torus_lattice", one_megabyte)
    monkeypatch.setattr(spectral, "su2_levels", one_megabyte)
    with pytest.raises(PreconditionError, match=f"cutoff {cutoff!r} is too large to enumerate"):
        Window(model, cutoff)


@pytest.mark.parametrize("pages, size", [(-1, 4096), (2**20, -1), (0, 4096)])
def test_an_indeterminate_physical_memory_sets_no_budget(pages, size, monkeypatch):
    # sysconf answers -1 where the system does not know the figure
    figures = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": size}
    monkeypatch.setattr(spectral.os, "sysconf", figures.__getitem__)
    monkeypatch.setattr(spectral, "_PROC_CGROUP", "/nonexistent/cgroup")  # no cgroup limit
    assert spectral._physical_memory() == float("inf")
    assert len(Window(TORUS2, 0)) == 1


@pytest.mark.parametrize("model, cutoff", [(TORUS2, 900), (SU2, 1e8)])
def test_window_within_the_budget_is_enumerated(model, cutoff, one_megabyte):
    # pi (30 + 1)^2 * 24 bytes and (2 * 10^4 + 1) * 40 bytes fit in 1 MB
    assert len(Window(model, cutoff)) > 0


def test_cli_exits_3_on_a_window_beyond_physical_memory(one_megabyte, capsys):
    spec = {"model": {"kind": "torus2"},
            "operator": {"kind": "torus_poly", "terms": [{"coeff": [1, 0], "deg_t": 1}]}}
    assert cli.main(["analyze", "--spec", json.dumps(spec), "--cutoff", "2e4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "the window of cutoff 20000.0 is too large to enumerate",
                   "kind": "PreconditionError"}


def _cgroups(tmp_path, monkeypatch, lines, files) -> None:
    """A fake cgroup tree: ``lines`` as this process's cgroup file, and each
    of ``files`` (a path below the cgroup root: its text) written there."""
    (tmp_path / "cgroup").write_text("".join(f"{line}\n" for line in lines))
    for name, text in files.items():
        (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / name).write_text(text)
    monkeypatch.setattr(spectral, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(spectral, "_CGROUP_ROOT", str(tmp_path / "fs"))


@pytest.mark.parametrize("lines, files, limit", [
    (["0::/user.slice/job"], {"user.slice/job/memory.max": "1048576\n"}, 2**20),
    (["0::/user.slice/job"], {"user.slice/job/memory.max": "max\n"}, float("inf")),
    (["0::/"], {"memory.max": "3000000\n"}, 3 * 10**6),
    # a v1 controller other than memory names no limit, though a memory file is at its path
    (["4:memory:/job", "3:cpu,cpuacct:/other"], {"memory/job/memory.limit_in_bytes": "2097152\n",
                                                  "memory/other/memory.limit_in_bytes": "5\n"},
     2 * 2**20),
    (["4:cpu,memory:/job"], {"memory/job/memory.limit_in_bytes": "4096\n"}, 4096),
    # the kernel's unlimited v1 value, rounded down to a page
    (["4:memory:/job"], {"memory/job/memory.limit_in_bytes": "9223372036854771712\n"},
     float("inf")),
    # a hybrid host: both hierarchies name a limit, and the lower one holds
    (["4:memory:/job", "0::/job"], {"memory/job/memory.limit_in_bytes": "8000000\n",
                                    "job/memory.max": "7000000\n"}, 7 * 10**6),
    (["0::/job", "4:memory:/job"], {"memory/job/memory.limit_in_bytes": "8000000\n",
                                    "job/memory.max": "7500000\n"}, 7500000),
    (["0::/job"], {}, float("inf")),  # no memory.max: the root cgroup, or v1 only
    (["4:memory:/job"], {"memory/job/memory.limit_in_bytes": "\n"}, float("inf")),
    (["garbage", "4:memory", "4:memory:job", "0::/job"], {"job/memory.max": "123456\n"}, 123456),
    ([], {}, float("inf")),
])
def test_the_cgroup_memory_limit_is_read_from_a_cgroup_tree(lines, files, limit, tmp_path,
                                                             monkeypatch):
    _cgroups(tmp_path, monkeypatch, lines, files)
    assert spectral._cgroup_memory_limit() == limit


def test_an_unreadable_cgroup_file_sets_no_limit(monkeypatch):
    monkeypatch.setattr(spectral, "_PROC_CGROUP", "/nonexistent/cgroup")
    assert spectral._cgroup_memory_limit() == float("inf")


@pytest.mark.parametrize("limit, budget", [(10**6, 10**6), (2**40, 2**32)])
def test_the_budget_is_the_lower_of_host_memory_and_the_cgroup_limit(limit, budget, tmp_path,
                                                                     monkeypatch):
    figures = {"SC_PHYS_PAGES": 2**20, "SC_PAGE_SIZE": 4096}  # 4 GiB of host memory
    monkeypatch.setattr(spectral.os, "sysconf", figures.__getitem__)
    _cgroups(tmp_path, monkeypatch, ["0::/job"], {"job/memory.max": f"{limit}\n"})
    assert spectral._physical_memory() == budget


def test_window_beyond_the_cgroup_limit_is_refused_before_enumerating(tmp_path, monkeypatch):
    # the host's memory, capped by a fake cgroup of half a megabyte
    _cgroups(tmp_path, monkeypatch, ["0::/job"], {"job/memory.max": "500000\n"})

    def refuse(*args):
        raise AssertionError("enumerated a window beyond the budget")

    monkeypatch.setattr(spectral, "torus_lattice", refuse)
    with pytest.raises(PreconditionError, match="cutoff 10000.0 is too large to enumerate"):
        Window(TORUS2, 1e4)
