from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    SU2,
    TORUS2,
    FrequencyIndex,
    Su2Label,
    Torus2Label,
    Window,
    enumerate_frequencies,
    frequency_for_label,
)
from hyposym.errors import PreconditionError

from oracles import brute_su2_levels, brute_torus_points, lattice_frequency_for_label


def test_torus_cutoff_one():
    freqs = enumerate_frequencies(TORUS2, 1)
    labels = {(f.label.xi, f.label.eta) for f in freqs}
    assert labels == {(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)}
    assert sorted(f.lam for f in freqs) == [0, 1, 1, 1, 1]


def test_torus_cutoff_two_matches_brute_force():
    freqs = enumerate_frequencies(TORUS2, 2)
    assert len(freqs) == 9
    assert {(f.label.xi, f.label.eta) for f in freqs} == brute_torus_points(2)


def test_su2_cutoff_two():
    freqs = enumerate_frequencies(SU2, 2)
    assert [f.label.twice_ell for f in freqs] == [0, 1, 2]
    assert [f.lam for f in freqs] == [0.0, 0.75, 2.0]
    assert [f.dim for f in freqs] == [1, 4, 9]


@pytest.mark.parametrize("cutoff", [0, 1, 5, 10, 26, 50, 101])
def test_torus_enumeration_exhaustive(cutoff):
    freqs = enumerate_frequencies(TORUS2, cutoff)
    assert {(f.label.xi, f.label.eta) for f in freqs} == brute_torus_points(cutoff)
    assert len({f.label for f in freqs}) == len(freqs)


def test_ordering_and_determinism():
    a = enumerate_frequencies(TORUS2, 40)
    b = enumerate_frequencies(TORUS2, 40)
    assert a == b
    lams = [f.lam for f in a]
    assert lams == sorted(lams)
    for prev, cur in zip(a, a[1:]):
        if prev.lam == cur.lam:
            assert (prev.label.xi, prev.label.eta) < (cur.label.xi, cur.label.eta)
    assert [f.j for f in a] == list(range(len(a)))


def test_ordinals_stable_across_cutoffs():
    small = enumerate_frequencies(TORUS2, 10)
    large = enumerate_frequencies(TORUS2, 40)
    assert large[: len(small)] == small


def test_zero_eigenvalue_only_at_origin():
    for model, cutoff in ((TORUS2, 30), (SU2, 30)):
        freqs = enumerate_frequencies(model, cutoff)
        assert freqs[0].lam == 0.0 and freqs[0].j == 0
        assert all(f.lam > 0 for f in freqs[1:])


def test_negative_cutoff_rejected():
    with pytest.raises(PreconditionError):
        enumerate_frequencies(TORUS2, -1)


@pytest.mark.parametrize("model", [TORUS2, SU2], ids=["model0", "model1"])
def test_partial_sums_bounded(model):
    # sum of d_j (1+lambda_j)^{-2n} for n = 2: nondecreasing and plateauing
    freqs = enumerate_frequencies(model, 900)
    partial = 0.0
    values = []
    for f in freqs:
        partial += f.dim * (1 + f.lam) ** -4.0
        values.append(partial)
    assert values == sorted(values)
    tail = values[-1] - values[len(values) // 2]
    assert tail < 1e-4
    assert values[-1] < 10.0


def test_su2_exact_eigenvalue_and_dims():
    lab = Su2Label(5)  # l = 5/2
    assert lab.eigenvalue() == Fraction(5 * 7, 4)
    assert lab.rep_dim() == 6
    assert frequency_for_label(lab).dim == 36


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_torus_count_matches_disk(cutoff):
    assert len(enumerate_frequencies(TORUS2, cutoff)) == len(brute_torus_points(cutoff))


# ---------------------------------------------------------------------------
# the window arrays


# 25 = 5^2 + 0^2 = 3^2 + 4^2 and 3.75 = l(l+1) at l = 3/2 sit on the cutoff
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3.75, 6, 25, 30.5, 101])
def test_torus_window_matches_brute_force(cutoff):
    window = Window(TORUS2, cutoff)
    xi, eta = window.labels
    points = list(zip(xi.tolist(), eta.tolist()))
    assert len(window) == len(points) == len(brute_torus_points(cutoff))
    assert set(points) == brute_torus_points(cutoff)
    exact = [x * x + e * e for x, e in points]
    assert window.lam.dtype == float and window.lam.tolist() == [float(v) for v in exact]
    assert sorted(zip(exact, points)) == list(zip(exact, points))
    assert window.sizes.tolist() == [1] * len(window)
    assert window.label(len(window) - 1) == Torus2Label(*points[-1])


@pytest.mark.parametrize("cutoff", [0, 0.5, 0.75, 1, 2, 3.75, 6, 30.5, 2550])
def test_su2_window_matches_brute_levels(cutoff):
    window = Window(SU2, cutoff)
    levels = brute_su2_levels(cutoff)
    assert window.labels[0].tolist() == levels
    assert window.sizes.tolist() == [t + 1 for t in levels]
    # the float eigenvalue keeps the bits of the exact one, half-integers included
    assert window.lam.tolist() == [float(Su2Label(t).eigenvalue()) for t in levels]
    assert window.label(len(window) - 1) == Su2Label(levels[-1])


@pytest.mark.parametrize("model", [TORUS2, SU2], ids=["model0", "model1"])
@pytest.mark.parametrize("cutoff", [0, 2, 3.75, 25, 60])
def test_window_frequencies_are_the_enumeration(model, cutoff):
    window = Window(model, cutoff)
    freqs = list(window)
    assert freqs == enumerate_frequencies(model, cutoff)
    assert all(isinstance(f, FrequencyIndex) for f in freqs)
    for i, f in enumerate(freqs):
        assert f == window.freq(i) == window.freq(np.int64(i))
        assert (f.j, f.lam, f.dim, f.label) == (i, float(f.label.eigenvalue()),
                                                f.label.rep_dim() ** 2, window.label(i))
        assert type(f.j) is int and type(f.lam) is float


def test_window_rejects_negative_cutoff():
    for model in (TORUS2, SU2):
        with pytest.raises(PreconditionError):
            Window(model, -0.5)


def test_frequency_for_label_counts_the_window_ordinals():
    # every character up to 2000: zero and negative coordinates, and the
    # shells 325, 425 and 1105, which have 24, 24 and 32 representations
    window = Window(TORUS2, 2000)
    shells = {325: 0, 425: 0, 1105: 0}
    for i in range(len(window)):
        freq = window.freq(i)
        assert frequency_for_label(freq.label) == freq
        if freq.label.eigenvalue() in shells:
            shells[freq.label.eigenvalue()] += 1
    assert shells == {325: 24, 425: 24, 1105: 32}


@settings(max_examples=60, deadline=None)
@given(st.integers(-400, 400), st.integers(-400, 400))
def test_frequency_for_label_equals_the_lattice_oracle(xi, eta):
    label = Torus2Label(xi, eta)
    assert frequency_for_label(label) == lattice_frequency_for_label(label)


def test_frequency_for_label_rejects_non_lattice_labels():
    with pytest.raises(PreconditionError, match="not enumerable"):
        frequency_for_label(Torus2Label(1.5, 0))
    assert frequency_for_label(Torus2Label(np.int64(-3), np.int64(4))).j == (
        lattice_frequency_for_label(Torus2Label(-3, 4)).j)
