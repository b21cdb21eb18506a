from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposym import (
    SU2,
    TORUS2,
    Su2Label,
    enumerate_frequencies,
)
from hyposym.errors import PreconditionError

from oracles import brute_torus_points


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


@pytest.mark.parametrize("model", [TORUS2, SU2])
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
    assert lab.block_dim() == 36


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_torus_count_matches_disk(cutoff):
    assert len(enumerate_frequencies(TORUS2, cutoff)) == len(brute_torus_points(cutoff))
