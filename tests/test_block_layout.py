"""One block layout on both models: a torus character is a 1x1
representation, so its vector is one chunk of one entry, and the chunked
formulas of ``iter_apply`` and ``project_out`` give the bits of the
1x1 formulas they replaced."""

from fractions import Fraction

import numpy as np
import pytest

from hyposym import SU2, TORUS2, Window, build_symbol, frequency_for_label, kernel_on_truncation
from hyposym.spectral import Su2Label, Torus2Label
from hyposym.symbols import MatrixTable

from conftest import torus_translation
from oracles import one_by_one_apply, one_by_one_project_out


def _dense_torus_table(cutoff, seed):
    """Random complex 1x1 blocks: every fifth is zero, and every seventh of
    the others is nonzero below the kernel threshold."""
    window = Window(TORUS2, cutoff)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(window)) + 1j * rng.standard_normal(len(window))
    z[::7] *= 1e-15
    z[::5] = 0
    return MatrixTable("torus2", {window.label(i): [[z[i]]] for i in range(len(window))})


@pytest.mark.parametrize("case", ["dense_table", "polynomial"])
def test_torus_blocks_give_the_bits_of_the_one_by_one_formulas(case):
    cutoff = 200
    symbol = build_symbol(_dense_torus_table(cutoff, 11) if case == "dense_table"
                          else torus_translation(Fraction(3, 7)))
    kernel = kernel_on_truncation(symbol, cutoff)
    freqs = list(Window(TORUS2, cutoff))
    assert 0 < len(kernel.blocks) < len(freqs)
    rng = np.random.default_rng(3)
    vecs = [rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in freqs]
    vecs[1] = np.array([-0.0 - 0.0j])
    got = list(symbol.iter_apply(freqs, vecs))
    for freq, v, w in zip(freqs, vecs, got):
        assert w.tobytes() == one_by_one_apply(symbol, freq, v).tobytes()
        projected = kernel.project_out(freq, v)
        assert projected.tobytes() == one_by_one_project_out(kernel, freq, v).tobytes()


@pytest.mark.parametrize("model, cutoff", [(TORUS2, 50), (SU2, 30)],
                         ids=["model0-50", "model1-30"])
def test_a_frequency_is_rep_dim_chunks_of_rep_dim_entries(model, cutoff):
    for freq in Window(model, cutoff):
        assert freq.dim == freq.label.rep_dim() ** 2
        assert frequency_for_label(freq.label).dim == freq.dim
    assert Torus2Label(3, -4).rep_dim() == 1
    assert Su2Label(5).rep_dim() == 6
