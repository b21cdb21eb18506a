import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hyposym import (
    SU2,
    TORUS2,
    CoefficientField,
    MatrixTable,
    Su2Label,
    Torus2Label,
    Window,
    best_alpha_constant,
    build_counterexample,
    build_symbol,
    check_alpha,
    check_beta,
    enumerate_frequencies,
    extremal_field,
    frequency_for_label,
    kernel_on_truncation,
    random_field,
)
from hyposym.errors import PreconditionError
from hyposym.subelliptic import KERNEL_TOL
from hyposym.subelliptic import check_probe
from hyposym.symbols import Coefficient, Su2DiagPoly, TorusPoly

from conftest import constant_one, torus_translation
from oracles import (
    fresh_window_random_field,
    full_matrix,
    labelled_extremal_field,
    nullity,
    per_block_window_pass,
    per_call_check_alpha,
    per_call_check_beta,
    per_frequency_constant,
    support_labels,
    unscreened_counterexample,
)


# ---------------------------------------------------------------------------
# truncated kernels


def test_kernel_torus_antidiagonal(torus_resonant_symbol):
    kernel = kernel_on_truncation(torus_resonant_symbol, 50)
    # (t, -t) with 2 t^2 <= 50 plus the origin: t = -5..5
    assert kernel.total_dim == 11
    assert kernel.boundary_singular  # lambda = 50 sits at the window edge


def test_kernel_su2_gap_only_origin(su2_gap_symbol):
    kernel = kernel_on_truncation(su2_gap_symbol, 10 * 11)
    assert kernel.total_dim == 1
    assert set(kernel.blocks) == {Su2Label(0)}
    assert not kernel.boundary_singular


def test_kernel_identity_empty():
    kernel = kernel_on_truncation(build_symbol(constant_one(TORUS2)), 100)
    assert kernel.total_dim == 0


def test_kernel_counts_zero_singular_values(su2_pell_symbol):
    # total_dim equals the zero singular values of the full matrices
    cutoff = 10 * 11
    kernel = kernel_on_truncation(su2_pell_symbol, cutoff)
    direct = 0
    for freq in enumerate_frequencies(SU2, cutoff):
        svals = np.linalg.svd(full_matrix(su2_pell_symbol, freq), compute_uv=False)
        direct += int(np.sum(svals <= 1e-12 * max(1.0, svals[0])))
    assert kernel.total_dim == direct
    # l = 1 block has two vanishing weights replicated across three chunks
    assert nullity(kernel, Su2Label(2)) == 6


def test_kernel_projection_removes_kernel_component(su2_pell_symbol):
    kernel = kernel_on_truncation(su2_pell_symbol, 30)
    freq = frequency_for_label(Su2Label(2))
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    proj = kernel.project_out(freq, vec)
    # the image under the symbol is unchanged, and projecting twice is stable
    assert np.allclose(
        su2_pell_symbol.apply_to_vectors([freq], [proj])[0],
        su2_pell_symbol.apply_to_vectors([freq], [vec])[0],
        atol=1e-12,
    )
    assert np.allclose(kernel.project_out(freq, proj), proj, atol=1e-12)
    diag = su2_pell_symbol.diagonal(freq)
    zero_cols = np.flatnonzero(np.abs(diag) <= 1e-12)
    chunks = proj.reshape(3, 3)
    assert np.allclose(chunks[:, zero_cols], 0, atol=1e-12)


# ---------------------------------------------------------------------------
# per-frequency constants


def test_kernel_orthogonality_is_weight_independent(su2_pell_symbol):
    # the Sobolev weight is one scalar per frequency, so orthogonality to the
    # kernel in the s-weighted inner product coincides with the Euclidean one
    kernel = kernel_on_truncation(su2_pell_symbol, 30)
    freq = frequency_for_label(Su2Label(2))
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    proj = kernel.project_out(freq, vec)
    basis = kernel.blocks[Su2Label(2)]
    chunks = proj.reshape(3, 3)
    for s in (-2.0, 0.0, 1.5):
        weight = (1 + freq.lam) ** (2 * s / 2)
        inner = weight * (chunks @ basis.conj())
        assert np.allclose(inner, 0, atol=1e-12)


def test_per_frequency_constant_diagonal_cases(su2_gap_symbol, su2_pell_symbol):
    assert per_frequency_constant(
        su2_gap_symbol, frequency_for_label(Su2Label(2))
    ) == pytest.approx(1.0, abs=1e-14)
    assert per_frequency_constant(
        su2_pell_symbol, frequency_for_label(Su2Label(4))
    ) == pytest.approx(2.0, abs=1e-14)


def test_per_frequency_constant_table_block():
    table = MatrixTable("su2", {Su2Label(2): np.diag([0.0, 2.0, 5.0])})
    sym = build_symbol(table)
    assert per_frequency_constant(
        sym, frequency_for_label(Su2Label(2))
    ) == pytest.approx(2.0, abs=1e-12)


def test_per_frequency_constant_all_kernel_block(torus_resonant_symbol):
    freq = frequency_for_label(Torus2Label(1, -1))
    assert per_frequency_constant(torus_resonant_symbol, freq) == float("inf")


# ---------------------------------------------------------------------------
# optimal constants


def test_best_alpha_su2_gap_is_inverse_sqrt_seven(su2_gap_symbol):
    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, 50 * 51)
    assert report.c_star == pytest.approx(1 / math.sqrt(7), rel=1e-12)
    assert report.witness.label == Su2Label(1)
    assert report.kernel_dim == 1
    assert report.k1 == pytest.approx(1.0, rel=1e-12)
    assert report.k_star == pytest.approx(math.sqrt(7), rel=1e-12)


def test_best_alpha_independent_of_s(su2_gap_symbol):
    values = [
        best_alpha_constant(su2_gap_symbol, s, 1.0, 50 * 51).c_star
        for s in (-1.0, 0.0, 2.0)
    ]
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_best_alpha_identity():
    report = best_alpha_constant(build_symbol(constant_one(SU2)), 0.0, 0.0, 30)
    assert report.c_star == pytest.approx(1.0, rel=1e-12)
    assert report.k_star == pytest.approx(1.0, rel=1e-12)


def test_best_alpha_torus_imaginary_coefficient():
    sym = build_symbol(torus_translation(Coefficient.make(0, 1)))
    report = best_alpha_constant(sym, 0.0, 0.0, 900)
    assert report.c_star == pytest.approx(1.0, rel=1e-12)
    assert report.witness.lam == 1.0


def test_best_alpha_rejects_all_kernel():
    zero = TorusPoly.make([(Coefficient.make(0), 1, 0)])
    with pytest.raises(PreconditionError):
        best_alpha_constant(build_symbol(zero), 0.0, 1.0, 40)


def test_witness_achieves_c_star(su2_gap_symbol):
    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, 50 * 51)
    witness = extremal_field(report, su2_gap_symbol)
    chk = check_alpha(su2_gap_symbol, witness, 0.0, 1.0, report.c_star, report.kernel)
    assert chk.passed and not chk.vacuous
    assert chk.ratio == pytest.approx(report.c_star, rel=1e-9)
    # the inflated constant must fail on the witness
    inflated = check_alpha(
        su2_gap_symbol, witness, 0.0, 1.0, report.c_star * (1 + 1e-6), report.kernel
    )
    assert not inflated.passed


def test_alpha_never_fails_below_c_star(su2_gap_symbol):
    cutoff = 20 * 21
    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, cutoff)
    kernel = kernel_on_truncation(su2_gap_symbol, cutoff)
    window = Window(SU2, cutoff)
    rng = np.random.default_rng(7)
    for _ in range(50):
        probe = random_field(window, rng)
        chk = check_alpha(su2_gap_symbol, probe, 0.0, 1.0, report.c_star, kernel=kernel)
        assert chk.passed


def test_alpha_kernel_vector_is_vacuous(torus_resonant_symbol):
    f = CoefficientField.from_dict({Torus2Label(1, -1): [1.0]})
    chk = check_alpha(torus_resonant_symbol, f, 0.0, 1.0, 0.5,
                      kernel_on_truncation(torus_resonant_symbol, 50))
    assert chk.passed and chk.vacuous


def test_alpha_numerical_kernel_vector_is_vacuous():
    # a dense table block with a genuine null direction: the SVD basis only
    # zeroes it to roundoff, which must still count as vacuous
    entries = {Su2Label(t): np.eye(t + 1, dtype=complex) for t in range(6)}
    entries[Su2Label(1)] = np.array([[1.0, 1.0j], [-1.0j, 1.0]])  # rank 1
    sym = build_symbol(MatrixTable("su2", entries))
    null_vec = np.array([1.0, 1.0j, 0, 0]) / math.sqrt(2)  # kernel of the block
    f = CoefficientField.from_dict({Su2Label(1): null_vec})
    chk = check_alpha(sym, f, 0.0, 1.0, 0.5, kernel_on_truncation(sym, 8))
    assert chk.passed and chk.vacuous


def test_beta_kernel_supported_needs_bracket_power(torus_resonant_symbol):
    # kernel frequencies force ||f||_{s+m} / ||f||_s = (1+lambda)^{m/nu}
    f = CoefficientField.from_dict({Torus2Label(5, -5): [1.0]})  # lambda 50
    needed = (1 + 50) ** 0.5
    ok = check_beta(torus_resonant_symbol, f, 0.0, 1.0, needed, 50)
    assert ok.passed
    assert ok.achieved_k == pytest.approx(needed, rel=1e-12)
    tight = check_beta(
        torus_resonant_symbol, f, 0.0, 1.0, needed * (1 - 1e-6), 50
    )
    assert not tight.passed


def test_beta_identity_with_unit_constant():
    window = Window(SU2, 30)
    rng = np.random.default_rng(3)
    for _ in range(20):
        probe = random_field(window, rng)
        chk = check_beta(build_symbol(constant_one(SU2)), probe, 0.0, 0.0, 1.0, 30)
        assert chk.passed


def test_beta_su2_gap_sufficient_constant(su2_gap_symbol):
    cutoff = 20 * 21
    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, cutoff)
    k = max(report.k1, 1.0 / report.c_star)
    window = Window(SU2, cutoff)
    rng = np.random.default_rng(11)
    for _ in range(50):
        probe = random_field(window, rng)
        chk = check_beta(su2_gap_symbol, probe, 0.0, 1.0, k, cutoff)
        assert chk.passed


# ---------------------------------------------------------------------------
# one window pass: the report's kernel and C*


def _dense_table(max_twice_ell, seed, planted=()):
    """Random complex blocks; each level in ``planted`` gets one zero singular value."""
    rng = np.random.default_rng(seed)
    entries = {}
    for t in range(max_twice_ell + 1):
        block = rng.standard_normal((t + 1, t + 1)) + 1j * rng.standard_normal((t + 1, t + 1))
        if t in planted:
            u, svals, vh = np.linalg.svd(block)
            svals[-1] = 0.0
            block = (u * svals) @ vh
        entries[Su2Label(t)] = block
    return MatrixTable("su2", entries)


@pytest.mark.parametrize("case", ["torus_resonant", "su2_pell", "dense_planted"])
def test_report_kernel_equals_kernel_on_truncation(case, torus_resonant_symbol,
                                                   su2_pell_symbol):
    symbol, cutoff = {
        "torus_resonant": (torus_resonant_symbol, 50),
        "su2_pell": (su2_pell_symbol, 60 * 61),
        "dense_planted": (build_symbol(_dense_table(9, 5, planted=(4,))), 9 * 11 / 4),
    }[case]
    report = best_alpha_constant(symbol, 0.0, 1.0, cutoff)
    kernel = kernel_on_truncation(symbol, cutoff)
    assert report.kernel.total_dim == kernel.total_dim > 0
    assert report.kernel.boundary_singular == kernel.boundary_singular
    assert list(report.kernel.blocks) == list(kernel.blocks)
    for label, basis in kernel.blocks.items():
        assert np.array_equal(report.kernel.blocks[label], basis)
    assert report.kernel_dim == kernel.total_dim
    if case == "dense_planted":
        assert set(kernel.blocks) == {Su2Label(4)}
        assert kernel.total_dim == 5  # one null direction in each of 5 chunks
    assert "kernel" not in report.as_dict()


def test_dense_c_star_is_values_only_svd_bit_for_bit():
    # a full SVD (compute_uv=True) rounds the singular values differently in
    # the last bits; C* must be the values-only minimum, exactly
    table = _dense_table(20, 7)
    report = best_alpha_constant(build_symbol(table), 0.0, 1.0, 20 * 22 / 4)
    candidates = [
        (float(np.linalg.svd(block, compute_uv=False)[-1])
         * (1.0 + float(label.eigenvalue())) ** (-1.0 / 2.0), label)
        for label, block in table.entries.items()
    ]
    c_star, label = min(candidates, key=lambda c: c[0])
    assert report.c_star == c_star
    assert report.witness.label == label
    assert report.witness_index == label.rep_dim() - 1


def test_witness_entry_on_tied_values(su2_gap_symbol):
    # a diagonal block reports the first minimal entry: l(l+1) - m^2 ties at
    # m = -1/2 and m = 1/2
    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, 50 * 51)
    assert report.witness_index == 0
    # a dense block reports the last of equal singular values
    entries = {Su2Label(t): (10.0 - t) * np.eye(t + 1) for t in range(5)}
    report = best_alpha_constant(build_symbol(MatrixTable("su2", entries)), 0.0, 0.0, 6)
    assert (report.witness.label, report.witness_index, report.c_star) == (Su2Label(4), 4, 6.0)


def test_a_diagonal_table_with_ties_takes_the_last_tied_column():
    # diagonal blocks written as a dense table, their |entries| tied, and in
    # every third block the two least tied at 1e-9: the witness entry is the
    # last of the tied singular values, and the witness and counterexample
    # vectors are the SVD's, as the oracles build them
    rng = np.random.default_rng(4)
    entries = {}
    for t in range(9):
        size = rng.integers(2, 5, t + 1).astype(float)
        size[[0, -1]] = 1e-9 if t % 3 == 2 else 1.0
        entries[Su2Label(t)] = np.diag(size * 1j ** rng.integers(0, 4, t + 1))
    symbol = build_symbol(MatrixTable("su2", entries))
    report = best_alpha_constant(symbol, 0.0, 1.0, 8 * 10 / 4)
    values = symbol.values(report.witness)
    assert report.witness.label == Su2Label(8)
    assert values[-2] == values[-1] == 1e-9 != values[-3]
    assert report.witness_index == 8
    got, want = extremal_field(report, symbol), labelled_extremal_field(report, symbol)
    assert _field_bits(got, 20) == _field_bits(want, 20)
    got, want = build_counterexample(symbol, 3, 20), unscreened_counterexample(symbol, 3, 20)
    assert [f.label for f in got.frequencies] == [Su2Label(t) for t in (2, 5, 8)]
    assert _field_bits(got.field, 20) == _field_bits(want.field, 20)
    assert _field_bits(got.image, 20) == _field_bits(want.image, 20)


def test_kernel_pass_takes_identity_columns_only(su2_pell_symbol):
    # entries l(l+1) - 2 m^2 at 2.9e6: the kernel level l = 1681 has 3363
    # entries, whose identity would take 173 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        kernel = kernel_on_truncation(su2_pell_symbol, 2.9e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert Su2Label(2 * 1681) in kernel.blocks
    blocks, _ = per_block_window_pass(su2_pell_symbol, 2.9e6, 0.0)
    assert list(kernel.blocks) == list(blocks)
    for lab, basis in blocks.items():
        assert kernel.blocks[lab].tobytes() == basis.tobytes()
    assert kernel.total_dim == sum(b.shape[1] * lab.rep_dim() for lab, b in blocks.items())


@pytest.mark.parametrize("chunk", [5, None])
@pytest.mark.parametrize("m", [1.0, 0.0, -0.5])
@pytest.mark.parametrize("case", ["torus_resonant", "su2_pell", "dense_planted",
                                  "tied_diagonal", "tied_dense", "identity", "screen_handover"])
def test_window_pass_matches_per_frequency_reference(case, m, chunk, monkeypatch,
                                                     torus_resonant_symbol, su2_pell_symbol,
                                                     su2_gap_symbol):
    import hyposym.symbols
    from hyposym.subelliptic import _window_pass

    if chunk is not None:
        # many chunks per window, and SU(2) blocks larger than a chunk
        monkeypatch.setattr(hyposym.symbols, "BULK_CHUNK_ENTRIES", chunk)
    symbol, cutoff = {
        "torus_resonant": (torus_resonant_symbol, 50),
        "su2_pell": (su2_pell_symbol, 60 * 61),
        "dense_planted": (build_symbol(_dense_table(12, 5, planted=(4, 9))), 12 * 14 / 4),
        "tied_diagonal": (su2_gap_symbol, 30 * 31),
        "tied_dense": (build_symbol(MatrixTable("su2", {
            Su2Label(t): (3.0 if t % 3 else 0.0) * np.eye(t + 1) for t in range(9)})),
            8 * 10 / 4),
        # at m = 1, numpy's array power rounds 26 ** -0.5 differently
        "identity": (build_symbol(constant_one(TORUS2)), 25),
        # the SU(2) walk trusts levels 0..63 only; with chunks of 5 it hands
        # the rest of the window to block_values at level 64 of 200
        "screen_handover": (build_symbol(Su2DiagPoly.make([
            (Coefficient.make(2.0**990), 0, 1), (Coefficient.make(1), 2, 0)])), 1e4),
    }[case]
    blocks, (c_star, label, entry) = per_block_window_pass(symbol, cutoff, m)
    kernel, (got_c, got_freq, got_entry) = _window_pass(symbol, cutoff, KERNEL_TOL, m)
    assert (got_c, got_freq.label, got_entry) == (c_star, label, entry)
    assert got_freq == frequency_for_label(label)
    assert list(kernel.blocks) == list(blocks)
    for lab, basis in blocks.items():
        assert np.array_equal(kernel.blocks[lab], basis)
    assert kernel.total_dim == sum(
        nullity(kernel, lab) for lab in blocks) == sum(
        b.shape[1] * lab.rep_dim() for lab, b in blocks.items())


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("case, m", [
    ("torus_shells", 1.0), ("torus_shells", 0.0), ("torus_shells", -0.5),
    ("su2_gap", 1.0), ("su2_gap", 0.0), ("torus_overflow", -400.0), ("su2_overflow", -400.0)])
def test_c_star_weights_are_one_per_block(case, m, chunk, monkeypatch, su2_gap_symbol):
    # C* weights each distinct eigenvalue once and repeats the weight onto its
    # blocks: the same C*, witness and kernel as one weight per block, and
    # the same message where a weight overflows (from lambda = 34 for m = -400)
    import hyposym.symbols
    from hyposym.subelliptic import _window_pass

    if chunk is not None:
        # chunks that cut the torus shells of equal eigenvalue apart
        monkeypatch.setattr(hyposym.symbols, "BULK_CHUNK_ENTRIES", chunk)
    symbol, cutoff = {
        "torus_shells": (build_symbol(torus_translation(Fraction(3, 7))), 2000),
        "su2_gap": (su2_gap_symbol, 40 * 42 / 4),
        "torus_overflow": (build_symbol(torus_translation(Fraction(3, 7))), 50),
        "su2_overflow": (su2_gap_symbol, 50),
    }[case]

    def window_pass(symbol, cutoff, m):
        kernel, (c_star, freq, entry) = _window_pass(symbol, cutoff, KERNEL_TOL, m)
        return kernel.blocks, (c_star, freq.label, entry)

    def outcome(pass_):
        try:
            blocks, witness = pass_(symbol, cutoff, m)
        except PreconditionError as exc:
            return str(exc)
        return {lab: basis.tobytes() for lab, basis in blocks.items()}, witness

    want = outcome(per_block_window_pass)
    assert outcome(window_pass) == want
    if case.endswith("overflow"):
        lam = {"torus_overflow": "34.0", "su2_overflow": "35.75"}[case]
        assert want == f"weight (1 + {lam}) ** 200.0 overflows"
    else:
        assert want[0]  # the window has a kernel


@pytest.mark.parametrize("m", [0.0, -0.0])
@pytest.mark.parametrize("case", ["torus_resonant", "su2_gap"])
def test_window_pass_at_m_zero_builds_no_weight(case, m, monkeypatch, torus_resonant_symbol,
                                                su2_gap_symbol):
    # (1 + lam)^-0.0 is exactly 1.0, so C*, the witness and the kernel keep
    # their bits with no weight built
    import hyposym.subelliptic
    from hyposym.subelliptic import _window_pass

    symbol, cutoff = {"torus_resonant": (torus_resonant_symbol, 2000),
                      "su2_gap": (su2_gap_symbol, 40 * 42 / 4)}[case]
    blocks, witness = per_block_window_pass(symbol, cutoff, m)

    def no_weight(lam, exponent):
        raise AssertionError("a weight was built at m = 0")

    monkeypatch.setattr(hyposym.subelliptic, "bracket_power", no_weight)
    kernel, (c_star, freq, entry) = _window_pass(symbol, cutoff, KERNEL_TOL, m)
    assert (c_star, freq.label, entry) == witness
    assert {lab: b.tobytes() for lab, b in kernel.blocks.items()} == {
        lab: b.tobytes() for lab, b in blocks.items()}
    assert kernel_on_truncation(symbol, cutoff).blocks.keys() == blocks.keys()


PHI_SPEC = json.dumps({"model": {"kind": "torus2"}, "operator": {"kind": "torus_poly", "terms": [
    {"coeff": [1, 0], "deg_t": 1}, {"coeff_real": "(1+1*sqrt(5))/2", "deg_x": 1}]}})
GAP_SPEC = json.dumps({"model": {"kind": "su2"}, "operator": {"kind": "su2_diag", "poly": [
    {"coeff": [1, 0], "deg_d0": 0, "deg_neglap": 1},
    {"coeff": [1, 0], "deg_d0": 2, "deg_neglap": 0}]}})


def _counting(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_cli_subelliptic_enumerates_the_window_once(monkeypatch, capsys):
    import hyposym.spectral
    from hyposym import cli

    lattice = _counting(monkeypatch, hyposym.spectral, "torus_lattice")
    levels = _counting(monkeypatch, hyposym.spectral, "su2_levels")
    # the command's one window pass serves its probes too
    for spec, cutoff, probes, want in [(PHI_SPEC, "20000", "3", (1, 0)),
                                       (GAP_SPEC, "110", "5", (0, 1))]:
        code = cli.main(["subelliptic", "--spec", spec, "--cutoff", cutoff,
                         "--probes", probes, "--seed", "1"])
        assert code == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["probes"]["count"] == int(probes)
        assert (len(lattice), len(levels)) == want
        lattice.clear()
        levels.clear()


def test_cli_subelliptic_counts_no_ordinal(monkeypatch, capsys):
    import hyposym.spectral
    from hyposym import cli

    calls = _counting(monkeypatch, hyposym.spectral, "_torus_ordinal")
    code = cli.main(["subelliptic", "--spec", PHI_SPEC, "--cutoff", "20000",
                     "--probes", "3", "--seed", "5"])
    assert code == 0, capsys.readouterr().err
    assert calls == []  # the witness field reads the report's frequency
    probe = random_field(Window(TORUS2, 20000), np.random.default_rng(5), n_support=20)
    assert len(list(probe.window(20000))) == 20
    assert calls == []  # building and walking a probe counts nothing


def _field_bits(field, cutoff):
    """Each frequency of a walk, whole, and its vector's bits."""
    return [((f.j, f.lam, f.dim, f.label), vec.tobytes())
            for f, vec in field.window(cutoff)]


@pytest.mark.parametrize("model, cutoff, n_support", [(TORUS2, 400, 6), (TORUS2, 20000, 20),
                                                      (SU2, 110, 6), (SU2, 12, 30)])
@pytest.mark.parametrize("seed", [0, 1, 5, 2024])
def test_probes_from_one_window_equal_a_fresh_window_per_probe(model, cutoff, n_support, seed):
    window = Window(model, cutoff)
    drawn, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = random_field(window, drawn, n_support)
        want = fresh_window_random_field(model, cutoff, fresh, n_support)
        assert _field_bits(got, cutoff) == _field_bits(want, cutoff)
        assert len(support_labels(got)) == min(n_support, len(window))
    assert drawn.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("case", ["torus_phi", "su2_gap", "dense"])
def test_extremal_field_equals_the_field_of_the_counted_label(case, su2_gap_symbol):
    symbol, cutoff = {
        "torus_phi": (build_symbol(torus_translation(0.5 + 5**0.5 / 2)), 20000),
        "su2_gap": (su2_gap_symbol, 50 * 51),
        "dense": (build_symbol(_dense_table(20, 7)), 20 * 22 / 4),
    }[case]
    report = best_alpha_constant(symbol, 0.0, 1.0, cutoff)
    got = extremal_field(report, symbol)
    want = labelled_extremal_field(report, symbol)
    assert _field_bits(got, cutoff) == _field_bits(want, cutoff)
    assert [f for f, _ in got.window(cutoff)] == [report.witness]


# ---------------------------------------------------------------------------
# one walk per probe: check_alpha, check_beta and check_probe against the
# per-call checks


def _torus_table_with_zero_blocks(cutoff, seed):
    """Random complex 1x1 blocks: every fifth is zero, and every seventh of
    the others is nonzero below the kernel threshold."""
    window = Window(TORUS2, cutoff)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(len(window)) + 1j * rng.standard_normal(len(window))
    z[::7] *= 1e-15
    z[::5] = 0
    return MatrixTable("torus2", {window.label(i): [[z[i]]] for i in range(len(window))})


PROBE_CASES = {
    "phi": lambda: (build_symbol(torus_translation(0.5 + 5**0.5 / 2)), 20000, 1),
    "four_sevenths": lambda: (build_symbol(torus_translation(Fraction(4, 7))), 20000, 35),
    "gap": lambda: (build_symbol(Su2DiagPoly.make([
        (Coefficient.make(1), 0, 1), (Coefficient.make(1), 2, 0)])), 2550, 1),
    "conic": lambda: (build_symbol(Su2DiagPoly.make([
        (Coefficient.make(1), 0, 1), (Coefficient.make(3), 2, 0)])), 5000, 265),
    "torus_table": lambda: (build_symbol(_torus_table_with_zero_blocks(200, 11)), 200, None),
}
# (s, m): plain orders, weights that underflow to 0, a norm beyond float range
# at the gap's edge, weights that overflow, and an alpha numerator whose
# weights overflow while its denominator's do not
PROBE_ORDERS = [(0.0, 1.0), (-2.0, 0.5), (-1e300, 1.0), (89.0, 1.0), (1000.0, 1.0),
                (150.0, -149.0)]


def _probe_fields(report, symbol, seed):
    """The witness, random probes of 6 and of 40 frequencies, and fields on
    the kernel's frequencies, alone and beside the last frequencies off it."""
    window, blocks = report.kernel.window, report.kernel.blocks
    rng = np.random.default_rng(seed)
    fields = [extremal_field(report, symbol)]
    fields += [random_field(window, rng, n) for n in [6] * 8 + [40] * 4]
    on_kernel = [freq for freq in window if freq.label in blocks]
    off_kernel = [freq for freq in window if freq.label not in blocks][-3:]
    for freqs in (on_kernel, on_kernel + off_kernel):
        fields.append(CoefficientField({
            freq: rng.standard_normal(freq.dim) + 1j * rng.standard_normal(freq.dim)
            for freq in freqs}))
    return fields


def _outcome(checks):
    """The bits of the checks ``checks()`` returns, or its error, as text."""
    import dataclasses

    try:
        return repr([dataclasses.astuple(check) for check in checks()])
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_probe_checks_equal_the_per_call_checks(case):
    import dataclasses

    symbol, cutoff, kernel_dim = PROBE_CASES[case]()
    base = best_alpha_constant(symbol, 0.0, 1.0, cutoff)
    if kernel_dim is not None:
        assert base.kernel_dim == kernel_dim
    kernel = base.kernel
    kinds = set()
    for seed, (s, m) in enumerate(PROBE_ORDERS):
        report = dataclasses.replace(base, s=s, m=m)
        c, k = report.c_star, report.k_star
        for f in _probe_fields(base, symbol, seed):
            alpha = _outcome(lambda: [per_call_check_alpha(symbol, f, s, m, c, kernel)])
            beta = _outcome(lambda: [per_call_check_beta(symbol, f, s, m, k, cutoff)])
            assert _outcome(lambda: [check_alpha(symbol, f, s, m, c, kernel)]) == alpha
            assert _outcome(lambda: [check_beta(symbol, f, s, m, k, cutoff)]) == beta
            # the command's probe: alpha, then beta, and the first error of the two
            want = _outcome(lambda: (per_call_check_alpha(symbol, f, s, m, c, kernel),
                                     per_call_check_beta(symbol, f, s, m, k, cutoff)))
            assert _outcome(lambda: check_probe(symbol, f, report)) == want
            kinds.add(_kind(want, alpha))
    # every case meets results and errors; the SU(2) windows reach a norm
    # beyond float range, and the torus kernels fields that project to 0
    want_kinds = {"result", "underflows to 0", "weight overflows"}
    want_kinds |= {"norm overflows"} if case in ("gap", "conic") else {"vacuous"}
    if case in ("four_sevenths", "torus_table"):
        want_kinds.add("beta raises after a vacuous alpha")
    assert want_kinds <= kinds


def _kind(outcome, alpha):
    if not outcome.startswith("Precondition"):
        return "vacuous" if outcome.startswith("[(True, None, None, True") else "result"
    if alpha.startswith("[(True, None, None, True"):
        return "beta raises after a vacuous alpha"
    if outcome.endswith("underflows to 0"):
        return "underflows to 0"
    return "norm overflows" if "Sobolev norm" in outcome else "weight overflows"


def test_gap_probes_at_1e5_draw_in_place_and_hold_one_image_at_a_time(su2_gap_symbol):
    # the draws go straight into the field's arrays, with one float draw on
    # top, and the checks copy no vector and hold one image of P at a time
    import tracemalloc

    report = best_alpha_constant(su2_gap_symbol, 0.0, 1.0, 1e5)
    rng = np.random.default_rng(3)
    slack = 2**20
    tracemalloc.start()
    try:
        for _ in range(4):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            probe = random_field(report.kernel.window, rng)
            dims = [freq.dim for freq, _ in probe.window(1e5)]
            held, peak = (x - start for x in tracemalloc.get_traced_memory())
            assert 16 * sum(dims) <= held <= 16 * sum(dims) + slack
            assert peak <= 16 * sum(dims) + 8 * max(dims) + slack
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            check_probe(su2_gap_symbol, probe, report)
            assert tracemalloc.get_traced_memory()[1] - start <= 16 * max(dims) + slack
            assert 16 * sum(dims) > 16 * max(dims) + slack  # one copy of the probe fails
            del probe
    finally:
        tracemalloc.stop()


def test_an_image_that_underflows_to_zero_is_no_term():
    # 1e-300 d_x with tol 0: only eta = 0 is kernel, and P maps [1e-30] at
    # (0, 1) to an image that underflows to 0, which no norm may weigh
    symbol = build_symbol(TorusPoly.make([(Coefficient.make(1e-300), 0, 1)]))
    report = best_alpha_constant(symbol, 0.0, 1.0, 10, tol=0.0)
    f = CoefficientField.from_dict({Torus2Label(0, 1): [1e-30]})
    assert symbol.apply_to_vectors([frequency_for_label(Torus2Label(0, 1))], [[1e-30]])[0] == 0
    want = per_call_check_alpha(symbol, f, 2000.0, -2000.0, report.c_star, report.kernel)
    assert want.ratio == 0.0 and not want.passed
    assert check_alpha(symbol, f, 2000.0, -2000.0, report.c_star, report.kernel) == want
