"""Independent oracles: brute-force and optimization routes that never touch
the library's own code paths for the quantity under test."""

import math
from fractions import Fraction
from math import isqrt

import numpy as np
from scipy.optimize import minimize


def operator_norm(matrix) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(np.atleast_2d(np.asarray(matrix, dtype=complex)),
                               compute_uv=False)[0])


def full_matrix(symbol, freq) -> np.ndarray:
    """The dim x dim matrix of a symbol at a frequency: the block replicated
    once per representation copy (one copy of a 1x1 block on the torus)."""
    return np.kron(np.eye(freq.label.rep_dim(), dtype=complex), symbol.block(freq))


def per_frequency_constant(symbol, freq, tol: float = 1e-12) -> float:
    """Smallest nonzero singular value of the block (the constant C_j in
    ||sigma(j) v|| >= C_j ||v|| off the kernel); +inf for an all-kernel block."""
    from hyposym.symbols import zero_mask

    values = symbol.values(freq)
    nz = values[~zero_mask(values, np.max(values), tol)]
    return float(np.min(nz)) if len(nz) else float("inf")


def nullity(kernel, label) -> int:
    """Dimension of a truncated kernel at one label: the block nullity times
    the number of representation copies."""
    basis = kernel.blocks.get(label)
    if basis is None:
        return 0
    return basis.shape[1] * (label.block_dim() // basis.shape[0])


def per_block_weights(lam, m: float) -> list:
    """The C* weights (1 + lam) ** (-m / nu), one ``bracket_power`` call per
    block: an overflow raises at the first block whose weight overflows."""
    from hyposym.spectral import NU, bracket_power

    return [bracket_power(x, -m / NU) for x in np.asarray(lam).tolist()]


def per_block_window_pass(symbol, cutoff, m, tol: float = 1e-12):
    """Kernel blocks and the C* witness (C*, label, entry) from a
    per-frequency loop, each block weighted by ``per_block_weights``."""
    from hyposym.spectral import Window

    window = Window(symbol.model, cutoff)
    weights = per_block_weights(window.lam, m)
    blocks, best = {}, None
    for freq, weight in zip(window, weights):
        diag = symbol.diagonal(freq)
        values = np.abs(diag) if diag is not None else np.linalg.svd(
            symbol.block(freq), compute_uv=False)
        zero = values <= tol * max(1.0, float(np.max(values)))
        if zero.any():
            if diag is not None:
                basis = np.eye(len(values), dtype=complex)[:, zero]
            else:
                basis = np.linalg.svd(symbol.block(freq))[2][-int(zero.sum()):].conj().T
            blocks[freq.label] = basis
        c = per_frequency_constant(symbol, freq, tol)
        if c == math.inf:
            continue
        cand = c * weight
        if best is None or cand < best[0]:
            hits = np.flatnonzero(values == c)
            best = (cand, freq.label, int(hits[0] if diag is not None else hits[-1]))
    return blocks, best


def support_labels(field) -> list:
    """The support of a coefficient field in canonical (eigenvalue, label) order."""
    return [freq.label for freq, _ in field.window(float("inf"))]


def one_by_one_apply(symbol, freq, v) -> np.ndarray:
    """A torus symbol applied to a 1-vector by the 1x1 formulas: the
    diagonal times the vector, or the dense block times it."""
    d = symbol.diagonal(freq)
    return d * v if d is not None else symbol.block(freq) @ v


def one_by_one_project_out(kernel, freq, vec) -> np.ndarray:
    """A 1-vector with its kernel component removed, by the 1x1 formula."""
    basis = kernel.blocks.get(freq.label)
    if basis is None:
        return vec
    return vec - basis @ (basis.conj().T @ vec)


def ordinals(table) -> np.ndarray:
    """The ordinals of a gain table's rows: row i has ordinal i."""
    return np.arange(len(table.window), dtype=np.int64)


def fresh_window_random_field(model, cutoff, rng, n_support: int = 6):
    """``coefficients.random_field`` drawing from a window it enumerates
    itself, once per probe: the same picks and Gaussian draws."""
    from hyposym.coefficients import CoefficientField
    from hyposym.spectral import Window

    window = Window(model, cutoff)
    picks = rng.choice(len(window), size=min(n_support, len(window)), replace=False)
    data = {}
    for i in sorted(int(p) for p in picks):
        f = window.freq(i)
        data[f] = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
    return CoefficientField(explicit=data)


def labelled_extremal_field(report, symbol):
    """``subelliptic.extremal_field`` with the witness frequency counted
    from its label by ``frequency_for_label``."""
    from hyposym.coefficients import CoefficientField
    from hyposym.spectral import frequency_for_label

    freq = frequency_for_label(report.witness.label)
    bdim = freq.label.rep_dim()
    if symbol.is_diagonal:
        block_vec = np.zeros(bdim, dtype=complex)
        block_vec[report.witness_index] = 1.0
    else:
        block_vec = np.linalg.svd(symbol.block(freq))[2][report.witness_index].conj()
    full = np.zeros(freq.dim, dtype=complex)
    full[:bdim] = block_vec
    return CoefficientField(explicit={freq: full})


def sphere_gain_oracle(matrix, restarts: int = 12, seed: int = 0) -> float:
    """Min of ||A v|| over unit vectors by multistart local descent on the
    real parametrization of the complex sphere (no SVD anywhere)."""
    a = np.asarray(matrix, dtype=complex)
    d = a.shape[0]
    rng = np.random.default_rng(seed)

    def f(x):
        v = x[:d] + 1j * x[d:]
        w = a @ v
        return np.vdot(w, w).real / np.dot(x, x)

    def grad(x):
        v = x[:d] + 1j * x[d:]
        nx2 = np.dot(x, x)
        w = a @ v
        q = np.vdot(w, w).real
        g = a.conj().T @ w
        gx = 2.0 * np.concatenate([g.real, g.imag]) / nx2
        return gx - 2.0 * q * x / nx2**2

    best = np.inf
    for _ in range(restarts):
        x0 = rng.standard_normal(2 * d)
        res = minimize(f, x0, jac=grad, method="L-BFGS-B",
                       options={"maxiter": 300, "ftol": 1e-18, "gtol": 1e-14})
        best = min(best, res.fun)
    return float(np.sqrt(max(best, 0.0)))


def brute_torus_points(lambda_cutoff) -> set[tuple[int, int]]:
    """All lattice points with xi^2 + eta^2 <= cutoff, by direct scan."""
    r = isqrt(int(lambda_cutoff)) + 1
    out = set()
    for xi in range(-r, r + 1):
        for eta in range(-r, r + 1):
            if xi * xi + eta * eta <= lambda_cutoff:
                out.add((xi, eta))
    return out


def square_torus_lattice(lambda_cutoff):
    """(xi, eta, lam) int64 arrays of the disk in (lam, xi, eta) order, cut
    from the whole (2r+1)^2 square of labels and sorted by a 3-key lexsort."""
    r = isqrt(int(lambda_cutoff))
    side = np.arange(-r, r + 1, dtype=np.int64)
    xi, eta = np.meshgrid(side, side, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    lam = xi * xi + eta * eta
    keep = lam <= lambda_cutoff
    xi, eta, lam = xi[keep], eta[keep], lam[keep]
    order = np.lexsort((eta, xi, lam))
    return xi[order], eta[order], lam[order]


def brute_su2_levels(lambda_cutoff) -> list[int]:
    """All twice_ell with l(l+1) <= cutoff, by exact scan from 0."""
    out = []
    t = 0
    while Fraction(t * (t + 2), 4) <= lambda_cutoff:
        out.append(t)
        t += 1
    return out


def brute_pell_solutions(d: int, u_max: int) -> list[tuple[int, int]]:
    """All (u, m), u <= u_max, with u^2 - d m^2 = 1, by scanning u."""
    out = []
    for u in range(2, u_max + 1):
        num = u * u - 1
        if num % d:
            continue
        m = isqrt(num // d)
        if m > 0 and d * m * m == num:
            out.append((u, m))
    return out


def brute_pell_su2_levels(twice_ell_max: int) -> list[int]:
    """Positive levels twice_ell with min over m of |l(l+1) - 2 m^2| = 0,
    by exhausting the weight lattice in exact integer arithmetic."""
    hits = []
    for t in range(1, twice_ell_max + 1):
        # l(l+1) - 2 m^2 = (t(t+2) - 2 s^2) / 4 with s = 2m, s = -t..t step 2
        if any(t * (t + 2) == 2 * s * s for s in range(-t, t + 1, 2)):
            hits.append(t)
    return hits


def brute_min_weighted_gain(c: float, radius: int, exponent: int):
    """Float brute force of min |xi + c eta| (1+|xi|+|eta|)^{-N}."""
    best = None
    for xi in range(-radius, radius + 1):
        for eta in range(-(radius - abs(xi)), radius - abs(xi) + 1):
            if xi == 0 and eta == 0:
                continue
            obj = abs(xi + c * eta) * (1 + abs(xi) + abs(eta)) ** (-exponent)
            if best is None or obj < best[0] - 1e-15:
                best = (obj, (xi, eta))
    return best


def best_rational_below(c_exact, q_max: int):
    """The best approximation error per denominator, exactly:
    min over q <= q_max, p of |c - p/q| (c a Fraction or Surd)."""
    best = None
    for q in range(1, q_max + 1):
        p = round(float(c_exact) * q)
        for pp in (p - 1, p, p + 1):
            err = abs(c_exact - Fraction(pp, q))
            if best is None or err < best:
                best = err
    return best


# powers of i as exact (re, im) pairs
_I_POW = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
          (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def rational_parts(coeff):
    """A coefficient's (re, im) when both parts are Fractions, else None."""
    if isinstance(coeff.re, Fraction) and isinstance(coeff.im, Fraction):
        return coeff.re, coeff.im
    return None


def fraction_torus_value(op, xi: int, eta: int):
    """Exact (re, im) Fractions of sum c (i xi)^a (i eta)^b, term by term, or
    None if a coefficient is not rational."""
    acc = (Fraction(0), Fraction(0))
    for coeff, a, b in op.terms:
        parts = rational_parts(coeff)
        if parts is None:
            return None
        mag = Fraction(xi**a * eta**b)
        term = _cmul(parts, _I_POW[(a + b) % 4])
        acc = (acc[0] + term[0] * mag, acc[1] + term[1] * mag)
    return acc


def fraction_su2_diagonal(op, twice_ell: int):
    """Exact (re, im) Fractions of the entries sum c (i m)^a lam^b at level
    twice_ell / 2, m = -l..l, or None if a coefficient is not rational: the
    polynomial in t = 2m with coefficients C_a = sum_b c i^a lam^b / 2^a,
    by Horner over their common denominator."""
    if any(rational_parts(c) is None for c, _, _ in op.terms):
        return None
    lam = Fraction(twice_ell * (twice_ell + 2), 4)
    poly = [(Fraction(0), Fraction(0))] * (1 + max((a for _, a, _ in op.terms), default=0))
    for coeff, a, b in op.terms:
        term = _cmul(rational_parts(coeff), _I_POW[a % 4])
        poly[a] = tuple(p + x * lam**b / 2**a for p, x in zip(poly[a], term))
    den = math.lcm(*(x.denominator for pair in poly for x in pair))
    nums = [[x.numerator * (den // x.denominator) for x in pair] for pair in reversed(poly)]
    entries = []
    for t in range(-twice_ell, twice_ell + 1, 2):
        re = im = 0
        for c_re, c_im in nums:
            re, im = re * t + c_re, im * t + c_im
        entries.append((Fraction(re, den), Fraction(im, den)))
    return entries


def fraction_diagonal(op, label):
    """The exact diagonal at a label as a list of Fraction (re, im) pairs, or
    None for a matrix table or a coefficient that is not rational."""
    from hyposym.symbols import MatrixTable, Su2DiagPoly

    if isinstance(op, MatrixTable):
        return None
    if isinstance(op, Su2DiagPoly):
        return fraction_su2_diagonal(op, label.twice_ell)
    value = fraction_torus_value(op, label.xi, label.eta)
    return None if value is None else [value]


def fraction_pairs(exact):
    """``exact_diagonal``'s ``(den, [(re, im), ...])`` as Fraction pairs."""
    if exact is None:
        return None
    den, values = exact
    return [(Fraction(re, den), Fraction(im, den)) for re, im in values]


def unscreened_counterexample(symbol, k_steps: int, cutoff: float, tol: float = 1e-12):
    """The counterexample search walked frequency by frequency: every
    frequency from the start of each step goes through the exact test (or
    the float test with guard band ``tol``), with no float screen.  An image
    that is not finite comes from the exact entry, or raises."""
    from hyposym import CoefficientField, PreconditionError, SearchExhaustedError
    from hyposym.coefficients import Counterexample, CounterexampleCertificate
    from hyposym.spectral import Window

    window = Window(symbol.model, cutoff)
    support, images, chosen, certs = {}, {}, [], []
    lam_prev, idx = 0.0, 0
    for k in range(1, k_steps + 1):
        found = None
        idx = max(idx, 2, int(np.searchsorted(window.lam, lam_prev, "right")))
        while idx < len(window):
            freq = window.freq(idx)
            exact_entries = fraction_diagonal(symbol.op, freq.label)
            if exact_entries is not None:
                bound_sq = Fraction(1) / (1 + freq.lam_exact()) ** (2 * k)
                sq = [re * re + im * im for re, im in exact_entries]
                if min(sq) < bound_sq:
                    i = min(range(len(sq)), key=sq.__getitem__)
                    found = (freq, i, None, exact_entries[i])
                    break
            else:
                bound = (1.0 + freq.lam) ** (-k)
                if symbol.gain(freq) < bound * (1.0 - tol):
                    diag = symbol.diagonal(freq)
                    if diag is not None:
                        found = (freq, int(np.argmin(np.abs(diag))), None, None)
                    else:
                        _, _, vh = np.linalg.svd(symbol.block(freq))
                        v = vh[-1].conj()
                        for comp in v:
                            if abs(comp) > 1e-14:
                                v = v * (comp.conjugate() / abs(comp))
                                break
                        found = (freq, None, v, None)
                    break
            idx += 1
        if found is None:
            raise SearchExhaustedError(k, cutoff)
        freq, entry_idx, block_vec, exact = found
        bdim = freq.label.rep_dim()
        if block_vec is None:
            block_vec = np.zeros(bdim, dtype=complex)
            block_vec[entry_idx] = 1.0
        full = np.zeros(freq.dim, dtype=complex)
        full[:bdim] = block_vec
        image = symbol.apply_to_vectors([freq], [full])[0]
        image_norm = float(np.linalg.norm(image))
        if not np.isfinite(image_norm) and exact is not None:
            re, im = exact
            image = np.zeros(freq.dim, dtype=complex)
            image[entry_idx] = complex(float(re), float(im))
            image_norm = float(np.sqrt(float(re * re + im * im)))
        if not np.isfinite(image_norm):
            raise PreconditionError(f"image norm at {freq.label} is not finite")
        certs.append(CounterexampleCertificate(
            k=k, ordinal=freq.j, label=freq.label, lam=freq.lam, image_norm=image_norm,
            bound=(1.0 + freq.lam) ** (-k), exact=exact is not None))
        support[freq] = full
        images[freq] = image
        chosen.append(freq)
        lam_prev = freq.lam
        idx += 1
    return Counterexample(CoefficientField(explicit=support), tuple(chosen), tuple(certs),
                          CoefficientField(explicit=images))


def ball(radius: int):
    """The points of 0 < |xi| + |eta| <= radius, xi ascending and then eta."""
    for xi in range(-radius, radius + 1):
        rem = radius - abs(xi)
        for eta in range(-rem, rem + 1):
            if xi or eta:
                yield xi, eta


def _torus_weight(xi: int, eta: int, exponent: int) -> Fraction:
    s = 1 + abs(xi) + abs(eta)
    return Fraction(1, s**exponent) if exponent >= 0 else Fraction(s**-exponent)


def full_ball_torus_min_gain(c, radius: int, exponent: int):
    """Exact (objective, argmin, gain) of |xi + c eta| (1+|xi|+|eta|)^{-N}
    over every point of 0 < |xi| + |eta| <= radius (c a Fraction or Surd);
    exact ties go to the smallest |xi| + |eta|, then the smallest pair."""
    best = None
    for xi, eta in ball(radius):
        gain = abs(xi + c * eta)
        key = (gain * _torus_weight(xi, eta, exponent), abs(xi) + abs(eta), (xi, eta))
        if best is None or key < best[0]:
            best = (key, gain)
    (obj, _, arg), gain = best
    return obj, arg, gain


def interval_torus_min_gain(c, radius: int, exponent: int):
    """(argmin, objective_lo, objective_hi, gain_lo, gain_hi) of
    |xi + c eta| (1+|xi|+|eta|)^{-N} for an enclosure c = [lo, hi]: the
    interval of every mirror representative (eta > 0, or eta = 0 < xi) of
    the whole ball, the least upper end (then the least |xi| + |eta|, then
    the least pair) as the candidate, and a PrecisionError when another
    lower end lies below its upper end."""
    from hyposym.errors import PrecisionError

    entries = []
    for xi, eta in ball(radius):
        if not (eta > 0 or (eta == 0 and xi > 0)):
            continue
        ends = sorted([xi + c.lo * eta, xi + c.hi * eta])
        if ends[0] <= 0 <= ends[1]:
            alo, ahi = Fraction(0), max(-ends[0], ends[1])
        else:
            alo, ahi = sorted([abs(ends[0]), abs(ends[1])])
        w = _torus_weight(xi, eta, exponent)
        entries.append((alo * w, ahi * w, alo, ahi, (xi, eta)))
    cand = min(entries, key=lambda e: (e[1], abs(e[4][0]) + abs(e[4][1]), e[4]))
    if any(other[4] != cand[4] and other[0] < cand[1] for other in entries):
        raise PrecisionError("enclosure too wide to order candidates")
    return (min(cand[4], (-cand[4][0], -cand[4][1])), *cand[:4])


def lattice_frequency_for_label(label):
    """The FrequencyIndex of a torus label, its ordinal read off a whole
    lattice enumerated up to the label's eigenvalue."""
    from hyposym import FrequencyIndex, PreconditionError
    from hyposym.spectral import torus_lattice

    lam = label.eigenvalue()
    xi, eta, lams = torus_lattice(float(lam))
    rows = np.flatnonzero((xi == label.xi) & (eta == label.eta) & (lams == int(lam)))
    if len(rows) != 1:
        raise PreconditionError(f"label {label} not enumerable")
    return FrequencyIndex(int(rows[0]), float(lam), 1, label)


def cellwise_parse_matrix(raw, where: str, problems: list[str]):
    """A table matrix checked and converted cell by cell with ``complex(re, im)``;
    the first bad cell goes to ``problems`` and gives None."""
    if not isinstance(raw, list) or not raw:
        problems.append(f"{where}: matrix must be a nonempty row list")
        return None
    mat = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            problems.append(f"{where}: matrix must be square (row {r})")
            return None
        out_row = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                problems.append(f"{where}: entry ({r},{c}) must be [re, im]")
                return None
            try:
                out_row.append(complex(cell[0], cell[1]))
            except OverflowError:
                problems.append(f"{where}: entry ({r},{c}) must be finite")
                return None
        mat.append(out_row)
    arr = np.array(mat, dtype=complex)
    if not np.isfinite(arr).all():
        problems.append(f"{where}: matrix entries must be finite")
        return None
    return arr


def whole_document_table(path: str, model_kind: str, problems: list[str]):
    """A matrix-table file loaded as one ``json.load`` of the whole document,
    then entry by entry with ``cellwise_parse_matrix``: the table's blocks by
    label, or None, with the violations in ``problems`` in the order the
    spec parser reports them."""
    import json

    from hyposym.specfile import _reject_constant
    from hyposym.tables import _parse_table_label

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        problems.append(f"matrix table {path!r}: cannot read ({exc})")
        return None
    except (ValueError, RecursionError) as exc:
        problems.append(f"matrix table {path!r}: invalid JSON ({exc})")
        return None
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        problems.append(f"matrix table {path!r}: needs a nonempty 'entries' list")
        return None
    problems.extend(f"matrix table {path!r}: unknown key {k!r}" for k in doc if k != "entries")
    table, seen = {}, {}
    for i, entry in enumerate(entries):
        where = f"table entry {i}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        problems.extend(f"{where}: unknown key {k!r}"
                        for k in entry if k not in ("label", "matrix"))
        label = _parse_table_label(entry.get("label"), model_kind, where, problems)
        if label in seen:
            problems.append(f"{where}: label {label} repeats table entry {seen[label]}")
        elif label is not None:
            seen[label] = i
        mat = cellwise_parse_matrix(entry.get("matrix"), where, problems)
        if label is None or mat is None:
            continue
        if len(mat) != label.rep_dim():
            problems.append(f"{where}: block size {len(mat)} does not match dimension "
                            f"{label.rep_dim()}")
            continue
        table[label] = mat
    return table


def unscreened_gain_table(symbol, cutoff):
    """The gain table with every block reduced from ``block_values``, no screen."""
    from hyposym.spectral import Window
    from hyposym.symbols import GainTable, block_values

    window = Window(symbol.model, cutoff)
    gains, norms = np.empty(len(window)), np.empty(len(window))
    for lo, hi, values, offsets in block_values(symbol, window):
        gains[lo:hi] = np.minimum.reduceat(values, offsets)
        norms[lo:hi] = np.maximum.reduceat(values, offsets)
    return GainTable(symbol, window, gains, norms)


def rowwise_gains_csv(path, table, chunk_rows: int) -> None:
    """The gains CSV written by an f-string per row, ``chunk_rows`` rows per write."""
    torus = table.window.model.kind == "torus2"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("ordinal,label,lambda,dim,gain,opnorm\r\n")
        for lo in range(0, len(table), chunk_rows):
            hi = lo + chunk_rows
            gains = list(map(repr, table.gain[lo:hi].tolist()))
            norms = list(map(repr, table.opnorm[lo:hi].tolist()))
            cols = (ordinals(table)[lo:hi].tolist(), table.lam[lo:hi].tolist(), gains, norms,
                    *(a[lo:hi].tolist() for a in table.window.labels))
            if torus:
                rows = [f'{j},"({x},{e})",{lam!r},1,{g},{n}\r\n'
                        for j, lam, g, n, x, e in zip(*cols)]
            else:
                rows = [f"{j},l={t >> 1 if t % 2 == 0 else f'{t}/2'},{lam!r},{(t + 1) ** 2},"
                        f"{g},{n}\r\n"
                        for j, lam, g, n, t in zip(*cols)]
            fh.write("".join(rows))


def rowwise_coeffs_csv(path, field, cutoff, chunk_rows: int) -> None:
    """The coefficient CSV written by an f-string per row, in chunks of
    ``chunk_rows`` components per vector."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("ordinal,label,component_index,re,im\r\n")
        for freq, vec in field.window(cutoff):
            label = str(freq.label)
            head = f'{freq.j},"{label}",' if "," in label else f"{freq.j},{label},"
            for lo in range(0, len(vec), chunk_rows):
                part = vec[lo:lo + chunk_rows]
                fh.write("".join([
                    f"{head}{k},{re!r},{im!r}\r\n"
                    for k, re, im in zip(range(lo, lo + len(part)),
                                         part.real.tolist(), part.imag.tolist())
                ]))


def mask_envelope_points(x, y, mode: str = "min"):
    """``fitting.envelope_points`` with each bin read through a full-length
    boolean mask: no ordering of x is assumed."""
    from hyposym.errors import WindowTooSmallError
    from hyposym.fitting import BIN_WIDTH, HEAD_FRACTION

    if len(x) == 0:
        raise WindowTooSmallError("no samples for envelope fit")
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi - lo < 1e-12:
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nbins = max(4, math.ceil((hi - lo) / BIN_WIDTH))
    edges = np.linspace(lo, hi + 1e-12, nbins + 1)
    pick = np.argmin if mode == "min" else np.argmax
    xs, ys = [], []
    for i in range(nbins):
        mask = (x >= edges[i]) & (x < edges[i + 1])
        if not mask.any():
            continue
        k = pick(y[mask])
        xs.append(float(x[mask][k]))
        ys.append(float(y[mask][k]))
    xs_arr, ys_arr = np.array(xs), np.array(ys)
    keep = xs_arr >= lo + HEAD_FRACTION * (hi - lo)
    if keep.sum() >= 4:
        xs_arr, ys_arr = xs_arr[keep], ys_arr[keep]
    return xs_arr, ys_arr


def sliced(x, y):
    """The ``read(a, b)`` of ``fitting.envelope_points`` over two whole arrays."""
    return lambda a, b: (x[a:b], y[a:b])


def mask_fit_growth(table, tol: float):
    """``hypo.fit_growth`` with its samples taken by a mask over the stored
    ordinals: past the last singular ordinal and of positive gain."""
    from hyposym.errors import NoFitError
    from hyposym.fitting import envelope_fit
    from hyposym.hypo import GrowthFit
    from hyposym.spectral import NU
    from hyposym.symbols import zero_mask

    ordinals, lam, gain = np.arange(len(table)), table.lam, table.gain
    singular = zero_mask(gain, table.opnorm, tol)
    r = int(ordinals[singular].max()) + 1 if singular.any() else 0
    keep = (ordinals >= r) & (gain > 0)
    if keep.sum() < 8:
        raise NoFitError(f"only {int(keep.sum())} usable samples past the last singular ordinal {r}")
    x = np.log1p(lam[keep]) / NU
    slope, _, _ = envelope_fit(sliced(x, np.log(gain[keep])), len(x), mode="min")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(np.log1p(lam[keep]) * (slope / NU))
        big_l = float(np.min(gain[keep] / weights))
        residual = float(np.max(big_l * weights / gain[keep] - 1.0))
    if not (math.isfinite(big_l) and math.isfinite(residual)):
        raise NoFitError(f"the bound of slope {slope!r} leaves float range on the window")
    return GrowthFit(L=big_l, m=float(slope), R=r, residual=residual,
                     n_samples=int(keep.sum()), lam_max=float(lam[keep].max()))


def mask_estimate_order(table):
    """``symbols.estimate_order`` on a table, its samples taken by masks:
    (order_hat, c_hat, n_envelope)."""
    from hyposym.fitting import envelope_fit
    from hyposym.spectral import NU

    norms, nz = table.opnorm, table.opnorm > 0
    x = np.log1p(table.lam[nz]) / NU
    slope, _, npts = envelope_fit(sliced(x, np.log(norms[nz])), len(x), mode="max")
    with np.errstate(over="ignore", divide="ignore"):
        weights = np.exp(np.log1p(table.lam[nz]) * (slope / NU))
        c_hat = float(np.max(norms[nz] / weights))
    return float(slope), c_hat, npts


def per_level_powers(levels):
    """lam^b per level as one Python float power per level, every b."""
    import functools

    lam = (levels * (levels + 2) / 4.0).tolist()
    return functools.cache(lambda b: np.array([x**b for x in lam]))


def nested_matrix_array(raw):
    """The complex block of a well-formed n x n table of [re, im] cells, or
    None: the types checked over the rows, cells and parts, then the nested
    list converted as a whole and its shape and finiteness checked."""
    from itertools import chain

    if type(raw) is not list or not raw or set(map(type, raw)) != {list}:
        return None
    cells = list(chain.from_iterable(raw))
    if set(map(type, cells)) != {list}:
        return None
    if not set(map(type, chain.from_iterable(cells))) <= {int, float}:
        return None
    try:
        arr = np.array(raw, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an integer beyond float range
        return None
    if arr.shape != (len(raw), len(raw), 2) or not np.isfinite(arr).all():
        return None
    return arr.view(np.complex128)[..., 0]


def walked_sobolev_norm(u, s, cutoff) -> float:
    """``coefficients.sobolev_norm`` as one loop over the field: the weight,
    its underflow test and the sum, frequency by frequency."""
    from hyposym.errors import PreconditionError
    from hyposym.spectral import NU, bracket_power

    total = 0.0
    exponent = 2.0 * s / NU
    for freq, vec in u.window(cutoff):
        weight = bracket_power(freq.lam, exponent)
        if weight == 0.0 and freq.lam > 0:
            raise PreconditionError(f"weight (1 + {freq.lam}) ** {exponent} underflows to 0")
        total += weight * float(np.vdot(vec, vec).real)
    if not math.isfinite(total):
        raise PreconditionError(f"the Sobolev norm of order {s} overflows on the window")
    return math.sqrt(total)


def copied_apply_symbol(symbol, u, cutoff):
    """The field of P u: a diagonal symbol's diagonals from one ``bulk``
    call, one product per frequency, and every image copied into the field."""
    from hyposym.coefficients import CoefficientField

    pairs = list(u.window(cutoff))
    freqs = [freq for freq, _ in pairs]
    diags = [None] * len(pairs)
    images = {}
    with np.errstate(over="ignore", invalid="ignore"):
        if symbol.is_diagonal and pairs:
            values = symbol.bulk(*symbol._label_arrays(freqs))
            dims = [f.label.rep_dim() for f in freqs]
            diags = [values[end - dim:end] for dim, end in zip(dims, np.cumsum(dims))]
        for (freq, v), d in zip(pairs, diags):
            rep = freq.label.rep_dim()
            chunks = v.reshape(rep, rep)
            w = chunks * d[None, :] if d is not None else chunks @ symbol.block(freq).T
            images[freq] = w.reshape(freq.dim).copy()
    return CoefficientField(explicit=images)


def per_call_check_alpha(symbol, f, s, m, c, kernel):
    """``subelliptic.check_alpha`` as a chain of calls: f projected off the
    kernel into a new field, its Sobolev norm, the field of P applied to it,
    and that field's norm."""
    from hyposym.coefficients import CoefficientField
    from hyposym.subelliptic import AlphaCheck

    cutoff = kernel.window.cutoff
    projected = {}
    for freq, vec in f.window(cutoff):
        w = kernel.project_out(freq, vec)
        if np.linalg.norm(w) > 1e-12 * np.linalg.norm(vec):
            projected[freq] = w
    f_perp = CoefficientField(explicit=projected)
    denom = walked_sobolev_norm(f_perp, s + m, cutoff)
    if denom == 0.0:
        return AlphaCheck(passed=True, ratio=None, margin=None, vacuous=True,
                          projected_norm=0.0)
    num = walked_sobolev_norm(copied_apply_symbol(symbol, f_perp, cutoff), s, cutoff)
    ratio = num / denom
    return AlphaCheck(passed=ratio >= c * (1.0 - 1e-12), ratio=ratio, margin=ratio - c,
                      vacuous=False, projected_norm=denom)


def per_call_check_beta(symbol, f, s, m, k, cutoff):
    """``subelliptic.check_beta`` as a chain of calls: three Sobolev norms,
    one of them of the field of P f."""
    from hyposym.subelliptic import BetaCheck

    lhs = walked_sobolev_norm(f, s + m, cutoff)
    rhs0 = (walked_sobolev_norm(f, s, cutoff)
            + walked_sobolev_norm(copied_apply_symbol(symbol, f, cutoff), s, cutoff))
    if rhs0 == 0.0:
        return BetaCheck(passed=lhs == 0.0, achieved_k=None, margin=None)
    achieved = lhs / rhs0
    return BetaCheck(passed=lhs <= k * rhs0 * (1.0 + 1e-12), achieved_k=achieved,
                     margin=k - achieved)
