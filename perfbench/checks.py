"""Output checks against answers that hyposym does not compute.

The oracles run while the inputs are generated, outside every timed region:
lattice and level counts, closed-form gains, Pell solutions by search, the
greedy counterexample walk in exact rationals, an mpmath brute force over
the torus ball, and subelliptic constants recomputed with numpy.  The
verifiers compare one command's output files with those answers and return
a list of problems (empty when the output is right).  Nothing here imports
hyposym.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from math import isqrt
from pathlib import Path

import mpmath
import numpy as np

# relative tolerance for float results compared with an exact or
# independently computed value
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# oracles


def surd_value(a: int, b: int, d: int, e: int):
    """(a + b sqrt(d)) / e as an mpmath number at 60 digits."""
    with mpmath.workdps(60):
        return (mpmath.mpf(a) + b * mpmath.sqrt(d)) / e


def gauss_circle_count(cutoff: float) -> int:
    """Lattice points (xi, eta) with xi^2 + eta^2 <= cutoff."""
    n = math.floor(Fraction(cutoff))
    r = isqrt(n)
    return sum(2 * isqrt(n - x * x) + 1 for x in range(-r, r + 1))


def torus_last_label(cutoff: float) -> tuple[int, int]:
    """The last frequency of the canonical (lambda, xi, eta) order."""
    n = math.floor(Fraction(cutoff))
    r = isqrt(n)
    best = None
    for x in range(-r, r + 1):
        y = isqrt(n - x * x)
        key = (x * x + y * y, x, y)
        if best is None or key > best:
            best = key
    return best[1], best[2]


def su2_levels_upto(cutoff: float) -> list[int]:
    """twice_ell values t with t(t+2)/4 <= cutoff."""
    bound = 4 * Fraction(cutoff)
    t = 0
    out = []
    while t * (t + 2) <= bound:
        out.append(t)
        t += 1
    return out


def su2_quadratic_extremes(c_lap: Fraction, c_d0sq: Fraction, t: int):
    """(gain, opnorm) of the block with entries c_lap l(l+1) - c_d0sq m^2.

    The entries depend on m only through m^2, monotonically, so the extremes
    sit at the smallest and largest m^2 unless the entries change sign in
    between; the families used here never do.
    """
    lam = Fraction(t * (t + 2), 4)
    lo = Fraction((t % 2) ** 2, 4)
    hi = Fraction(t * t, 4)
    ends = [c_lap * lam - c_d0sq * lo, c_lap * lam - c_d0sq * hi]
    if ends[0] * ends[1] < 0:
        raise ValueError(f"entries change sign inside level {t}/2")
    mags = sorted(abs(v) for v in ends)
    return mags[0], mags[1]


def pell_levels(count: int) -> list[int]:
    """Levels l = (u-1)/2 of the first solutions of u^2 - 8 m^2 = 1, by search."""
    out = []
    m = 1
    while len(out) < count:
        u = isqrt(8 * m * m + 1)
        if u * u - 8 * m * m == 1:
            out.append((u - 1) // 2)
        m += 1
    return out


def torus_canonical(cutoff: float):
    """Lattice points of the disk in canonical (lambda, xi, eta) order."""
    n = math.floor(Fraction(cutoff))
    r = isqrt(n)
    pts = [(x * x + y * y, x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
           if x * x + y * y <= n]
    pts.sort()
    return pts


def greedy_torus_counterexample(c: Fraction, k_steps: int, cutoff: float):
    """The counterexample search for d_t + c d_x, done in exact rationals.

    Step k takes the first frequency in canonical order with ordinal >= 2,
    eigenvalue above the previous pick, and |xi + c eta|^2 < (1+lambda)^{-2k}.
    """
    picks = []
    lam_prev = 0
    idx = 0
    pts = torus_canonical(cutoff)
    for k in range(1, k_steps + 1):
        while idx < len(pts):
            lam, x, y = pts[idx]
            if idx >= 2 and lam > lam_prev:
                v = x + c * y
                if v * v < Fraction(1, (1 + lam) ** (2 * k)):
                    break
            idx += 1
        else:
            raise ValueError(f"no admissible frequency for step {k}")
        picks.append({"label": f"({x},{y})", "lambda": float(lam),
                      "image_norm": float(abs(x + c * y)), "zero": x + c * y == 0})
        lam_prev = lam
        idx += 1
    return picks


def torus_min_gain_oracle(surd: tuple[int, int, int, int], radius: int, exponent: int):
    """Brute-force argmin of |xi + c eta| (1+|xi|+|eta|)^{-N} over the ball.

    Exact ties (the mirror pair) prefer the smaller |xi|+|eta|, then the
    lexicographically smaller pair.  Returns (argmin, objective).
    """
    with mpmath.workdps(60):
        c = surd_value(*surd)
        scored = []
        for x in range(-radius, radius + 1):
            rem = radius - abs(x)
            for y in range(-rem, rem + 1):
                if x == 0 and y == 0:
                    continue
                s = 1 + abs(x) + abs(y)
                scored.append((abs(x + c * y) * mpmath.mpf(s) ** (-exponent), (x, y)))
        scored.sort(key=lambda e: e[0])
        best = scored[0][0]
        eps = best * mpmath.mpf(10) ** -40
        ties = [p for v, p in scored if v - best <= eps]
        runner_up = next(v for v, p in scored if v - best > eps)
        if runner_up - best < best * mpmath.mpf(10) ** -30:
            raise ValueError("oracle cannot separate the minimum at this precision")
        arg = min(ties, key=lambda p: (abs(p[0]) + abs(p[1]), p))
        return list(arg), float(best)


def torus_c_star(c: float, cutoff: float, m: float, tol: float = 1e-12) -> float:
    """min over the disk of |xi + c eta| (1+lambda)^{-m/2}, kernel excluded."""
    r = isqrt(math.floor(Fraction(cutoff)))
    side = np.arange(-r, r + 1, dtype=float)
    x, y = np.meshgrid(side, side, indexing="ij")
    lam = x * x + y * y
    g = np.abs(x + c * y)
    keep = (lam <= cutoff) & (g > tol * np.maximum(1.0, g))
    return float(np.min(g[keep] * (1.0 + lam[keep]) ** (-m / 2.0)))


def dense_c_star(blocks: list[np.ndarray], cutoff: float, m: float,
                 tol: float = 1e-12) -> float:
    """C* of an SU(2) matrix table, from numpy singular values per block."""
    best = math.inf
    for t, block in enumerate(blocks):
        lam = t * (t + 2) / 4.0
        if lam > cutoff:
            break
        svals = np.linalg.svd(block, compute_uv=False)
        nz = svals[svals > tol * max(1.0, float(svals[0]))]
        if len(nz):
            best = min(best, float(nz[-1]) * (1.0 + lam) ** (-m / 2.0))
    return best


# ---------------------------------------------------------------------------
# verifiers


def _close(got, want, rel: float = REL_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * max(abs(want), 1e-300)


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


def _edge_rows(path: Path) -> tuple[list[str], list[str], list[str]]:
    """Header, first data row and last data row of a large CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        head = [next(csv.reader([fh.readline()])), next(csv.reader([fh.readline()]))]
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, 2) - 4096))
        last = fh.read().decode("utf-8").splitlines()[-1]
    return head[0], head[1], next(csv.reader([last]))


GAINS_HEADER = ["ordinal", "label", "lambda", "dim", "gain", "opnorm"]
COEFFS_HEADER = ["ordinal", "label", "component_index", "re", "im"]


def _check_h(doc: dict, p: dict, problems: list[str]) -> None:
    verdict = doc["verdict"]
    if verdict.get("kind") != "empirical_gh":
        problems.append(f"verdict {verdict.get('kind')!r}, expected empirical_gh")
        return
    h = verdict.get("h_hat")
    lo, hi = p["h_known"] - p["h_band"], p["h_known"] + p["h_band"]
    if not isinstance(h, float) or not lo <= h <= hi:
        problems.append(f"h_hat {h!r} outside [{lo}, {hi}] around {p['h_known']}")


def check_torus_analyze(wd: Path, p: dict) -> list[str]:
    problems: list[str] = []
    doc = _load(wd / p["report"])
    _check_h(doc, p, problems)
    csv_path = wd / p["gains_csv"]
    rows = _count_lines(csv_path) - 1
    if rows != p["n_rows"]:
        problems.append(f"gains CSV has {rows} rows, Gauss circle count is {p['n_rows']}")
    header, first, last = _edge_rows(csv_path)
    if header != GAINS_HEADER:
        problems.append(f"gains CSV header {header}")
    if first[:2] != ["0", "(0,0)"] or float(first[4]) != 0.0:
        problems.append(f"first gains row {first}")
    x, y = p["last_label"]
    want = abs(x + p["c_float"] * y)
    if (last[0] != str(p["n_rows"] - 1) or last[1] != f"({x},{y})"
            or float(last[2]) != x * x + y * y or not _close(float(last[4]), want)):
        problems.append(f"last gains row {last}, expected ({x},{y}) with gain {want}")
    return problems


def check_su2_analyze(wd: Path, p: dict) -> list[str]:
    problems: list[str] = []
    doc = _load(wd / p["report"])
    _check_h(doc, p, problems)
    singular = [s["label"] for s in doc["verdict"].get("singular", [])]
    if singular != ["l=0"]:
        problems.append(f"verdict singular levels {singular}, expected ['l=0']")
    header, rows = _csv_rows(wd / p["gains_csv"])
    levels = su2_levels_upto(p["cutoff"])
    if header != GAINS_HEADER or len(rows) != len(levels):
        problems.append(f"gains CSV: {len(rows)} rows for {len(levels)} levels")
        return problems
    c_lap, c_d0sq = Fraction(p["c_lap"]), Fraction(p["c_d0sq"])
    for row, t in zip(rows, levels):
        gain, norm = su2_quadratic_extremes(c_lap, c_d0sq, t)
        if int(row[0]) != t or not (
            abs(float(row[4]) - gain) <= REL_TOL * max(1.0, float(norm))
            and _close(float(row[5]), float(norm))
        ):
            problems.append(f"level {t}/2: row {row}, expected gain {float(gain)}")
            break
    return problems


def check_fit_exponent(wd: Path, p: dict) -> list[str]:
    h = _load(wd / p["report"]).get("h_hat")
    want = _load(wd / p["analyze_report"])["verdict"].get("h_hat")
    return [] if h == want else [f"fit-exponent h {h!r} differs from analyze h_hat {want!r}"]


def check_singular_scan(wd: Path, p: dict) -> list[str]:
    labels = [s["label"] for s in _load(wd / p["report"])["singular"]]
    return [] if labels == p["labels"] else [f"singular {labels}, expected {p['labels']}"]


def check_subelliptic(wd: Path, p: dict) -> list[str]:
    doc = _load(wd / p["report"])
    problems = []
    if not _close(doc["report"]["c_star"], p["c_star"]):
        problems.append(f"C* {doc['report']['c_star']!r}, expected {p['c_star']!r}")
    if doc["report"]["kernel_dim"] != p["kernel_dim"]:
        problems.append(f"kernel dim {doc['report']['kernel_dim']}, expected {p['kernel_dim']}")
    if not doc["witness_check"]["passed"]:
        problems.append("extremal witness fails its own constant")
    probes = doc["probes"]
    if probes["count"] != p["probes"] or probes["alpha_failures"] or probes["beta_failures"]:
        problems.append(f"probes {probes}")
    return problems


def check_counterexample(wd: Path, p: dict) -> list[str]:
    doc = _load(wd / p["report"])
    problems = []
    certs = doc["certificates"]
    got = [c["label"] for c in certs]
    want = [e["label"] for e in p["expected"]]
    if got != want:
        return [f"counterexample frequencies {got}, expected {want}"]
    for cert, exp in zip(certs, p["expected"]):
        if cert["exact"] is not True:
            problems.append(f"{cert['label']}: not certified in exact arithmetic")
        if exp["zero"] and p["zero_image_exact"]:
            ok = cert["image_norm"] == 0.0
        else:
            ok = abs(cert["image_norm"] - exp["image_norm"]) <= REL_TOL * max(1.0, exp["image_norm"])
        if not ok:
            problems.append(f"{cert['label']}: image norm {cert['image_norm']!r}, "
                            f"expected {exp['image_norm']!r}")
    csv_path = wd / p["coeffs_csv"]
    rows = _count_lines(csv_path) - 1
    if rows != p["n_rows"]:
        problems.append(f"coefficient CSV has {rows} rows, expected {p['n_rows']}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        if next(csv.reader(fh)) != COEFFS_HEADER:
            problems.append("coefficient CSV header")
    return problems


def check_torus_gain(wd: Path, p: dict) -> list[str]:
    doc = _load(wd / p["report"])
    problems = []
    if doc["argmin"] != p["argmin"]:
        problems.append(f"argmin {doc['argmin']}, brute force gives {p['argmin']}")
    obj = doc["objective"]
    if not (obj["lo"] <= p["objective"] * (1 + REL_TOL)
            and obj["hi"] >= p["objective"] * (1 - REL_TOL)
            and _close(obj["hi"], p["objective"])):
        problems.append(f"objective {obj}, brute force gives {p['objective']!r}")
    if obj["exact"] is None or doc["is_exact_zero"]:
        problems.append("surd objective should be exact and nonzero")
    return problems


VERIFIERS = {
    "torus_analyze": check_torus_analyze,
    "su2_analyze": check_su2_analyze,
    "fit_exponent": check_fit_exponent,
    "singular_scan": check_singular_scan,
    "subelliptic": check_subelliptic,
    "counterexample": check_counterexample,
    "torus_gain": check_torus_gain,
}


def verify(check: str, params: dict, workdir: Path) -> list[str]:
    """Problems with one command's outputs; unreadable output is a problem too."""
    try:
        return VERIFIERS[check](Path(workdir), params)
    except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"{check}: unreadable output ({type(exc).__name__}: {exc})"]
