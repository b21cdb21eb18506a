"""Seeded workloads: spec files, CLI command sequences and their answers.

``generate`` writes every input a workload needs into a work directory and
returns the commands to run there.  The seed picks coefficients from fixed
families whose answer is known independently of hyposym (see checks.py);
the program only ever sees the written files.  Generation, including the
oracles, runs outside every timed region.

Why each workload exists:

* ``torus_window``: one large torus window through the array path
  (``torus_lattice``, bulk ``gain_table``, envelope fit) and the row-by-row
  gains CSV; it sets peak memory and has almost no per-frequency objects.
* ``su2_levels``: the per-level Python loop and the diagonal short-circuit of
  SU(2) symbols at a large cutoff; enumeration and output cost little, so it
  is the symbols-layer counterpart of ``torus_window``.
* ``subelliptic_probes``: the ``FrequencyIndex`` object path, probe fields,
  kernels and dense SVDs; a change that speeds up arrays but slows objects
  shows here.
* ``exact_certify``: exact ``Fraction`` and ``Surd`` arithmetic (Pell and
  rational counterexamples, certified torus lattice minimum) while the
  float layers sit idle.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("torus_window", "su2_levels", "subelliptic_probes", "exact_certify")

# Quadratic irrationals in (0, 2) with partial quotients at most 4.  Every
# quadratic irrational is badly approximable, so |xi + c eta| >= k / |eta| and
# the gain exponent of d_t + c d_x is -1 (Lagrange); the envelope fit on a
# finite window lands within H_BAND of it for this family.
SURDS = (
    (1, 1, 5, 2), (-1, 1, 5, 2), (0, 1, 2, 1), (-1, 1, 2, 1),
    (0, 1, 3, 1), (1, 1, 3, 2), (-1, 1, 3, 1), (1, 1, 5, 4),
)
H_BAND = 0.25

# SU(2) quadratic families c_lap negLap + c_d0sq d0^2, entries
# c_lap l(l+1) - c_d0sq m^2: a (negLap + d0^2) has gain a l, so h = 1;
# negLap + beta d0^2 with 0 < beta < 1 has gain (1-beta) l^2 + l, so h = 2.
SU2_SCALES = ("1", "2", "3", "1/2", "3/2", "5/4")
SU2_BETAS = ("1/4", "1/3", "1/2", "2/3", "3/4", "3/5")
SU2_H_BAND = 0.1

# coprime (p, q) with p^2 + q^2 = 65: the k-th zero of d_t + (p/q) d_x sits at
# lambda = 65 k^2 whichever pair the seed picks
RESONANCES = ((1, 8), (4, 7), (7, 4), (8, 1))

SIZES = {
    "full": {
        "torus_cutoff": 100_000,
        "su2_cutoff": 4_000_000,
        "sub_torus_cutoff": 2000, "sub_torus_probes": 10,
        "sub_gap_cutoff": 2550, "sub_gap_probes": 100,
        "dense_twice_ell": 80, "dense_probes": 20,
        "pell_k": 4, "rational_k": 10, "gain_radius": 100,
    },
    "toy": {
        "torus_cutoff": 5000,
        "su2_cutoff": 100_000,
        "sub_torus_cutoff": 100, "sub_torus_probes": 2,
        "sub_gap_cutoff": 200, "sub_gap_probes": 5,
        "dense_twice_ell": 8, "dense_probes": 3,
        "pell_k": 3, "rational_k": 3, "gain_radius": 12,
    },
}


@dataclass
class Command:
    """One CLI invocation: ``hyposym <argv>`` run in the work directory."""

    name: str
    argv: list[str]
    stdout: str
    outputs: list[str]
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    size: str
    specs: list[str]
    commands: list[Command]

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _surd_literal(s: tuple[int, int, int, int]) -> str:
    a, b, d, e = s
    return f"({a}+{b}*sqrt({d}))/{e}"


def _write_spec(workdir: Path, name: str, model: str, operator: dict) -> str:
    doc = {"model": {"kind": model}, "operator": operator}
    (workdir / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return name


def _torus_translation(c_term: dict) -> dict:
    return {"kind": "torus_poly",
            "terms": [{"coeff": [1, 0], "deg_t": 1}, {**c_term, "deg_x": 1}]}


def _exact(value: str) -> dict:
    frac = Fraction(value)
    if frac.denominator == 1:
        return {"coeff": [frac.numerator, 0]}
    return {"coeff_real": value}


def _su2_quadratic(c_lap: str, c_d0sq: str) -> dict:
    return {"kind": "su2_diag",
            "poly": [{**_exact(c_lap), "deg_neglap": 1}, {**_exact(c_d0sq), "deg_d0": 2}]}


def _analyze(spec: str, cutoff: float, out: str, check: str, params: dict) -> Command:
    return Command(
        "analyze", ["analyze", "--spec", spec, "--cutoff", repr(float(cutoff)), "--out", out],
        out + ".stdout", [out, out + ".gains.csv"], check,
        {"report": out, "gains_csv": out + ".gains.csv", "cutoff": cutoff, **params})


def _fit(spec: str, cutoff: float, out: str, analyze_report: str) -> Command:
    return Command(
        "fit-exponent", ["fit-exponent", "--spec", spec, "--cutoff", repr(float(cutoff))],
        out, [out], "fit_exponent", {"report": out, "analyze_report": analyze_report})


def _torus_window(rng: random.Random, size: dict, wd: Path):
    surd = rng.choice(SURDS)
    spec = _write_spec(wd, "torus.json", "torus2",
                       _torus_translation({"coeff_real": _surd_literal(surd)}))
    cutoff = size["torus_cutoff"]
    params = {"h_known": -1.0, "h_band": H_BAND,
              "c_float": float(checks.surd_value(*surd)),
              "n_rows": checks.gauss_circle_count(cutoff),
              "last_label": list(checks.torus_last_label(cutoff))}
    return [spec], [
        _analyze(spec, cutoff, "analyze.json", "torus_analyze", params),
        _fit(spec, cutoff, "fit.json", "analyze.json"),
    ]


def _su2_levels(rng: random.Random, size: dict, wd: Path):
    if rng.random() < 0.5:
        c_lap = c_d0sq = rng.choice(SU2_SCALES)
        h_known = 1.0
    else:
        c_lap, c_d0sq, h_known = "1", rng.choice(SU2_BETAS), 2.0
    spec = _write_spec(wd, "su2.json", "su2", _su2_quadratic(c_lap, c_d0sq))
    cutoff = size["su2_cutoff"]
    params = {"h_known": h_known, "h_band": SU2_H_BAND, "c_lap": c_lap, "c_d0sq": c_d0sq}
    scan = Command(
        "singular-scan", ["singular-scan", "--spec", spec, "--cutoff", repr(float(cutoff))],
        "scan.json", ["scan.json"], "singular_scan", {"report": "scan.json", "labels": ["l=0"]})
    return [spec], [
        _analyze(spec, cutoff, "analyze.json", "su2_analyze", params),
        _fit(spec, cutoff, "fit.json", "analyze.json"),
        scan,
    ]


def _subelliptic(spec: str, cutoff: float, probes: int, seed: int, out: str,
                 c_star: float, kernel_dim: int) -> Command:
    return Command(
        "subelliptic",
        ["subelliptic", "--spec", spec, "--cutoff", repr(float(cutoff)), "--s", "0",
         "--m", "1", "--probes", str(probes), "--seed", str(seed)],
        out, [out], "subelliptic",
        {"report": out, "c_star": c_star, "kernel_dim": kernel_dim, "probes": probes})


def _dense_table(rng: np.random.Generator, max_twice_ell: int) -> list[np.ndarray]:
    return [(rng.standard_normal((t + 1, t + 1)) + 1j * rng.standard_normal((t + 1, t + 1)))
            / np.sqrt(2.0) for t in range(max_twice_ell + 1)]


def _subelliptic_probes(rng: random.Random, size: dict, wd: Path, seed: int):
    surd = rng.choice(SURDS)
    torus = _write_spec(wd, "torus.json", "torus2",
                        _torus_translation({"coeff_real": _surd_literal(surd)}))
    scale = rng.choice(SU2_SCALES)
    gap = _write_spec(wd, "gap.json", "su2", _su2_quadratic(scale, scale))

    blocks = _dense_table(np.random.default_rng(seed), size["dense_twice_ell"])
    table = {"entries": [
        {"label": t, "matrix": np.stack([b.real, b.imag], axis=-1).tolist()}
        for t, b in enumerate(blocks)]}
    (wd / "table.json").write_text(json.dumps(table), encoding="utf-8")
    dense = _write_spec(wd, "dense.json", "su2", {"kind": "matrix_table", "path": "table.json"})
    t_max = size["dense_twice_ell"]
    dense_cutoff = t_max * (t_max + 2) / 4.0

    torus_cutoff, gap_cutoff = size["sub_torus_cutoff"], size["sub_gap_cutoff"]
    c = float(checks.surd_value(*surd))
    return [torus, gap, dense], [
        # only (0,0) is in the kernel of an irrational translation
        _subelliptic(torus, torus_cutoff, size["sub_torus_probes"], seed, "sub_torus.json",
                     checks.torus_c_star(c, torus_cutoff, 1.0), 1),
        # a (l(l+1) - m^2): the extremum a/2 sits at l = 1/2, where
        # (1 + 3/4)^{-1/2} turns it into C* = a / sqrt(7); l = 0 is the kernel
        _subelliptic(gap, gap_cutoff, size["sub_gap_probes"], seed, "sub_gap.json",
                     float(Fraction(scale)) / 7 ** 0.5, 1),
        _subelliptic(dense, dense_cutoff, size["dense_probes"], seed, "sub_dense.json",
                     checks.dense_c_star(blocks, dense_cutoff, 1.0), 0),
    ]


def _counterexample(spec: str, cutoff: float, k: int, out: str, expected: list[dict],
                    n_rows: int, zero_image_exact: bool) -> Command:
    return Command(
        "counterexample",
        ["counterexample", "--spec", spec, "--cutoff", repr(float(cutoff)), "--k", str(k),
         "--out", out],
        out + ".stdout", [out, out + ".coeffs.csv"], "counterexample",
        {"report": out, "coeffs_csv": out + ".coeffs.csv", "expected": expected,
         "n_rows": n_rows, "zero_image_exact": zero_image_exact})


def _exact_certify(rng: random.Random, size: dict, wd: Path):
    scale = rng.randint(1, 4)
    pell = _write_spec(wd, "pell.json", "su2", _su2_quadratic(str(scale), str(2 * scale)))
    levels = checks.pell_levels(size["pell_k"])
    pell_expected = [{"label": f"l={l}", "lambda": float(l * (l + 1)), "image_norm": 0.0,
                      "zero": True} for l in levels]
    pell_cutoff = levels[-1] * (levels[-1] + 1)

    # p^2 + q^2 is the same for every seed, so the search walks as far
    p, q = rng.choice(RESONANCES)
    p *= rng.choice((1, -1))
    ratio = Fraction(p, q)
    rational = _write_spec(wd, "rational.json", "torus2",
                           _torus_translation({"coeff_real": f"{p}/{q}"}))
    k = size["rational_k"]
    # the k-th multiple of (-p, q) is a zero, so the search never runs out
    rational_cutoff = k * k * (p * p + q * q)
    rational_expected = checks.greedy_torus_counterexample(ratio, k, rational_cutoff)

    surd = rng.choice(SURDS)
    radius = size["gain_radius"]
    argmin, objective = checks.torus_min_gain_oracle(surd, radius, -1)
    gain = Command(
        "torus-gain",
        ["torus-gain", "--c", _surd_literal(surd), "--radius", str(radius), "--exp", "-1"],
        "gain.json", ["gain.json"], "torus_gain",
        {"report": "gain.json", "argmin": argmin, "objective": objective})
    return [pell, rational], [
        _counterexample(pell, pell_cutoff, size["pell_k"], "ce_pell.json", pell_expected,
                        sum((2 * l + 1) ** 2 for l in levels), True),
        _counterexample(rational, rational_cutoff, k, "ce_rational.json", rational_expected,
                        k, False),
        gain,
    ]


def generate(workload: str, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's inputs into ``workdir`` and return its plan."""
    rng = random.Random(f"{workload}:{seed}")
    dims = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "torus_window":
        specs, commands = _torus_window(rng, dims, workdir)
    elif workload == "su2_levels":
        specs, commands = _su2_levels(rng, dims, workdir)
    elif workload == "subelliptic_probes":
        specs, commands = _subelliptic_probes(rng, dims, workdir, seed)
    elif workload == "exact_certify":
        specs, commands = _exact_certify(rng, dims, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, seed, size, specs, commands)
