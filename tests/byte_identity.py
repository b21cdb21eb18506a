"""Compare the CLI of two source trees, byte for byte, on the benchmark plans.

Usage, from the root of a checkout:

    python3 tests/byte_identity.py OLD_SRC NEW_SRC [--sizes toy full]
        [--seeds 1 2 3] [--workloads torus_window ...]

For every plan of ``perfbench/workloads.generate`` (each workload, size and
seed) the inputs are generated once per side into a temporary directory.
Each command then runs there as ``python3 -m hyposym.cli <argv>`` with
``PYTHONPATH`` set to that side's ``src``, its stdout written to the file the
plan names.  Exit codes, stdout, stderr and the sha256 of every file a
command writes are compared.  The fixed ``CASES`` (inputs that fail, a
branch no plan takes, and windows larger than any plan's) then run once
per side, in a directory that holds ``TORUS_TABLE``, ``SU2_TABLE``,
``BAD_TABLES``, ``SINGULAR_TABLE`` and ``TIED_TABLE``, and are compared
the same way.  Each command that writes a sidecar (``--out``) or reads a
matrix table runs a second time pinned to one CPU, where
``os.sched_setaffinity`` exists: dense blocks go through OpenBLAS and its
thread pool, and no output may depend on the CPU count.  The pinned runs
are compared between the sides, and the new side's run on every CPU with
its own pinned run, so output that depends on the CPU count fails.  The old
side's run on every CPU is not compared, so a dependence that the new
side mends is no difference.  Every run starts with an empty cache of
parsed tables (``XDG_CACHE_HOME``), so each one parses its table; on the
new side, a command that reads a matrix table runs once more with the
cache its first run filled, and that warm run is compared with the first.
The differences are listed and the exit code is 1 if there are any, else
0.  ``perfbench/`` is only imported.  pytest does not collect this file
(its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, which imports checks.py)


def _spec(model: str, kind, **operator) -> str:
    return json.dumps({"model": {"kind": model}, "operator": {"kind": kind, **operator}})


PHI = _spec("torus2", "torus_poly", terms=[{"coeff": [1, 0], "deg_t": 1},
                                           {"coeff_real": "(1+1*sqrt(5))/2", "deg_x": 1}])
GAP = _spec("su2", "su2_diag", poly=[{"coeff": [1, 0], "deg_neglap": 1},
                                     {"coeff": [1, 0], "deg_d0": 2}])
PELL = _spec("su2", "su2_diag", poly=[{"coeff": [1, 0], "deg_neglap": 1},
                                      {"coeff": [2, 0], "deg_d0": 2}])
# a negLap coefficient 2^985: levels 0..361 of 2000 are trusted at cutoff
# 1e6; the SU(2) walk's first group of 1024 levels holds level 362, so the
# whole window takes the full reduction
SCALED_GAP = _spec("su2", "su2_diag", poly=[{"coeff": [2.0**985, 0], "deg_neglap": 1},
                                            {"coeff": [1, 0], "deg_d0": 2}])
# a dense complex torus table up to eigenvalue 36, written beside the cases:
# every fifth 1x1 block is zero, so the dense path has a kernel to project off
TORUS_TABLE = "torus_table.json"
TORUS_TABLE_SPEC = _spec("torus2", "matrix_table", path=TORUS_TABLE)
# a dense complex SU(2) table of levels 2l = 0..48, about 1.7 MB
SU2_TABLE = "su2_table.json"
SU2_TABLE_SPEC = _spec("su2", "matrix_table", path=SU2_TABLE)
# a dense complex SU(2) table of levels 2l = 0..24 whose last row is the sum
# of the others: every block is singular up to rounding, so a counterexample
# takes the phase-fixed SVD vectors into its coefficients sidecar
SINGULAR_TABLE = "su2_singular_table.json"
# diagonal SU(2) blocks of levels 2l = 0..24 written as a dense table, their
# entries tenths in [1, 3] times a power of i, so their moduli tie, with two
# entries 1e-9 in every fourth block and two zeros in every fifth: the
# witness, the kernel and the counterexample each fall on tied values
TIED_TABLE = "su2_tied_table.json"
# SU2_TABLE damaged late, each written beside it: a cell of three parts in
# the last block, a NaN literal, the last entry's label repeating level 3,
# the file cut short, the file indented with CRLF line ends and cut short,
# whose message names the line and column of the text read with universal
# newlines, and the last entry's label an object with a "matrix" key
BAD_TABLES = ["bad_cell.json", "nan_literal.json", "repeated_label.json", "truncated.json",
              "truncated_crlf.json", "matrix_in_label.json"]
# entries l(l+1) - 3 m^2, zero at the solutions of u^2 - 3 w^2 = 1 (u = 2l+1, w = 2m)
CONIC = _spec("su2", "su2_diag", poly=[{"coeff": [1, 0], "deg_neglap": 1},
                                       {"coeff": [3, 0], "deg_d0": 2}])
# entries l(l+1) - m^2 + i m: a real symbol with a linear d0 term
GAP_D0 = _spec("su2", "su2_diag", poly=[{"coeff": [1, 0], "deg_neglap": 1},
                                        {"coeff": [1, 0], "deg_d0": 2},
                                        {"coeff": [1, 0], "deg_d0": 1}])
FOUR_SEVENTHS = _spec("torus2", "torus_poly", terms=[{"coeff": [1, 0], "deg_t": 1},
                                                    {"coeff_real": "4/7", "deg_x": 1}])
# complex rational coefficients: d0 - i/2, whose entries i (m - 1/2) vanish
# at m = 1/2, and (1+i) d_t + (3/7)(1+i) d_x, zero on the line 7 xi + 3 eta = 0
SHIFTED_D0 = _spec("su2", "su2_diag", poly=[{"coeff": [1, 0], "deg_d0": 1},
                                            {"coeff_imag": "-1/2"}])
COMPLEX_SEVENTHS = _spec("torus2", "torus_poly",
                         terms=[{"coeff": [1, 1], "deg_t": 1},
                                {"coeff_real": "3/7", "coeff_imag": "3/7", "deg_x": 1}])
CASES = [
    ["analyze", "--spec", _spec("torus2", []), "--cutoff", "100"],
    ["singular-scan", "--spec", GAP, "--cutoff", "nan"],
    ["analyze", "--spec", PHI, "--cutoff", "1e20"],
    ["subelliptic", "--spec", '{"model": 1}', "--cutoff", "100", "--probes", "-1"],
    ["counterexample", "--spec", GAP, "--cutoff", "200", "--tol", "-1"],
    # a negative tol would hide the gap's exact zero at l = 0
    ["singular-scan", "--spec", GAP, "--cutoff", "100", "--tol", "-1"],
    # commands that load no numpy: help, version, an exact expansion, and a
    # spec with a violation in each part
    ["--help"],
    ["--version"],
    ["diophantine", "--c", "1/3"],
    ["analyze", "--spec", json.dumps({"model": {"kind": "su2"}, "options": {"tol": "x"},
                                      "operator": {"kind": "su2_diag", "poly": [{"deg_d0": 9}]}}),
     "--cutoff", "100"],
    ["fit-exponent", "--spec", PELL, "--cutoff", "2000"],
    ["pell", "--d", "8", "--count", "6000"],
    # windows of many lattice bands and reduction chunks: the verdict, fit and
    # order of 785,349 characters, and 249 singular points spread over 62 bands
    ["analyze", "--spec", PHI, "--cutoff", "250000.5"],
    ["singular-scan", "--spec", FOUR_SEVENTHS, "--cutoff", "1000000"],
    # SU(2) window passes at a cutoff no plan reaches: the kernel and C*, the
    # counterexample screen, and a gain table across the screen's hand-over
    ["subelliptic", "--spec", GAP, "--cutoff", "1e6", "--probes", "0"],
    ["counterexample", "--spec", PELL, "--cutoff", "1e6", "--k", "4"],
    ["analyze", "--spec", SCALED_GAP, "--cutoff", "1e6"],
    # coefficient fields on the torus: probes past every plan's cutoff, and
    # the classification of a counterexample field of 12 frequencies
    ["subelliptic", "--spec", PHI, "--cutoff", "20000", "--probes", "3", "--seed", "5"],
    ["counterexample", "--spec", FOUR_SEVENTHS, "--cutoff", "20000", "--k", "12"],
    # 20 torus probes whose labels lie in all 13 lattice bands of the window
    ["subelliptic", "--spec", PHI, "--cutoff", "200000", "--probes", "20", "--seed", "5"],
    # probes projected off a torus kernel of 35 blocks, with kernel frequencies
    # at the window's edge
    ["subelliptic", "--spec", FOUR_SEVENTHS, "--cutoff", "20000", "--probes", "5", "--seed", "2"],
    # a report refused for an int too long for text, found before encoding
    ["diophantine", "--c", "(1+1*sqrt(5))/2", "--cf-terms", "40000"],
    # torus lattice minima off the screened exact path: an enclosure, weights
    # beyond float range either way, enclosures that cannot order the ball
    # (a resonance 3/7 inside, a wide one), and an exponent of a million
    ["torus-gain", "--c", "dec:1.41421356237~1e-12", "--radius", "100", "--exp", "1"],
    ["torus-gain", "--c", "(0+1*sqrt(2))/1", "--radius", "100", "--exp", "200"],
    ["torus-gain", "--c", "(0+1*sqrt(2))/1", "--radius", "60", "--exp=-200"],
    ["torus-gain", "--c", "dec:3/7~1e-12", "--radius", "7"],
    ["torus-gain", "--c", "dec:0.5~0.1666", "--radius", "4"],
    ["torus-gain", "--c", "dec:0.333~1e-9", "--radius", "8", "--exp", "1000000"],
    # the 1x1 dense blocks of a torus table: kernel, probes, C*, the
    # counterexample's field and image, and the gains sidecar
    ["subelliptic", "--spec", TORUS_TABLE_SPEC, "--cutoff", "36", "--probes", "20",
     "--seed", "3"],
    ["counterexample", "--spec", TORUS_TABLE_SPEC, "--cutoff", "36", "--k", "2",
     "--out", "table_counterexample.json"],
    ["analyze", "--spec", TORUS_TABLE_SPEC, "--cutoff", "36", "--out", "table_analyze.json"],
    # SU(2) gain tables walked from a few entries per level: 20,000 levels
    # with their gains sidecar, zeros inside the levels, a linear d0 term,
    # the counterexample search over 3,464 levels, and torus probes
    ["analyze", "--spec", GAP, "--cutoff", "1e8", "--out", "gap_analyze.json"],
    ["singular-scan", "--spec", CONIC, "--cutoff", "1e6"],
    ["analyze", "--spec", GAP_D0, "--cutoff", "1e6"],
    ["counterexample", "--spec", PELL, "--cutoff", "3e6", "--k", "5"],
    ["subelliptic", "--spec", PHI, "--cutoff", "1e5", "--probes", "2"],
    # SU(2) probes past every plan's cutoff: blocks up to 2l = 631, and a
    # kernel of dimension 265 whose projection leaves part of a vector
    ["subelliptic", "--spec", GAP, "--cutoff", "1e5", "--probes", "20", "--seed", "3"],
    ["subelliptic", "--spec", CONIC, "--cutoff", "5000", "--probes", "20", "--seed", "4"],
    # certificates and exact counterexample searches on complex rational
    # coefficients, read from the integral form
    ["analyze", "--spec", SHIFTED_D0, "--cutoff", "2000"],
    ["counterexample", "--spec", SHIFTED_D0, "--cutoff", "2000", "--k", "4"],
    ["analyze", "--spec", COMPLEX_SEVENTHS, "--cutoff", "2000"],
    ["counterexample", "--spec", COMPLEX_SEVENTHS, "--cutoff", "2000", "--k", "3"],
    # a coefficients sidecar of 343,028 rows, 82 chunks of them at level 288
    ["counterexample", "--spec", PELL, "--cutoff", "1e5", "--k", "4",
     "--out", "pell_counterexample.json"],
    # a dense SU(2) table, and damaged copies of it, which fail with the
    # whole document's violations
    ["analyze", "--spec", SU2_TABLE_SPEC, "--cutoff", "600", "--out", "su2_table_analyze.json"],
    ["subelliptic", "--spec", SU2_TABLE_SPEC, "--cutoff", "600", "--probes", "3", "--seed", "2"],
    *(["analyze", "--spec", _spec("su2", "matrix_table", path=bad), "--cutoff", "600"]
      for bad in BAD_TABLES),
    # the vectors of dense blocks: phase-fixed in a counterexample's sidecar,
    # and on tied singular values as a witness, a kernel and a counterexample
    ["counterexample", "--spec", _spec("su2", "matrix_table", path=SINGULAR_TABLE),
     "--cutoff", "150", "--k", "3", "--out", "singular_counterexample.json"],
    ["subelliptic", "--spec", _spec("su2", "matrix_table", path=TIED_TABLE), "--cutoff", "150",
     "--m", "1", "--probes", "5", "--seed", "1"],
    ["counterexample", "--spec", _spec("su2", "matrix_table", path=TIED_TABLE),
     "--cutoff", "150", "--k", "2", "--out", "tied_counterexample.json"],
]


def write_torus_table(path: Path) -> None:
    """``TORUS_TABLE``: a seeded complex entry per character with
    xi^2 + eta^2 <= 36, every fifth of them zero."""
    rng = random.Random(36)
    labels = [[xi, eta] for xi in range(-6, 7) for eta in range(-6, 7) if xi * xi + eta * eta <= 36]
    entries = [{"label": label, "matrix": [[[0, 0] if i % 5 == 0 else
                                            [rng.gauss(0, 1), rng.gauss(0, 1)]]]}
               for i, label in enumerate(labels)]
    path.write_text(json.dumps({"entries": entries}))


def write_su2_tables(workdir: Path) -> None:
    """``SU2_TABLE``: a seeded complex block per level, and ``BAD_TABLES``."""
    rng = random.Random(48)
    entries = [{"label": t, "matrix": [[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(t + 1)]
                                       for _ in range(t + 1)]} for t in range(49)]
    text = json.dumps({"entries": entries})
    (workdir / SU2_TABLE).write_text(text)
    last = text.rindex("]]]")  # the end of the last block
    part = text.rindex(", ", 0, last)  # before its last part
    crlf = json.dumps({"entries": entries}, indent=1).replace("\n", "\r\n")
    damaged = [text[:last] + ", 0]]]" + text[last + 3:], text[:part] + ", NaN" + text[last:],
               text.replace('"label": 48,', '"label": 3,'), text[:-100], crlf[:-100],
               text.replace('"label": 48,', '"label": {"twice_ell": 48, "matrix": [[[1, 0]]]},')]
    for name, bad in zip(BAD_TABLES, damaged):
        (workdir / name).write_bytes(bad.encode("utf-8"))


def write_vector_tables(workdir: Path) -> None:
    """``SINGULAR_TABLE`` and ``TIED_TABLE``, each seeded."""
    rng = random.Random(24)
    singular, tied = [], []
    for t in range(25):
        rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(t + 1)] for _ in range(t)]
        rows.append([sum(col) for col in zip(*rows)] if rows else [0j])
        singular.append({"label": t, "matrix": [[[z.real, z.imag] for z in row] for row in rows]})
        size = [rng.randint(10, 30) / 10 for _ in range(t + 1)]
        for due, tiny in ((t % 4 == 3, 1e-9), (t % 5 == 4, 0.0)):
            if due:
                size[0] = size[-1] = tiny
        diag = [r * 1j ** rng.randrange(4) for r in size]
        tied.append({"label": t, "matrix": [[[diag[i].real, diag[i].imag] if i == j else [0, 0]
                                             for j in range(t + 1)] for i in range(t + 1)]})
    (workdir / SINGULAR_TABLE).write_text(json.dumps({"entries": singular}))
    (workdir / TIED_TABLE).write_text(json.dumps({"entries": tied}))


def _digests(workdir: Path) -> dict[str, str]:
    return {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def _one_cpu() -> None:
    """Pin the calling process, a child before it runs the command, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(src: Path, argv: list[str], workdir: Path, preexec_fn=None, cache=None) -> tuple:
    """(exit code, stdout, stderr, digests of the files written) of one
    command, whose cache of parsed tables is the directory ``cache``, or an
    empty one of its own."""
    before = _digests(workdir)
    with tempfile.TemporaryDirectory() as empty:
        proc = subprocess.run([sys.executable, "-m", "hyposym.cli", *argv], cwd=workdir,
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       XDG_CACHE_HOME=cache or empty),
                              capture_output=True, preexec_fn=preexec_fn)
    written = {k: v for k, v in _digests(workdir).items() if before.get(k) != v}
    return proc.returncode, proc.stdout, proc.stderr, written


def _reads_table(argv: list[str], workdir: Path) -> bool:
    """Whether a command's spec, a JSON text or a file, names a matrix table."""
    if "--spec" not in argv:
        return False
    spec = argv[argv.index("--spec") + 1]
    try:
        doc = json.loads(spec if spec.lstrip().startswith("{") else (workdir / spec).read_text())
        return doc["operator"]["kind"] == "matrix_table"
    except (OSError, ValueError, KeyError, TypeError):  # not a spec this check can read
        return False


def _runs(src: Path, argv: list[str], workdir: Path, warm: bool) -> dict[str, tuple]:
    """The runs of one command (see ``_run``) by name: ``cold``, and for a
    command that writes a sidecar or ``_reads_table``, ``pinned`` to one
    CPU; with ``warm``, a command that reads a matrix table runs
    ``warm`` too, with the cache the cold run filled.  Before each run
    after the first, the files the first wrote are removed so that it
    writes them afresh."""
    table = _reads_table(argv, workdir)
    with tempfile.TemporaryDirectory() as cache:
        runs = {"cold": _run(src, argv, workdir, cache=cache)}

        def again(name: str, **how) -> None:
            for written in runs["cold"][3]:
                (workdir / written).unlink(missing_ok=True)
            runs[name] = _run(src, argv, workdir, **how)

        if ("--out" in argv or table) and hasattr(os, "sched_setaffinity"):
            again("pinned", preexec_fn=_one_cpu)
        if warm and table:
            again("warm", cache=cache)
    return runs


def run_plan(src: Path, workload: str, seed: int, size: str, workdir: Path,
             warm: bool) -> list[tuple]:
    """(name, runs) per command, ``runs`` as ``_runs`` gives them."""
    plan = workloads.generate(workload, seed, size, workdir)
    results = []
    for cmd in plan.commands:
        runs = _runs(src, cmd.argv, workdir, warm)
        (workdir / cmd.stdout).write_bytes(runs["cold"][1])
        results.append((" ".join(cmd.argv), runs))
    return results


def run_cases(src: Path, workdir: Path, warm: bool) -> list[dict]:
    """The runs of each fixed case, as ``_runs`` gives them."""
    workdir.mkdir()
    write_torus_table(workdir / TORUS_TABLE)
    write_su2_tables(workdir)
    write_vector_tables(workdir)
    return [_runs(src, argv, workdir, warm) for argv in CASES]


def _differences(old_runs: dict, new_runs: dict) -> list[str]:
    """What differs between the runs of one command (see ``_runs``): the
    old and the new run, or, for a command also run pinned to one CPU, the
    old and the new pinned run and the new run on every CPU and pinned;
    and the new cold and warm runs."""
    pairs = [("", old_runs["cold"], new_runs["cold"])]
    if "pinned" in new_runs:
        pairs = [(" on one CPU", old_runs["pinned"], new_runs["pinned"]),
                 (" between every CPU and one on the new side", new_runs["cold"],
                  new_runs["pinned"])]
    if "warm" in new_runs:
        pairs.append((" between a cold and a warm table cache on the new side",
                      new_runs["cold"], new_runs["warm"]))
    return [f"{what} differs{where}" for where, a, b in pairs
            for what, x, y in zip(("exit code", "stdout", "stderr", "files"), a, b) if x != y]


def compare_cases(old_src: Path, new_src: Path) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        old = run_cases(old_src, Path(tmp) / "old", warm=False)
        new = run_cases(new_src, Path(tmp) / "new", warm=True)
    return [f"case {' '.join(argv)}: {problem}"
            for argv, a, b in zip(CASES, old, new) for problem in _differences(a, b)]


def compare(old_src: Path, new_src: Path, workload: str, seed: int, size: str) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        old = run_plan(old_src, workload, seed, size, Path(tmp) / "old", warm=False)
        new = run_plan(new_src, workload, seed, size, Path(tmp) / "new", warm=True)
    return [f"{workload} {size} seed {seed}: {name}: {problem}"
            for (name, a), (_, b) in zip(old, new) for problem in _differences(a, b)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--sizes", nargs="+", default=["toy", "full"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    problems, plans = [], 0
    for workload in args.workloads:
        for size in args.sizes:
            for seed in args.seeds:
                problems += compare(args.old_src.resolve(), args.new_src.resolve(),
                                    workload, seed, size)
                plans += 1
    problems += compare_cases(args.old_src.resolve(), args.new_src.resolve())
    pinned = (", sidecar and table commands also on one CPU"
              if hasattr(os, "sched_setaffinity") else "")
    print("\n".join(problems) if problems
          else f"{plans} plans and {len(CASES)} cases{pinned}, table commands also warm,"
               " byte-identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
