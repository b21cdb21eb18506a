"""Spans around hyposym's public functions, and the in-process replay.

``Recorder.install`` replaces each function named in ``TIMED`` in every
hyposym module namespace that holds it (plus ``numpy.linalg.svd`` and the
per-frequency ``MatrixSymbol.gain``/``opnorm``) with a wrapper that records
a span (name, start, end, parent, run id) or bumps a counter.  Spans stay in
memory and are written out at the end; ``layer_metrics`` turns them into
self times (span minus its child spans) and call counts.

Run as a script, this replays a workload plan through ``hyposym.cli.main``
in one process: an untraced pass, then a traced pass, repeated while time
remains.  It writes per-pass command timings, output digests and layer
metrics as JSON.  The package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# public functions per module, timed as "<module>.<function>" spans
TIMED = {
    "spectral": ("torus_lattice", "su2_levels", "enumerate_frequencies",
                 "frequency_for_label"),
    "symbols": ("gain_table", "estimate_order", "su2_diag_exact", "torus_value_exact"),
    "hypo": ("verdict", "certify", "fit_growth", "singular_scan"),
    "fitting": ("envelope_fit",),
    "coefficients": ("random_field", "sobolev_norm", "apply_symbol",
                     "classify_regularity", "build_counterexample"),
    "subelliptic": ("kernel_on_truncation", "best_alpha_constant", "extremal_field",
                    "check_alpha", "check_beta"),
    "diophantine": ("torus_min_gain", "pell_solutions"),
    "exact": ("parse_real",),
    "specfile": ("parse_spec",),
    "cli": ("_write_gains_csv", "_write_coeffs_csv", "_emit"),
}
# both exact evaluators report as one layer
SPAN_NAMES = {"su2_diag_exact": "symbols.exact_eval", "torus_value_exact": "symbols.exact_eval"}
SVD_SPAN = "symbols.svd"
COMMAND_SPAN = "cli.command"

# counters: name -> amount for one call, from its arguments and result
COUNTED = {
    "torus_lattice": ("spectral.frequencies", lambda args, result: len(result[0])),
    "su2_levels": ("spectral.frequencies", lambda args, result: len(result)),
    # the ball 0 < |xi| + |eta| <= r holds 2 r (r + 1) points
    "torus_min_gain": ("diophantine.ball_points", lambda args, result: 2 * args[1] * (args[1] + 1)),
    "_write_gains_csv": ("cli.sidecar_bytes", lambda args, result: os.path.getsize(args[0])),
    "_write_coeffs_csv": ("cli.sidecar_bytes", lambda args, result: os.path.getsize(args[0])),
}
BLOCK_EVALS = "symbols.block_evals"


def span_name(module: str, func: str) -> str:
    return SPAN_NAMES.get(func, f"{module}.{func.lstrip('_')}")


def layer_metric_names() -> set[str]:
    """Every per-layer metric a traced pass can report."""
    spans = {span_name(m, f) for m, funcs in TIMED.items() for f in funcs}
    spans |= {SVD_SPAN, COMMAND_SPAN}
    names = {f"{s}_{suffix}" for s in spans for suffix in ("s", "calls")}
    names |= {c for c, _ in COUNTED.values()} | {BLOCK_EVALS, "trace.overhead_s"}
    names |= {f"cmd.{c}_s" for c in ("analyze", "fit_exponent", "singular_scan",
                                     "subelliptic", "counterexample", "torus_gain")}
    return names


class Recorder:
    """Spans and counters of one traced pass, and the patches that feed them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def _count_calls(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[BLOCK_EVALS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy
        from hyposym.symbols import MatrixSymbol

        loaded = [m for n, m in sys.modules.items() if n == "hyposym" or n.startswith("hyposym.")]
        for short, funcs in TIMED.items():
            home = importlib.import_module(f"hyposym.{short}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(span_name(short, func), original, COUNTED.get(func))
                for module in loaded:
                    if getattr(module, func, None) is original:
                        self._patch(module, func, wrapper)
        self._patch(numpy.linalg, "svd", self.wrap(SVD_SPAN, numpy.linalg.svd))
        for method in ("gain", "opnorm"):
            self._patch(MatrixSymbol, method, self._count_calls(getattr(MatrixSymbol, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON object per span; ``parent`` indexes the spans of the same pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, run in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "run": run}) + "\n")


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """(summed self time, call count) per span name.

    Self time is a span's duration minus the durations of its direct
    children; the package is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name][0] += (end - start) - child[i]
        totals[name][1] += 1
    return {name: (t[0], t[1]) for name, t in totals.items()}


def file_digest(path: Path) -> str | None:
    """sha256 of a file's bytes, or None when the command did not write it."""
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def replay(plan: dict, workdir: Path, recorder: Recorder | None, tag: str) -> list[dict]:
    """Run every command of the plan through cli.main in this process."""
    from hyposym import cli

    results = []
    for i, cmd in enumerate(plan["commands"]):
        main = cli.main
        if recorder is not None:
            recorder.run_id = f"{tag}:{i}"
            main = recorder.wrap(COMMAND_SPAN, main)
        with open(workdir / cmd["stdout"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                rc = main(list(cmd["argv"]))
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command; the replay goes on
                traceback.print_exc()
                rc = 1
            wall = time.perf_counter() - start
        results.append({"name": cmd["name"], "rc": rc, "wall_s": wall,
                        "digests": [file_digest(workdir / o) for o in cmd["outputs"]]})
    return results


def layer_metrics(spans: list[list], counts: dict[str, int], untraced: list[dict],
                  traced: list[dict]) -> dict[str, float]:
    out: dict[str, float] = dict(counts)
    for name, (self_s, calls) in self_times(spans).items():
        out[f"{name}_s"] = self_s
        out[f"{name}_calls"] = calls
    for r in untraced:
        key = f"cmd.{r['name'].replace('-', '_')}_s"
        out[key] = out.get(key, 0.0) + r["wall_s"]
    out["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    args = parser.parse_args(argv)

    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    os.chdir(args.workdir)
    workdir = Path(".")
    import hyposym.cli  # noqa: F401  (load every module before patching)

    passes, all_spans = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced = replay(plan, workdir, None, "")
        recorder = Recorder()
        recorder.install()
        try:
            traced = replay(plan, workdir, recorder, f"pass{len(passes)}")
        finally:
            recorder.uninstall()
        passes.append({"untraced": untraced, "traced": traced,
                       "layers": layer_metrics(recorder.spans, recorder.counts,
                                               untraced, traced)})
        all_spans.extend(recorder.spans)
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break
    write_spans(args.spans, all_spans)
    args.out.write_text(json.dumps({"passes": passes}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
