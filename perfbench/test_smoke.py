"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced; each metric listed in
BENCHMARK.json must come out with its unit, the traced counts must match
what the code implies, and every check must catch a corrupted output.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from spans import layer_metric_names

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@functools.cache
def bench(workload: str, trace: int):
    """(result line, spans) of one toy run; spans only for traced runs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = None
    if trace:
        path = ROOT / ".perfbench_work" / workload / "spans.jsonl"
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return result, spans


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCH["per_layer"]} <= layer_metric_names()


def _spans_per_command(spans, name):
    counts = {}
    for s in spans:
        if s["name"] == name:
            counts[s["run"]] = counts.get(s["run"], 0) + 1
    return counts


def test_traced_counts_follow_the_code():
    result, spans = bench("torus_window", 1)
    layers = {n: m["value"] for n, m in result["metrics"].items()}
    # analyze --out builds its gain table for the verdict, the order
    # estimate and the CSV; command 0 of every pass is analyze
    analyze = {run: n for run, n in _spans_per_command(spans, "symbols.gain_table").items()
               if run.endswith(":0")}
    assert analyze and set(analyze.values()) == {3}
    assert layers["symbols.block_evals"] == 0
    self_times = {n: v for n, v in layers.items()
                  if n.endswith("_s") and n.split(".")[0] not in ("cmd", "trace")}
    assert max(self_times, key=self_times.get) == "cli.write_gains_csv_s"

    _, spans = bench("subelliptic_probes", 1)
    assert set(_spans_per_command(spans, "subelliptic.kernel_on_truncation").values()) == {3}


def _edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _drop_last_line(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


CORRUPT = {
    "torus_analyze": lambda wd, p: _drop_last_line(wd / p["gains_csv"]),
    "su2_analyze": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d["verdict"].update(h_hat=d["verdict"]["h_hat"] + 0.5)),
    "fit_exponent": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d.update(h_hat=d["h_hat"] * (1 + 1e-12))),
    "singular_scan": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d["singular"].append({"label": "l=1/2"})),
    "subelliptic": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d["report"].update(c_star=d["report"]["c_star"] * 1.001)),
    "counterexample": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d["certificates"][-1].update(exact=False)),
    "torus_gain": lambda wd, p: _edit_json(
        wd / p["report"], lambda d: d.update(argmin=[-v for v in d["argmin"]])),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_corrupted_outputs(workload, tmp_path):
    plan = workloads.generate(workload, 7, "toy", tmp_path)
    for cmd in plan.commands:
        with open(tmp_path / cmd.stdout, "wb") as out:
            subprocess.run([sys.executable, "-m", "hyposym.cli", *cmd.argv], cwd=tmp_path,
                           env=ENV, stdout=out, check=True, timeout=300)
    for cmd in plan.commands:
        assert checks.verify(cmd.check, cmd.params, tmp_path) == []
    for cmd in plan.commands:
        saved = {o: (tmp_path / o).read_bytes() for o in cmd.outputs}
        CORRUPT[cmd.check](tmp_path, cmd.params)
        assert checks.verify(cmd.check, cmd.params, tmp_path), f"{cmd.name} corruption missed"
        for name, data in saved.items():
            (tmp_path / name).write_bytes(data)
