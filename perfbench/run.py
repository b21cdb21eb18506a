"""Benchmark of the hyposym CLI: end-to-end runs and a traced layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus_window --seed 1 --seconds 25 --trace 0

With ``--trace 0`` each command of the workload runs as a fresh
``python3 -m hyposym.cli`` subprocess, one at a time from this single benchmark
process (a closed loop with one client), repeating the command sequence
until ``--seconds`` is used up; it reports set-up time, sequence wall time
and peak RSS.  With ``--trace 1`` the same commands are replayed in one
process through ``hyposym.cli.main`` (see spans.py) and the per-layer
self times and counts are reported.  Every output is checked against an
independent answer (checks.py).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import file_digest, layer_metric_names

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_FIRST = 4
SETUP_MIN = 9
MIN_ITERATIONS = 2
COMMAND_TIMEOUT_S = 150.0
SETUP_SNIPPET = (
    "import sys, hyposym\n"
    "from hyposym.specfile import parse_spec\n"
    "for path in sys.argv[1:]:\n"
    "    parse_spec(path)\n"
)


def run_child(argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(root: Path, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "src_lines": src_line_count(root),
    }


class Tally:
    """Invocations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def check_outputs(plan, workdir: Path, codes: list[int], digests: list, reference: list,
                  tally: Tally, label: str) -> None:
    """Check each command's exit code, outputs and bytes against the first run."""
    for i, cmd in enumerate(plan.commands):
        problems = [f"exit code {codes[i]}"] if codes[i] != 0 else []
        if not problems:
            problems = checks.verify(cmd.check, cmd.params, workdir)
        if digests[i] != reference[i]:
            problems.append("output bytes differ from the first run")
        tally.record(f"{label} {cmd.name} #{i}", problems)


def untraced_run(plan, workdir: Path, env: dict, seconds: float, tally: Tally):
    deadline = time.perf_counter() + seconds
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, *plan.specs]
    setup = []

    def time_setup() -> float:
        rc, wall, _ = run_child(setup_argv, workdir, env, workdir / "setup.out",
                                workdir / "setup.err")
        tally.record("setup", [] if rc == 0 else [f"exit code {rc}"])
        return wall

    time_setup()  # fills the bytecode cache
    # set-up samples are spread over the run, so slow drift of the machine
    # weighs on them as on the commands
    setup.extend(time_setup() for _ in range(SETUP_FIRST))
    walls, rss, per_cmd, loops, reference = [], [], [], [], None
    while len(walls) < MIN_ITERATIONS or time.perf_counter() + statistics.median(loops) <= deadline:
        loop_start = time.perf_counter()
        setup.append(time_setup())
        codes, times, peaks, digests = [], [], [], []
        for cmd in plan.commands:
            rc, wall, peak = run_child([sys.executable, "-m", "hyposym.cli", *cmd.argv],
                                       workdir, env, workdir / cmd.stdout,
                                       workdir / (cmd.stdout + ".err"))
            codes.append(rc)
            times.append(wall)
            peaks.append(peak)
            digests.append([file_digest(workdir / o) for o in cmd.outputs])
        reference = reference or digests
        check_outputs(plan, workdir, codes, digests, reference, tally,
                      f"iteration {len(walls)}")
        walls.append(sum(times))
        rss.append(max(peaks))
        per_cmd.append(times)
        loops.append(time.perf_counter() - loop_start)
    while len(setup) < SETUP_MIN:
        setup.append(time_setup())

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    # per command name, the median over iterations of its summed time
    detail = {}
    for name in dict.fromkeys(c.name for c in plan.commands):
        sums = [sum(t for c, t in zip(plan.commands, times) if c.name == name)
                for times in per_cmd]
        detail[f"{name.replace('-', '_')}_s"] = statistics.median(sums)
    samples = {"setup_s": setup, "wall_s": walls, "peak_rss_mb": rss}
    return metrics, detail, samples


def traced_run(plan, workdir: Path, env: dict, seconds: float, tally: Tally, base: Path):
    plan_path = base / "plan.json"
    plan_path.write_text(plan.to_json(), encoding="utf-8")
    result_path = base / "replay.json"
    argv = [sys.executable, str(BENCH_DIR / "spans.py"), "--plan", str(plan_path),
            "--workdir", str(workdir), "--seconds", repr(seconds),
            "--out", str(result_path), "--spans", str(base / "spans.jsonl")]
    rc, _, _ = run_child(argv, workdir, env, base / "replay.out", base / "replay.err")
    if rc != 0:
        tally.record("traced replay", [f"exit code {rc}"])
        return {}, {"passes": 0}
    passes = json.loads(result_path.read_text(encoding="utf-8"))["passes"]

    reference = [r["digests"] for r in passes[0]["untraced"]]
    for n, p in enumerate(passes):
        for kind in ("untraced", "traced"):
            runs = p[kind]
            check_outputs(plan, workdir, [r["rc"] for r in runs], [r["digests"] for r in runs],
                          reference, tally, f"pass {n} {kind}")
    layers = {}
    for name in sorted(layer_metric_names()):
        layers[name] = statistics.median(p["layers"].get(name, 0) for p in passes)
    return layers, {"passes": len(passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyposym CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                        help="input sizes; 'toy' is for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyposym" / "cli.py").is_file():
        print(f"no hyposym sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    base = root / WORK_DIR / args.workload
    shutil.rmtree(base, ignore_errors=True)
    workdir = base / "run"
    plan = workloads.generate(args.workload, args.seed, args.size, workdir)
    meta = run_metadata(root, args)
    env = child_env(root)
    tally = Tally()
    if args.trace:
        values, samples = traced_run(plan, workdir, env, args.seconds, tally, base)
        detail = {}
    else:
        values, detail, samples = untraced_run(plan, workdir, env, args.seconds, tally)
    meta["samples"] = samples
    (base / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        tally.record("metrics", [f"not measured: {', '.join(missing)}"])

    print("meta " + json.dumps(meta))
    for problem in tally.problems:
        print("FAILED " + problem)
    for name, value in detail.items():
        print(f"command {name} {value:.6f} s (median of {len(samples['wall_s'])})")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"fail_rate {tally.failed / max(tally.attempted, 1):.6f} "
          f"({tally.failed} of {tally.attempted} invocations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
