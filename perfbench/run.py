#!/usr/bin/env python3
"""Benchmark of the ``geohpi index`` command on three seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload monthly --seed 1 --seconds 25 --trace 0

Set-up generates the workload's input CSV from the seed, several times,
and reports the median generation time as ``setup_s``.

``--trace 0`` (timed runs): runs ``geohpi index`` in a fresh child Python
process, one child at a time, until the next run would overrun
``--seconds`` (at least three runs).  Each run is one operation; it fails
on a non-zero exit or a failed output check.  Reports the median wall time
from spawn to exit (``index_s``) and the median peak RSS of the child
(``peak_rss_mb``, its VmHWM).

``--trace 1`` (traced run): the same command through ``geohpi.cli.main`` in
this process with wrappers around each layer's public functions, then once
more untraced for the tracing overhead, then per-call ``nearest_in_group``
timings on the run's own tree and the uniform-tree scaling of acceptance
criterion 3.  Reports the per-layer numbers; the spans go to
``.perfbench_work/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 when that line
was printed, 2 when the benchmark cannot run here (no ``src/geohpi``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("monthly", "dense_cell", "dirty_feed")
# Set-up repeats until it has run SETUP_MIN_REPEATS times and for
# SETUP_MIN_SECONDS, so that a cheap generator is timed often enough to
# give a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 60
SETUP_MIN_SECONDS = 3.0
MIN_TIMED_RUNS = 3


def _load_program() -> bool:
    """Import the program from this checkout; False when it is absent."""
    if not (SRC / "geohpi" / "cli.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    import geohpi.cli  # noqa: F401  (also compiles the children's bytecode)
    return True


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def set_up(name: str, seed: int, work: Path, repeat: bool, sizes=None):
    """Generate the workload, repeatedly if asked; (median seconds, workload)."""
    import workloads

    times: list[float] = []
    while not times or repeat and len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS):
        start = time.perf_counter()
        workload = workloads.make(name, seed, work, sizes)
        times.append(time.perf_counter() - start)
    return statistics.median(times), workload


def index_argv(workload, out_dir: Path) -> list[str]:
    return ["index", "--input", str(workload.csv_path), "--output-dir", str(out_dir),
            *workload.flags]


# The child records its own peak RSS (VmHWM).  ru_maxrss from os.wait4
# would also count the benchmark's own memory, which a child inherits at
# fork, and so could never read below this process's RSS.
_CHILD = """\
import atexit, os, sys
from geohpi.cli import entrypoint

def _record_peak(path=os.environ["PERFBENCH_PEAK_FILE"]):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM")))

atexit.register(_record_peak)
entrypoint()
"""


def run_child(workload, out_dir: Path) -> dict:
    """One ``geohpi index`` in a fresh interpreter: wall seconds, peak RSS, status."""
    out_dir.mkdir(parents=True)
    peak_file = out_dir / "peak_rss.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_PEAK_FILE=str(peak_file))
    cmd = [sys.executable, "-c", _CHILD, *index_argv(workload, out_dir)]
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            proc.wait()
        finally:  # interrupted or terminated: leave no child behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    peak_kb = peak_file.read_text().split()[1] if peak_file.is_file() else "nan"
    return {"seconds": seconds, "peak_rss_mb": float(peak_kb) / 1024,
            "exit": proc.returncode}


def judge(run: dict, out_dir: Path, workload) -> list[str]:
    """Output check of one run; records the output digests in ``run``."""
    import check

    if run["exit"] != 0:
        err = (out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return [f"exit code {run['exit']}: {err.strip()[-300:]}"]
    problems = check.check_run(out_dir, workload)
    if math.isnan(run["peak_rss_mb"]):
        problems.append("the child did not record its peak RSS")
    if not problems:
        run["sha256"] = {name: check.sha256(out_dir / name)
                         for name in ("index_series.csv", "ratio_matrix.csv")}
    return problems


def timed_runs(workload, work: Path, seconds: float) -> dict:
    runs, failed, digests = [], 0, None
    start = time.perf_counter()
    while True:
        out_dir = work / f"run{len(runs)}"
        run = run_child(workload, out_dir)
        problems = judge(run, out_dir, workload)
        if "sha256" in run:
            digests = digests or run["sha256"]
            if run["sha256"] != digests:
                problems.append("outputs differ from an earlier run's")
        shutil.rmtree(out_dir)
        runs.append(run)
        failed += bool(problems)
        print(f"run {len(runs)}: {run['seconds']:.3f} s, {run['peak_rss_mb']:.1f} MB"
              + (f", FAILED: {'; '.join(problems)}" if problems else ""))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in runs)
        if len(runs) >= MIN_TIMED_RUNS and elapsed + typical > seconds:
            break
    for name, digest in (digests or {}).items():
        print(f"sha256 {workload.name} {name} {digest}")
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "index_s": statistics.median(r["seconds"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
    }


def _in_process(workload, out_dir: Path) -> tuple[int, str]:
    """``geohpi index`` through ``cli.main`` here; (exit status, stderr)."""
    from geohpi import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = cli.main(index_argv(workload, out_dir))
    return status, err.getvalue()


def _checked_in_process(workload, out_dir: Path) -> list[str]:
    import check

    status, err = _in_process(workload, out_dir)
    if status != 0:
        return [f"exit code {status}: {err.strip()[-300:]}"]
    return check.check_run(out_dir, workload)


def _check_ingestion(tracer, workload) -> list[str]:
    """The exact row accounting, from the captured ingestion results."""
    import check

    try:
        parsed = tracer.result("cli.parse_listings")[1]
        filtered = tracer.result("cli.filter_listings")[1]
    except IndexError:
        print("note: ingestion functions renamed; exact row accounting not checked")
        return []
    return check.check_ingestion(workload, *parsed, *filtered)


def traced_run(workload, work: Path, seed: int) -> dict:
    """The traced run, then the same run untraced for the tracing overhead.

    Both run in this process, so that the overhead compares like with like.
    """
    import tracing
    from geohpi import cli, geotree, index_engine

    tracer = tracing.Tracer(run_id=f"{workload.name}-{seed}")
    tracing.install_layer_wrappers(tracer, cli, index_engine, geotree)
    try:
        root = tracer.open_span("cli.index")
        traced = _checked_in_process(workload, work / "traced")
        tracer.close_span(root)
    finally:
        tracer.restore()
    traced_s = tracer.spans[root]["end"] - tracer.spans[root]["start"]
    traced += _check_ingestion(tracer, workload)
    metrics = tracing.layer_metrics(tracer, seed)

    # the untraced run gets a heap as empty as the traced one had
    tracer.captured.clear()
    gc.collect()
    start = time.perf_counter()
    untraced = _checked_in_process(workload, work / "untraced")
    metrics["trace_overhead"] = traced_s / (time.perf_counter() - start)
    for label, problems in (("traced", traced), ("untraced", untraced)):
        for problem in problems:
            print(f"{label} run FAILED: {problem}")
    metrics.update(tracing.scaling_us())

    spans_path = WORK_ROOT / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps({"missing": sorted(tracer.missing),
                                      "spans": tracer.spans}, indent=1))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    _print_split(metrics, traced_s)
    return {"attempted": 2, "failed": bool(traced) + bool(untraced), "metrics": metrics}


def _print_split(metrics: dict, traced_s: float) -> None:
    shares = {
        "parse+filter": metrics.get("ingestion.parse_s", 0) + metrics.get(
            "ingestion.filter_s", 0),
        "voting": metrics.get("index_engine.voting_s", 0),
        "ratio matrix": metrics.get("index_engine.ratio_matrix_s", 0),
    }
    print("traced %.2f s: " % traced_s + ", ".join(
        f"{name} {seconds / traced_s:.0%}" for name, seconds in shares.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not _load_program():
        print(f"error: no geohpi sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        setup_s, workload = set_up(args.workload, args.seed, work,
                                   repeat=not args.trace)
        print(f"{args.workload} seed {args.seed}, Python {platform.python_version()}, "
              f"{os.cpu_count()} CPUs: {json.dumps(workload.properties())}")
        if args.trace:
            result = traced_run(workload, work, args.seed)
        else:
            result = timed_runs(workload, work, args.seconds)
            result["metrics"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
