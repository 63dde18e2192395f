#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, in under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that both kinds of run emit exactly the metrics that
``BENCHMARK.json`` lists; that a corrupted output (a
reordered ``index_series.csv``) counts as a failed operation; and that a
wrapped name that no longer exists leaves its metrics out instead of
crashing the traced run.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {
    "monthly": {"months": 4, "per_month": 40},
    "dense_cell": {"months": 4, "per_month": 20},
    "dirty_feed": {"months": 4, "per_month": 30, "decimal_per_month": 2,
                   "junk_rows": 3000},
}
SEED = 5


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _reorder_series(out_dir: Path) -> None:
    path = out_dir / "index_series.csv"
    header, first, second, *rest = path.read_text(encoding="utf-8").splitlines(True)
    path.write_text("".join([header, second, first, *rest]), encoding="utf-8")


def main() -> int:
    if not run._load_program():
        print("no geohpi sources found", file=sys.stderr)
        return 2
    import tracing
    from geohpi import cli, index_engine

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures: list[str] = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        for name, sizes in TINY.items():
            wdir = work / name
            wdir.mkdir()
            setup_s, workload = run.set_up(name, SEED, wdir, repeat=False, sizes=sizes)

            timed = run.timed_runs(workload, wdir, seconds=0)
            timed["metrics"]["setup_s"] = setup_s
            emitted = set(timed["metrics"])
            _expect(timed["failed"] == 0, f"{name}: timed runs pass the check", failures)
            _expect(emitted == end_to_end, f"{name}: end-to-end metrics {sorted(emitted)}",
                    failures)

            traced = run.traced_run(workload, wdir, SEED)
            emitted = set(traced["metrics"])
            _expect(traced["failed"] == 0, f"{name}: traced run passes the check",
                    failures)
            _expect(emitted == per_layer, f"{name}: every per-layer metric (missing "
                    f"{sorted(per_layer - emitted)}, extra {sorted(emitted - per_layer)})",
                    failures)

        workload = run.set_up("monthly", SEED, work / "monthly", repeat=False,
                              sizes=TINY["monthly"])[1]
        honest = run.run_child

        def corrupting(workload, out_dir):
            result = honest(workload, out_dir)
            _reorder_series(out_dir)
            return result

        run.run_child = corrupting
        try:
            timed = run.timed_runs(workload, work / "monthly", seconds=0)
        finally:
            run.run_child = honest
        _expect(timed["failed"] == timed["attempted"] > 0,
                "a reordered index_series.csv is a failed operation", failures)

        tracer = tracing.Tracer("selftest")
        tracing.install_layer_wrappers(tracer, cli, index_engine, types.SimpleNamespace())
        try:
            status, _ = run._in_process(workload, work / "missing")
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer, SEED)
        gone = {"geocode.haversine_calls", "geotree.nearest_calls",
                "geotree.candidates_per_call", "index_engine.voting_queries",
                "index_engine.ratio_queries", "index_engine.ratio_match_rate"}
        _expect(status == 0 and not gone & set(metrics)
                and "index_engine.ratio_matrix_s" in metrics,
                "missing wrapped names leave their metrics out", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
