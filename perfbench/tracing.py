"""Layer tracing from outside the program, for the benchmark's traced run.

The traced run calls ``geohpi.cli.main`` in-process with wrappers around
each layer's public functions, installed where the caller looks the name
up (``geohpi.cli`` imports the ingestion and engine functions by name, and
``geohpi.geotree`` imports ``haversine_distance`` by name).  Stage
functions get one span per call; functions called once per record or
query are only counted and their time summed.  A name that no longer
exists is skipped, and the metrics that need it are left out.
"""

from __future__ import annotations

import inspect
import os
import random
import time
from typing import Any, Callable

# What a later refactor of the program raises here: a function, argument or
# field that was renamed or removed.  The metrics that need it are left out.
_RENAMED = (AttributeError, KeyError, IndexError, TypeError, ZeroDivisionError)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20 if hasattr(os, "sysconf") else 0.0


def rss_mb() -> float | None:
    """Current resident set size of this process, or None off Linux."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return None


class Tracer:
    """Spans and call counters, kept in memory until the run ends.

    A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of
    the enclosing span or None), ``run``, the RSS at both ends, and the
    change of every counter while it was open.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}  # name -> [calls, seconds]
        self.captured: dict[str, list] = {}  # span name -> [(bound args, result)]
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def open_span(self, name: str) -> int:
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "rss_start_mb": rss_mb(),
            "counts": {k: v[0] for k, v in self.calls.items()},
        })
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close_span(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_end_mb"] = rss_mb()
        span["counts"] = {k: v[0] - span["counts"].get(k, 0)
                          for k, v in self.calls.items()}
        self._open.pop()

    # -- wrappers ------------------------------------------------------

    def _install(self, owner: Any, attr: str, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.add(name)
            return
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def span_calls(self, owner: Any, attr: str, name: str,
                   capture: bool = False) -> None:
        """One span per call; with ``capture``, keep the arguments and result."""
        def make(original):
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                signature = None

            def wrapper(*args, **kwargs):
                index = self.open_span(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close_span(index)
                if capture:
                    bound = _bind(signature, args, kwargs)
                    self.captured.setdefault(name, []).append((bound, result))
                return result
            return wrapper
        self._install(owner, attr, name, make)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count the calls and sum their time, without a span per call."""
        cell = [0, 0.0]
        clock = time.perf_counter

        def make(original):
            self.calls[name] = cell

            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += clock() - start
            return wrapper
        self._install(owner, attr, name, make)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float | None:
        spans = self.named(name)
        return sum(s["end"] - s["start"] for s in spans) if spans else None

    def self_s(self, index: int) -> float:
        """Span duration minus the part of it that its children cover."""
        span = self.spans[index]
        children = sorted((s["start"], s["end"]) for s in self.spans
                          if s["parent"] == index)
        covered, reach = 0.0, span["start"]
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span["end"] - span["start"] - covered

    def result(self, name: str, index: int = 0) -> tuple[dict, Any]:
        """(bound arguments, result) of a captured call; IndexError if none."""
        return self.captured.get(name, [])[index]


def _bind(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    return dict(bound.arguments)


def install_layer_wrappers(tracer: Tracer, cli, index_engine, geotree) -> None:
    """Wrap every layer boundary on the ``geohpi index`` path."""
    for attr in ("parse_listings", "filter_listings", "compute_index", "series_metrics"):
        tracer.span_calls(cli, attr, f"cli.{attr}", capture=True)
    for attr in ("build_tree", "voting_stage", "build_ratio_matrix", "chain_index"):
        tracer.span_calls(index_engine, attr, f"index_engine.{attr}", capture=True)
    tracer.count_calls(index_engine, "record_key", "record_key")
    tracer.count_calls(getattr(geotree, "GeoTree", None), "nearest_in_group",
                       "nearest_in_group")
    tracer.count_calls(geotree, "haversine_distance", "haversine_distance")


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def sample_nearest_us(tree, records, keys, seed: int, queries: int = 2000,
                      min_population: int = 1) -> tuple[float, float]:
    """p50 and p99 microseconds of single ``nearest_in_group`` calls.

    Queries follow the ratio matrix's pattern: a record of the tree looks
    for its nearest neighbour among one month's listings.
    """
    rng = random.Random(seed)
    records = list(records)
    months = sorted({r.month_key for r in records})
    picks = [(r, keys[r.id], rng.choice(months))
             for r in (rng.choice(records) for _ in range(queries))]
    clock = time.perf_counter
    timings = []
    for record, key, month in picks:
        start = clock()
        tree.nearest_in_group(key, record.point, month, min_population=min_population)
        timings.append((clock() - start) * 1e6)
    timings.sort()
    return _percentile(timings, 0.50), _percentile(timings, 0.99)


def scaling_us(sizes=(10_000, 100_000), queries: int = 10_000) -> dict[str, float]:
    """Mean µs per ``scb_query`` and per ``nearest_in_group`` on uniform trees.

    Uses the trees of ``geohpi.bench`` (acceptance criterion 3).
    ``scb_query`` keeps that bench's minimum population of 8;
    ``nearest_in_group`` uses the pipeline's default of 1.
    """
    from geohpi import bench
    from geohpi.geocode import decode_geohash

    out: dict[str, float] = {}
    try:
        _scaling(bench, decode_geohash, sizes, queries, out)
    except _RENAMED:
        pass  # keep what was measured before the missing name
    return out


def _scaling(bench, decode_geohash, sizes, queries, out) -> None:
    for size in sizes:
        tag = f"1e{len(str(size)) - 1}"
        tree, keys = bench.build_random_tree(size)
        out[f"geotree.scb_us_{tag}"] = bench.mean_query_latency(tree, keys, queries) * 1e6
        rng = random.Random(4242)
        picks = [keys[rng.randrange(len(keys))] for _ in range(queries)]
        points = [decode_geohash(k)[0] for k in picks]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for key, point in zip(picks, points):
                tree.nearest_in_group(key, point)
            best = min(best, (time.perf_counter() - start) / queries)
        out[f"geotree.nearest_us_{tag}"] = best * 1e6
        del tree, keys


def layer_metrics(tracer: Tracer, seed: int) -> dict[str, float]:
    """Per-layer numbers of one traced ``geohpi index`` run.

    A metric whose function or field is gone, or which was never called, is
    left out rather than reported as zero.  ``seed`` picks the sampled
    ``nearest_in_group`` queries.
    """
    t = tracer
    out: dict[str, float] = {}

    def put(name: str, compute: Callable[[], Any]) -> None:
        try:
            value = compute()
        except _RENAMED:
            return
        if value is not None:
            out[name] = value

    def args(name: str) -> dict:
        return t.result(name)[0]

    def result(name: str) -> Any:
        return t.result(name)[1]

    def queries(span_name: str) -> int:
        spans = t.named(span_name)
        if not spans:
            raise IndexError(span_name)
        return sum(s["counts"]["nearest_in_group"] for s in spans)

    def rss_growth(first: dict, last: dict) -> float:
        return last["rss_end_mb"] - first["rss_start_mb"]

    put("cli.self_s", lambda: t.self_s(t.spans.index(t.named("cli.index")[0])))

    put("ingestion.parse_s", lambda: t.total_s("cli.parse_listings"))
    put("ingestion.filter_s", lambda: t.total_s("cli.filter_listings"))
    put("ingestion.rows", lambda: sum(map(len, result("cli.parse_listings"))))
    put("ingestion.parse_errors", lambda: len(result("cli.parse_listings")[1]))
    put("ingestion.rejected", lambda: result("cli.filter_listings")[1].total
        - result("cli.filter_listings")[1].surviving)
    put("ingestion.rss_growth_mb", lambda: rss_growth(t.named("cli.parse_listings")[0],
                                                      t.named("cli.filter_listings")[-1]))

    put("geocode.record_key_s", lambda: t.calls["record_key"][1])
    put("geocode.record_key_calls", lambda: t.calls["record_key"][0])
    put("geocode.haversine_calls", lambda: t.calls["haversine_distance"][0])

    put("geotree.build_s", lambda: t.total_s("index_engine.build_tree"))
    put("geotree.nodes", lambda: sum(1 for _ in result("index_engine.build_tree").walk()))
    put("geotree.rss_growth_mb", lambda: rss_growth(t.named("index_engine.build_tree")[0],
                                                    t.named("index_engine.build_tree")[0]))
    put("geotree.nearest_calls", lambda: t.calls["nearest_in_group"][0])
    put("geotree.candidates_per_call", lambda: t.calls["haversine_distance"][0]
        / t.calls["nearest_in_group"][0])
    try:
        built, tree = t.result("index_engine.build_tree", -1)
        out["geotree.nearest_us_p50"], out["geotree.nearest_us_p99"] = sample_nearest_us(
            tree, built["records"], built["keys"], seed,
            min_population=built["config"].scb_min_population)
    except _RENAMED:
        pass

    put("index_engine.voting_s", lambda: t.total_s("index_engine.voting_stage"))
    put("index_engine.voting_queries", lambda: queries("index_engine.voting_stage"))
    put("index_engine.voting_removed", lambda: len(args("index_engine.voting_stage")
                                                   ["records"])
        - len(result("index_engine.voting_stage")))
    put("index_engine.ratio_matrix_s", lambda: t.total_s("index_engine.build_ratio_matrix"))
    put("index_engine.ratio_queries", lambda: queries("index_engine.build_ratio_matrix"))
    put("index_engine.ratio_match_rate",
        lambda: sum(result("index_engine.build_ratio_matrix").support.values())
        / queries("index_engine.build_ratio_matrix"))
    put("index_engine.months", lambda: len(result("index_engine.build_ratio_matrix").months))
    put("index_engine.chain_s", lambda: t.total_s("index_engine.chain_index"))
    put("index_engine.flagged_steps", lambda: sum(result("index_engine.chain_index").flagged))

    put("metrics.series_metrics_s", lambda: t.total_s("cli.series_metrics"))
    return out
