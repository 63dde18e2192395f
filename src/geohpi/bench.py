"""Latency harness for the constant-time bucket query claim.

Builds trees at two dataset sizes from the same uniform spatial
distribution and times the same number of bucket queries against each.
The query cost is bounded by the fixed key length, so mean latency should
barely move as the record count grows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .geocode import GeoPoint, encode_geohash
from .geotree import GeoTree

_LAT_SPAN = (51.4, 55.4)
_LNG_SPAN = (-10.5, -6.0)
_ROUNDS = 5  # alternating timing rounds per size in scaling_ratio


@dataclass(frozen=True)
class _BenchRecord:
    id: str
    point: GeoPoint


def build_random_tree(
    record_count: int, precision: int = 7, seed: int = 9001
) -> tuple[GeoTree, list[str]]:
    """Uniform random records in a country-sized box; returns tree and keys."""
    rng = random.Random(seed)
    items = []
    for i in range(record_count):
        point = GeoPoint(rng.uniform(*_LAT_SPAN), rng.uniform(*_LNG_SPAN))
        items.append((encode_geohash(point, precision).text, _BenchRecord(f"b{i:07d}", point)))
    return GeoTree(precision, items), [key for key, _ in items]


def mean_query_latency(
    tree: GeoTree,
    keys: list[str],
    queries: int = 10_000,
    min_population: int = 8,
    seed: int = 4242,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` mean seconds per scb_query over ``queries`` calls."""
    rng = random.Random(seed)
    query_keys = [keys[rng.randrange(len(keys))] for _ in range(queries)]
    tree.scb_query(query_keys[0], min_population)  # warm caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for key in query_keys:
            tree.scb_query(key, min_population)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / queries)
    return best


def scaling_ratio(
    small: int = 10_000,
    large: int = 100_000,
    queries: int = 10_000,
    precision: int = 7,
) -> tuple[float, float, float]:
    """(latency at small N, latency at large N, large/small ratio).

    Alternating rounds, best of each size, so a slow spell hits both sizes.
    """
    trees = [build_random_tree(small, precision), build_random_tree(large, precision)]
    best = [float("inf"), float("inf")]
    for _ in range(_ROUNDS):
        for i, (tree, keys) in enumerate(trees):
            best[i] = min(best[i], mean_query_latency(tree, keys, queries, repeats=1))
    return best[0], best[1], best[1] / best[0]
