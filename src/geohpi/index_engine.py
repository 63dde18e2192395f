"""The stratified mix-adjusted median index pipeline.

Stages, in order:

1. voting: every record votes for its nearest neighbours; the least-voted
   share of the dataset (geographically isolated listings) is dropped.
2. ratio matrix: with every month as a stratification base, each base
   record is matched to its nearest neighbour in every earlier month and
   the median price ratio per month pair is recorded.
3. chaining: the index step from one month to the next is the mean change,
   across all shared earlier months, between the two months' ratios to
   those earlier months; steps accumulate from 100 at the first month.

Neighbour matching runs through the prefix tree; when bedroom factoring is
on, the bedroom count is prepended to each key so matching is restricted
to listings with the same number of bedrooms at the first tree branch.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geocode import MAX_PRECISION, encode_geohash
from .geotree import GeoTree
from .ingestion import ListingRecord, add_months

# Each chain mode's (diff, apply): how two ratios give a change, and how a
# change moves the level.
_CHAIN_OPS = {
    "additive": (operator.sub, operator.add),
    "geometric": (operator.truediv, operator.mul),
}
CHAIN_MODES = tuple(_CHAIN_OPS)


class VotingUndefinedError(ValueError):
    """Voting needs at least two records."""


class ChainUndefinedError(ValueError):
    """Chaining needs at least two months."""


@dataclass(frozen=True)
class IndexConfig:
    votes_per_record: int = 1
    removal_fraction: float = 0.10
    factor_bedrooms: bool = False
    min_ratios_for_chain: int = 3
    geohash_precision: int = 7
    scb_min_population: int = 1
    chain_mode: str = "additive"

    def __post_init__(self) -> None:
        if self.votes_per_record < 1:
            raise ValueError("votes_per_record must be at least 1")
        if not 0.0 <= self.removal_fraction < 1.0:
            raise ValueError("removal_fraction must be in [0, 1)")
        if self.min_ratios_for_chain < 1:
            raise ValueError("min_ratios_for_chain must be at least 1")
        if not 1 <= self.geohash_precision <= MAX_PRECISION:
            raise ValueError(f"geohash_precision must be in [1, {MAX_PRECISION}]")
        if self.scb_min_population < 1:
            raise ValueError("scb_min_population must be at least 1")
        if self.chain_mode not in CHAIN_MODES:
            raise ValueError(f"chain_mode must be one of {CHAIN_MODES}, "
                             f"got {self.chain_mode!r}")


@dataclass(frozen=True)
class RatioMatrix:
    """Median price ratios r_base(prior) for every base month and earlier month.

    Strictly lower-triangular: entries exist only for prior < base, and only
    when at least one base record found a neighbour in the prior month.
    ``months`` spans the full calendar range, including empty months.
    """

    months: tuple[str, ...]
    entries: dict[tuple[str, str], float]
    support: dict[tuple[str, str], int]

    def get(self, base: str, prior: str) -> float | None:
        return self.entries.get((base, prior))

    def rows(self) -> Iterable[tuple[str, str, float, int]]:
        for (base, prior) in sorted(self.entries):
            yield base, prior, self.entries[(base, prior)], self.support[(base, prior)]


@dataclass(frozen=True)
class IndexSeries:
    """Chained monthly index levels, first month pinned to 100."""

    months: tuple[str, ...]
    values: tuple[float, ...]
    flagged: tuple[bool, ...]

    @property
    def diffs(self) -> tuple[float, ...]:
        return tuple(
            self.values[i + 1] - self.values[i] for i in range(len(self.values) - 1)
        )


@dataclass(frozen=True)
class VotingSummary:
    total: int
    removed: int
    survivors: int


@dataclass(frozen=True)
class IndexResult:
    series: IndexSeries
    matrix: RatioMatrix
    voting: VotingSummary
    timings: dict[str, float] = field(default_factory=dict)


def record_key(record: ListingRecord, config: IndexConfig) -> str:
    """Tree key for a record: geohash, bedroom character prepended when factoring."""
    base = encode_geohash(record.point, config.geohash_precision).text
    if config.factor_bedrooms:
        return str(record.bedrooms) + base
    return base


def key_length(config: IndexConfig) -> int:
    return config.geohash_precision + (1 if config.factor_bedrooms else 0)


def build_tree(
    records: Sequence[ListingRecord], config: IndexConfig, keys: dict[str, str]
) -> GeoTree:
    """Build the tree over ``records``, keyed by ``keys[id]`` and labelled by month."""
    return GeoTree(key_length(config), ((keys[r.id], r) for r in records),
                   group_key=operator.attrgetter("month_key"))


def removal_count(fraction: float, total: int) -> int:
    # floor of the exact product; the epsilon keeps a float landing a hair
    # under an integer (0.29 * 100 == 28.999...96) from dropping one short
    return math.floor(fraction * total + 1e-9)


def voting_stage(
    records: Sequence[ListingRecord], config: IndexConfig, keys: dict[str, str]
) -> list[ListingRecord]:
    """Drop the least-voted share of the dataset.

    Every record gives one vote to each of its ``votes_per_record`` nearest
    distinct neighbours (itself excluded), found through a tree over
    ``records`` built only when some share is removed; records are ranked
    by vote count and the lowest ``removal_fraction`` share is removed,
    ties at the cutoff broken by record id so the removed count is exact.
    """
    records = list(records)
    if len(records) < 2:
        raise VotingUndefinedError("voting needs at least two records")
    to_remove = removal_count(config.removal_fraction, len(records))
    if to_remove == 0:
        return records
    tree = build_tree(records, config, keys)
    votes: dict[str, int] = {r.id: 0 for r in records}
    for r in records:
        # the k nearest distinct neighbours, found one at a time
        excluded = {r.id}
        for _ in range(config.votes_per_record):
            neighbour = tree.nearest_in_group(
                keys[r.id], r.point, exclude=excluded,
                min_population=config.scb_min_population,
            )
            if neighbour is None:
                break
            votes[neighbour.id] += 1
            excluded.add(neighbour.id)
    ranked = sorted(votes, key=lambda rid: (votes[rid], rid))
    removed = set(ranked[:to_remove])
    return [r for r in records if r.id not in removed]


def _median(values: list[float]) -> float:
    """``statistics.median(values)``, bit for bit, without importing ``statistics``
    (which brings ``decimal`` and ``fractions``) into every run."""
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def month_range(records: Iterable[ListingRecord]) -> list[str]:
    """Every calendar month from the earliest to the latest record, inclusive."""
    seen = {r.month_key for r in records}
    if not seen:
        return []
    months = [min(seen)]
    last = max(seen)
    while months[-1] != last:
        months.append(add_months(months[-1], 1))
    return months


def build_ratio_matrix(
    records: Sequence[ListingRecord], config: IndexConfig, keys: dict[str, str]
) -> RatioMatrix:
    """Median price ratio of every base month to every earlier month.

    For each record of the base month, its nearest neighbour listed in the
    earlier month is found through a month-labelled tree over ``records``
    and the price ratio record/neighbour is collected; the entry is the
    median of those ratios (mean of the two central values for even
    counts).  Month pairs with no matches stay absent.  An earlier month
    without records has no neighbour to find and is not queried.
    """
    tree = build_tree(records, config, keys)
    months = month_range(records)
    by_month: dict[str, list[ListingRecord]] = {m: [] for m in months}
    for r in records:
        by_month[r.month_key].append(r)
    filled = [m for m in months if by_month[m]]

    entries: dict[tuple[str, str], float] = {}
    support: dict[tuple[str, str], int] = {}
    for b_idx, base in enumerate(filled):
        ratio_lists: dict[str, list[float]] = {m: [] for m in filled[:b_idx]}
        for record in by_month[base]:
            key = keys[record.id]
            for prior, ratios in ratio_lists.items():
                neighbour = tree.nearest_in_group(
                    key,
                    record.point,
                    prior,
                    min_population=config.scb_min_population,
                )
                if neighbour is not None:
                    ratios.append(record.price / neighbour.price)
        for prior, ratios in ratio_lists.items():
            if ratios:
                entries[(base, prior)] = _median(ratios)
                support[(base, prior)] = len(ratios)
    return RatioMatrix(tuple(months), entries, support)


def chain_index(matrix: RatioMatrix, config: IndexConfig) -> IndexSeries:
    """Chain the ratio matrix into a monthly index series based at 100.

    The step from month x to x+1 averages, over every earlier month both
    bases could be compared to, the change ``diff(r(x+1, m), r(x, m))``
    between the two bases' ratios to that earlier month m.  The first step
    has no shared history and takes the single pair ``(r(2, 1), 1.0)``
    instead.  Steps with fewer than ``min_ratios_for_chain`` changes (one,
    for the first step) are flagged and contribute no change.
    """
    months = matrix.months
    if len(months) < 2:
        raise ChainUndefinedError("chaining needs at least two months")
    diff, apply = _CHAIN_OPS[config.chain_mode]
    # only months some base was compared to can be shared history
    priors = sorted({prior for _, prior in matrix.entries})
    levels = [1.0]
    flagged = [False]
    for x_idx in range(len(months) - 1):
        nxt, cur = months[x_idx + 1], months[x_idx]
        if x_idx == 0:
            pairs, needed = [(matrix.get(nxt, cur), 1.0)], 1
        else:
            pairs = [(matrix.get(nxt, m), matrix.get(cur, m))
                     for m in priors if m < cur]
            needed = config.min_ratios_for_chain
        changes = [diff(a, b) for a, b in pairs if a is not None and b is not None]
        flag = len(changes) < needed
        step = diff(1.0, 1.0) if flag else sum(changes) / len(changes)
        levels.append(apply(levels[-1], step))
        flagged.append(flag)
    values = tuple(100.0 * level for level in levels)
    return IndexSeries(tuple(months), values, tuple(flagged))


def compute_index(
    records: Sequence[ListingRecord], config: IndexConfig = IndexConfig()
) -> IndexResult:
    """Run the full pipeline: voting, ratio matrix, chaining.

    Each neighbour stage builds its own tree over the records it matches,
    so one tree is alive at a time.  Deterministic for a fixed input order
    and config.
    """
    records = list(records)
    timings: dict[str, float] = {}
    keys = {r.id: record_key(r, config) for r in records}
    if len(keys) != len(records):
        raise ValueError("record ids must be unique")

    start = time.perf_counter()
    survivors = voting_stage(records, config, keys)
    timings["voting"] = time.perf_counter() - start

    start = time.perf_counter()
    matrix = build_ratio_matrix(survivors, config, keys)
    timings["ratio_matrix"] = time.perf_counter() - start

    start = time.perf_counter()
    series = chain_index(matrix, config)
    timings["chain"] = time.perf_counter() - start

    voting = VotingSummary(
        total=len(records),
        removed=len(records) - len(survivors),
        survivors=len(survivors),
    )
    return IndexResult(series=series, matrix=matrix, voting=voting, timings=timings)
