"""Deterministic synthetic listing generator with known price dynamics.

Prices follow ``base_price * (1 + drift)^month * bedroom_premium[b] *
exp(N(0, noise))`` with locations drawn inside a handful of compact
clusters, so the voting stage retains everything and the true monthly
level is known in closed form.  Generation uses Python's Mersenne Twister
(``random.Random``) seeded from the config, so a fixed seed reproduces the
dataset byte for byte.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .geocode import GeoPoint
from .ingestion import ListingRecord, add_months, is_month, month_key_of, write_csv

# Ireland-sized box; nothing downstream depends on where the clusters sit.
_LAT_SPAN = (52.0, 55.0)
_LNG_SPAN = (-9.5, -6.5)

BEDROOM_COUNTS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class SynthConfig:
    months: int = 24
    records_per_month: int = 200
    drift: float = 0.0
    noise: float = 0.0
    # one row of six weights per month; rows cycle when fewer than `months`
    bedroom_mix: tuple[tuple[float, ...], ...] = (
        (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    )
    bedroom_premium: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    cluster_count: int = 5
    cluster_radius_deg: float = 0.02
    base_price: float = 250_000.0
    start_month: str = "2015-01"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drift", "noise", "cluster_radius_deg", "base_price"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.drift <= -1:
            raise ValueError("drift must be greater than -1")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if self.cluster_radius_deg < 0:
            raise ValueError("cluster_radius_deg must be non-negative")
        if self.months < 2:
            raise ValueError("months must be at least 2")
        if self.records_per_month < 1:
            raise ValueError("records_per_month must be at least 1")
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be at least 1")
        if not self.bedroom_mix:
            raise ValueError("bedroom_mix needs at least one row")
        for row in self.bedroom_mix:
            if len(row) != len(BEDROOM_COUNTS):
                raise ValueError("each bedroom_mix row needs six weights")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"bedroom_mix row {row!r} is not finite")
            if any(w < 0 for w in row):
                raise ValueError("bedroom_mix weights must be non-negative")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"bedroom_mix row {row!r} does not sum to 1")
        if len(self.bedroom_premium) != len(BEDROOM_COUNTS):
            raise ValueError("bedroom_premium needs six multipliers")
        if not all(map(math.isfinite, self.bedroom_premium)):
            raise ValueError("bedroom_premium multipliers must be finite")
        if any(p <= 0 for p in self.bedroom_premium):
            raise ValueError("bedroom_premium multipliers must be positive")
        if self.base_price <= 0:
            raise ValueError("base_price must be positive")
        if not is_month(self.start_month):
            raise ValueError(f"start_month must be YYYY-MM, got {self.start_month!r}")


def _pick_bedrooms(rng: random.Random, row: Sequence[float]) -> int:
    roll = rng.random()
    acc = 0.0
    for count, weight in zip(BEDROOM_COUNTS, row):
        acc += weight
        if roll < acc:
            return count
    return BEDROOM_COUNTS[-1]  # guard against the weights summing to 1-epsilon


def generate(config: SynthConfig) -> tuple[list[ListingRecord], list[float]]:
    """Generate listings plus the true index level (100 at the first month).

    With ``noise=0`` and flat premiums, every month-m price is exactly
    ``base_price * (1 + drift) ** m``.
    """
    rng = random.Random(config.seed)
    centers = [
        GeoPoint(rng.uniform(*_LAT_SPAN), rng.uniform(*_LNG_SPAN))
        for _ in range(config.cluster_count)
    ]
    records: list[ListingRecord] = []
    truth: list[float] = []
    radius = config.cluster_radius_deg
    for m in range(config.months):
        month_level = (1.0 + config.drift) ** m
        truth.append(100.0 * month_level)
        mix_row = config.bedroom_mix[m % len(config.bedroom_mix)]
        first_day = datetime.date.fromisoformat(add_months(config.start_month, m) + "-01")
        for i in range(config.records_per_month):
            center = centers[rng.randrange(config.cluster_count)]
            point = GeoPoint(
                center.lat + rng.uniform(-radius, radius),
                center.lng + rng.uniform(-radius, radius),
            )
            bedrooms = _pick_bedrooms(rng, mix_row)
            price = (
                config.base_price
                * month_level
                * config.bedroom_premium[bedrooms - 1]
            )
            if config.noise > 0:
                price *= math.exp(rng.gauss(0.0, config.noise))
            list_date = first_day.replace(day=rng.randint(1, 28))
            records.append(
                ListingRecord(
                    id=f"s{m:03d}-{i:05d}",
                    list_date=list_date,
                    month_key=month_key_of(list_date),
                    price=price,
                    point=point,
                    bedrooms=bedrooms,
                    dwelling_type="house",
                )
            )
    return records, truth


def mix_shift_config(seed: int, months: int = 16, records_per_month: int = 140) -> SynthConfig:
    """A family where the bedroom mix alternates month to month.

    Odd months are three-bed heavy, even months four-bed heavy, with a
    stiff four-bed price premium: matching on location alone keeps
    comparing cheap months to dear months and the index zigzags, while
    bedroom-factored matching sees through the composition shift.
    """
    return SynthConfig(
        months=months,
        records_per_month=records_per_month,
        drift=0.003,
        noise=0.03,
        bedroom_mix=(
            (0.0, 0.0, 0.8, 0.2, 0.0, 0.0),
            (0.0, 0.0, 0.2, 0.8, 0.0, 0.0),
        ),
        bedroom_premium=(1.0, 1.0, 1.0, 1.4, 1.0, 1.0),
        cluster_count=4,
        seed=seed,
    )


def write_truth_csv(truth: Sequence[float], target, start_month: str = "2015-01") -> None:
    """Write the per-month true level as ``month,true_level`` rows."""
    rows = ([add_months(start_month, m), repr(level)] for m, level in enumerate(truth))
    write_csv(target, ["month", "true_level"], rows)
