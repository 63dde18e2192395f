"""Shared fixture builders for the test suite."""

from __future__ import annotations

import datetime
import random

from geohpi import GeoPoint, ListingRecord, RawListing
from geohpi.ingestion import month_key_of


def make_record(
    rid: str,
    lat: float,
    lng: float,
    price: float,
    month: str = "2015-01",
    bedrooms: int = 3,
    day: int = 15,
) -> ListingRecord:
    year, mon = (int(p) for p in month.split("-"))
    d = datetime.date(year, mon, day)
    return ListingRecord(
        id=rid,
        list_date=d,
        month_key=month_key_of(d),
        price=float(price),
        point=GeoPoint(lat, lng),
        bedrooms=bedrooms,
    )


def make_raw(
    rid: str,
    lat: float | None = 53.0,
    lng: float | None = -7.0,
    price: float | None = 250_000,
    bedrooms: int | None = 3,
    month: str = "2015-01",
) -> RawListing:
    year, mon = (int(p) for p in month.split("-"))
    return RawListing(
        id=rid,
        list_date=datetime.date(year, mon, 15),
        price=price,
        lat=lat,
        lng=lng,
        bedrooms=bedrooms,
        dwelling_type="house",
    )


def clustered_records(
    rng: random.Random,
    count: int,
    months: tuple[str, ...] = ("2015-01", "2015-02", "2015-03"),
    clusters: int = 3,
    bedrooms: tuple[int, ...] = (3,),
    radius: float = 0.02,
) -> list[ListingRecord]:
    """Records spread over a few compact clusters, months and bedroom counts."""
    centers = [
        (rng.uniform(52.0, 55.0), rng.uniform(-9.5, -6.5)) for _ in range(clusters)
    ]
    records = []
    for i in range(count):
        lat, lng = centers[rng.randrange(clusters)]
        records.append(
            make_record(
                f"r{i:05d}",
                lat + rng.uniform(-radius, radius),
                lng + rng.uniform(-radius, radius),
                rng.uniform(50_000, 900_000),
                month=months[rng.randrange(len(months))],
                bedrooms=bedrooms[rng.randrange(len(bedrooms))],
            )
        )
    return records


def filtration_fixture_raw() -> list[RawListing]:
    """1,000 rows engineered to a 76.9% survival rate.

    165 lack coordinates or a bedroom count, 10 have more than six
    bedrooms, 36 lack a price, 20 have out-of-bounds prices and the
    remaining 769 are clean.
    """
    rows: list[RawListing] = []
    n = 0

    def next_id() -> str:
        nonlocal n
        n += 1
        return f"f{n:04d}"

    for i in range(165):
        if i % 3 == 0:
            rows.append(make_raw(next_id(), lat=None))
        elif i % 3 == 1:
            rows.append(make_raw(next_id(), lng=None))
        else:
            rows.append(make_raw(next_id(), bedrooms=None))
    for i in range(10):
        rows.append(make_raw(next_id(), bedrooms=7 + i % 3))
    for _ in range(36):
        rows.append(make_raw(next_id(), price=None))
    for i in range(20):
        rows.append(make_raw(next_id(), price=9_999 if i % 2 else 1_000_001))
    for i in range(769):
        rows.append(
            make_raw(
                next_id(),
                lat=52.5 + (i % 50) * 0.01,
                lng=-8.5 + (i // 50) * 0.01,
                price=120_000 + 997 * i,
                bedrooms=1 + i % 6,
                month=f"2015-{1 + i % 12:02d}",
            )
        )
    return rows


def write_raw_csv(rows: list[RawListing], path) -> None:
    """Write raw listings (possibly with missing fields) as a default-schema CSV."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "date", "price", "lat", "lng", "bedrooms", "type"])
        for r in rows:
            writer.writerow(
                [
                    r.id,
                    r.list_date.isoformat(),
                    "" if r.price is None else str(int(r.price)),
                    "" if r.lat is None else repr(r.lat),
                    "" if r.lng is None else repr(r.lng),
                    "" if r.bedrooms is None else str(r.bedrooms),
                    r.dwelling_type or "",
                ]
            )


def built_maps(tree) -> dict:
    """``{name: map}`` for each of a GeoTree's prefix maps built so far."""
    return {name: vars(tree)[name] for name in ("_records", "_rows", "_labels")
            if name in vars(tree)}
