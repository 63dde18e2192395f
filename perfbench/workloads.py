"""Seeded input generators for the three benchmark workloads.

Each workload writes one listings CSV that ``geohpi index`` reads, and
keeps what the output check needs to judge the run: the generator's true
monthly level, the flags to pass, and for the dirty feed the number of
rows of each designed kind.  The program sees only the CSV.

Why these three: they use the tree three ways.

- ``monthly`` (the paper's recommended configuration, bedroom-factored):
  many ratio-matrix queries over small per-month buckets.
- ``dense_cell`` (every listing in one precision-7 cell, plain keys): few
  queries, each scanning a huge bucket; voting is quadratic in the cell.
- ``dirty_feed`` (a raw export, ~99% junk, one mistyped year): parsing
  dominates and most ratio queries land on empty months.
"""

from __future__ import annotations

import csv
import dataclasses
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from geohpi.geocode import GeoPoint, decode_geohash, encode_geohash
from geohpi.ingestion import month_key_of, write_listings_csv
from geohpi.synthgen import SynthConfig, generate, mix_shift_config

# Sizes of the full runs; the self-test passes smaller ones.
SIZES = {
    "monthly": {"months": 24, "per_month": 300},
    "dense_cell": {"months": 12, "per_month": 100},
    "dirty_feed": {"months": 24, "per_month": 50, "decimal_per_month": 5,
                   "junk_rows": 200_000},
}

CELL_PRECISION = 7
# monthly's clusters (0.04 degrees wide) are each centred in one cell of
# this precision (0.044 degrees wide), so that the tree sees the same
# cluster layout on every seed
CLUSTER_PRECISION = 5
DENSE_RADIUS_DEG = 0.0001  # ~11 m of latitude, far inside a ~150 m cell
STRAY_YEARS_BACK = 10
COLUMNS = ["id", "date", "price", "lat", "lng", "bedrooms", "type"]


@dataclass
class Workload:
    name: str
    csv_path: Path
    flags: list[str]
    truth_months: list[str]
    truth_levels: list[float]
    input_rows: int
    records: list = field(repr=False)  # the clean listings
    key_length: int = CELL_PRECISION
    # dirty_feed only: designed row counts by the rule that must catch them
    parse_errors: int = 0
    decimal_rows: int = 0
    rule_counts: dict[str, int] = field(default_factory=dict)

    @property
    def clean_rows(self) -> int:
        return len(self.records)

    def properties(self) -> dict:
        """The generated input's shape, as printed by every run."""
        per_month: dict[str, int] = {}
        cells: dict[str, int] = {}
        for r in self.records:
            per_month[r.month_key] = per_month.get(r.month_key, 0) + 1
            cell = encode_geohash(r.point, CELL_PRECISION).text
            cells[cell] = cells.get(cell, 0) + 1
        first, last = min(per_month), max(per_month)
        span = _month_index(last) - _month_index(first) + 1
        return {
            "input_rows": self.input_rows,
            "clean_rows": self.clean_rows,
            "listings_per_month": statistics.median(per_month.values()),
            "month_span": span,
            "key_length": self.key_length,
            "max_listings_per_cell7": max(cells.values()),
        }


def _month_index(month: str) -> int:
    year, mon = (int(p) for p in month.split("-"))
    return year * 12 + mon - 1


def _truth_months(config: SynthConfig) -> list[str]:
    first = _month_index(config.start_month)
    return [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(first, first + config.months)]


def _centre_clusters(records: list, radius: float, precision: int) -> list:
    """Move each cluster of listings onto the centre of a geohash cell.

    Where the generator drops its clusters relative to the geohash grid
    decides how far tree queries climb, so left alone the work of one run
    moves by about 10% from seed to seed.  Listings of one cluster lie
    within ``2 * radius`` of each other in both coordinates; clusters that
    close to each other are moved as one.
    """
    groups: list[tuple[GeoPoint, list]] = []
    for r in records:
        for anchor, members in groups:
            if (abs(r.point.lat - anchor.lat) <= 2 * radius
                    and abs(r.point.lng - anchor.lng) <= 2 * radius):
                members.append(r)
                break
        else:
            groups.append((r.point, [r]))
    moved = {}
    for _, members in groups:
        lats = [r.point.lat for r in members]
        lngs = [r.point.lng for r in members]
        mid = GeoPoint((min(lats) + max(lats)) / 2, (min(lngs) + max(lngs)) / 2)
        centre, _, _ = decode_geohash(encode_geohash(mid, precision))
        d_lat, d_lng = centre.lat - mid.lat, centre.lng - mid.lng
        for r in members:
            moved[r.id] = dataclasses.replace(
                r, point=GeoPoint(r.point.lat + d_lat, r.point.lng + d_lng))
    return [moved[r.id] for r in records]


def make_monthly(seed: int, out_dir: Path, sizes: dict) -> Workload:
    config = mix_shift_config(seed, months=sizes["months"],
                              records_per_month=sizes["per_month"])
    records, truth = generate(config)
    records = _centre_clusters(records, config.cluster_radius_deg, CLUSTER_PRECISION)
    path = out_dir / "monthly.csv"
    write_listings_csv(records, path)
    return Workload(
        "monthly", path, ["--factor-bedrooms"], _truth_months(config), truth,
        input_rows=len(records), records=records,
        key_length=CELL_PRECISION + 1,
    )


def make_dense_cell(seed: int, out_dir: Path, sizes: dict) -> Workload:
    config = SynthConfig(months=sizes["months"], records_per_month=sizes["per_month"],
                         drift=0.003, noise=0.03, cluster_count=1,
                         cluster_radius_deg=DENSE_RADIUS_DEG, seed=seed)
    records, truth = generate(config)
    records = _centre_clusters(records, DENSE_RADIUS_DEG, CELL_PRECISION)
    cells = {encode_geohash(r.point, CELL_PRECISION).text for r in records}
    if len(cells) != 1:
        raise RuntimeError(f"dense_cell spans {len(cells)} precision-7 cells")
    path = out_dir / "dense_cell.csv"
    write_listings_csv(records, path)
    return Workload(
        "dense_cell", path, [], _truth_months(config), truth,
        input_rows=len(records), records=records,
    )


def _row(rid, date, price, lat, lng, bedrooms) -> list[str]:
    return [rid, date, price, lat, lng, bedrooms, "house"]


def _clean_row(r) -> list[str]:
    return _row(r.id, r.list_date.isoformat(), str(int(round(r.price))),
                repr(r.point.lat), repr(r.point.lng), str(r.bedrooms))


# Junk kinds, in equal shares.  Parse errors are structural faults the
# parser must report; the rest parse and fail exactly one pruning rule,
# named as in FiltrationReport.
_PARSE_KINDS = ("bad_date", "text_price", "lat_range", "missing_id", "text_beds")
_RULE_KINDS = ("missing_geo_or_bedrooms", "too_many_bedrooms", "missing_price",
               "price_out_of_bounds")
_BAD = {
    "bad_date": ("2016-13-01", "2015-02-30", "n/a", "03/04/2016", "2016"),
    "text_price": ("POA", "250k", "\u20ac310,000", "offers"),
    "lat_range": ("90.5", "123.25", "-95.0", "180.0"),
    "text_beds": ("three", "2+1", "many"),
    "too_many_bedrooms": ("7", "8", "10", "14"),
    "price_out_of_bounds": ("0", "950", "9999", "1000001", "2500000", "12000000"),
}


def _junk_rows(count: int, rng: random.Random, dates: list[str]) -> tuple[list, dict]:
    """``count`` junk rows built from a pool of plausible field values."""
    pool = [
        [rng.choice(dates), str(rng.randrange(50_000, 900_000)),
         repr(rng.uniform(52.0, 55.0)), repr(rng.uniform(-9.5, -6.5)),
         str(rng.randint(1, 6))]
        for _ in range(4096)
    ]
    kinds = _PARSE_KINDS + _RULE_KINDS
    counts = dict.fromkeys(kinds, 0)
    rows = []
    random_ = rng.random
    for i in range(count):
        date, price, lat, lng, beds = pool[int(random_() * 4096)]
        kind = kinds[int(random_() * len(kinds))]
        counts[kind] += 1
        bad = _BAD.get(kind)
        if bad is not None:
            bad = bad[int(random_() * len(bad))]
        rid = f"j{i:07d}"
        if kind == "bad_date":
            date = bad
        elif kind in ("text_price", "price_out_of_bounds"):
            price = bad
        elif kind == "lat_range":
            lat = bad
        elif kind == "missing_id":
            rid = ""
        elif kind in ("text_beds", "too_many_bedrooms"):
            beds = bad
        elif kind == "missing_geo_or_bedrooms":
            which = int(random_() * 4)
            if which == 0:
                lng = ""
            elif which == 1:
                lat = lng = ""
            elif which == 2:
                beds = ""
            else:
                beds = "0"
        elif kind == "missing_price":
            price = ""
        rows.append(_row(rid, date, price, lat, lng, beds))
    return rows, counts


def make_dirty_feed(seed: int, out_dir: Path, sizes: dict) -> Workload:
    per_month, decimal = sizes["per_month"], sizes["decimal_per_month"]
    config = SynthConfig(months=sizes["months"], records_per_month=per_month + decimal,
                         drift=0.003, noise=0.03, seed=seed)
    records, truth = generate(config)
    rng = random.Random(seed * 7919 + 17)
    clean, rows = [], []
    for r in records:
        if int(r.id.rsplit("-", 1)[1]) < decimal:
            # a clean listing whose price carries decimals; whether that is
            # a parse error or a valid price is the parser's decision
            row = _clean_row(r)
            row[2] = f"{r.price:.2f}"
            rows.append(row)
        else:
            clean.append(r)
    # one listing whose year was typed ten years early, with an id that
    # sorts last so that voting's id tie-break does not drop it
    first = clean[0]
    date = first.list_date.replace(year=first.list_date.year - STRAY_YEARS_BACK)
    clean.append(dataclasses.replace(first, id="s999-stray", list_date=date,
                                     month_key=month_key_of(date)))
    rows.extend(_clean_row(r) for r in clean)

    dates = sorted({r.list_date.isoformat() for r in records})
    junk, counts = _junk_rows(sizes["junk_rows"], rng, dates)
    rows.extend(junk)
    rng.shuffle(rows)

    path = out_dir / "dirty_feed.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    return Workload(
        "dirty_feed", path, [], _truth_months(config), truth,
        input_rows=len(rows), records=clean,
        parse_errors=sum(counts[k] for k in _PARSE_KINDS),
        decimal_rows=config.months * decimal,
        rule_counts={k: counts[k] for k in _RULE_KINDS},
    )


MAKERS = {"monthly": make_monthly, "dense_cell": make_dense_cell,
          "dirty_feed": make_dirty_feed}


def make(name: str, seed: int, out_dir: Path, sizes: dict | None = None) -> Workload:
    return MAKERS[name](seed, out_dir, sizes or SIZES[name])

