"""CSV listing ingestion and the pruning rules applied before indexing.

Parsing and filtering are separate stages with a deliberate boundary:
structurally broken rows (garbled numbers, bad dates, out-of-range
coordinates) become parse errors and never reach filtering, while rows
that are merely incomplete or unrepresentative (no coordinates, no price,
too many bedrooms, implausible price) are counted per rule in the
filtration report.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .geocode import GeoPoint

PRICE_FLOOR = 10_000
PRICE_CEIL = 1_000_000
MAX_BEDROOMS = 6


class SchemaError(ValueError):
    """A mapped column is missing from the CSV header."""


@dataclass(frozen=True)
class CsvSchema:
    """Maps logical listing fields to CSV column names.

    ``dwelling_type`` may be None to indicate the file has no such column.
    """

    id: str = "id"
    date: str = "date"
    price: str = "price"
    lat: str = "lat"
    lng: str = "lng"
    bedrooms: str = "bedrooms"
    dwelling_type: str | None = "type"

    @classmethod
    def from_spec(cls, spec: str) -> "CsvSchema":
        """Build a schema from ``field=column`` pairs, e.g. ``price=asking,type=``.

        Unmentioned fields keep their defaults; an empty column name for
        ``type`` drops the dwelling-type column entirely.
        """
        schema = cls()
        if not spec.strip():
            return schema
        overrides: dict[str, str | None] = {}
        for pair in spec.split(","):
            if "=" not in pair:
                raise ValueError(f"schema entry {pair!r} is not field=column")
            field_name, column = (s.strip() for s in pair.split("=", 1))
            if field_name == "type":
                field_name = "dwelling_type"
            if field_name not in schema.__dataclass_fields__:
                raise ValueError(f"unknown schema field {field_name!r}")
            overrides[field_name] = column or None
        for field_name, column in overrides.items():
            if column is None and field_name != "dwelling_type":
                raise ValueError(f"schema field {field_name!r} needs a column name")
        return replace(schema, **overrides)


@dataclass(frozen=True, slots=True)
class RawListing:
    """A structurally valid CSV row; optional fields may still be missing."""

    id: str
    list_date: datetime.date
    price: float | None
    lat: float | None
    lng: float | None
    bedrooms: int | None
    dwelling_type: str | None = None


@dataclass(frozen=True, slots=True)
class ListingRecord:
    """A listing that survived filtration and can enter the index."""

    id: str
    list_date: datetime.date
    month_key: str
    price: float
    point: GeoPoint
    bedrooms: int
    dwelling_type: str | None = None


@dataclass(frozen=True, slots=True)
class ParseError:
    row: int  # 1-based file line (header is 1); a multi-line row's last line
    message: str


@dataclass
class FiltrationReport:
    """Per-rule rejection counts; rules are applied in the order listed."""

    total: int = 0
    missing_geo_or_bedrooms: int = 0
    too_many_bedrooms: int = 0
    missing_price: int = 0
    price_out_of_bounds: int = 0
    surviving: int = 0

    @property
    def surviving_fraction(self) -> float:
        return self.surviving / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "surviving_fraction": self.surviving_fraction}


def month_key_of(d: datetime.date) -> str:
    """Calendar year-month of a date as a sortable ``YYYY-MM`` string."""
    return f"{d.year:04d}-{d.month:02d}"


def add_months(month: str, count: int) -> str:
    """The ``YYYY-MM`` month ``count`` calendar months after ``month``."""
    year, mon = (int(part) for part in month.split("-"))
    idx = year * 12 + (mon - 1) + count
    return f"{idx // 12:04d}-{idx % 12 + 1:02d}"


def _opt_number(text: str | None, convert, label: str, problems: list[str]):
    """``convert(text)``; None when blank or malformed, with the problem noted."""
    text = (text or "").strip()
    if not text:
        return None
    try:
        return convert(text)
    except ValueError:
        problems.append(f"{label} {text!r} is not a whole number"
                        if convert is int and is_finite_float(text)
                        else f"non-numeric {label} {text!r}")
        return None


def is_finite_float(text: str) -> bool:
    """Whether ``float(text)`` parses to a finite number."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def parse_listings(
    source, schema: CsvSchema = CsvSchema()
) -> tuple[list[RawListing], list[ParseError]]:
    """Parse a CSV path or text stream into raw listings.

    Malformed rows are collected as parse errors with their file row
    number, never silently dropped.  Raises SchemaError when a mapped
    column is absent from the header.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return parse_listings(handle, schema)

    reader = csv.DictReader(source)
    header = reader.fieldnames
    if header is None:
        raise SchemaError("input has no header row")
    required = [schema.id, schema.date, schema.price, schema.lat, schema.lng,
                schema.bedrooms]
    if schema.dwelling_type is not None:
        required.append(schema.dwelling_type)
    missing = [col for col in required if col not in header]
    if missing:
        raise SchemaError(f"missing mapped column(s): {', '.join(missing)}")

    records: list[RawListing] = []
    errors: list[ParseError] = []
    seen_ids: set[str] = set()
    for row in reader:
        row_no = reader.line_num  # blank lines and quoted newlines count
        problems: list[str] = []
        rid = (row.get(schema.id) or "").strip()
        if not rid:
            problems.append("missing id")
        elif rid in seen_ids:
            problems.append(f"duplicate id {rid!r}")
        date_text = (row.get(schema.date) or "").strip()
        list_date: datetime.date | None = None
        if not date_text:
            problems.append("missing date")
        else:
            try:
                # fromisoformat also takes 20150302 and 2015-W10-1 from Python 3.11 on
                if len(date_text) != 10 or date_text[4] != "-" or date_text[7] != "-":
                    raise ValueError
                list_date = datetime.date.fromisoformat(date_text)
            except ValueError:
                problems.append(f"bad date {date_text!r}")
        price = _opt_number(row.get(schema.price), int, "price", problems)
        lat = _opt_number(row.get(schema.lat), float, "latitude", problems)
        lng = _opt_number(row.get(schema.lng), float, "longitude", problems)
        if lat is not None and not -90.0 <= lat <= 90.0:
            problems.append(f"latitude {lat!r} out of range")
        if lng is not None and not -180.0 <= lng <= 180.0:
            problems.append(f"longitude {lng!r} out of range")
        bedrooms = _opt_number(row.get(schema.bedrooms), int, "bedrooms", problems)
        if bedrooms is not None and bedrooms < 0:
            problems.append(f"negative bedroom count {bedrooms!r}")
        dwelling = None
        if schema.dwelling_type is not None:
            dwelling = (row.get(schema.dwelling_type) or "").strip() or None
        if problems:
            errors.append(ParseError(row_no, "; ".join(problems)))
            continue
        assert list_date is not None
        seen_ids.add(rid)
        records.append(
            RawListing(rid, list_date, price, lat, lng, bedrooms, dwelling)
        )
    return records, errors


def filter_listings(
    raw: Iterable[RawListing],
) -> tuple[list[ListingRecord], FiltrationReport]:
    """Apply the pruning rules to parsed rows and report per-rule rejections.

    Rules: (1) missing coordinates or usable bedroom count (a studio, 0
    bedrooms, counts as lacking bedroom data), (2) more than six bedrooms,
    (3) missing price, (4) price outside [10,000, 1,000,000] euros (bounds
    inclusive).  Each record is counted under the first rule it violates.
    """
    kept: list[ListingRecord] = []
    report = FiltrationReport()
    for r in raw:
        report.total += 1
        if r.lat is None or r.lng is None or r.bedrooms is None or r.bedrooms < 1:
            report.missing_geo_or_bedrooms += 1
            continue
        if r.bedrooms > MAX_BEDROOMS:
            report.too_many_bedrooms += 1
            continue
        if r.price is None:
            report.missing_price += 1
            continue
        if r.price < PRICE_FLOOR or r.price > PRICE_CEIL:
            report.price_out_of_bounds += 1
            continue
        report.surviving += 1
        kept.append(
            ListingRecord(
                id=r.id,
                list_date=r.list_date,
                month_key=month_key_of(r.list_date),
                price=float(r.price),
                point=GeoPoint(r.lat, r.lng),
                bedrooms=r.bedrooms,
                dwelling_type=r.dwelling_type,
            )
        )
    return kept, report


def write_csv(target, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and then ``rows`` as CSV to a path or a text stream."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_csv(handle, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)


def write_listings_csv(records: Sequence[ListingRecord], target) -> None:
    """Write records in the CSV shape ``parse_listings`` reads by default.

    Prices are written as integer euros (rounded when a synthetic price is
    fractional).
    """
    write_csv(target, ["id", "date", "price", "lat", "lng", "bedrooms", "type"],
              ([r.id, r.list_date.isoformat(), str(int(round(r.price))),
                repr(r.point.lat), repr(r.point.lng), str(r.bedrooms),
                r.dwelling_type or ""] for r in records))
