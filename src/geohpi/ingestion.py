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
from dataclasses import asdict, astuple, dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .geocode import GeoPoint

PRICE_FLOOR = 10_000
PRICE_CEIL = 1_000_000
MAX_BEDROOMS = 6
# One parse keeps at most this many distinct dwelling types and error
# messages as shared strings; later new texts are kept as they are.
SHARED_TEXTS = 1024


class SchemaError(ValueError):
    """A mapped column is missing from the CSV header, or repeated in it."""


@dataclass(frozen=True)
class CsvSchema:
    """Maps logical listing fields to CSV column names.

    ``dwelling_type`` may be None to indicate the file has no such column.
    Two fields may not share a column (else ValueError).
    """

    id: str = "id"
    date: str = "date"
    price: str = "price"
    lat: str = "lat"
    lng: str = "lng"
    bedrooms: str = "bedrooms"
    dwelling_type: str | None = "type"

    def __post_init__(self) -> None:
        columns = asdict(self)
        for column in set(columns.values()) - {None}:
            sharing = [name for name, mapped in columns.items() if mapped == column]
            if len(sharing) > 1:
                raise ValueError(f"fields {' and '.join(sharing)} share column {column!r}")

    @classmethod
    def from_spec(cls, spec: str) -> "CsvSchema":
        """Build a schema from ``field=column`` pairs, e.g. ``price=asking,type=``.

        Unmentioned fields keep their defaults; an empty column name for
        ``type`` drops the dwelling-type column entirely.  A field may be
        named once; ``type`` and ``dwelling_type`` are one field.
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
            if field_name in overrides:
                raise ValueError(f"schema field {field_name!r} is named twice")
            overrides[field_name] = column or None
        for field_name, column in overrides.items():
            if column is None and field_name != "dwelling_type":
                raise ValueError(f"schema field {field_name!r} needs a column name")
        return replace(schema, **overrides)


class RawListing(NamedTuple):
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


class ParseError(NamedTuple):
    """A row ``parse_listings`` skipped: its 1-based file line (the header's is 1)
    and why.  The line is a multi-line row's last, or its first when a cell that
    spans lines has most likely swallowed the rows after an unbalanced quote."""

    row: int
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


def is_month(text: str) -> bool:
    """Whether ``text`` is a calendar month written ``YYYY-MM``."""
    try:
        return len(text) == 7 and add_months(text, 0) == text
    except ValueError:
        return False


def _read_number(text: str, label: str, whole: bool, problems: list[str]):
    """The int (``whole``) or float in a number cell; None when it is blank, or
    when it is malformed, with the problem noted."""
    text = text.strip()
    if not text:
        return None
    if "_" not in text:  # int and float read it as a digit separator
        try:
            if not whole:
                return float(text)
            if text.isdecimal() or text[0] in "+-" and text[1:].isdecimal():
                return int(text)  # else int would raise, which costs more than the test
        except ValueError:  # also an int of thousands of digits
            pass
    problems.append(f"{label} {text!r} is not a whole number"
                    if whole and is_finite_float(text) else f"non-numeric {label} {text!r}")
    return None


def is_finite_float(text: str) -> bool:
    """Whether ``text`` is a finite number, written without ``_`` separators."""
    if "_" in text:
        return False
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_date(text: str) -> datetime.date | None:
    """The date ``text`` writes as ``YYYY-MM-DD``, else None."""
    # fromisoformat also takes 20150302 and 2015-W10-1 from Python 3.11 on
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        return None
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        return None


def read_rows(source, names: Sequence[str | None], reads_as_row: Callable[[tuple], bool]
              ) -> Iterator[tuple[int, int, tuple, tuple[str, ...]]]:
    """``(first_line, last_line, cells, swallowing)`` for each data row of a CSV
    text stream.

    ``cells`` holds the cells of the header columns ``names`` (two or more)
    in order; a name of None reads a blank cell, as do the missing cells of
    a short row.  A long row's extra cells are ignored and blank lines are
    skipped.  Lines are 1-based, the header's is 1, and a row spans more
    than one when a quoted cell holds a line break.

    ``swallowing`` names the header columns, in header order, whose cell
    runs past a line break into a line that reads as a row of its own, as
    when a quote left open swallows the rows after it: a line that splits
    at its commas into the header's column count, and for whose cells, in
    ``names`` order, ``reads_as_row`` holds.  A one-line row's is empty.

    Raises SchemaError when there is no header, or when a name is absent
    from it or appears in it more than once.  A ``csv.Error``, such as a
    cell over the ``csv`` field limit, is raised again naming the first
    line of its row, the header's included.
    """
    reader = csv.reader(source)
    last = 0  # the last line of the previous row
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("input has no header row")
        mapped = [name for name in names if name is not None]
        missing = [name for name in mapped if name not in header]
        if missing:
            raise SchemaError(f"missing mapped column(s): {', '.join(missing)}")
        repeated = [name for name in mapped if header.count(name) > 1]
        if repeated:
            raise SchemaError(f"repeated mapped column(s): {', '.join(repeated)}")
        width = len(header)
        # a None name reads the blank cell appended to every row
        cells = itemgetter(*(width if name is None else header.index(name)
                             for name in names))

        def swallows(cell: str) -> bool:
            # a swallowed line holds no quote, as the next quote ends the cell,
            # so its commas are exactly its cell breaks
            return any(len(split) == width and reads_as_row(cells(split + [""]))
                       for split in (line.split(",") for line in
                                     cell.replace("\r", "\n").split("\n")[1:]))

        last = reader.line_num
        for row in reader:
            first, last = last + 1, reader.line_num
            if len(row) != width:
                if not row:
                    continue  # a blank line
                row = (row + [""] * width)[:width]
            row.append("")
            yield first, last, cells(row), () if first == last else tuple(
                column for column, cell in zip(header, row) if swallows(cell))
    except csv.Error as exc:  # the field limit, say, after an unbalanced quote
        raise csv.Error(f"line {last + 1}: {exc}") from exc


def parse_listings(
    source, schema: CsvSchema = CsvSchema()
) -> tuple[list[RawListing], list[ParseError]]:
    """Parse a CSV path or text stream into raw listings.

    ``read_rows`` reads the schema's columns, with its header, row and line
    rules (a header fault is a SchemaError).  Malformed rows become parse
    errors with their file line, never silently dropped.  So does a row with
    a cell that spans lines and has most likely swallowed the rows after an
    unbalanced quote: an id or type cell that runs past a line break into
    text with a comma, or any cell that runs into a line that reads as a
    row with a valid date; such a row's error is at its first line.

    A value that repeats across rows is kept once: rows with the same date
    text share one ``date``, and equal dwelling types and equal error
    messages share one string, up to ``SHARED_TEXTS`` distinct strings
    per call.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return parse_listings(handle, schema)

    records: list[RawListing] = []
    errors: list[ParseError] = []
    seen_ids: set[str] = set()
    dates: dict[str, datetime.date] = {}  # each valid date text seen
    shared: dict[str, str] = {}  # dwelling types and error messages
    # builds a named tuple from the tuple of its fields without calling the
    # class's ``__new__``, a Python function: 0.15 us less a row
    new = tuple.__new__
    for first, last, cells, swallowing in read_rows(
            source, astuple(schema), lambda row: _read_date(row[1].strip()) is not None):
        rid, date_text, price_text, lat_text, lng_text, bed_text, dwelling = cells
        rid = rid.strip()
        dwelling = dwelling.strip()
        problems: list[str] = []
        line = last
        if first != last:  # a quoted cell runs across lines
            at_fault = [column for column, cell in ((schema.id, rid),
                                                    (schema.dwelling_type, dwelling))
                        if "," in cell.replace("\r", "\n").partition("\n")[2]]
            at_fault += [column for column in swallowing if column not in at_fault]
            if at_fault:
                line = first
            problems += [f"{column} cell spans lines {first}-{last}: "
                         "an unbalanced quote is likely" for column in at_fault]
        if not rid:
            problems.append("missing id")
        elif rid in seen_ids:
            problems.append(f"duplicate id {rid!r}")
        list_date = dates.get(date_text)
        if list_date is None:
            text = date_text.strip()
            list_date = dates.get(text) or _read_date(text)
            if list_date is not None:
                dates[date_text] = dates[text] = list_date
            else:
                problems.append(f"bad date {text!r}" if text else "missing date")
        # Plain digits and floats are read here, every other cell by _read_number;
        # int and float skip the whitespace around a number, as strip would.
        # Under 20 digits, int takes any text that isdecimal.
        price = (int(price_text) if price_text.isdecimal() and len(price_text) < 20
                 else _read_number(price_text, "price", True, problems))
        try:
            if "_" in lat_text or "_" in lng_text:
                raise ValueError
            lat = float(lat_text) if lat_text else None
            lng = float(lng_text) if lng_text else None
        except ValueError:
            lat = _read_number(lat_text, "latitude", False, problems)
            lng = _read_number(lng_text, "longitude", False, problems)
        if lat is not None and not -90.0 <= lat <= 90.0:
            problems.append(f"latitude {lat!r} out of range")
        if lng is not None and not -180.0 <= lng <= 180.0:
            problems.append(f"longitude {lng!r} out of range")
        bedrooms = (int(bed_text) if bed_text.isdecimal() and len(bed_text) < 20
                    else _read_number(bed_text, "bedrooms", True, problems))
        if bedrooms is not None and bedrooms < 0:
            problems.append(f"negative bedroom count {bedrooms!r}")
        if problems:
            errors.append(new(ParseError, (line, _share(shared, "; ".join(problems)))))
            continue
        seen_ids.add(rid)
        records.append(new(RawListing, (rid, list_date, price, lat, lng, bedrooms,
                                        _share(shared, dwelling) if dwelling else None)))
    return records, errors


def _share(shared: dict[str, str], text: str) -> str:
    """The string in ``shared`` equal to ``text``, adding ``text`` while there is room."""
    if len(shared) < SHARED_TEXTS:
        return shared.setdefault(text, text)
    return shared.get(text, text)


def filter_listings(
    raw: Iterable[RawListing],
) -> tuple[list[ListingRecord], FiltrationReport]:
    """Apply the pruning rules to parsed rows and report per-rule rejections.

    Rules: (1) missing coordinates or usable bedroom count (a studio, 0
    bedrooms, counts as lacking bedroom data), (2) more than six bedrooms,
    (3) missing price, (4) price outside [10,000, 1,000,000] euros (bounds
    inclusive).  Each record is counted under the first rule it violates.
    Records listed on one date share one ``month_key`` string.
    """
    kept: list[ListingRecord] = []
    report = FiltrationReport()
    month_keys: dict[datetime.date, str] = {}  # one key string per date
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
        month_key = month_keys.get(r.list_date)
        if month_key is None:
            month_key = month_keys[r.list_date] = month_key_of(r.list_date)
        kept.append(
            ListingRecord(
                id=r.id,
                list_date=r.list_date,
                month_key=month_key,
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
    write_csv(target, astuple(CsvSchema()),
              ([r.id, r.list_date.isoformat(), str(int(round(r.price))),
                repr(r.point.lat), repr(r.point.lng), str(r.bedrooms),
                r.dwelling_type or ""] for r in records))
