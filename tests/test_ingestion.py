import csv
import datetime
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohpi.ingestion import (
    SHARED_TEXTS,
    CsvSchema,
    FiltrationReport,
    ListingRecord,
    ParseError,
    RawListing,
    SchemaError,
    filter_listings,
    add_months,
    is_finite_float,
    month_key_of,
    parse_listings,
    read_rows,
    write_listings_csv,
)

from helpers import filtration_fixture_raw, make_raw

HEADER = "id,date,price,lat,lng,bedrooms,type\n"


def parse(text, schema=CsvSchema()):
    return parse_listings(io.StringIO(text), schema)


class TestParse:
    def test_single_valid_row(self):
        records, errors = parse(HEADER + "a1,2015-03-02,250000,53.35,-6.26,3,house\n")
        assert errors == []
        assert len(records) == 1
        r = records[0]
        assert r.id == "a1"
        assert r.list_date == datetime.date(2015, 3, 2)
        assert r.price == 250_000
        assert (r.lat, r.lng) == (53.35, -6.26)
        assert r.bedrooms == 3
        assert r.dwelling_type == "house"

    def test_non_numeric_price_is_parse_error(self):
        records, errors = parse(HEADER + "a1,2015-03-02,cheap,53.35,-6.26,3,house\n")
        assert records == []
        assert len(errors) == 1
        assert errors[0].row == 2
        assert "price" in errors[0].message

    def test_decimal_integer_field_is_not_a_whole_number(self):
        # a decimal in an integer field is rejected with its own reason;
        # text that is no finite number stays non-numeric
        _, errors = parse(
            HEADER
            + "a1,2015-03-02,250000.00,53.35,-6.26,3,house\n"
            + "a2,2015-03-02,2.5e5,53.35,-6.26,2.5,house\n"
            + "a3,2015-03-02,cheap,53.35,-6.26,three,house\n"
            + "a4,2015-03-02,nan,north,-6.26,3,house\n"
        )
        assert [e.message for e in errors] == [
            "price '250000.00' is not a whole number",
            "price '2.5e5' is not a whole number; bedrooms '2.5' is not a whole number",
            "non-numeric price 'cheap'; non-numeric bedrooms 'three'",
            "non-numeric price 'nan'; non-numeric latitude 'north'",
        ]

    def test_underscore_in_a_number_is_non_numeric(self):
        # int and float read "_" as a digit separator; a listing feed does not
        records, errors = parse(HEADER + "a,2015-01-02,250_000,5_3.3,-6.2,3,house\n"
                                + "b,2015-01-02,250000,53.3,-6.2_5,1_0,house\n")
        assert records == []
        assert [e.message for e in errors] == [
            "non-numeric price '250_000'; non-numeric latitude '5_3.3'",
            "non-numeric longitude '-6.2_5'; non-numeric bedrooms '1_0'",
        ]

    @pytest.mark.parametrize("text, finite", [
        ("101.5", True), ("-2e3", True), ("1_01", False), ("1_0.5", False),
    ])
    def test_is_finite_float(self, text, finite):
        assert is_finite_float(text) is finite

    def test_missing_fields_parse_as_none(self):
        records, errors = parse(HEADER + "a1,2015-03-02,,,,,\n")
        assert errors == []
        assert len(records) == 1
        r = records[0]
        assert r.price is None and r.lat is None and r.lng is None
        assert r.bedrooms is None and r.dwelling_type is None

    def test_bad_date_is_parse_error(self):
        _, errors = parse(HEADER + "a1,02/03/2015,250000,53.35,-6.26,3,house\n")
        assert len(errors) == 1 and "date" in errors[0].message

    @pytest.mark.parametrize("text", ["20150302", "2015-W10-1", "2015W101"])
    def test_only_dashed_iso_dates_parse(self, text):
        # each of these is 2015-03-02 to Python 3.11's date.fromisoformat
        records, errors = parse(HEADER + f"a1,{text},250000,53.35,-6.26,3,house\n"
                                + "a2,2015-03-02,250000,53.35,-6.26,3,house\n")
        assert [r.id for r in records] == ["a2"]
        assert [e.message for e in errors] == [f"bad date {text!r}"]

    def test_missing_id_is_parse_error(self):
        _, errors = parse(HEADER + ",2015-03-02,250000,53.35,-6.26,3,house\n")
        assert len(errors) == 1 and "id" in errors[0].message

    def test_duplicate_id_is_parse_error(self):
        records, errors = parse(
            HEADER
            + "a1,2015-03-02,250000,53.35,-6.26,3,house\n"
            + "a1,2015-04-02,260000,53.36,-6.27,3,house\n"
        )
        assert len(records) == 1
        assert len(errors) == 1 and "duplicate" in errors[0].message

    def test_out_of_range_coordinate_is_parse_error(self):
        _, errors = parse(HEADER + "a1,2015-03-02,250000,99.0,-6.26,3,house\n")
        assert len(errors) == 1 and "latitude" in errors[0].message

    def test_negative_bedrooms_is_parse_error(self):
        _, errors = parse(HEADER + "a1,2015-03-02,250000,53.35,-6.26,-2,house\n")
        assert len(errors) == 1 and "bedroom" in errors[0].message

    def test_hundred_row_fixture_with_seven_bad_rows(self):
        bad_rows = {10, 23, 31, 47, 58, 72, 99}
        lines = [HEADER]
        for i in range(100):
            if i in bad_rows:
                lines.append(f"b{i:03d},2015-01-15,not-a-price,53.0,-7.0,3,house\n")
            else:
                lines.append(f"g{i:03d},2015-01-15,200000,53.0,-7.0,3,house\n")
        records, errors = parse("".join(lines))
        assert len(records) == 93
        assert len(errors) == 7
        # row numbers are 1-based file lines; header is row 1
        assert sorted(e.row for e in errors) == sorted(i + 2 for i in bad_rows)

    def test_row_numbers_count_blank_lines_and_quoted_newlines(self):
        text = (
            HEADER
            + "g1,2015-01-15,200000,53.0,-7.0,3,house\n"              # line 2
            + "\n"                                                     # line 3
            + "b1,2015-01-15,not-a-price,53.0,-7.0,3,house\n"         # line 4
            + 'g2,2015-01-15,200000,53.0,-7.0,3,"semi-\ndetached"\n'  # lines 5-6
            + "b2,2015-01-15,200000,north,-7.0,3,house\n"             # line 7
            + 'b3,2015-01-15,cheap,53.0,-7.0,3,"two\nline"\n'         # lines 8-9
        )
        records, errors = parse(text)
        assert [r.id for r in records] == ["g1", "g2"]
        assert records[1].dwelling_type == "semi-\ndetached"
        assert [e.row for e in errors] == [4, 7, 9]

    def test_open_quote_in_id_or_type_is_one_parse_error_at_its_first_line(self):
        text = (
            HEADER
            + "g1,2015-01-15,200000,53.0,-7.0,3,house\n"              # line 2
            + '"b1,2015-01-15,200000,53.0,-7.0,3,house\n'            # line 3, id left open
            + 'g2,2015-01-15,200000,53.0,-7.0,3,"flat"\n'            # line 4, closes it
            + "g3,2015-01-15,200000,53.0,-7.0,3,house\n"              # line 5
            + 'b2,2015-01-15,200000,53.0,-7.0,3,"semi\r\n'           # line 6, type left open
            + "g4,2015-01-15,200000,53.0,-7.0,3,house\n"              # line 7
            + "\n"                                                     # line 8, in b2's type
        )
        records, errors = parse(text)
        assert [r.id for r in records] == ["g1", "g3"]
        assert [(e.row, e.message) for e in errors] == [
            (3, "id cell spans lines 3-4: an unbalanced quote is likely; missing date"),
            (6, "type cell spans lines 6-8: an unbalanced quote is likely")]

    def test_csv_error_names_the_first_line_of_its_row(self):
        text = HEADER + "g1,2015-01-15,200000,53.0,-7.0,3,house\n\n" + "x" * 200_000 + "\n"
        with pytest.raises(csv.Error, match=r"^line 4: field larger than field limit"):
            parse(text)
        # a quote left open in the header is read inside the same handler
        text = 'id,"date,price,lat,lng,bedrooms,type\n' + "x" * 200_000 + "\n"
        with pytest.raises(csv.Error, match=r"^line 1: field larger than field limit"):
            parse(text)

    def test_read_rows_yields_line_spans_and_the_named_cells(self):
        text = ('note,b,a\n'            # line 1
                'x,1,2\n'               # line 2
                '\n'                    # line 3
                '"two\nlines",3,4,5\n'  # lines 4-5, a long row
                'y\n')                  # line 6, a short row
        assert list(read_rows(io.StringIO(text), ["a", None, "b"])) == [
            (2, 2, ("2", "", "1")), (4, 5, ("4", "", "3")), (6, 6, ("", "", ""))]

    def test_row_layouts(self):
        # columns in any order among unmapped ones; short, long and blank rows
        text = (
            "note,bedrooms,lng,type,lat,price,date,id,agent\n"
            + "x,3,-6.26,house,53.35,250000,2015-03-02,a1,y\n"       # line 2
            + "\n"                                                    # line 3
            + "x,2,-6.27,flat,53.36,260000,2015-03-03,a2,y,spare,more\n"
            + "x,4,-6.28\n"                                           # line 5, short
            + "\n"
            + ",,,,,,2015-03-05,a4\n"                                 # line 7, short
            + "x,2,-6.29,,53.37,cheap,2015-03-06,b1,y,spare\n"        # line 8, long
        )
        records, errors = parse(text)
        assert [(r.id, r.bedrooms, r.lng, r.dwelling_type, r.lat, r.price)
                for r in records] == [
            ("a1", 3, -6.26, "house", 53.35, 250000),
            ("a2", 2, -6.27, "flat", 53.36, 260000),
            ("a4", None, None, None, None, None),
        ]
        assert [(e.row, e.message) for e in errors] == [
            (5, "missing id; missing date"),
            (8, "non-numeric price 'cheap'"),
        ]
        assert filter_listings(records)[1].missing_geo_or_bedrooms == 1

        # a schema without a type column reads no type, even from a long row
        untyped = "id,date,price,lat,lng,bedrooms\n" + (
            "a1,2015-03-02,250000,53.35,-6.26,3\n"
            + "a2,2015-03-02,250000,53.35,-6.26,3,house\n"
            + "a3,2015-03-02,250000,53.35\n"
        )
        records, errors = parse(untyped, CsvSchema.from_spec("type="))
        assert errors == []
        assert [(r.id, r.bedrooms, r.dwelling_type) for r in records] == [
            ("a1", 3, None), ("a2", 3, None), ("a3", None, None)]
        assert filter_listings(records)[1].missing_geo_or_bedrooms == 1

    def test_missing_mapped_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="price"):
            parse("id,date,lat,lng,bedrooms,type\na,2015-01-01,1,2,3,h\n")

    def test_repeated_mapped_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="repeated mapped column.*price"):
            parse("id,date,price,lat,lng,bedrooms,type,price\n"
                  "a1,2015-03-02,250000,53.35,-6.26,3,house,999\n")
        # an unmapped column may repeat
        records, errors = parse("note,id,date,price,lat,lng,bedrooms,type,note\n"
                                "x,a1,2015-03-02,250000,53.35,-6.26,3,house,y\n")
        assert errors == [] and [r.price for r in records] == [250000]

    def test_headerless_input_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse("")

    def test_custom_schema_mapping(self):
        text = "ref,listed,asking,latitude,longitude,beds\nx,2015-01-02,50000,53.0,-7.0,2\n"
        schema = CsvSchema.from_spec(
            "id=ref,date=listed,price=asking,lat=latitude,lng=longitude,bedrooms=beds,type="
        )
        records, errors = parse(text, schema)
        assert errors == []
        assert records[0].id == "x" and records[0].dwelling_type is None


class TestSharedValues:
    """A value repeated across rows is kept as one object."""

    FEED = HEADER + (
        "a1,2015-03-02,250000,53.35,-6.26,3,house\n"
        "a2,2015-03-02,260000,53.36,-6.27,2,house\n"
        "b1,2015-02-30,cheap,53.35,-6.26,3,flat\n"
        "a3,2015-03-03,270000,53.37,-6.28,4,flat\n"
        "b2,2015-02-30,cheap,53.35,-6.26,3,house\n"
        "a4,2015-03-02,,,,,\n"
        "b3,,cheap,53.35,-6.26,3,house\n"
    )

    def test_records_and_errors_are_unchanged(self):
        records, errors = parse(self.FEED)
        day, next_day = datetime.date(2015, 3, 2), datetime.date(2015, 3, 3)
        assert records == [
            RawListing("a1", day, 250000, 53.35, -6.26, 3, "house"),
            RawListing("a2", day, 260000, 53.36, -6.27, 2, "house"),
            RawListing("a3", next_day, 270000, 53.37, -6.28, 4, "flat"),
            RawListing("a4", day, None, None, None, None, None),
        ]
        assert errors == [
            ParseError(4, "bad date '2015-02-30'; non-numeric price 'cheap'"),
            ParseError(6, "bad date '2015-02-30'; non-numeric price 'cheap'"),
            ParseError(8, "missing date; non-numeric price 'cheap'"),
        ]

    def test_same_date_text_shares_one_date(self):
        records, _ = parse(self.FEED)
        a1, a2, a3, a4 = (r.list_date for r in records)
        assert a1 is a2 is a4
        assert a3 is not a1

    def test_equal_types_and_equal_messages_share_one_string(self):
        records, errors = parse(self.FEED)
        assert records[0].dwelling_type is records[1].dwelling_type
        assert records[2].dwelling_type == "flat"
        assert errors[0].message is errors[1].message

    def test_feed_with_more_distinct_messages_than_the_table_holds(self):
        distinct = SHARED_TEXTS + 300
        lines = [f"b{i},2015-01-02,p{i % distinct},53.3,-6.2,3,house\n"
                 for i in range(2 * distinct)]
        records, errors = parse(HEADER + "".join(lines))
        assert records == []
        assert [(e.row, e.message) for e in errors] == [
            (i + 2, f"non-numeric price 'p{i % distinct}'") for i in range(2 * distinct)]
        # the first SHARED_TEXTS messages are shared, the rest kept per row
        first, second = errors[:distinct], errors[distinct:]
        shared = [a.message is b.message for a, b in zip(first, second)]
        assert shared == [True] * SHARED_TEXTS + [False] * (distinct - SHARED_TEXTS)


class TestSchemaSpec:
    def test_empty_spec_is_default(self):
        assert CsvSchema.from_spec("") == CsvSchema()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CsvSchema.from_spec("colour=red")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            CsvSchema.from_spec("price")

    def test_only_type_may_be_dropped(self):
        with pytest.raises(ValueError):
            CsvSchema.from_spec("price=")

    def test_two_fields_may_not_share_a_column(self):
        with pytest.raises(ValueError, match="fields lat and lng share column 'lng'"):
            CsvSchema(lat="lng")
        with pytest.raises(ValueError, match="fields id and price share column 'price'"):
            CsvSchema.from_spec("id=price")
        with pytest.raises(ValueError, match="fields price and dwelling_type share"):
            CsvSchema(dwelling_type="price")
        assert CsvSchema(dwelling_type=None).dwelling_type is None


class TestFilterRules:
    def test_seven_bedrooms_rejected(self):
        kept, report = filter_listings([make_raw("a", bedrooms=7)])
        assert kept == []
        assert report.too_many_bedrooms == 1

    def test_six_bedrooms_kept(self):
        kept, _ = filter_listings([make_raw("a", bedrooms=6)])
        assert len(kept) == 1

    @pytest.mark.parametrize(
        "price,expected_kept",
        [(9_999, 0), (10_000, 1), (1_000_000, 1), (1_000_001, 0)],
    )
    def test_price_bounds_inclusive(self, price, expected_kept):
        kept, report = filter_listings([make_raw("a", price=price)])
        assert len(kept) == expected_kept
        assert report.price_out_of_bounds == 1 - expected_kept

    def test_fully_populated_record_kept(self):
        kept, report = filter_listings([make_raw("a", price=350_000, bedrooms=3)])
        assert len(kept) == 1
        assert report.surviving == 1
        r = kept[0]
        assert isinstance(r, ListingRecord)
        assert r.month_key == "2015-01"

    def test_missing_geo_rejected_first(self):
        # missing bedrooms AND missing price: only the first rule counts it
        kept, report = filter_listings([make_raw("a", bedrooms=None, price=None)])
        assert kept == []
        assert report.missing_geo_or_bedrooms == 1
        assert report.missing_price == 0

    def test_zero_bedrooms_rejected_by_default(self):
        _, report = filter_listings([make_raw("a", bedrooms=0)])
        assert report.missing_geo_or_bedrooms == 1

    def test_engineered_fixture_survival(self):
        _, report = filter_listings(filtration_fixture_raw())
        assert report.total == 1000
        assert report.missing_geo_or_bedrooms == 165
        assert report.too_many_bedrooms == 10
        assert report.missing_price == 36
        assert report.price_out_of_bounds == 20
        assert abs(report.surviving_fraction - 0.77) <= 0.005


raw_listings = st.builds(
    RawListing,
    id=st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
    list_date=st.dates(datetime.date(2011, 1, 1), datetime.date(2019, 12, 31)),
    price=st.one_of(st.none(), st.integers(min_value=0, max_value=2_000_000).map(float)),
    lat=st.one_of(st.none(), st.floats(min_value=-90, max_value=90, allow_nan=False)),
    lng=st.one_of(st.none(), st.floats(min_value=-180, max_value=180, allow_nan=False)),
    bedrooms=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    dwelling_type=st.one_of(st.none(), st.just("house")),
)


@given(rows=st.lists(raw_listings, max_size=60))
@settings(max_examples=150)
def test_report_counts_conserve(rows):
    kept, report = filter_listings(rows)
    rejected = (
        report.missing_geo_or_bedrooms
        + report.too_many_bedrooms
        + report.missing_price
        + report.price_out_of_bounds
    )
    assert report.total == len(rows)
    assert report.surviving + rejected == report.total
    assert report.surviving == len(kept)


class TestReportSerialization:
    def test_flat_json_round_trip(self):
        _, report = filter_listings(filtration_fixture_raw())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total"] == 1000
        assert payload["surviving"] == 769
        assert payload["surviving_fraction"] == pytest.approx(0.769)
        assert set(payload) == {
            "total",
            "missing_geo_or_bedrooms",
            "too_many_bedrooms",
            "missing_price",
            "price_out_of_bounds",
            "surviving",
            "surviving_fraction",
        }

    def test_empty_report_fraction(self):
        assert FiltrationReport().surviving_fraction == 0.0


class TestWriteRoundTrip:
    def test_written_csv_parses_back(self, tmp_path):
        kept, _ = filter_listings(filtration_fixture_raw())
        path = tmp_path / "filtered.csv"
        write_listings_csv(kept, path)
        records, errors = parse_listings(path)
        assert errors == []
        assert [r.id for r in records] == [r.id for r in kept]
        again, report = filter_listings(records)
        assert report.surviving == len(kept)
        for before, after in zip(kept, again):
            assert after.price == before.price
            assert after.point == before.point
            assert after.list_date == before.list_date
            assert after.month_key == before.month_key


def test_byte_order_mark_is_skipped(tmp_path):
    text = HEADER + "a1,2015-03-02,250000,53.35,-6.26,3,house\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert parse_listings(marked) == parse_listings(plain)
    assert len(parse_listings(marked)[0]) == 1


def test_month_key_of():
    assert month_key_of(datetime.date(2015, 3, 31)) == "2015-03"
    assert month_key_of(datetime.date(2019, 12, 1)) == "2019-12"


def test_add_months():
    assert add_months("2015-01", 0) == "2015-01"
    assert add_months("2015-12", 1) == "2016-01"
    assert add_months("2015-03", 25) == "2017-04"
    assert add_months("2015-01", -1) == "2014-12"
