import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohpi.geocode import (
    EARTH_RADIUS_M,
    GeoPoint,
    Geohash,
    decode_geohash,
    encode_geohash,
    haversine_distance,
)

points = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    lng=st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
)


class TestGeoPoint:
    def test_valid_bounds(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lng", [(90.1, 0), (-91, 0), (0, 180.5), (0, -181)])
    def test_out_of_range_rejected(self, lat, lng):
        with pytest.raises(ValueError):
            GeoPoint(lat, lng)


class TestEncode:
    def test_equator_prime_meridian_is_s(self):
        # lng-first interleaving puts (0,0) at bits 11000 -> index 24 -> 's'
        assert encode_geohash(GeoPoint(0.0, 0.0), 1).text == "s"

    def test_north_east_corner_is_z(self):
        assert encode_geohash(GeoPoint(90.0, 180.0), 1).text == "z"

    def test_reference_point(self):
        # cross-checked against an independent string-interleaving encoder
        assert encode_geohash(GeoPoint(57.64911, 10.40744), 11).text == "u4pruydqqvj"

    @pytest.mark.parametrize("precision", [0, -1, 13])
    def test_precision_out_of_range(self, precision):
        with pytest.raises(ValueError):
            encode_geohash(GeoPoint(0, 0), precision)

    def test_deterministic(self):
        p = GeoPoint(53.3498, -6.2603)
        assert encode_geohash(p, 9) == encode_geohash(p, 9)


class TestDecode:
    def test_single_char_cell(self):
        center, lat_err, lng_err = decode_geohash("s")
        assert (center.lat, center.lng) == (22.5, 22.5)
        assert (lat_err, lng_err) == (22.5, 22.5)

    def test_round_trip_contains_origin(self):
        center, lat_err, lng_err = decode_geohash(encode_geohash(GeoPoint(0, 0), 8))
        assert abs(center.lat - 0.0) <= lat_err
        assert abs(center.lng - 0.0) <= lng_err

    def test_reference_point_recovered(self):
        center, _, _ = decode_geohash("u4pruydqqvj")
        assert center.lat == pytest.approx(57.64911, abs=1e-4)
        assert center.lng == pytest.approx(10.40744, abs=1e-4)

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            decode_geohash("ab")  # 'a' is not in the alphabet

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decode_geohash("")


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(53.0, -7.0)
        assert haversine_distance(p, p) == 0.0

    def test_antipodal_on_equator(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(d - 20_015_087.0) <= 1.0
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M)

    def test_dublin_to_cork(self):
        # frozen from two independent great-circle formulations (219,985.13 m)
        dublin = GeoPoint(53.3498, -6.2603)
        cork = GeoPoint(51.8985, -8.4756)
        d = haversine_distance(dublin, cork)
        assert d == pytest.approx(219_985.13, rel=1e-3)

    def test_agrees_with_law_of_cosines(self):
        a = GeoPoint(53.3498, -6.2603)
        b = GeoPoint(51.8985, -8.4756)
        expected = EARTH_RADIUS_M * math.acos(
            math.sin(math.radians(a.lat)) * math.sin(math.radians(b.lat))
            + math.cos(math.radians(a.lat))
            * math.cos(math.radians(b.lat))
            * math.cos(math.radians(b.lng - a.lng))
        )
        assert haversine_distance(a, b) == pytest.approx(expected, rel=1e-3)

    @given(a=points, b=points)
    def test_symmetric_and_non_negative(self, a, b):
        assert haversine_distance(a, b) >= 0.0
        assert haversine_distance(a, b) == pytest.approx(
            haversine_distance(b, a), abs=1e-9
        )


@given(point=points, precision=st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_round_trip_containment(point, precision):
    center, lat_err, lng_err = decode_geohash(encode_geohash(point, precision))
    assert abs(point.lat - center.lat) <= lat_err
    assert abs(point.lng - center.lng) <= lng_err


def _box_bound_meters(prefix: str) -> float:
    """Upper bound on the distance between any two points in the prefix cell.

    Meridian leg plus a parallel leg at the cell latitude nearest the
    equator; every great-circle distance inside the cell is below it.
    """
    center, lat_err, lng_err = decode_geohash(prefix)
    nearest_lat = max(0.0, abs(center.lat) - lat_err)
    lat_leg = math.radians(2 * lat_err)
    lng_leg = math.cos(math.radians(nearest_lat)) * math.radians(2 * lng_err)
    return EARTH_RADIUS_M * (lat_leg + lng_leg)


@given(a=points, b=points, shared=st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_prefix_distance_bound(a, b, shared):
    ha = encode_geohash(a, 8).text
    hb = encode_geohash(b, 8).text
    if ha[:shared] != hb[:shared]:
        return
    ca, _, _ = decode_geohash(ha)
    cb, _, _ = decode_geohash(hb)
    assert haversine_distance(ca, cb) <= _box_bound_meters(ha[:shared]) * (1 + 1e-9)


class TestGeohashType:
    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            Geohash("hello")  # 'l' is excluded from the alphabet
