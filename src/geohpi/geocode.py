"""Geohash encoding/decoding and great-circle distances.

A geohash is a base-32 string built by interleaved binary bisection of
longitude and latitude (longitude bit first).  Two geohashes sharing a
prefix decode to nested cells, so prefix length bounds geographic
proximity.  Prepending a categorical attribute character from the same
alphabet (the bedroom count, in the index's geohash-plus keys) makes
prefix matching also match that attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}
_BIT_MASKS = (16, 8, 4, 2, 1)

MAX_PRECISION = 12
EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees."""

    lat: float
    lng: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not (-180.0 <= self.lng <= 180.0):
            raise ValueError(f"longitude {self.lng!r} outside [-180, 180]")


@dataclass(frozen=True)
class Geohash:
    """A non-empty string over the 32-character geohash alphabet."""

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("geohash must contain at least one character")
        for c in self.text:
            if c not in _CHAR_INDEX:
                raise ValueError(f"invalid geohash character {c!r}")


def encode_geohash(point: GeoPoint, precision: int = 7) -> Geohash:
    """Encode a point as a geohash of the given character count.

    Interleaved bisection, longitude bit first; a coordinate exactly on a
    cell boundary goes to the upper half, so encoding is deterministic.
    """
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision {precision!r} outside [1, {MAX_PRECISION}]")
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    chars: list[str] = []
    ch = 0
    bit = 0
    even = True  # True -> longitude bit
    while len(chars) < precision:
        if even:
            mid = (lng_lo + lng_hi) / 2
            if point.lng >= mid:
                ch = (ch << 1) | 1
                lng_lo = mid
            else:
                ch <<= 1
                lng_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2
            if point.lat >= mid:
                ch = (ch << 1) | 1
                lat_lo = mid
            else:
                ch <<= 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            chars.append(ALPHABET[ch])
            ch = 0
            bit = 0
    return Geohash("".join(chars))


def decode_geohash(geohash: Geohash | str) -> tuple[GeoPoint, float, float]:
    """Decode a geohash to its cell center and half-widths.

    Returns ``(center, lat_err, lng_err)``; the cell spans
    ``center.lat ± lat_err`` by ``center.lng ± lng_err`` and contains every
    point that encodes to this hash.
    """
    gh = geohash if isinstance(geohash, Geohash) else Geohash(geohash)
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    even = True
    for c in gh.text:
        idx = _CHAR_INDEX[c]
        for mask in _BIT_MASKS:
            if even:
                mid = (lng_lo + lng_hi) / 2
                if idx & mask:
                    lng_lo = mid
                else:
                    lng_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2
                if idx & mask:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    center = GeoPoint((lat_lo + lat_hi) / 2, (lng_lo + lng_hi) / 2)
    return center, (lat_hi - lat_lo) / 2, (lng_hi - lng_lo) / 2


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m."""
    phi_a = math.radians(a.lat)
    phi_b = math.radians(b.lat)
    d_phi = math.radians(b.lat - a.lat)
    d_lng = math.radians(b.lng - a.lng)
    h = (
        math.sin(d_phi / 2) ** 2
        + math.cos(phi_a) * math.cos(phi_b) * math.sin(d_lng / 2) ** 2
    )
    # rounding can push h a hair above 1 for near-antipodal pairs
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
