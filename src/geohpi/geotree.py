"""Fixed-depth prefix tree over geohash-style keys, kept as prefix maps.

Each map sends every key prefix present (the root is ``""``) to a list:
the records under it in insertion order, or the packed rows of those that
carry one label.  A query checks its arguments once, then climbs the key's own
prefixes, longest first, to the deepest one with enough records, else the
root: at most ``key_length`` dictionary lookups, whatever the number of
records.  All keys have the tree's fixed length (geohash precision plus any
prepended parameter characters).

A packed row is ``(z, x, y, id, record)``, ``(x, y, z)`` the point's unit
vector with ``z = sin(lat)`` first.  A nearest-neighbour query scores one
row list by squared chord, with no trig calls.  Each row list is sorted by
``z`` when its map is built.  The query bisects to its own ``z`` and scans
outward both ways, stopping once ``(z - qz)**2`` alone exceeds a margin
around the least chord seen so far; rows within it are compared again by
``(haversine_distance, id)``, see ``_nearest_row``.

A tree keeps only a log of every key and row in insert order.  Each query
builds the one map it reads from the log on its first call after an
insert; see ``GeoTree``.

The tree is write-once: build it, then query it.  Deletion and rebalancing
are deliberately unsupported, and queries return the maps' live lists;
treat them as read-only.
"""

from __future__ import annotations

from bisect import bisect_left
from math import cos, inf, radians, sin, sqrt
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Hashable, Iterable

from .geocode import ALPHABET, GeoPoint, haversine_distance

_ALPHABET_SET = frozenset(ALPHABET)
_Z = itemgetter(0)
# Rows whose chord is within this relative margin plus this absolute one (in
# Earth radii, about 6 micrometres) of the least chord are compared again in
# metres; see _nearest_row.
_REL_MARGIN = 1.0 + 1e-9
_ABS_MARGIN = 1e-12


class KeyLengthMismatch(ValueError):
    """Raised when a key's length differs from the tree's fixed key length."""


class EmptyTreeError(LookupError):
    """Raised when querying a tree that holds no records."""


def _unit_vector(point: GeoPoint) -> tuple[float, float, float]:
    """``(z, x, y)``: the point's unit vector on the sphere, ``z = sin(lat)``."""
    phi, lam = radians(point.lat), radians(point.lng)
    cos_phi = cos(phi)
    return sin(phi), cos_phi * cos(lam), cos_phi * sin(lam)


def _nearest_row(rows: list, point: GeoPoint, exclude: AbstractSet) -> Any | None:
    """The record of the row nearest to ``point`` by ``(haversine_distance, id)``
    whose id is not in ``exclude``, or None when no row qualifies; ``rows``
    must be sorted by ``z``.

    Scores rows by the squared chord ``c`` between unit vectors, which grows
    with great-circle distance, and scans outward from ``point``'s ``z`` in
    both directions.  ``c`` is a float sum of non-negative terms, so it is
    never below its term ``(z - qz)**2``: once that term exceeds the limit,
    no row further out on that side can be within it, and since the limit
    only shrinks as better rows are found the stop skips nothing.

    The chord is not bit-identical to the metres, so every row within the
    limit ``(sqrt(best) * (1 + 1e-9) + 1e-12)**2`` of the least chord
    ``best`` is compared again by ``(haversine_distance, id)``.  Both
    distances err by a few 1e-16 on the chord's scale (Earth radii): the
    unit vectors by about 1e-16 per coordinate, and ``haversine_distance``
    through its term ``h = c / 4``, which it rounds to about 1e-16.  The
    absolute part of the margin, 1e-12, covers that sum many times over,
    also for exact duplicates and sub-millimetre spacing, where a relative
    margin alone would be zero or too narrow.  Near antipodes ``asin`` near
    1 magnifies those roundings in the metres: one ulp of ``h`` below 1 is
    0.19 m, so near-antipodal rows can tie in metres or swap order against
    their true distance.  The chord does not magnify them: ``c = 4h``, so
    one ulp of ``h`` moves ``c`` by about 4e-16, and every row the metres
    could rank first still lies within the margin, where the repair orders
    it by the metres themselves.
    """
    if len(rows) == 1:
        row = rows[0]
        return None if row[3] in exclude else row[4]
    qz, qx, qy = _unit_vector(point)
    best = limit = inf
    close = []
    start = bisect_left(rows, qz, key=_Z)
    for scan in (range(start, len(rows)), range(start - 1, -1, -1)):
        for i in scan:
            row = rows[i]
            z, x, y, rid, _ = row
            dz = z - qz
            dz2 = dz * dz
            if dz2 > limit:
                break
            if rid in exclude:
                continue
            dx = x - qx
            dy = y - qy
            c = dx * dx + dy * dy + dz2
            if c <= limit:
                close.append((c, row))
                if c < best:
                    best = c
                    limit = (sqrt(c) * _REL_MARGIN + _ABS_MARGIN) ** 2
    close = [row for c, row in close if c <= limit]
    if len(close) <= 1:
        return close[0][4] if close else None
    metres: dict[tuple[float, float], float] = {}

    def rank(row: tuple) -> tuple:
        # rows at one coordinate share their metres (0.0 at the query's
        # own), so many listings at one spot cost one haversine call
        at = row[4].point
        coordinate = (at.lat, at.lng)
        if coordinate not in metres:
            metres[coordinate] = haversine_distance(point, at)
        return metres[coordinate], row[3]

    return min(close, key=rank)[4]


def _add(by_prefix: dict[str, list], key: str, item: Any) -> None:
    """Append ``item`` at every prefix of ``key`` in ``by_prefix``, shortest first."""
    for depth in range(len(key) + 1):
        prefix = key[:depth]
        items = by_prefix.get(prefix)
        if items is None:  # a one-item list, not append's four slots
            by_prefix[prefix] = [item]
        else:
            items.append(item)


class GeoTree:
    """Prefix tree mapping every key prefix present to the records under it.

    ``group_key`` optionally labels each record (typically with its listing
    month), so each climb step reads its candidates in one dictionary
    lookup.  An insert only logs its key and row; each query reads one map,
    which it builds from the log on its first call after an insert:

    - ``scb_query`` and ``walk()`` read ``prefix -> records``;
    - ``nearest_in_group`` with ``group=None`` reads every row by prefix;
    - with a label it reads each label's rows by prefix, built for every
      label in one pass that calls ``group_key``; a record labelled
      ``None`` is under no label.

    Every map lists its prefixes in the order inserts first reached them,
    records in insert order and rows sorted by ``z``.  No map holds an
    empty list, save the root's in an empty tree.  Records must expose
    ``.id`` (orderable, unique) and ``.point`` (GeoPoint).
    """

    def __init__(self, key_length: int,
                 group_key: Callable[[Any], Hashable] | None = None) -> None:
        if key_length < 1:
            raise ValueError("key_length must be at least 1")
        self.key_length = key_length
        self.group_key = group_key
        self._keys: list[str] = []  # every inserted key, in insert order
        self._log: list[tuple] = []  # the row of each of _keys
        self._maps: dict[str, dict] = {}  # each map built since the last insert

    def __len__(self) -> int:
        return len(self._log)

    def _check_length(self, key: str) -> None:
        if len(key) != self.key_length:
            raise KeyLengthMismatch(
                f"key {key!r} has length {len(key)}, tree expects {self.key_length}"
            )

    def insert(self, key: str, record: Any) -> None:
        """Log ``record``, and its row, under ``key``; every map is built anew on its next read."""
        self._check_length(key)
        for c in key:  # validate before touching the log
            if c not in _ALPHABET_SET:
                raise ValueError(f"key character {c!r} outside the geohash alphabet")
        self._keys.append(key)
        self._log.append((*_unit_vector(record.point), record.id, record))
        self._maps.clear()

    def _check_query(self, key: str, min_population: int) -> None:
        if min_population < 1:
            raise ValueError("min_population must be at least 1")
        if not self._log:
            raise EmptyTreeError("query on an empty tree")
        self._check_length(key)

    def _records(self) -> dict[str, list]:
        """``prefix -> records``, built on the first read since the last insert."""
        records = self._maps.get("records")
        if records is None:
            records = self._maps["records"] = {"": []}
            for key, row in zip(self._keys, self._log):
                _add(records, key, row[4])
        return records

    def _rows(self, labelled: bool) -> dict[Hashable, dict[str, list]]:
        """``label -> prefix -> rows``: each row under its record's label when
        ``labelled``, else every row under ``None``; built on the first read
        since the last insert."""
        kind = "labels" if labelled else "rows"
        by_label = self._maps.get(kind)
        if by_label is None:
            by_label = self._maps[kind] = {}
            for key, row in zip(self._keys, self._log):
                label = self.group_key(row[4]) if labelled else None
                if labelled and label is None:
                    continue  # under no label
                _add(by_label.setdefault(label, {}), key, row)
            for by_prefix in by_label.values():
                for rows in by_prefix.values():
                    rows.sort(key=_Z)
        return by_label

    def scb_query(self, key: str, min_population: int = 1) -> tuple[list, int]:
        """Return the surrounding common bucket for ``key`` and its depth.

        The bucket is the records of the deepest prefix of the key whose
        population meets ``min_population``; every record in it shares its
        first ``depth`` characters with the query.  If even the root falls
        short, the root's records are returned at depth 0.
        """
        self._check_query(key, min_population)
        records = self._records()
        for depth in range(len(key), 0, -1):
            cache = records.get(key[:depth], ())
            if len(cache) >= min_population:
                return cache, depth
        return records[""], 0

    def nearest_in_group(
        self,
        key: str,
        point: GeoPoint,
        group: Hashable | None = None,
        *,
        exclude: AbstractSet = frozenset(),
        min_population: int = 1,
    ) -> Any | None:
        """Nearest record to ``point`` among the query's group bucket.

        Climbs to the deepest prefix of the key holding at least
        ``min_population`` records that carry the label ``group`` (or any
        label when ``group`` is None) and whose ids are not in the set
        ``exclude``; within that bucket the record with the smallest
        great-circle distance wins, ties broken by smallest id.  Falls back
        to the root bucket when no prefix meets the threshold; returns None
        only when no matching record exists at all.
        """
        if group is not None and self.group_key is None:
            raise ValueError("tree was built without a group_key")
        if isinstance(exclude, str):  # `in` would match substrings of it
            raise TypeError("exclude must be a set of ids, not a str")
        self._check_query(key, min_population)
        by_prefix = self._rows(group is not None).get(group, {})
        for depth in range(len(key), 0, -1):
            rows = by_prefix.get(key[:depth], ())
            # excluded ids may lie outside this list, so count exactly only
            # when the bound that assumes all of them inside falls short
            if len(rows) >= min_population and (
                    len(rows) - len(exclude) >= min_population
                    or sum(row[3] not in exclude for row in rows) >= min_population):
                break
        else:
            rows = by_prefix.get("", ())
        return _nearest_row(rows, point, exclude)

    def walk(self) -> Iterable[tuple[str, list]]:
        """Yield ``(prefix, records)`` over the whole tree, parents first."""
        return iter(self._records().items())  # maps add prefixes shortest first
