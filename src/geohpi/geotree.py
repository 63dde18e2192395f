"""Fixed-depth prefix tree over geohash-style keys with per-node caches.

The tree maps each key prefix (the root is ``""``) to a node caching the
records of its subtree.  Each query checks its arguments once, then climbs
the key's own prefixes, longest first, to the deepest node with enough
records, else the root: at most ``key_length`` lookups, whatever the number
of records.  All keys have the same length, the tree's height (geohash
precision plus any prepended parameter characters).

Besides the record cache, every node keeps one packed row per record,
``(z, x, y, id, record)`` with ``(x, y, z)`` the point's unit vector and
``z = sin(lat)`` first, all under the label ``None`` and, in a tree with a
``group_key``, again per label.  A nearest-neighbour query scores the rows
of one list by squared chord, with no trig calls.  Every row list is kept
sorted by ``z``: an insert marks the tree unsorted, and the next
``nearest_in_group`` sorts every list once.  The query bisects to its own
``z`` and scans outward both ways, stopping once ``(z - qz)**2`` alone
exceeds a margin around the least chord seen so far; rows within it are
compared again by ``(haversine_distance, id)``, see ``_nearest_row``.

The tree is write-once: build it, then query it.  Deletion and rebalancing
are deliberately unsupported, and the lists returned by queries are the
live caches; treat them as read-only.
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


class _Node:
    __slots__ = ("cache", "groups")

    def __init__(self) -> None:
        self.cache: list = []
        self.groups: dict[Hashable, list] = {None: []}


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


class GeoTree:
    """Prefix tree with cached record lists at every node, keyed by prefix.

    ``group_key`` optionally labels each record (typically with its listing
    month); each node keeps its packed rows per label as well as all under
    ``None``, so every query reads its candidates in one dictionary lookup.
    Records must expose ``.id`` (orderable, unique) and ``.point`` (GeoPoint).
    """

    def __init__(
        self,
        key_length: int,
        group_key: Callable[[Any], Hashable] | None = None,
    ) -> None:
        if key_length < 1:
            raise ValueError("key_length must be at least 1")
        self.key_length = key_length
        self.group_key = group_key
        self._nodes: dict[str, _Node] = {"": _Node()}
        self._unsorted = False  # an insert since the row lists were last sorted

    def __len__(self) -> int:
        return len(self._nodes[""].cache)

    def _check_length(self, key: str) -> None:
        if len(key) != self.key_length:
            raise KeyLengthMismatch(
                f"key {key!r} has length {len(key)}, tree expects {self.key_length}"
            )

    def insert(self, key: str, record: Any) -> None:
        """Append ``record`` to the cache of the node of every prefix of ``key``."""
        self._check_length(key)
        for c in key:  # validate before touching any node
            if c not in _ALPHABET_SET:
                raise ValueError(f"key character {c!r} outside the geohash alphabet")
        label = self.group_key(record) if self.group_key is not None else None
        row = (*_unit_vector(record.point), record.id, record)
        nodes = self._nodes
        self._unsorted = True
        for depth in range(len(key) + 1):
            prefix = key[:depth]
            node = nodes.get(prefix)
            if node is None:
                node = nodes[prefix] = _Node()
            node.cache.append(record)
            node.groups[None].append(row)
            if label is not None:
                node.groups.setdefault(label, []).append(row)

    def _check_query(self, key: str, min_population: int) -> None:
        if min_population < 1:
            raise ValueError("min_population must be at least 1")
        if not self._nodes[""].cache:
            raise EmptyTreeError("query on an empty tree")
        self._check_length(key)

    def scb_query(self, key: str, min_population: int = 1) -> tuple[list, int]:
        """Return the surrounding common bucket for ``key`` and its depth.

        The bucket is the cache of the deepest node on the key's path whose
        population meets ``min_population``; every record in it shares its
        first ``depth`` characters with the query.  If even the root falls
        short, the root cache is returned at depth 0.
        """
        self._check_query(key, min_population)
        nodes = self._nodes
        for depth in range(len(key), 0, -1):
            node = nodes.get(key[:depth])
            if node is not None and len(node.cache) >= min_population:
                return node.cache, depth
        return nodes[""].cache, 0

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

        Walks to the deepest node on the key's path holding at least
        ``min_population`` records that carry the label ``group`` (or any
        label when ``group`` is None) and whose ids are not in the set
        ``exclude``; within that bucket the record with the smallest
        great-circle distance wins, ties broken by smallest id.  Falls back
        to the root bucket when no node meets the threshold; returns None
        only when no matching record exists at all.
        """
        if group is not None and self.group_key is None:
            raise ValueError("tree was built without a group_key")
        if isinstance(exclude, str):  # `in` would match substrings of it
            raise TypeError("exclude must be a set of ids, not a str")
        self._check_query(key, min_population)
        nodes = self._nodes
        if self._unsorted:
            for node in nodes.values():
                for rows in node.groups.values():
                    rows.sort(key=_Z)
            self._unsorted = False
        for depth in range(len(key), 0, -1):
            node = nodes.get(key[:depth])
            rows = node.groups.get(group, ()) if node is not None else ()
            # excluded ids may lie outside this list, so count exactly only
            # when the bound that assumes all of them inside falls short
            if len(rows) >= min_population and (
                    len(rows) - len(exclude) >= min_population
                    or sum(row[3] not in exclude for row in rows) >= min_population):
                break
        else:
            rows = nodes[""].groups.get(group, ())
        return _nearest_row(rows, point, exclude)

    def walk(self) -> Iterable[tuple[str, _Node]]:
        """Yield ``(prefix, node)`` over the whole tree, parents first."""
        return iter(self._nodes.items())  # insert adds prefixes shortest first
