"""Fixed-depth prefix tree over geohash-style keys with per-node caches.

The tree maps each key prefix (the root is ``""``) to a node caching the
records of its subtree, so the bucket around a key is found in at most
``key_length`` lookups of the key's own prefixes and handed back as a
cached list: cost is independent of the number of records.  All keys must
have the same length, so the tree height equals the key length (geohash
precision plus any prepended parameter characters).

Besides the record cache, every node keeps one packed row per record,
``(lat, lng, cos(radians(lat)), id, record)``, all in insertion order under
the label ``None`` and, in a tree with a ``group_key``, again per label, so
a nearest-neighbour query scores one list without touching the records.

The tree is write-once: build it, then query it.  Deletion and rebalancing
are deliberately unsupported, and the lists returned by queries are the
live caches; treat them as read-only.
"""

from __future__ import annotations

from math import cos, radians, sin
from typing import AbstractSet, Any, Callable, Hashable, Iterable, Iterator

from .geocode import ALPHABET, GeoPoint, haversine_distance

_ALPHABET_SET = frozenset(ALPHABET)
# Rows whose haversine term is within this relative margin of the least one
# are compared again in metres; see _nearest_row.
_H_MARGIN = 1.0 + 1e-9


class KeyLengthMismatch(ValueError):
    """Raised when a key's length differs from the tree's fixed key length."""


class EmptyTreeError(LookupError):
    """Raised when querying a tree that holds no records."""


class _Node:
    __slots__ = ("cache", "groups")

    def __init__(self) -> None:
        self.cache: list = []
        self.groups: dict[Hashable, list] = {None: []}


def _nearest_row(rows: list, point: GeoPoint) -> tuple:
    """The row nearest to ``point`` by ``(haversine_distance, id)``.

    Scores each row by the haversine term ``h``, computed in the same
    operation order as ``haversine_distance`` so it is bit-identical to the
    term that function would take the arcsine of.  Metres grow with ``h`` up
    to rounding, and two different ``h`` can round to the same metres, so
    every row within a relative margin of the least ``h``, far wider than
    any rounding, is compared again by ``(haversine_distance, id)``.
    """
    if len(rows) == 1:
        return rows[0]
    lat, lng = point.lat, point.lng
    cos_q = cos(radians(lat))
    scores = [
        sin(radians(r_lat - lat) / 2) ** 2
        + cos_q * cos_r * sin(radians(r_lng - lng) / 2) ** 2
        for r_lat, r_lng, cos_r, _, _ in rows
    ]
    limit = min(scores) * _H_MARGIN
    close = [row for row, h in zip(rows, scores) if h <= limit]
    if len(close) == 1:
        return close[0]
    return min(close, key=lambda row: (haversine_distance(point, row[4].point), row[3]))


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
        lat, lng = record.point.lat, record.point.lng
        row = (lat, lng, cos(radians(lat)), record.id, record)
        nodes = self._nodes
        for depth in range(len(key) + 1):
            prefix = key[:depth]
            node = nodes.get(prefix)
            if node is None:
                node = nodes[prefix] = _Node()
            node.cache.append(record)
            node.groups[None].append(row)
            if label is not None:
                node.groups.setdefault(label, []).append(row)

    def _climb(self, key: str, min_population: int) -> Iterator[tuple[_Node, int]]:
        """The surrounding common bucket walk shared by both queries.

        Yields ``(node, depth)`` for every node on the key's path, deepest
        first and the root (depth 0) last; a query stops at the first node
        whose list meets ``min_population`` and otherwise ends on the root.
        """
        if min_population < 1:
            raise ValueError("min_population must be at least 1")
        nodes = self._nodes
        if not nodes[""].cache:
            raise EmptyTreeError("query on an empty tree")
        self._check_length(key)
        for depth in range(len(key), 0, -1):
            node = nodes.get(key[:depth])
            if node is not None:
                yield node, depth
        yield nodes[""], 0

    def scb_query(self, key: str, min_population: int = 1) -> tuple[list, int]:
        """Return the surrounding common bucket for ``key`` and its depth.

        The bucket is the cache of the deepest node on the key's path whose
        population meets ``min_population``; every record in it shares its
        first ``depth`` characters with the query.  If even the root falls
        short, the root cache is returned at depth 0.
        """
        for node, depth in self._climb(key, min_population):
            if len(node.cache) >= min_population:
                break
        return node.cache, depth

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
        for node, _ in self._climb(key, min_population):
            candidates = node.groups.get(group, ())
            if exclude:
                candidates = [row for row in candidates if row[3] not in exclude]
            if len(candidates) >= min_population:
                break
        if not candidates:
            return None
        return _nearest_row(candidates, point)[4]

    def walk(self) -> Iterable[tuple[str, _Node]]:
        """Yield ``(prefix, node)`` over the whole tree, parents first."""
        return iter(self._nodes.items())  # insert adds prefixes shortest first
