import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohpi.geocode import GeoPoint, encode_geohash
from geohpi.geotree import EmptyTreeError, GeoTree, KeyLengthMismatch

from helpers import clustered_records, make_record
from oracle import nearest_scan, scb_scan


def build_tree(records, keys, key_length, group_key=lambda r: r.month_key):
    tree = GeoTree(key_length, group_key=group_key)
    for r in records:
        tree.insert(keys[r.id], r)
    return tree


def root_of(tree):
    prefix, node = next(iter(tree.walk()))
    assert prefix == ""
    return node


def assert_caches_are_unions(tree):
    """Each node's records are the multiset union of the records of the nodes
    one character longer; walk() yields parents first and no empty node."""
    own: dict[str, Counter] = {}
    below: dict[str, Counter] = {}
    for prefix, node in tree.walk():
        assert len(prefix) <= tree.key_length
        assert node.cache or not prefix
        if prefix:
            assert prefix[:-1] in own  # parents first
            below[prefix[:-1]].update(r.id for r in node.cache)
        own[prefix] = Counter(r.id for r in node.cache)
        below[prefix] = Counter()
    for prefix, ids in own.items():
        assert below[prefix] == (ids if len(prefix) < tree.key_length else Counter())


def assert_rows_follow_cache(tree):
    """Every node keeps one packed row per cached record under ``None``, in
    cache order; each label's rows are the in-order sublist of those rows
    with that label, and an ungrouped tree keeps no other label."""
    for _, node in tree.walk():
        everything = node.groups[None]
        assert [row[4] for row in everything] == node.cache
        for lat, lng, cos_lat, rid, record in everything:
            assert (lat, lng, cos_lat, rid) == (
                record.point.lat, record.point.lng,
                math.cos(math.radians(record.point.lat)), record.id)
        if tree.group_key is None:
            assert list(node.groups) == [None]
        for label, rows in node.groups.items():
            if label is not None:
                assert rows == [row for row in everything
                                if tree.group_key(row[4]) == label]


def random_keys(rng, records, key_length, alphabet="0123"):
    """Random keys over a tiny alphabet so prefixes collide often."""
    return {
        r.id: "".join(rng.choice(alphabet) for _ in range(key_length))
        for r in records
    }


class TestInsert:
    def test_single_record_reaches_root_cache(self):
        record = make_record("a", 53.0, -7.0, 100_000)
        tree = GeoTree(5)
        tree.insert("gc7x9", record)
        assert root_of(tree).cache == [record]
        assert len(tree) == 1

    def test_identical_keys_share_deepest_node(self):
        first = make_record("a", 53.0, -7.0, 100_000)
        second = make_record("b", 53.0, -7.0, 120_000)
        tree = GeoTree(5)
        tree.insert("gc7x9", first)
        tree.insert("gc7x9", second)
        bucket, depth = tree.scb_query("gc7x9", min_population=2)
        assert depth == 5
        assert bucket == [first, second]

    def test_wrong_key_length_rejected(self):
        tree = GeoTree(5)
        with pytest.raises(KeyLengthMismatch):
            tree.insert("gc7x", make_record("a", 53.0, -7.0, 100_000))

    def test_key_outside_alphabet_rejected(self):
        tree = GeoTree(2)
        with pytest.raises(ValueError):
            tree.insert("aa", make_record("a", 53.0, -7.0, 100_000))

    def test_rejected_key_leaves_tree_untouched(self):
        tree = GeoTree(3)
        with pytest.raises(ValueError):
            tree.insert("0a0", make_record("a", 53.0, -7.0, 100_000))
        assert len(tree) == 0
        assert [(prefix, node.cache) for prefix, node in tree.walk()] == [("", [])]

    def test_cache_sizes_sum_over_children(self):
        rng = random.Random(7)
        records = clustered_records(rng, 1000)
        keys = random_keys(rng, records, 6)
        tree = build_tree(records, keys, 6)
        assert_caches_are_unions(tree)

    @pytest.mark.parametrize("group_key", [
        None,
        lambda r: r.month_key,
        lambda r: r.month_key if r.bedrooms > 2 else None,  # some rows unlabelled
    ], ids=["ungrouped", "by_month", "partly_unlabelled"])
    def test_rows_under_none_follow_the_cache(self, group_key):
        rng = random.Random(13)
        records = clustered_records(rng, 300, bedrooms=(1, 2, 3, 4))
        keys = random_keys(rng, records, 5)
        tree = build_tree(records, keys, 5, group_key=group_key)
        assert_rows_follow_cache(tree)


class TestScbQuery:
    def test_single_record_full_depth(self):
        record = make_record("a", 53.0, -7.0, 100_000)
        tree = GeoTree(5)
        tree.insert("gc7x9", record)
        bucket, depth = tree.scb_query("gc7x9", min_population=1)
        assert bucket == [record]
        assert depth == 5

    def test_parameter_splits_at_first_branch(self):
        tree = GeoTree(7)
        threes = [make_record(f"t{i}", 53.0, -7.0, 100_000) for i in range(5)]
        fours = [make_record(f"f{i}", 53.0, -7.0, 100_000) for i in range(5)]
        for r in threes:
            tree.insert("3gc7x9b", r)
        for r in fours:
            tree.insert("4gc7x9b", r)
        bucket, depth = tree.scb_query("3gc7x9b", min_population=3)
        assert bucket == threes
        assert depth == 7

    def test_empty_tree_raises(self):
        with pytest.raises(EmptyTreeError):
            GeoTree(3).scb_query("000")

    def test_root_fallback_when_threshold_unmet(self):
        record = make_record("a", 53.0, -7.0, 100_000)
        tree = GeoTree(3)
        tree.insert("000", record)
        bucket, depth = tree.scb_query("000", min_population=10)
        assert bucket == [record]
        assert depth == 0

    def test_depth_monotonicity(self):
        rng = random.Random(11)
        records = clustered_records(rng, 300)
        keys = random_keys(rng, records, 5)
        tree = build_tree(records, keys, 5)
        for _ in range(50):
            query = keys[records[rng.randrange(len(records))].id]
            sizes = []
            for pop in (1, 2, 4, 8, 16, 32):
                bucket, depth = tree.scb_query(query, min_population=pop)
                sizes.append((pop, depth, len(bucket)))
            # demanding a larger population can only move the bucket upward
            for (_, d1, n1), (_, d2, n2) in zip(sizes, sizes[1:]):
                assert d2 <= d1
                assert n2 >= n1

    def test_matches_linear_scan(self):
        rng = random.Random(23)
        records = clustered_records(rng, 500)
        keys = random_keys(rng, records, 6)
        tree = build_tree(records, keys, 6)
        for _ in range(100):
            if rng.random() < 0.8:
                query = keys[records[rng.randrange(len(records))].id]
            else:
                query = "".join(rng.choice("0123") for _ in range(6))
            pop = rng.randrange(1, 30)
            bucket, depth = tree.scb_query(query, min_population=pop)
            expected_bucket, expected_depth = scb_scan(records, keys, query, pop)
            assert [r.id for r in bucket] == [r.id for r in expected_bucket]
            assert depth == expected_depth


class TestNearestInGroup:
    def test_single_matching_record(self):
        record = make_record("a", 53.0, -7.0, 100_000, month="2015-01")
        tree = GeoTree(5, group_key=lambda r: r.month_key)
        tree.insert("gc7x9", record)
        found = tree.nearest_in_group("gc7x9", GeoPoint(53.0, -7.0), "2015-01")
        assert found is record

    def test_no_record_for_month_returns_none(self):
        record = make_record("a", 53.0, -7.0, 100_000, month="2015-01")
        tree = GeoTree(5, group_key=lambda r: r.month_key)
        tree.insert("gc7x9", record)
        assert tree.nearest_in_group("gc7x9", GeoPoint(53.0, -7.0), "2015-02") is None

    def test_empty_tree_raises(self):
        tree = GeoTree(3, group_key=lambda r: r.month_key)
        with pytest.raises(EmptyTreeError):
            tree.nearest_in_group("000", GeoPoint(0, 0), "2015-01")

    def test_self_excluded_finds_nearest_other(self):
        rng = random.Random(31)
        records = clustered_records(rng, 200)
        keys = {r.id: encode_geohash(r.point, 6).text for r in records}
        tree = build_tree(records, keys, 6)
        for record in records[:40]:
            found = tree.nearest_in_group(
                keys[record.id],
                record.point,
                record.month_key,
                exclude={record.id},
            )
            expected = nearest_scan(
                records,
                keys,
                keys[record.id],
                record.point,
                month=record.month_key,
                exclude=frozenset((record.id,)),
            )
            assert (found.id if found else None) == (
                expected.id if expected else None
            )

    def test_bare_string_exclude_rejected(self):
        # "s001" as a container would exclude any id that is a substring of it
        tree = GeoTree(5, group_key=lambda r: r.month_key)
        tree.insert("gc7x9", make_record("s0", 53.0, -7.0, 100_000))
        with pytest.raises(TypeError):
            tree.nearest_in_group("gc7x9", GeoPoint(53.0, -7.0), exclude="s001")

    def test_group_value_without_group_key_rejected(self):
        tree = GeoTree(5)
        tree.insert("gc7x9", make_record("a", 53.0, -7.0, 100_000))
        with pytest.raises(ValueError):
            tree.nearest_in_group("gc7x9", GeoPoint(53.0, -7.0), "2015-01")

    def test_ties_break_by_smallest_id(self):
        # both candidates sit at the same point, so distances are equal bits
        tree = GeoTree(5, group_key=lambda r: r.month_key)
        far = make_record("z", 53.0, -7.0, 1)
        tie_b = make_record("b", 54.0, -7.5, 2)
        tie_a = make_record("a", 54.0, -7.5, 3)
        for r in (far, tie_b, tie_a):
            tree.insert("gc7x9", r)
        found = tree.nearest_in_group("gc7x9", GeoPoint(54.0, -7.5), "2015-01")
        assert found.id == "a"

    def test_matches_linear_scan_with_thresholds(self):
        rng = random.Random(41)
        records = clustered_records(rng, 400)
        keys = random_keys(rng, records, 6)
        tree = build_tree(records, keys, 6)
        months = [None, "2015-01", "2015-02", "2015-03", "2019-09"]
        for _ in range(120):
            anchor = records[rng.randrange(len(records))]
            query = keys[anchor.id]
            month = months[rng.randrange(len(months))]
            pop = rng.randrange(1, 5)
            exclude = frozenset((anchor.id,)) if rng.random() < 0.5 else frozenset()
            found = tree.nearest_in_group(
                query, anchor.point, month, exclude=exclude, min_population=pop
            )
            expected = nearest_scan(
                records, keys, query, anchor.point,
                month=month, exclude=exclude, min_population=pop,
            )
            assert (found.id if found else None) == (
                expected.id if expected else None
            )


@given(
    keys=st.lists(st.text("01", min_size=4, max_size=4), min_size=1, max_size=60),
)
@settings(max_examples=100)
def test_cache_coherence_property(keys):
    tree = GeoTree(4)
    for i, key in enumerate(keys):
        tree.insert(key, make_record(f"r{i:03d}", 53.0, -7.0, 100_000))
    assert len(root_of(tree).cache) == len(keys)
    assert {prefix for prefix, _ in tree.walk()} == {
        key[:d] for key in keys for d in range(5)
    }
    assert_caches_are_unions(tree)


@st.composite
def equidistant_records(draw):
    """A query point and 2-30 records at one great-circle distance from it.

    Each record's longitude is solved from its sampled latitude, so the
    records' distances differ only by rounding: many share their metres
    while their haversine terms differ.  Some records repeat an earlier
    record's coordinates exactly, and ids are random, so id order is
    unrelated to position.
    """
    lat0 = draw(st.floats(-60.0, 60.0))
    lng0 = draw(st.floats(-170.0, 170.0))
    radius = 10 ** draw(st.floats(-4.0, 0.0))  # degrees of arc, 1e-4 to 1
    count = draw(st.integers(2, 30))
    ids = draw(st.lists(st.integers(0, 999_999), min_size=count, max_size=count,
                        unique=True))
    half_arc = math.radians(radius) / 2
    cos0 = math.cos(math.radians(lat0))
    coords: list[tuple[float, float]] = []
    for _ in range(count):
        if coords and draw(st.integers(0, 3)) == 0:
            coords.append(draw(st.sampled_from(coords)))
            continue
        lat = lat0 + draw(st.floats(-1.0, 1.0)) * radius
        # haversine: sin²(arc/2) = sin²(Δφ/2) + cos φ0 cos φ sin²(Δλ/2)
        lat_term = math.sin(math.radians(lat - lat0) / 2) ** 2
        cos_term = cos0 * math.cos(math.radians(lat))
        term = (math.sin(half_arc) ** 2 - lat_term) / cos_term
        d_lng = math.degrees(2 * math.asin(math.sqrt(min(1.0, max(0.0, term)))))
        coords.append((lat, lng0 + draw(st.sampled_from((d_lng, -d_lng)))))
    records = [make_record(f"p{i:06d}", lat, lng, 100_000)
               for i, (lat, lng) in zip(ids, coords)]
    return GeoPoint(lat0, lng0), records


@given(drawn=equidistant_records())
@settings(max_examples=300, deadline=None)
def test_equidistant_ties_match_linear_scan(drawn):
    # exact metre ties between different haversine terms still go to the
    # smallest id; excluding each winner in turn checks every rank
    query, records = drawn
    keys = {r.id: "0" for r in records}
    tree = build_tree(records, keys, 1)
    expected = nearest_scan(records, keys, "0", query, month="2015-01")
    assert tree.nearest_in_group("0", query, "2015-01").id == expected.id
    excluded: set[str] = set()
    for _ in records:
        found = tree.nearest_in_group("0", query, exclude=excluded)
        expected = nearest_scan(records, keys, "0", query, exclude=frozenset(excluded))
        assert found.id == expected.id
        excluded.add(found.id)
