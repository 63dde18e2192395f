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


def root_records(tree):
    prefix, records = next(iter(tree.walk()))
    assert prefix == ""
    return records


def assert_caches_are_unions(tree):
    """Each prefix's records are the multiset union of the records of the
    prefixes one character longer; walk() yields parents first and no empty
    list but the root's of an empty tree."""
    own: dict[str, Counter] = {}
    below: dict[str, Counter] = {}
    for prefix, records in tree.walk():
        assert len(prefix) <= tree.key_length
        assert records or not prefix
        if prefix:
            assert prefix[:-1] in own  # parents first
            below[prefix[:-1]].update(r.id for r in records)
        own[prefix] = Counter(r.id for r in records)
        below[prefix] = Counter()
    for prefix, ids in own.items():
        assert below[prefix] == (ids if len(prefix) < tree.key_length else Counter())


def assert_rows_follow_cache(tree):
    """After one query of each kind the cache holds one map per kind read.
    Every prefix keeps one packed row per record in the all-rows map, under
    ``None``: the record's unit vector ``(z, x, y)`` with ``z = sin(lat)``,
    its id and the record.  A label holds rows at exactly the prefixes whose
    rows carry it, the same multiset as those rows; no map holds an empty
    list, and every row list is sorted by ``z``.  Reads with no insert
    between them share one build of each map."""
    key, point = "0" * tree.key_length, GeoPoint(0.0, 0.0)
    tree.nearest_in_group(key, point)
    if tree.group_key is not None:
        tree.nearest_in_group(key, point, "no such label")
    walked = list(tree.walk())
    maps = tree._maps
    assert set(maps) == {"records", "rows"} | ({"labels"} if tree.group_key else set())
    assert list(maps["rows"]) == [None]
    everything = maps["rows"][None]
    by_label = maps.get("labels", {})
    assert list(everything) == [prefix for prefix, _ in walked]
    for prefix, records in walked:
        assert Counter(id(row[4]) for row in everything[prefix]) == Counter(map(id, records))
        for z, x, y, rid, record in everything[prefix]:
            phi = math.radians(record.point.lat)
            lam = math.radians(record.point.lng)
            assert (z, x, y, rid) == (
                math.sin(phi), math.cos(phi) * math.cos(lam),
                math.cos(phi) * math.sin(lam), record.id)
        labels = ({tree.group_key(r) for r in records} - {None}) if tree.group_key else set()
        assert {label for label in by_label if prefix in by_label[label]} == labels
    for label, by_prefix in [(None, everything), *by_label.items()]:
        for prefix, rows in by_prefix.items():
            assert rows
            assert all(a[0] <= b[0] for a, b in zip(rows, rows[1:]))
            if label is not None:
                assert Counter(map(id, rows)) == Counter(
                    id(row) for row in everything[prefix] if tree.group_key(row[4]) == label)
    tree.nearest_in_group(key, point)
    tree.nearest_in_group(key, point, *([] if tree.group_key is None else ["2015-01"]))
    tree.scb_query(key)
    assert tree._maps == maps and all(tree._maps[kind] is built for kind, built in maps.items())


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
        assert root_records(tree) == [record]
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

    def test_key_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="key_length must be at least 1"):
            GeoTree(0)

    def test_key_outside_alphabet_rejected(self):
        tree = GeoTree(2)
        with pytest.raises(ValueError):
            tree.insert("aa", make_record("a", 53.0, -7.0, 100_000))

    def test_rejected_key_leaves_tree_untouched(self):
        tree = GeoTree(3)
        with pytest.raises(ValueError):
            tree.insert("0a0", make_record("a", 53.0, -7.0, 100_000))
        assert len(tree) == 0 and tree._keys == [] and tree._maps == {}
        assert list(tree.walk()) == [("", [])]
        first = make_record("b", 53.0, -7.0, 100_000)
        tree.insert("012", first)
        assert tree._maps == {}  # an insert leaves no map built
        walked = list(tree.walk())
        built = dict(tree._maps)
        for bad_key in ("0a0", "01"):
            with pytest.raises(ValueError):
                tree.insert(bad_key, make_record("c", 53.0, -7.0, 100_000))
        assert len(tree) == 1 and tree._keys == ["012"]
        assert tree._maps == built and tree._maps["records"] is built["records"]
        assert list(tree.walk()) == walked == [("", [first]), ("0", [first]),
                                               ("01", [first]), ("012", [first])]

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


@pytest.mark.parametrize("query", ["scb_query", "nearest_in_group"])
def test_query_arguments_are_checked(query):
    # no query has run yet, so the row lists still await their sort
    rng = random.Random(47)
    records = clustered_records(rng, 80)
    keys = random_keys(rng, records, 5)
    tree = build_tree(records, keys, 5)
    anchor = records[0]

    def call(key, min_population):
        if query == "scb_query":
            return tree.scb_query(key, min_population)
        return tree.nearest_in_group(key, anchor.point, anchor.month_key,
                                     min_population=min_population)

    with pytest.raises(ValueError) as raised:
        call(keys[anchor.id], 0)
    assert raised.type is ValueError
    assert str(raised.value) == "min_population must be at least 1"
    with pytest.raises(KeyLengthMismatch) as raised:
        call("0123", 1)
    assert str(raised.value) == "key '0123' has length 4, tree expects 5"
    exclude = frozenset((anchor.id,))
    found = tree.nearest_in_group(keys[anchor.id], anchor.point, anchor.month_key,
                                  exclude=exclude, min_population=2)
    expected = nearest_scan(records, keys, keys[anchor.id], anchor.point,
                            month=anchor.month_key, exclude=exclude, min_population=2)
    assert found is not None and found.id == expected.id


@given(
    keys=st.lists(st.text("01", min_size=4, max_size=4), min_size=1, max_size=60),
)
@settings(max_examples=100)
def test_cache_coherence_property(keys):
    tree = GeoTree(4)
    for i, key in enumerate(keys):
        tree.insert(key, make_record(f"r{i:03d}", 53.0, -7.0, 100_000))
    assert len(root_records(tree)) == len(keys)
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


_CITIES = ((53.35, -6.26), (-33.87, 151.21), (40.71, -74.01), (35.68, 139.69),
           (-23.55, -46.63), (-1.29, 36.82), (64.15, -21.94))


def _antipode(lat, lng):
    return -lat, lng - 180.0 if lng > 0.0 else lng + 180.0


@st.composite
def hard_layouts(draw):
    """A query point and 2-40 records in one of four layouts that stress the
    pruned scan and its margin: exact duplicates, sub-millimetre spacing,
    a few points on other continents (so buckets fall back to the root), and
    points around the query's antipode.  Ids are random, so id order is
    unrelated to position, and records spread over two months."""
    layout = draw(st.sampled_from(("duplicates", "sub_mm", "continents", "antipodal")))
    count = draw(st.integers(2, 40))
    lat0, lng0 = draw(st.floats(-80.0, 80.0)), draw(st.floats(-179.0, 179.0))
    if layout == "duplicates":
        spots = [(lat0, lng0)] + [
            (lat0 + d_lat, lng0 + d_lng)
            for d_lat, d_lng in draw(st.lists(st.tuples(st.floats(-1e-4, 1e-4),
                                                        st.floats(-1e-4, 1e-4)),
                                              min_size=1, max_size=3))]
        coords = [draw(st.sampled_from(spots)) for _ in range(count)]
        query = draw(st.sampled_from(spots))
    elif layout == "sub_mm":
        # a lattice around the query, some points mirrored through it, so
        # distances tie or differ by about a nanometre
        step = 10 ** draw(st.floats(-10.0, -8.0))  # degrees; 1e-8 is about 1 mm
        offsets = st.integers(-5, 5)
        coords = []
        while len(coords) < count:
            d_lat, d_lng = draw(offsets) * step, draw(offsets) * step
            coords.append((lat0 + d_lat, lng0 + d_lng))
            if draw(st.booleans()):
                coords.append((lat0 - d_lat, lng0 - d_lng))
        coords = coords[:count]
        query = (lat0, lng0)
    elif layout == "continents":
        jitter = st.floats(-0.05, 0.05)
        coords = [(lat + draw(jitter), lng + draw(jitter))
                  for lat, lng in (draw(st.sampled_from(_CITIES)) for _ in range(count))]
        lat, lng = draw(st.sampled_from(_CITIES))
        query = (lat + draw(jitter), lng + draw(jitter))
    else:
        lat1, lng1 = _antipode(lat0, lng0)
        spread = 10 ** draw(st.floats(-9.0, -3.0))  # degrees around the antipode
        offsets = st.floats(-1.0, 1.0)
        coords = [(lat1 + draw(offsets) * spread,
                   max(-180.0, min(180.0, lng1 + draw(offsets) * spread)))
                  for _ in range(count)]
        coords = [draw(st.sampled_from(coords[:i + 1])) if draw(st.booleans()) else c
                  for i, c in enumerate(coords)]  # some exact repeats
        query = (lat0, lng0)
    ids = draw(st.lists(st.integers(0, 999_999), min_size=count, max_size=count,
                        unique=True))
    months = draw(st.lists(st.sampled_from(("2015-01", "2015-02")),
                           min_size=count, max_size=count))
    records = [make_record(f"p{i:06d}", lat, lng, 100_000, month)
               for i, (lat, lng), month in zip(ids, coords, months)]
    return GeoPoint(*query), records


@given(drawn=hard_layouts(), min_population=st.integers(1, 3), data=st.data())
@settings(max_examples=400, deadline=None)
def test_nearest_matches_linear_scan_on_hard_layouts(drawn, min_population, data):
    # voting's pattern: a non-empty exclude set, growing by each winner
    query, records = drawn
    keys = {r.id: encode_geohash(r.point, 6).text for r in records}
    tree = build_tree(records, keys, 6)
    query_key = encode_geohash(query, 6).text
    month = data.draw(st.sampled_from((None, "2015-01", "2015-02")))
    excluded = set(data.draw(st.sets(st.sampled_from(sorted(keys)), min_size=1)))
    for _ in range(3):
        found = tree.nearest_in_group(query_key, query, month, exclude=excluded,
                                      min_population=min_population)
        expected = nearest_scan(records, keys, query_key, query, month=month,
                                exclude=frozenset(excluded),
                                min_population=min_population)
        assert (found.id if found else None) == (expected.id if expected else None)
        if found is None:
            break
        excluded.add(found.id)


def test_tie_beyond_the_stop_point_is_found():
    # a lattice of 2.7e-10 degree steps (30 micrometres) mirrored through
    # the query: p00 wins in metres (tied with p74, smaller id), but p25's
    # chord, low by the unit vectors' rounding, is the least, and p00's
    # (z - qz)**2 alone exceeds it; only a scan that runs on to the margin
    # limit, not to the least chord, reaches p00
    lat0, lng0 = -0.21751019530498183, -94.92526160451568
    coords = {"p52": (-0.21751019476980638, -94.92526160505086),
              "p68": (-0.2175101958401573, -94.9252616039805),
              "p41": (-0.21751019530498183, -94.92526160424809),
              "p25": (-0.21751019530498183, -94.92526160478327),
              "p58": (-0.2175101950373941, -94.92526160478327),
              "p30": (-0.21751019557256956, -94.92526160424809),
              "p74": (-0.21751019557256956, -94.92526160451568),
              "p00": (-0.2175101950373941, -94.92526160451568)}
    records = [make_record(rid, lat, lng, 100_000) for rid, (lat, lng) in coords.items()]
    keys = {r.id: "0" for r in records}
    tree = build_tree(records, keys, 1)
    query = GeoPoint(lat0, lng0)
    assert tree.nearest_in_group("0", query).id == "p00"
    excluded: set[str] = set()
    for _ in records:
        found = tree.nearest_in_group("0", query, exclude=excluded)
        assert found.id == nearest_scan(records, keys, "0", query,
                                        exclude=frozenset(excluded)).id
        excluded.add(found.id)


def _ids(records):
    return [r.id for r in records]


@pytest.mark.parametrize("group_key", [
    None,
    lambda r: r.month_key,
    lambda r: r.month_key if r.bedrooms > 2 else None,  # some rows unlabelled
], ids=["ungrouped", "by_month", "partly_unlabelled"])
@pytest.mark.parametrize("seed", range(6))
def test_interleaved_inserts_and_queries_match_the_oracle(seed, group_key):
    """Queries between inserts answer as the oracle over the records inserted
    so far and as a tree built from them in one go; an insert leaves no map
    built, each read builds only the map it reads, and reads with no insert
    between them share one build of it."""
    rng = random.Random(seed)
    records = clustered_records(rng, 120, bedrooms=(1, 2, 3, 4))
    key_length = 4
    keys = random_keys(rng, records, key_length)
    tree = GeoTree(key_length, group_key=group_key)
    assert list(tree.walk()) == [("", [])] and len(tree) == 0
    labels = [None] if group_key is None else [None, "2015-01", "2015-02", "2015-03"]
    inserted = []
    for record in records:
        tree.insert(keys[record.id], record)
        assert tree._maps == {}
        inserted.append(record)
        built: dict[str, dict] = {}
        for _ in range(rng.choice((0, 0, 1, 3))):
            whole = build_tree(inserted, keys, key_length, group_key=group_key)
            query = rng.choice(inserted)
            query_key = rng.choice((keys[query.id], "".join(rng.choice("0123")
                                                             for _ in range(key_length))))
            min_population = rng.randint(1, 4)
            kind = rng.choice(("scb", "walk", "len", "nearest", "nearest"))
            if kind == "scb":
                bucket, depth = tree.scb_query(query_key, min_population)
                expected, expected_depth = scb_scan(inserted, keys, query_key, min_population)
                assert (_ids(bucket), depth) == (_ids(expected), expected_depth)
                assert (bucket, depth) == whole.scb_query(query_key, min_population)
                read = "records"
            elif kind == "walk":
                walked = [(prefix, _ids(items)) for prefix, items in tree.walk()]
                assert walked == [(prefix, _ids(items)) for prefix, items in whole.walk()]
                read = "records"
            elif kind == "len":
                assert len(tree) == len(whole) == len(inserted)
                read = None
            else:
                group = rng.choice(labels)
                exclude = frozenset(r.id for r in rng.sample(inserted, min(len(inserted),
                                                                         rng.randint(0, 3))))
                found = tree.nearest_in_group(query_key, query.point, group,
                                              exclude=exclude, min_population=min_population)
                members = inserted if group is None else [
                    r for r in inserted if group_key(r) == group]
                expected = nearest_scan(members, keys, query_key, query.point,
                                        exclude=exclude, min_population=min_population)
                assert found is expected
                assert found is whole.nearest_in_group(
                    query_key, query.point, group, exclude=exclude,
                    min_population=min_population)
                read = "rows" if group is None else "labels"
            if read is not None:
                built.setdefault(read, tree._maps[read])
            assert tree._maps.keys() == built.keys()
            assert all(tree._maps[name] is current for name, current in built.items())
    assert_rows_follow_cache(tree)
    assert_caches_are_unions(tree)
