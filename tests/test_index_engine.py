import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohpi import geotree, index_engine
from geohpi.geotree import GeoTree
from geohpi.index_engine import (
    CHAIN_MODES,
    ChainUndefinedError,
    IndexConfig,
    IndexSeries,
    RatioMatrix,
    VotingUndefinedError,
    _median,
    build_ratio_matrix,
    build_tree,
    chain_index,
    compute_index,
    key_length,
    month_range,
    record_key,
    removal_count,
    voting_stage,
)
from geohpi.ingestion import add_months
from geohpi.synthgen import generate, mix_shift_config

from helpers import built_maps, clustered_records, make_record
from oracle import chain_scan, matrix_scan, oracle_key, pipeline_scan, voting_scan


def keys_for(records, config):
    return {r.id: record_key(r, config) for r in records}


def run_voting(records, config):
    return voting_stage(records, config, keys_for(records, config))


def run_matrix(records, config):
    return build_ratio_matrix(records, config, keys_for(records, config))


class TestConfig:
    def test_defaults(self):
        config = IndexConfig()
        assert config.votes_per_record == 1
        assert config.removal_fraction == 0.10
        assert config.min_ratios_for_chain == 3
        assert config.geohash_precision == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"votes_per_record": 0},
            {"removal_fraction": 1.0},
            {"removal_fraction": -0.1},
            {"min_ratios_for_chain": 0},
            {"geohash_precision": 0},
            {"geohash_precision": 13},
            {"scb_min_population": 0},
            {"chain_mode": "multiplicative"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)

    def test_key_length_includes_bedroom_parameter(self):
        assert key_length(IndexConfig(geohash_precision=7)) == 7
        assert key_length(IndexConfig(geohash_precision=7, factor_bedrooms=True)) == 8

    def test_record_key_prepends_bedrooms(self):
        record = make_record("a", 53.0, -7.0, 100_000, bedrooms=4)
        plain = record_key(record, IndexConfig())
        factored = record_key(record, IndexConfig(factor_bedrooms=True))
        assert factored == "4" + plain


class TestRemovalCount:
    def test_exact_tenth(self):
        assert removal_count(0.10, 1000) == 100

    def test_float_product_guard(self):
        # 0.29 * 100 is 28.999999999999996 in floats; the floor must be 29
        assert removal_count(0.29, 100) == 29

    def test_floor_semantics(self):
        assert removal_count(0.10, 105) == 10
        assert removal_count(0.0, 50) == 0


class TestVoting:
    def test_zero_removal_keeps_everything(self):
        rng = random.Random(1)
        records = clustered_records(rng, 20)
        survivors = run_voting(records, IndexConfig(removal_fraction=0.0))
        assert survivors == records

    def test_isolated_record_removed(self):
        # a tight square pairs everyone horizontally, so each cluster record
        # collects one vote while the isolated record collects none
        cluster = [
            make_record("c0", 53.000, -7.000, 100_000),
            make_record("c1", 53.000, -7.001, 100_000),
            make_record("c2", 53.001, -7.000, 100_000),
            make_record("c3", 53.001, -7.001, 100_000),
        ]
        isolated = make_record("lonely", 52.1, -7.0, 100_000)  # ~100 km south
        records = cluster + [isolated]
        survivors = run_voting(records, IndexConfig(removal_fraction=0.2))
        assert isolated not in survivors
        assert len(survivors) == 4

    def test_exactly_ten_percent_removed(self):
        rng = random.Random(2)
        records = clustered_records(rng, 1000)
        survivors = run_voting(records, IndexConfig())
        assert len(survivors) == 900

    def test_fewer_than_two_records_undefined(self):
        records = [make_record("a", 53.0, -7.0, 100_000)]
        config = IndexConfig()
        keys = keys_for(records, config)
        with pytest.raises(VotingUndefinedError):
            voting_stage(records, config, keys)

    def test_matches_linear_scan(self):
        rng = random.Random(3)
        records = clustered_records(rng, 150, bedrooms=(2, 3, 4))
        for config in (
            IndexConfig(removal_fraction=0.10),
            IndexConfig(removal_fraction=0.25, votes_per_record=3),
            IndexConfig(removal_fraction=0.10, factor_bedrooms=True),
        ):
            keys = keys_for(records, config)
            survivors = voting_stage(records, config, keys)
            expected = voting_scan(records, keys, config)
            assert [r.id for r in survivors] == [r.id for r in expected]

    def test_record_out_of_neighbours_stops_voting(self):
        # each of four records has three neighbours to give its five votes to,
        # so every record gets three votes and the smallest id goes
        records = [make_record(rid, 53.0 + 0.001 * i, -7.0, 100_000)
                   for i, rid in enumerate("abcd")]
        config = IndexConfig(removal_fraction=0.25, votes_per_record=5)
        survivors = run_voting(records, config)
        assert [r.id for r in survivors] == ["b", "c", "d"]
        assert survivors == voting_scan(records, keys_for(records, config), config)

    def test_survivors_preserve_input_order(self):
        rng = random.Random(4)
        records = clustered_records(rng, 60)
        survivors = run_voting(records, IndexConfig(removal_fraction=0.15))
        positions = {r.id: i for i, r in enumerate(records)}
        assert [positions[r.id] for r in survivors] == sorted(
            positions[r.id] for r in survivors
        )


class TestRatioMatrix:
    def test_constant_monthly_prices_give_exact_ratios(self):
        prices = {"2015-01": 100_000.0, "2015-02": 120_000.0, "2015-03": 90_000.0}
        records = []
        for month, price in prices.items():
            for i in range(4):
                records.append(
                    make_record(f"{month}-{i}", 53.0 + i * 1e-4, -7.0, price, month)
                )
        matrix = run_matrix(records, IndexConfig())
        for b_idx, base in enumerate(matrix.months):
            for x_idx in range(b_idx):
                prior = matrix.months[x_idx]
                assert matrix.get(base, prior) == prices[base] / prices[prior]

    def test_single_record_per_month_hand_values(self):
        records = [
            make_record("a", 53.0, -7.0, 100_000, "2015-01"),
            make_record("b", 53.0, -7.0, 110_000, "2015-02"),
            make_record("c", 53.0, -7.0, 121_000, "2015-03"),
        ]
        matrix = run_matrix(records, IndexConfig())
        assert matrix.get("2015-02", "2015-01") == 1.10
        assert matrix.get("2015-03", "2015-01") == 1.21
        assert matrix.get("2015-03", "2015-02") == 1.10
        assert matrix.support[("2015-03", "2015-01")] == 1

    def test_strictly_lower_triangular(self):
        rng = random.Random(5)
        records = clustered_records(rng, 100)
        matrix = run_matrix(records, IndexConfig())
        order = {m: i for i, m in enumerate(matrix.months)}
        for base, prior in matrix.entries:
            assert order[prior] < order[base]
            assert matrix.entries[(base, prior)] > 0

    def test_even_count_median_is_mean_of_central_pair(self):
        # two base records with distinct ratios against one prior record
        records = [
            make_record("p", 53.0, -7.0, 100_000, "2015-01"),
            make_record("a", 53.0, -7.0, 110_000, "2015-02"),
            make_record("b", 53.0, -7.0, 130_000, "2015-02"),
        ]
        matrix = run_matrix(records, IndexConfig())
        assert matrix.get("2015-02", "2015-01") == (1.10 + 1.30) / 2

    def test_matches_linear_scan(self):
        rng = random.Random(6)
        records = clustered_records(
            rng, 200, months=("2015-01", "2015-02", "2015-03", "2015-04"),
            bedrooms=(2, 3),
        )
        for config in (IndexConfig(), IndexConfig(factor_bedrooms=True)):
            keys = keys_for(records, config)
            matrix = build_ratio_matrix(records, config, keys)
            months, entries, support = matrix_scan(records, keys, config)
            assert list(matrix.months) == months
            assert matrix.entries == entries
            assert matrix.support == support

    def test_stray_year_queries_only_filled_months(self, monkeypatch):
        # one record ten years before a four-month body: the 116 empty
        # months between them are never queried
        rng = random.Random(8)
        body = ("2015-01", "2015-02", "2015-03", "2015-04")
        records = clustered_records(rng, 60, months=body)
        records.append(make_record("stray", 53.5, -7.5, 150_000, "2005-01"))
        config = IndexConfig()
        keys = keys_for(records, config)
        calls = []
        nearest = GeoTree.nearest_in_group

        def counted(self, *args, **kwargs):
            calls.append(args)
            return nearest(self, *args, **kwargs)

        monkeypatch.setattr(GeoTree, "nearest_in_group", counted)
        matrix = build_ratio_matrix(records, config, keys)
        filled = sorted({r.month_key for r in records})
        assert len(calls) == sum(filled.index(r.month_key) for r in records)
        months, entries, support = matrix_scan(records, keys, config)
        assert list(matrix.months) == months
        assert len(months) == 124
        assert matrix.entries == entries
        assert matrix.support == support

    def test_month_range_fills_gaps(self):
        records = [
            make_record("a", 53.0, -7.0, 100_000, "2015-11"),
            make_record("b", 53.0, -7.0, 100_000, "2016-02"),
        ]
        assert month_range(records) == ["2015-11", "2015-12", "2016-01", "2016-02"]


def matrix_from(months, entries):
    return RatioMatrix(tuple(months), dict(entries), {k: 1 for k in entries})


class TestChain:
    def test_constant_prices_flat_at_100(self):
        records = []
        for m in range(1, 7):
            for i in range(3):
                records.append(
                    make_record(f"m{m}-{i}", 53.0, -7.0, 250_000, f"2015-0{m}")
                )
        config = IndexConfig(min_ratios_for_chain=1)
        matrix = run_matrix(records, config)
        series = chain_index(matrix, config)
        assert all(v == 100.0 for v in series.values)
        assert not any(series.flagged)

    def test_three_month_growth_fixture(self):
        matrix = matrix_from(
            ["2015-01", "2015-02", "2015-03"],
            {
                ("2015-02", "2015-01"): 1.10,
                ("2015-03", "2015-01"): 1.21,
                ("2015-03", "2015-02"): 1.10,
            },
        )
        series = chain_index(matrix, IndexConfig(min_ratios_for_chain=1))
        assert series.values[0] == 100.0
        assert series.values[1] == pytest.approx(110.0, rel=1e-12)
        assert series.values[2] == pytest.approx(121.0, rel=1e-12)
        assert series.diffs == pytest.approx((10.0, 11.0), rel=1e-9)

    def test_geometric_mode(self):
        matrix = matrix_from(
            ["2015-01", "2015-02", "2015-03"],
            {
                ("2015-02", "2015-01"): 1.10,
                ("2015-03", "2015-01"): 1.21,
                ("2015-03", "2015-02"): 1.10,
            },
        )
        series = chain_index(
            matrix, IndexConfig(min_ratios_for_chain=1, chain_mode="geometric")
        )
        assert series.values[1] == pytest.approx(110.0, rel=1e-12)
        assert series.values[2] == pytest.approx(121.0, rel=1e-12)

    def test_sparse_transition_flagged(self):
        # month 3 shares no history with month 2: flagged, index carries over
        matrix = matrix_from(
            ["2015-01", "2015-02", "2015-03"],
            {("2015-02", "2015-01"): 1.05},
        )
        series = chain_index(matrix, IndexConfig(min_ratios_for_chain=1))
        assert series.flagged == (False, False, True)
        assert series.values[2] == series.values[1]

    def test_min_ratios_threshold_flags(self):
        months = ["2015-01", "2015-02", "2015-03", "2015-04"]
        entries = {
            ("2015-02", "2015-01"): 1.01,
            ("2015-03", "2015-01"): 1.02,
            ("2015-03", "2015-02"): 1.01,
            ("2015-04", "2015-01"): 1.03,
            ("2015-04", "2015-02"): 1.02,
            ("2015-04", "2015-03"): 1.01,
        }
        strict = chain_index(
            matrix_from(months, entries), IndexConfig(min_ratios_for_chain=2)
        )
        # transition 2->3 has one shared prior (m1): below threshold of 2
        assert strict.flagged == (False, False, True, False)
        relaxed = chain_index(
            matrix_from(months, entries), IndexConfig(min_ratios_for_chain=1)
        )
        assert relaxed.flagged == (False, False, False, False)

    def test_first_transition_not_gated_by_min_ratios(self):
        matrix = matrix_from(
            ["2015-01", "2015-02"], {("2015-02", "2015-01"): 1.07}
        )
        series = chain_index(matrix, IndexConfig(min_ratios_for_chain=3))
        assert series.flagged == (False, False)
        assert series.values[1] == pytest.approx(107.0, rel=1e-12)

    def test_single_month_undefined(self):
        with pytest.raises(ChainUndefinedError):
            chain_index(matrix_from(["2015-01"], {}), IndexConfig())

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_long_empty_span_looks_up_only_compared_months(self, monkeypatch, mode):
        # a mistyped year stretches the calendar to 2,400 months around six
        # filled ones; each step looks up only the months some base was
        # compared to, so the lookups grow with months x filled months
        months = [add_months("1815-01", i) for i in range(2400)]
        filled = months[:3] + months[-3:]
        rng = random.Random(12)
        entries = {(base, prior): rng.uniform(0.8, 1.25)
                   for i, base in enumerate(filled) for prior in filled[:i]}
        config = IndexConfig(min_ratios_for_chain=1, chain_mode=mode)
        calls = 0
        get = RatioMatrix.get

        def counted(self, base, prior):
            nonlocal calls
            calls += 1
            return get(self, base, prior)

        monkeypatch.setattr(RatioMatrix, "get", counted)
        series = chain_index(matrix_from(months, entries), config)
        assert calls <= 2 * len(months) * len(filled)  # two lookups per pair
        values, flagged = chain_scan(months, entries, config)
        assert [v.hex() for v in series.values] == [v.hex() for v in values]
        assert list(series.flagged) == flagged
        assert not flagged[-1]  # the last months do chain

    def test_diffs_invariant(self):
        series = IndexSeries(
            ("a", "b", "c"), (100.0, 104.0, 101.0), (False, False, False)
        )
        assert series.diffs == (4.0, -3.0)


class TestComputeIndex:
    def test_deterministic(self):
        rng = random.Random(7)
        records = clustered_records(
            rng, 120, months=("2015-01", "2015-02", "2015-03"), bedrooms=(2, 3, 4)
        )
        config = IndexConfig(min_ratios_for_chain=1)
        first = compute_index(records, config)
        second = compute_index(records, config)
        assert first.series == second.series
        assert first.matrix.entries == second.matrix.entries

    def test_scale_equivariance_power_of_two_exact(self):
        rng = random.Random(8)
        records = clustered_records(rng, 80, months=("2015-01", "2015-02", "2015-03"))
        scaled = [
            make_record(r.id, r.point.lat, r.point.lng, r.price * 4.0, r.month_key,
                        r.bedrooms)
            for r in records
        ]
        config = IndexConfig(min_ratios_for_chain=1)
        assert compute_index(records, config).series == compute_index(
            scaled, config
        ).series

    def test_scale_equivariance_general(self):
        rng = random.Random(9)
        records = clustered_records(rng, 80, months=("2015-01", "2015-02", "2015-03"))
        scaled = [
            make_record(r.id, r.point.lat, r.point.lng, r.price * 3.0, r.month_key,
                        r.bedrooms)
            for r in records
        ]
        config = IndexConfig(min_ratios_for_chain=1)
        base_values = compute_index(records, config).series.values
        scaled_values = compute_index(scaled, config).series.values
        assert scaled_values == pytest.approx(base_values, rel=1e-12)

    def test_month_relabelling_preserves_values(self):
        rng = random.Random(10)
        records = clustered_records(rng, 90, months=("2015-01", "2015-02", "2015-03"))
        shifted = [
            make_record(
                r.id, r.point.lat, r.point.lng, r.price,
                f"2017-{int(r.month_key.split('-')[1]) + 3:02d}", r.bedrooms
            )
            for r in records
        ]
        config = IndexConfig(min_ratios_for_chain=1)
        assert (
            compute_index(records, config).series.values
            == compute_index(shifted, config).series.values
        )

    def test_empty_middle_month_is_flagged_and_chain_continues(self):
        records = []
        for month in ("2015-01", "2015-03"):
            for i in range(5):
                records.append(
                    make_record(f"{month}-{i}", 53.0, -7.0, 200_000, month)
                )
        config = IndexConfig(removal_fraction=0.0, min_ratios_for_chain=1)
        result = compute_index(records, config)
        assert result.series.months == ("2015-01", "2015-02", "2015-03")
        assert result.series.flagged[1]  # nothing listed in 2015-02
        assert len(result.series.values) == 3

    def test_factoring_never_mixes_separated_bedroom_groups(self):
        # three-beds live in one cluster, four-beds in another far away;
        # factored matching must equal independent per-bedroom matching
        rng = random.Random(11)
        threes = clustered_records(rng, 60, clusters=1, bedrooms=(3,))
        fours = [
            make_record(f"x{r.id}", r.point.lat + 2.0, r.point.lng + 2.0, r.price,
                        r.month_key, 4)
            for r in clustered_records(rng, 60, clusters=1, bedrooms=(3,))
        ]
        combined = threes + fours
        config = IndexConfig(factor_bedrooms=True, removal_fraction=0.0)
        keys = keys_for(combined, config)
        matrix = build_ratio_matrix(combined, config, keys)

        plain = IndexConfig(factor_bedrooms=False, removal_fraction=0.0)
        merged_entries = {}
        merged_support = {}
        for subset in (threes, fours):
            sub_keys = keys_for(subset, plain)
            sub_matrix = build_ratio_matrix(subset, plain, sub_keys)
            for pair, value in sub_matrix.entries.items():
                if pair in merged_entries:
                    # both groups contributed: medians cannot merge; combine
                    # supports only to assert disjointness below
                    merged_support[pair] += sub_matrix.support[pair]
                else:
                    merged_entries[pair] = value
                    merged_support[pair] = sub_matrix.support[pair]
        # every month pair here is fed by both bedroom groups, so compare
        # support totals and spot-check that factored matches stay in-group
        for pair, count in matrix.support.items():
            assert merged_support[pair] == count
        tree = build_tree(combined, config, keys)
        for record in combined[:20]:
            neighbour = tree.nearest_in_group(
                keys[record.id], record.point, "2015-02"
            )
            if neighbour is not None:
                assert neighbour.bedrooms == record.bedrooms

    def test_voting_summary_counts(self):
        rng = random.Random(12)
        records = clustered_records(rng, 100)
        result = compute_index(records, IndexConfig(min_ratios_for_chain=1))
        assert result.voting.total == 100
        assert result.voting.removed == 10
        assert result.voting.survivors == 90

    def test_matches_full_pipeline_oracle(self):
        rng = random.Random(13)
        records = clustered_records(
            rng, 80, months=("2015-01", "2015-02", "2015-03"), bedrooms=(2, 3, 4)
        )
        for config in (
            IndexConfig(min_ratios_for_chain=1),
            IndexConfig(min_ratios_for_chain=1, factor_bedrooms=True),
            IndexConfig(min_ratios_for_chain=1, chain_mode="geometric"),
        ):
            result = compute_index(records, config)
            months, values, flagged, entries, support = pipeline_scan(records, config)
            assert list(result.series.months) == months
            assert list(result.series.values) == values
            assert list(result.series.flagged) == flagged
            assert result.matrix.entries == entries
            assert result.matrix.support == support

    def test_many_listings_at_one_coordinate(self, monkeypatch):
        # a feed that puts 600 listings on one block's coordinate, among a
        # few scattered neighbours: rows at one coordinate share their
        # metres, so a query costs a haversine call per distinct coordinate
        # among its closest rows, not one per row
        rng = random.Random(17)
        months = ("2015-01", "2015-02", "2015-03")
        records = [make_record(f"d{i:03d}", 53.3498, -6.2603,
                               rng.uniform(200_000, 400_000), months[i % 3])
                   for i in range(600)]
        records += [make_record(f"s{i:02d}", 53.3498 + rng.uniform(-4e-4, 4e-4),
                                -6.2603 + rng.uniform(-4e-4, 4e-4),
                                rng.uniform(200_000, 400_000), months[i % 3])
                    for i in range(20)]
        config = IndexConfig(votes_per_record=2)
        keys = keys_for(records, config)
        haversine = geotree.haversine_distance
        nearest = GeoTree.nearest_in_group
        calls = [0]
        per_query = []

        def counted_haversine(a, b):
            calls[0] += 1
            return haversine(a, b)

        def counted_nearest(self, *args, **kwargs):
            before = calls[0]
            found = nearest(self, *args, **kwargs)
            per_query.append(calls[0] - before)
            return found

        monkeypatch.setattr(geotree, "haversine_distance", counted_haversine)
        monkeypatch.setattr(GeoTree, "nearest_in_group", counted_nearest)
        survivors = voting_stage(records, config, keys)
        matrix = build_ratio_matrix(survivors, config, keys)
        assert len(per_query) > 2 * 600
        assert max(per_query) <= 2
        monkeypatch.undo()
        assert [r.id for r in survivors] == [r.id for r in voting_scan(records, keys, config)]
        months, entries, support = matrix_scan(survivors, keys, config)
        assert list(matrix.months) == months
        assert matrix.entries == entries
        assert matrix.support == support

    def test_oracle_key_matches_engine_key(self):
        record = make_record("a", 53.37, -6.59, 100_000, bedrooms=5)
        for config in (IndexConfig(), IndexConfig(factor_bedrooms=True)):
            assert record_key(record, config) == oracle_key(record, config)

    def test_duplicate_ids_rejected(self):
        records = [
            make_record("same", 53.0, -7.0, 100_000, "2015-01"),
            make_record("same", 53.1, -7.1, 120_000, "2015-02"),
        ]
        with pytest.raises(ValueError, match="unique"):
            compute_index(records, IndexConfig())


def _shuffle_fixture():
    records, _ = generate(mix_shift_config(seed=3, months=4, records_per_month=30))
    # exact duplicate coordinates make neighbour distances tie, so only the
    # id tie rule keeps the result independent of input order
    twins = [
        make_record(f"twin-{r.id}", r.point.lat, r.point.lng, r.price * 1.1,
                    r.month_key, r.bedrooms)
        for r in records[::5]
    ]
    return records + twins


_SHUFFLE_RECORDS = _shuffle_fixture()
_SHUFFLE_CONFIGS = (
    IndexConfig(min_ratios_for_chain=1),
    IndexConfig(min_ratios_for_chain=1, factor_bedrooms=True),
)
_SHUFFLE_EXPECTED = [compute_index(_SHUFFLE_RECORDS, c) for c in _SHUFFLE_CONFIGS]


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_input_order_does_not_change_index(rng):
    shuffled = list(_SHUFFLE_RECORDS)
    rng.shuffle(shuffled)
    for config, expected in zip(_SHUFFLE_CONFIGS, _SHUFFLE_EXPECTED):
        result = compute_index(shuffled, config)
        assert result.series.values == expected.series.values
        assert result.series.flagged == expected.series.flagged
        assert result.matrix.entries == expected.matrix.entries


@st.composite
def sparse_matrices(draw):
    """Months and a lower-triangular ratio table with random holes."""
    count = draw(st.integers(2, 10))
    months = [add_months("2015-01", m) for m in range(count)]
    pairs = [(months[b], months[p]) for b in range(count) for p in range(b)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ratios = draw(st.lists(st.floats(0.25, 4.0), min_size=len(pairs),
                           max_size=len(pairs)))
    return months, {pair: r for pair, keep, r in zip(pairs, kept, ratios) if keep}


@given(drawn=sparse_matrices(), mode=st.sampled_from(CHAIN_MODES),
       needed=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_chain_matches_oracle_bit_for_bit(drawn, mode, needed):
    months, entries = drawn
    config = IndexConfig(min_ratios_for_chain=needed, chain_mode=mode)
    series = chain_index(matrix_from(months, entries), config)
    values, flagged = chain_scan(months, entries, config)
    assert [v.hex() for v in series.values] == [v.hex() for v in values]
    assert list(series.flagged) == flagged


@pytest.mark.parametrize("values", [
    [2.5],
    [3.0, 1.0, 2.0],
    [4.0, 1.0, 3.0, 2.0],
    [1.1, 1.1, 1.1, 0.9],
    [0.1, 0.2],  # their mean rounds: 0.15000000000000002
    [-3.5, -1.25, -2.0, -0.75],
    [-0.0, 0.0],
    [0.0, -0.0, 0.0],
    [1e308, 1e308],  # the central pair's sum overflows, as in statistics
])
def test_median_equals_statistics_median_bit_for_bit(values):
    assert _median(list(values)).hex() == statistics.median(values).hex()  # -0.0 too


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)
       | st.lists(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 1.5]), min_size=1))
@settings(max_examples=300)
def test_median_matches_statistics_on_drawn_values(values):
    assert _median(list(values)).hex() == statistics.median(values).hex()


def test_compute_index_builds_only_the_maps_its_queries_read(monkeypatch):
    # both trees are month-labelled, yet the voting tree builds only its
    # all-rows map and the month tree only its per-month maps; neither
    # builds records per prefix
    trees = []

    def recorded_build_tree(*args, **kwargs):
        trees.append(build_tree(*args, **kwargs))
        return trees[-1]

    records, _ = generate(mix_shift_config(seed=5, months=4, records_per_month=40))
    monkeypatch.setattr(index_engine, "build_tree", recorded_build_tree)
    for config in (IndexConfig(), IndexConfig(factor_bedrooms=True)):
        trees.clear()
        compute_index(records, config)
        voting_tree, month_tree = trees
        assert voting_tree.group_key is not None and month_tree.group_key is not None
        assert set(built_maps(voting_tree)) == {"_rows"}
        assert set(built_maps(month_tree)) == {"_labels"}
        assert set(month_tree._labels) == {r.month_key for r in records}


def test_compute_index_without_removal_builds_one_tree(monkeypatch):
    # voting with nothing to remove queries no tree, so builds none
    built = []

    def counted_build_tree(*args, **kwargs):
        built.append(args)
        return build_tree(*args, **kwargs)

    records, _ = generate(mix_shift_config(seed=5, months=4, records_per_month=40))
    monkeypatch.setattr(index_engine, "build_tree", counted_build_tree)
    compute_index(records, IndexConfig(removal_fraction=0.0))
    assert len(built) == 1
