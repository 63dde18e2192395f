"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines (timing-bounded criteria include their elapsed time).
"""

import random
import time

from geohpi import IndexConfig, compute_index, series_metrics
from geohpi.bench import scaling_ratio
from geohpi.geocode import GeoPoint, decode_geohash, encode_geohash
from geohpi.geotree import GeoTree
from geohpi.ingestion import filter_listings
from geohpi.metrics import mean_spike_magnitude, std_dev, std_dev_differences
from geohpi.synthgen import SynthConfig, generate, mix_shift_config

from helpers import clustered_records, filtration_fixture_raw, make_raw
from oracle import nearest_scan, pipeline_scan, scb_scan


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_geohash_round_trip():
    rng = random.Random(20_001)
    start = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        point = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        for precision in range(1, 13):
            center, lat_err, lng_err = decode_geohash(encode_geohash(point, precision))
            if abs(point.lat - center.lat) > lat_err or abs(point.lng - center.lng) > lng_err:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _report(1, "geohash round trip", ok,
            f"{failures} failures, {elapsed:.2f}s of 5s budget")


def test_criterion_2_geotree_oracle_equivalence():
    rng = random.Random(20_002)
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    months = ("2015-01", "2015-02", "2015-03", "2015-04")
    for fixture_no in range(50):
        count = rng.randrange(50, 1001)
        key_length = rng.randrange(5, 9)
        records = clustered_records(rng, count, months=months, bedrooms=(2, 3, 4))
        alphabet = "0123" if rng.random() < 0.5 else "01234567"
        keys = {
            r.id: "".join(rng.choice(alphabet) for _ in range(key_length))
            for r in records
        }
        tree = GeoTree(key_length, ((keys[r.id], r) for r in records),
                       group_key=lambda r: r.month_key)
        for _ in range(8):
            anchor = records[rng.randrange(count)]
            query = keys[anchor.id]
            if rng.random() < 0.2:  # also probe keys that may leave the tree early
                query = "".join(rng.choice(alphabet) for _ in range(key_length))
            pop = rng.randrange(1, 40)
            bucket, depth = tree.scb_query(query, min_population=pop)
            expected_bucket, expected_depth = scb_scan(records, keys, query, pop)
            checked += 1
            if [r.id for r in bucket] != [r.id for r in expected_bucket] or depth != expected_depth:
                mismatches += 1
        for _ in range(8):
            anchor = records[rng.randrange(count)]
            query = keys[anchor.id]
            month = months[rng.randrange(len(months))] if rng.random() < 0.8 else None
            exclude = frozenset((anchor.id,)) if rng.random() < 0.5 else frozenset()
            pop = rng.randrange(1, 4)
            found = tree.nearest_in_group(
                query, anchor.point, month, exclude=exclude, min_population=pop
            )
            expected = nearest_scan(
                records, keys, query, anchor.point,
                month=month, exclude=exclude, min_population=pop,
            )
            checked += 1
            if (found.id if found else None) != (expected.id if expected else None):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(2, "geotree oracle equivalence", ok,
            f"{checked} queries, {mismatches} mismatches, {elapsed:.1f}s of 60s budget")


def test_criterion_3_constant_time_query():
    start = time.perf_counter()
    lat_small, lat_large, ratio = scaling_ratio(10_000, 100_000, queries=10_000)
    elapsed = time.perf_counter() - start
    ok = ratio < 2.0 and elapsed < 300.0
    _report(3, "constant-time query", ok,
            f"{lat_small * 1e6:.2f}us -> {lat_large * 1e6:.2f}us, "
            f"ratio {ratio:.2f} < 2, {elapsed:.1f}s of 300s budget")


def test_criterion_4_pipeline_matches_bruteforce():
    rng = random.Random(20_004)
    mismatches = 0
    fixtures = [
        (60, ("2015-01", "2015-02", "2015-03"), IndexConfig(min_ratios_for_chain=1)),
        (150, ("2015-01", "2015-02", "2015-03", "2015-04", "2015-05"),
         IndexConfig(min_ratios_for_chain=1, factor_bedrooms=True)),
        (300, ("2015-01", "2015-02", "2015-03", "2015-04", "2015-05", "2015-06"),
         IndexConfig(min_ratios_for_chain=2, votes_per_record=2)),
        (200, ("2015-01", "2015-02", "2015-03"),
         IndexConfig(min_ratios_for_chain=1, chain_mode="geometric")),
    ]
    for count, months, config in fixtures:
        records = clustered_records(rng, count, months=months, bedrooms=(2, 3, 4))
        result = compute_index(records, config)
        months_scan, values, flagged, entries, support = pipeline_scan(records, config)
        same = (
            list(result.series.months) == months_scan
            and list(result.series.values) == values
            and list(result.series.flagged) == flagged
            and result.matrix.entries == entries
            and result.matrix.support == support
        )
        if not same:
            mismatches += 1
    _report(4, "pipeline equals brute force", mismatches == 0,
            f"{len(fixtures)} fixtures, bit-exact comparison")


def test_criterion_5_flat_market_recovery():
    records, _ = generate(SynthConfig(months=12, records_per_month=40, seed=100))
    result = compute_index(records, IndexConfig(min_ratios_for_chain=1))
    worst = max(abs(v - 100.0) for v in result.series.values)
    _report(5, "flat market recovery", worst <= 1e-9, f"worst deviation {worst:.2e}")


def test_criterion_6_drift_recovery():
    records, _ = generate(
        SynthConfig(months=36, records_per_month=500, drift=0.01, seed=200)
    )
    result = compute_index(records, IndexConfig(min_ratios_for_chain=1))
    values = result.series.values
    pct = [
        (values[i + 1] - values[i]) / values[i] * 100 for i in range(len(values) - 1)
    ]
    mean_pct = sum(pct) / len(pct)
    ok = abs(mean_pct - 1.0) <= 0.1
    _report(6, "drift recovery", ok, f"mean monthly change {mean_pct:.4f}%")


def test_criterion_7_bedroom_factoring_direction():
    start = time.perf_counter()
    msm_wins = 0
    sdd_wins = 0
    seeds = 20
    for seed in range(seeds):
        records, _ = generate(mix_shift_config(seed))
        plain = compute_index(records, IndexConfig(min_ratios_for_chain=1)).series
        factored = compute_index(
            records, IndexConfig(min_ratios_for_chain=1, factor_bedrooms=True)
        ).series
        plain_stats = series_metrics(plain.values)
        factored_stats = series_metrics(factored.values)
        if factored_stats.msm < plain_stats.msm:
            msm_wins += 1
        if factored_stats.std_dev_diffs < plain_stats.std_dev_diffs:
            sdd_wins += 1
    elapsed = time.perf_counter() - start
    ok = msm_wins >= 19 and sdd_wins >= 19 and elapsed < 600.0
    _report(7, "bedroom factoring direction", ok,
            f"msm lower in {msm_wins}/{seeds}, sd-of-diffs lower in {sdd_wins}/{seeds}, "
            f"{elapsed:.1f}s of 600s budget")


def test_criterion_8_metrics_fixtures():
    checks = [
        std_dev([5.0, 5.0, 5.0]) == 0.0,
        std_dev([2, 4, 4, 4, 5, 5, 7, 9]) == 2.0,
        std_dev_differences([3, 5, 7, 9]) == 0.0,
        mean_spike_magnitude([0, 1, 0, 1]) == (4.0, 2),
        mean_spike_magnitude([0, 2, 1, 3]) == (9.0, 2),
        mean_spike_magnitude([1, 2, 4, 8]) == (0.0, 0),
    ]
    _report(8, "metrics hand fixtures", all(checks),
            f"{sum(checks)}/{len(checks)} exact")


def test_criterion_9_filtration_conservation():
    rng = random.Random(20_009)
    conserved = True
    for _ in range(20):
        rows = []
        for i in range(rng.randrange(0, 400)):
            rows.append(
                make_raw(
                    f"r{i}",
                    lat=None if rng.random() < 0.1 else rng.uniform(-90, 90),
                    lng=None if rng.random() < 0.1 else rng.uniform(-180, 180),
                    price=None if rng.random() < 0.1 else rng.uniform(0, 2e6),
                    bedrooms=None if rng.random() < 0.1 else rng.randrange(0, 12),
                )
            )
        kept, report = filter_listings(rows)
        rejected = (
            report.missing_geo_or_bedrooms
            + report.too_many_bedrooms
            + report.missing_price
            + report.price_out_of_bounds
        )
        if report.surviving + rejected != report.total or report.total != len(rows):
            conserved = False
        if report.surviving != len(kept):
            conserved = False
    _, engineered = filter_listings(filtration_fixture_raw())
    survival_ok = abs(engineered.surviving_fraction - 0.77) <= 0.005
    _report(9, "filtration conservation", conserved and survival_ok,
            f"engineered survival {engineered.surviving_fraction:.3f}")
