import io

import pytest

from geohpi.ingestion import filter_listings, parse_listings, write_listings_csv
from geohpi.synthgen import SynthConfig, generate, mix_shift_config, write_truth_csv


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SynthConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"months": 1},
            {"records_per_month": 0},
            {"cluster_count": 0},
            {"base_price": 0.0},
            {"bedroom_mix": ()},
            {"bedroom_mix": ((0.5, 0.5, 0.0, 0.0, 0.0),)},  # five weights
            {"bedroom_mix": ((0.5, 0.6, 0.0, 0.0, 0.0, 0.0),)},  # sums to 1.1
            {"bedroom_mix": ((1.5, -0.5, 0.0, 0.0, 0.0, 0.0),)},  # negative
            {"bedroom_premium": (1.0,) * 5},
            {"bedroom_premium": (1.0, 1.0, 0.0, 1.0, 1.0, 1.0)},
            {"drift": float("inf")},
            {"drift": float("nan")},
            {"drift": -1.0},
            {"drift": -1.5},
            {"noise": float("nan")},
            {"noise": float("inf")},
            {"noise": -0.01},
            {"base_price": float("inf")},
            {"base_price": float("nan")},
            {"cluster_radius_deg": float("inf")},
            {"cluster_radius_deg": float("nan")},
            {"cluster_radius_deg": -0.01},
            {"bedroom_mix": ((0.5, 0.5, 0.0, 0.0, 0.0, float("nan")),)},
            {"bedroom_mix": ((0.5, 0.5, 0.0, 0.0, 0.0, float("inf")),)},
            {"bedroom_premium": (1.0, 1.0, float("inf"), 1.0, 1.0, 1.0)},
            {"bedroom_premium": (1.0, 1.0, float("nan"), 1.0, 1.0, 1.0)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):  # the message names the field
            SynthConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_reproduces_everything(self):
        config = SynthConfig(months=6, records_per_month=30, drift=0.01, noise=0.05,
                             seed=1337)
        first_records, first_truth = generate(config)
        second_records, second_truth = generate(config)
        assert first_records == second_records
        assert first_truth == second_truth

    def test_different_seeds_differ(self):
        a, _ = generate(SynthConfig(months=3, records_per_month=10, seed=1))
        b, _ = generate(SynthConfig(months=3, records_per_month=10, seed=2))
        assert a != b


class TestPriceDynamics:
    def test_flat_config_repeats_price_sets(self):
        records, truth = generate(SynthConfig(months=4, records_per_month=25))
        by_month = {}
        for r in records:
            by_month.setdefault(r.month_key, []).append(r.price)
        price_sets = [sorted(v) for v in by_month.values()]
        assert all(ps == price_sets[0] for ps in price_sets)
        assert truth == [100.0] * 4

    def test_drift_without_noise_is_exact(self):
        config = SynthConfig(months=8, records_per_month=10, drift=0.01,
                             base_price=100_000.0, seed=5)
        records, truth = generate(config)
        for m in range(8):
            month = f"2015-{m + 1:02d}"
            expected = 100_000.0 * 1.01**m
            for r in records:
                if r.month_key == month:
                    assert r.price == expected
            assert truth[m] == 100.0 * 1.01**m

    def test_bedroom_premium_scales_prices(self):
        config = SynthConfig(
            months=2,
            records_per_month=60,
            bedroom_mix=((0.5, 0.0, 0.5, 0.0, 0.0, 0.0),),
            bedroom_premium=(0.5, 1.0, 1.0, 1.0, 1.0, 1.0),
            base_price=200_000.0,
            seed=3,
        )
        records, _ = generate(config)
        for r in records:
            assert r.price == (100_000.0 if r.bedrooms == 1 else 200_000.0)

    def test_noise_and_mix_recovered_on_large_sample(self):
        import math
        import statistics

        config = SynthConfig(
            months=2,
            records_per_month=4000,
            noise=0.1,
            bedroom_mix=((0.3, 0.3, 0.4, 0.0, 0.0, 0.0),),
            seed=33,
        )
        records, _ = generate(config)
        first_month = [r for r in records if r.month_key == "2015-01"]
        residuals = [math.log(r.price / config.base_price) for r in first_month]
        assert statistics.mean(residuals) == pytest.approx(0.0, abs=0.01)
        assert statistics.pstdev(residuals) == pytest.approx(0.1, rel=0.05)
        shares = [
            sum(1 for r in first_month if r.bedrooms == b) / len(first_month)
            for b in (1, 2, 3)
        ]
        assert shares == pytest.approx([0.3, 0.3, 0.4], abs=0.03)

    def test_mix_rows_cycle_by_month(self):
        config = SynthConfig(
            months=4,
            records_per_month=40,
            bedroom_mix=(
                (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
            ),
            seed=9,
        )
        records, _ = generate(config)
        for r in records:
            month_index = int(r.month_key.split("-")[1]) - 1
            assert r.bedrooms == (2 if month_index % 2 == 0 else 4)


class TestShape:
    def test_counts_and_ids(self):
        records, truth = generate(SynthConfig(months=3, records_per_month=7))
        assert len(records) == 21
        assert len(truth) == 3
        assert len({r.id for r in records}) == 21
        assert records[0].month_key == "2015-01"
        assert records[-1].month_key == "2015-03"

    def test_mix_shift_family_is_valid_and_alternates(self):
        records, _ = generate(mix_shift_config(seed=0))
        by_month: dict[str, list[int]] = {}
        for r in records:
            by_month.setdefault(r.month_key, []).append(r.bedrooms)
        shares = [
            sum(1 for b in beds if b == 3) / len(beds)
            for _, beds in sorted(by_month.items())
        ]
        # odd months three-bed heavy, even months four-bed heavy
        assert all(s > 0.5 for s in shares[0::2])
        assert all(s < 0.5 for s in shares[1::2])


class TestCsvEmission:
    def test_round_trip_through_ingestion(self, tmp_path):
        records, _ = generate(SynthConfig(months=3, records_per_month=20, noise=0.02,
                                          seed=21))
        path = tmp_path / "listings.csv"
        write_listings_csv(records, path)
        parsed, errors = parse_listings(path)
        assert errors == []
        kept, report = filter_listings(parsed)
        assert report.surviving == 60
        for original, parsed_record in zip(records, kept):
            assert parsed_record.id == original.id
            assert parsed_record.bedrooms == original.bedrooms
            assert parsed_record.point == original.point
            # prices are rounded to whole euros on the way out
            assert parsed_record.price == round(original.price)

    def test_truth_csv(self):
        buffer = io.StringIO()
        write_truth_csv([100.0, 101.0], buffer, start_month="2015-11")
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "month,true_level"
        assert lines[1] == "2015-11,100.0"
        assert lines[2] == "2015-12,101.0"
