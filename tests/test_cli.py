import argparse
import ast
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from xml.etree import ElementTree

import pytest

from geohpi import cli
from geohpi.cli import main
from geohpi.index_engine import IndexConfig
from geohpi.synthgen import SynthConfig

from helpers import filtration_fixture_raw, make_raw, write_raw_csv

# The fields no flag sets; every other config field is set by ``--<field>``.
_UNFLAGGED = {"cluster_radius_deg", "start_month"}
_CONFIG_CLASSES = {"index": IndexConfig, "synth": SynthConfig}


def config_flags(command):
    """{flag: field} for every config field of ``command`` that a flag sets."""
    return {"--" + f.name.replace("_", "-"): f.name
            for f in fields(_CONFIG_CLASSES[command]) if f.name not in _UNFLAGGED}


def run(*argv):
    return main(list(argv))


def csv_rows(path) -> list[dict]:
    """The rows of a CSV file as dicts, read with the file closed after."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def synth(tmp_path, name="data", **flags):
    out = tmp_path / name
    argv = ["synth", "--output-dir", str(out), "--months", "6",
            "--records-per-month", "30", "--seed", "7"]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert run(*argv) == 0
    return out


class TestSynth:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = synth(tmp_path)
        assert (out / "listings.csv").exists()
        assert (out / "truth.csv").exists()
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 7
        assert set(manifest["outputs"]) == {"listings.csv", "truth.csv"}

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        first = synth(tmp_path, "one")
        second = synth(tmp_path, "two")
        assert (first / "listings.csv").read_bytes() == (second / "listings.csv").read_bytes()
        assert (first / "truth.csv").read_bytes() == (second / "truth.csv").read_bytes()

    def test_invalid_mix_exits_with_message(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run("synth", "--output-dir", str(out),
                   "--bedroom-mix", "0.5,0.6,0,0,0,0")
        assert code == 1
        assert "usage error: bedroom_mix row" in capsys.readouterr().err
        assert not (out / "listings.csv").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--bedroom-mix", "0,0,x,0,0,0"), ("--bedroom-premium", "1,x")]
    )
    def test_unparseable_tuple_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        assert run("synth", "--output-dir", str(out), flag, value) == 1
        err = capsys.readouterr().err
        assert flag in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--drift", "inf", "drift must be finite, got inf"),
        ("--noise", "nan", "noise must be finite, got nan"),
    ])
    def test_non_finite_value_is_usage_error_writing_nothing(self, tmp_path, capsys,
                                                             flag, value, message):
        out = tmp_path / "bad"
        assert run("synth", "--output-dir", str(out), flag, value) == 1
        err = capsys.readouterr().err
        assert f"usage error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_flag_sets_its_field(self, tmp_path):
        expected = {
            "months": 5,
            "records_per_month": 12,
            "drift": 0.01,
            "noise": 0.02,
            "cluster_count": 2,
            "base_price": 300_000.0,
            "bedroom_mix": [[0.0, 0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]],
            "bedroom_premium": [1.0, 1.1, 1.2, 1.3, 1.4, 1.5],
            "seed": 3,
        }
        values = {
            "--bedroom-mix": "0,0.5,0.5,0,0,0;0,0,1,0,0,0",
            "--bedroom-premium": "1,1.1,1.2,1.3,1.4,1.5",
        }
        flags = config_flags("synth")
        assert set(flags.values()) == set(expected)
        argv = ["synth", "--output-dir", str(tmp_path / "out")]
        for flag, name in flags.items():
            argv += [flag, values.get(flag, str(expected[name]))]
        assert run(*argv) == 0
        manifest = json.loads((tmp_path / "out" / "synth_manifest.json").read_text())
        assert {k: manifest["config"][k] for k in expected} == expected

    def test_unset_flags_keep_config_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--output-dir", str(out)) == 0
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(asdict(SynthConfig())))


class TestIngest:
    def test_valid_fixture(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        write_raw_csv(filtration_fixture_raw(), src)
        out = tmp_path / "ingested"
        assert run("ingest", "--input", str(src), "--output-dir", str(out)) == 0
        report = json.loads((out / "filtration_report.json").read_text())
        rejected = (
            report["missing_geo_or_bedrooms"]
            + report["too_many_bedrooms"]
            + report["missing_price"]
            + report["price_out_of_bounds"]
        )
        assert report["surviving"] + rejected == report["total"] == 1000
        assert abs(report["surviving_fraction"] - 0.77) <= 0.005
        with open(out / "filtered.csv") as handle:
            assert sum(1 for _ in handle) == report["surviving"] + 1

    def test_missing_file_no_partial_outputs(self, tmp_path):
        out = tmp_path / "nothing"
        code = run("ingest", "--input", str(tmp_path / "absent.csv"),
                   "--output-dir", str(out))
        assert code == 2
        assert not out.exists()

    def test_malformed_rows_reported(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text(
            "id,date,price,lat,lng,bedrooms,type\n"
            "a,2015-01-02,250000,53.0,-7.0,3,house\n"
            "b,2015-01-02,junk,53.0,-7.0,3,house\n"
        )
        out = tmp_path / "ingested"
        assert run("ingest", "--input", str(src), "--output-dir", str(out)) == 0
        assert "1 malformed" in capsys.readouterr().err
        errors = json.loads((out / "parse_errors.json").read_text())
        assert errors[0]["row"] == 3

    def test_clean_rerun_replaces_the_parse_errors(self, tmp_path):
        header = "id,date,price,lat,lng,bedrooms,type\n"
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(header + "a,2015-01-02,250000,53.0,-7.0,3,house\n"
                         "b,2015-02-30,250000,53.0,-7.0,3,house\n")
        clean = tmp_path / "clean.csv"
        clean.write_text(header + "a,2015-01-02,250000,53.0,-7.0,3,house\n")
        out = tmp_path / "ingested"
        assert run("ingest", "--input", str(dirty), "--output-dir", str(out)) == 0
        assert len(json.loads((out / "parse_errors.json").read_text())) == 1
        assert run("ingest", "--input", str(clean), "--output-dir", str(out)) == 0
        assert (out / "parse_errors.json").read_text() == "[]\n"
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert "parse_errors.json" in manifest["outputs"]
        assert manifest["parse_errors"] == 0

    def test_parse_errors_json_is_json_dump_of_the_errors(self, tmp_path):
        # written one error at a time, the file keeps json.dump's bytes,
        # \u escapes for non-ASCII text included
        src = tmp_path / "raw.csv"
        src.write_text(
            "id,date,price,lat,lng,bedrooms,type\n"
            "a,2015-01-02,250000,53.0,-7.0,3,house\n"
            "b,2015-01-02,prix—é,53.0,-7.0,3,house\n"
            "c,2015-01-02,250000,53.0,-7.0,two,house\n"
            ",2015-01-02,250000,53.0,-7.0,3,house\n"
            "e,2015-01-02,250000,91.0,\"-7.0\",3,\"semi\n\"\n",
            encoding="utf-8",
        )
        out = tmp_path / "ingested"
        assert run("ingest", "--input", str(src), "--output-dir", str(out)) == 0
        with open(src, newline="", encoding="utf-8") as handle:
            _, errors = cli.parse_listings(handle, cli.CsvSchema())
        assert len(errors) == 4
        expected = json.dumps([e._asdict() for e in errors], indent=2) + "\n"
        assert "\\u2014" in expected
        assert (out / "parse_errors.json").read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("spec", ["price", "colour=x", "price=", "lat=lng", "id=price",
                                      "price=asking,price=cost",
                                      "type=kind,dwelling_type=class"])
    def test_malformed_schema_is_usage_error(self, tmp_path, capsys, spec):
        src = tmp_path / "raw.csv"
        write_raw_csv(filtration_fixture_raw(), src)
        out = tmp_path / "o"
        assert run("ingest", "--input", str(src), "--output-dir", str(out),
                   "--schema", spec) == 1
        err = capsys.readouterr().err
        assert "--schema" in err and repr(spec) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_piped_input_digest_is_of_the_bytes_read(self, tmp_path):
        data = (synth(tmp_path) / "listings.csv").read_bytes()
        out = tmp_path / "piped"
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "geohpi.cli", "ingest", "--input", "/dev/stdin",
             "--output-dir", str(out)],
            input=data, capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["inputs"] == [{"path": "/dev/stdin",
                                       "sha256": hashlib.sha256(data).hexdigest()}]

    def test_bad_schema_column_is_data_error(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("id,date,lat,lng,bedrooms,type\n")
        code = run("ingest", "--input", str(src), "--output-dir",
                   str(tmp_path / "o"))
        assert code == 2


@pytest.mark.parametrize("command", ["ingest", "index"])
def test_repeated_listings_column_is_data_error(tmp_path, capsys, command):
    src = tmp_path / "raw.csv"
    src.write_text("id,date,price,lat,lng,bedrooms,type,price\n"
                   "a1,2015-03-02,250000,53.35,-6.26,3,house,999\n")
    out = tmp_path / "o"
    assert run(command, "--input", str(src), "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: {src}: repeated mapped column(s): price" in err
    assert "Traceback" not in err
    assert not out.exists()


class TestIndex:
    def test_constant_prices_chart_flat(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "indexed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--min-ratios-for-chain", "1") == 0
        with open(out / "index_series.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert all(float(row["value"]) == 100.0 for row in rows)
        assert all(row["flagged"] == "false" for row in rows)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["std_dev"] == 0.0
        matrix_rows = csv_rows(out / "ratio_matrix.csv")
        assert all(float(row["median_ratio"]) == 1.0 for row in matrix_rows)

    def test_identical_runs_write_identical_series(self, tmp_path):
        data = synth(tmp_path, drift=0.01, noise=0.02)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("index", "--input", str(data / "listings.csv"),
                       "--output-dir", str(out)) == 0
        assert (out1 / "index_series.csv").read_bytes() == (out2 / "index_series.csv").read_bytes()
        assert (out1 / "ratio_matrix.csv").read_bytes() == (out2 / "ratio_matrix.csv").read_bytes()

    def test_manifest_snapshot(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "indexed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--factor-bedrooms",
                   "--chain-mode", "geometric") == 0
        manifest = json.loads((out / "index_manifest.json").read_text())
        assert manifest["config"]["factor_bedrooms"] is True
        assert manifest["config"]["chain_mode"] == "geometric"
        assert manifest["records"]["parsed"] == 180
        assert manifest["inputs"][0]["sha256"]
        assert manifest["timings_s"]

    def test_config_file_with_flag_override(self, tmp_path):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "chain_mode = geometric\n"
            "removal_fraction = 0.2\n"
        )
        out = tmp_path / "indexed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--config", str(cfg),
                   "--removal-fraction", "0.05") == 0
        manifest = json.loads((out / "index_manifest.json").read_text())
        assert manifest["config"]["chain_mode"] == "geometric"
        assert manifest["config"]["removal_fraction"] == 0.05

    def test_manifest_config_replays_as_a_config_file(self, tmp_path):
        data = synth(tmp_path, drift=0.01, noise=0.02)
        flagged = tmp_path / "flagged"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(flagged), "--geohash-precision", "6",
                   "--factor-bedrooms", "--votes-per-record", "2",
                   "--removal-fraction", "0.05", "--min-ratios-for-chain", "2",
                   "--chain-mode", "geometric") == 0
        config = json.loads((flagged / "index_manifest.json").read_text())["config"]
        cfg = tmp_path / "replay.cfg"
        # a string is written bare, any other value as JSON writes it
        lines = (f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n"
                 for key, value in config.items())
        cfg.write_text("".join(lines))
        replayed = tmp_path / "replayed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(replayed), "--config", str(cfg)) == 0
        assert json.loads((replayed / "index_manifest.json").read_text())["config"] == config
        for name in ("index_series.csv", "ratio_matrix.csv", "metrics.json"):
            assert (flagged / name).read_bytes() == (replayed / name).read_bytes(), name

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chain_mode = geometric\nfactor_bedrooms\n")
        out = tmp_path / "o"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--config", str(cfg)) == 1
        assert f"usage error: {cfg}:2: expected key = value" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("colour = blue\n")
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(tmp_path / "o"), "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "line", ["votes_per_record = two", "factor_bedrooms = ture"]
    )
    def test_unparseable_config_value_is_usage_error(self, tmp_path, capsys, line):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--config", str(cfg)) == 1
        assert "run.cfg:1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, expected", [("Yes", True), ("on", True), ("0", False), ("FALSE", False)]
    )
    def test_config_boolean_spellings(self, tmp_path, text, expected):
        data = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"factor_bedrooms = {text}\n")
        out = tmp_path / "indexed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--config", str(cfg)) == 0
        manifest = json.loads((out / "index_manifest.json").read_text())
        assert manifest["config"]["factor_bedrooms"] is expected

    def test_every_flag_and_config_key_sets_its_field(self, tmp_path):
        data = synth(tmp_path)
        expected = {
            "votes_per_record": 2,
            "removal_fraction": 0.05,
            "factor_bedrooms": True,
            "min_ratios_for_chain": 1,
            "geohash_precision": 6,
            "scb_min_population": 2,
            "chain_mode": "geometric",
        }
        flags = ["--geohash-precision", "6", "--factor-bedrooms", "--votes-per-record", "2",
                 "--removal-fraction", "0.05", "--min-ratios-for-chain", "1",
                 "--scb-min-population", "2", "--chain-mode", "geometric"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in expected.items()))
        for name, extra in (("flags", flags), ("file", ["--config", str(cfg)])):
            out = tmp_path / name
            assert run("index", "--input", str(data / "listings.csv"),
                       "--output-dir", str(out), *extra) == 0
            manifest = json.loads((out / "index_manifest.json").read_text())
            assert manifest["config"] == expected

    def test_internal_error_prints_traceback(self, tmp_path, capsys, monkeypatch):
        data = synth(tmp_path)

        def broken(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("geohpi.cli.compute_index", broken)
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "internal error: engine exploded" in err
        assert "Traceback" in err

    def test_internal_os_error_prints_traceback(self, tmp_path, capsys, monkeypatch):
        data = synth(tmp_path)

        def broken(*args, **kwargs):
            raise OSError("disk gremlin")

        monkeypatch.setattr("geohpi.cli.compute_index", broken)
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "internal error: disk gremlin" in err
        assert "Traceback" in err

    def test_manifest_times_parse_and_filter_apart(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "indexed"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out)) == 0
        timings = json.loads((out / "index_manifest.json").read_text())["timings_s"]
        assert set(timings) == {"parse", "filter", "voting", "ratio_matrix", "chain"}

    def test_malformed_schema_is_usage_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        out = tmp_path / "o"
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(out), "--schema", "price") == 1
        assert "--schema 'price'" in capsys.readouterr().err
        assert not out.exists()

    def test_two_months_write_outputs_without_metrics(self, tmp_path, capsys):
        src = tmp_path / "two.csv"
        write_raw_csv([make_raw(f"r{i}", lat=53.0 + 0.001 * i, price=200_000 + i,
                                month=f"2015-0{1 + i % 2}") for i in range(6)], src)
        out = tmp_path / "indexed"
        assert run("index", "--input", str(src), "--output-dir", str(out)) == 0
        assert "too short for smoothness metrics" in capsys.readouterr().out
        with open(out / "index_series.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["month"] for row in rows] == ["2015-01", "2015-02"]
        assert (out / "ratio_matrix.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics == {"std_dev": None, "std_dev_diffs": None, "msm": None,
                           "spike_count": None}
        manifest = json.loads((out / "index_manifest.json").read_text())
        assert manifest["outputs"] == ["index_series.csv", "ratio_matrix.csv",
                                       "metrics.json"]

    def test_manifest_records_schema_and_parse_errors(self, tmp_path):
        listings = (synth(tmp_path) / "listings.csv").read_text().splitlines(True)
        src = tmp_path / "asking.csv"
        src.write_text(listings[0].replace("price", "asking") + "".join(listings[1:])
                       + "bad,2015-13-01,1,2,3,4,\n")
        out = tmp_path / "indexed"
        assert run("index", "--input", str(src), "--output-dir", str(out),
                   "--schema", "price=asking,type=") == 0
        manifest = json.loads((out / "index_manifest.json").read_text())
        assert manifest["schema"] == asdict(cli.CsvSchema(price="asking", dwelling_type=None))
        assert manifest["records"]["parse_errors"] == 1
        assert manifest["records"]["parsed"] == manifest["records"]["filtered"] == 180

    def test_manifest_records_rejections_per_rule(self, tmp_path):
        listings = (synth(tmp_path) / "listings.csv").read_text()
        src = tmp_path / "raw.csv"
        src.write_text(listings
                       + "x1,2015-01-15,200000,,-6.2,3,\n"
                       + "x2,2015-01-15,200000,53.3,-6.2,0,\n"
                       + "x3,2015-01-15,200000,53.3,-6.2,7,\n"
                       + "x4,2015-01-15,,53.3,-6.2,3,\n"
                       + "x5,2015-01-15,5000,53.3,-6.2,3,\n")
        out = tmp_path / "indexed"
        assert run("index", "--input", str(src), "--output-dir", str(out)) == 0
        records = json.loads((out / "index_manifest.json").read_text())["records"]
        assert records["rejected"] == {"missing_geo_or_bedrooms": 2,
                                       "too_many_bedrooms": 1, "missing_price": 1,
                                       "price_out_of_bounds": 1}
        assert records["parsed"] == 185 and records["filtered"] == 180

    @staticmethod
    def month_feed(path, counts):
        """A listings CSV with ``counts[month]`` listings in each month, around one point."""
        path.write_text("id,date,price,lat,lng,bedrooms,type\n" + "".join(
            f"{month}-{i},{month}-15,{200_000 + 1_000 * i},53.{300 + i},-6.{200 + i},3,house\n"
            for month, count in counts.items() for i in range(count)))

    def index_strays(self, tmp_path, capsys, counts):
        """Index a feed of ``counts`` keeping every record: (stderr, manifest stray_months)."""
        src, out = tmp_path / "feed.csv", tmp_path / "o"
        self.month_feed(src, counts)
        assert run("index", "--input", str(src), "--output-dir", str(out),
                   "--removal-fraction", "0") == 0
        manifest = json.loads((out / "index_manifest.json").read_text())
        months = [row["month"] for row in csv_rows(out / "index_series.csv")]
        assert (months[0], months[-1]) == (min(counts), max(counts))  # nothing dropped
        assert manifest["records"]["after_voting"] == sum(counts.values())
        return capsys.readouterr().err, manifest["records"]["stray_months"]

    YEAR = {f"2015-{m:02d}": 10 for m in range(1, 13)}

    def test_stray_month_ten_years_early_is_reported(self, tmp_path, capsys):
        err, strays = self.index_strays(tmp_path, capsys, {"2005-01": 1, **self.YEAR})
        assert ("warning: 1 stray month(s) 12 or more empty months from the rest: "
                "2005-01 (1 record); the index spans 132 months for 13 filled") in err
        assert strays == {"calendar_months": 132, "filled_months": 13,
                          "leading": {"2005-01": ["2005-01-0"]}, "trailing": {}}

    def test_stray_months_at_both_ends_are_reported(self, tmp_path, capsys):
        err, strays = self.index_strays(
            tmp_path, capsys, {"2005-01": 1, "2005-03": 1, **self.YEAR, "2030-06": 2})
        assert ("warning: 3 stray month(s) 12 or more empty months from the rest: "
                "2005-01 (1 record), 2005-03 (1 record), 2030-06 (2 records); "
                "the index spans 306 months for 15 filled") in err
        assert strays["leading"] == {"2005-01": ["2005-01-0"], "2005-03": ["2005-03-0"]}
        assert strays["trailing"] == {"2030-06": ["2030-06-0", "2030-06-1"]}

    @pytest.mark.parametrize("stray, reported", [("2014-01", False), ("2013-12", True)])
    def test_stray_gap_is_twelve_empty_months(self, tmp_path, capsys, stray, reported):
        err, strays = self.index_strays(tmp_path, capsys, {stray: 1, **self.YEAR})
        assert ("stray month" in err) is reported
        assert list(strays["leading"]) == ([stray] if reported else [])

    def test_inner_gap_is_not_reported(self, tmp_path, capsys):
        halves = {**{f"2015-{m:02d}": 10 for m in range(1, 7)},
                  **{f"2016-{m:02d}": 10 for m in range(7, 13)}}  # 12 empty months between
        err, strays = self.index_strays(tmp_path, capsys, halves)
        assert "stray month" not in err
        assert strays == {"calendar_months": 24, "filled_months": 12,
                          "leading": {}, "trailing": {}}

    def test_feed_without_gap_gives_no_stray_warning(self, tmp_path, capsys):
        err, strays = self.index_strays(tmp_path, capsys, self.YEAR)
        assert "stray month" not in err
        assert strays == {"calendar_months": 12, "filled_months": 12,
                          "leading": {}, "trailing": {}}

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        data = synth(tmp_path)
        assert run("index", "--input", str(data / "listings.csv"),
                   "--output-dir", str(tmp_path / "o"),
                   "--removal-fraction", "1.5") == 1


_LATIN1_LISTINGS = "id,date,price,lat,lng,bedrooms,type\nr1,2015-01-15,200000,53.3,-6.2,3,Cabú\n"
_LATIN1_SERIES = "month,value\n2015-01,100\n2015-02,10ú\n"


class TestUnreadableInput:
    """A non-UTF-8 or unreadable input is a data error naming the file."""

    @pytest.mark.parametrize("argv, text", [
        (("ingest", "--input"), _LATIN1_LISTINGS),
        (("index", "--input"), _LATIN1_LISTINGS),
        (("compare",), _LATIN1_SERIES),
    ], ids=["ingest", "index", "compare"])
    def test_latin1_input_is_data_error(self, tmp_path, capsys, argv, text):
        src = tmp_path / "latin1.csv"
        src.write_bytes(text.encode("latin-1"))
        out = tmp_path / "o"
        assert run(*argv, str(src), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {src}: not UTF-8 text (byte 0xfa cannot be decoded)" in err
        assert "position" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("ingest", "--input"), ("index", "--input"),
                                      ("compare",)], ids=["ingest", "index", "compare"])
    def test_directory_input_is_data_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(*argv, str(tmp_path), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path}: cannot read" in err
        assert "Traceback" not in err
        assert not out.exists()


def open_quote_feed(rows):
    """A listings feed of ``rows`` rows whose first row leaves its type cell's quote open."""
    return "id,date,price,lat,lng,bedrooms,type\n" + "".join(
        f"r{i},2015-{1 + i % 12:02d}-05,{200_000 + i},53.{i % 100:02d},-6.2{i % 10},3,"
        + ('"house\n' if i == 0 else "house\n") for i in range(rows))


class TestUnbalancedQuote:
    """A quote left open is reported with its file and line, never read silently."""

    def test_swallowed_rows_are_a_parse_error_at_the_first_line(self, tmp_path, capsys):
        src = tmp_path / "feed.csv"
        src.write_text(open_quote_feed(200))
        out = tmp_path / "o"
        assert run("ingest", "--input", str(src), "--output-dir", str(out)) == 0
        captured = capsys.readouterr()
        assert "kept 0/0 records" in captured.out
        assert "warning: 1 malformed row(s) skipped" in captured.err
        assert json.loads((out / "parse_errors.json").read_text()) == [
            {"row": 2, "message": "type cell spans lines 2-201: an unbalanced quote is likely"}]
        assert run("index", "--input", str(src), "--output-dir", str(tmp_path / "i")) == 2
        err = capsys.readouterr().err
        assert "warning: 1 malformed row(s) skipped" in err
        assert "error: voting needs at least two records" in err

    def test_open_quote_in_an_unmapped_column_is_a_parse_error(self, tmp_path, capsys):
        src = tmp_path / "feed.csv"
        src.write_text("id,date,price,lat,lng,bedrooms,type,note\n" + "".join(
            f"r{i},2015-{1 + i % 12:02d}-05,{200_000 + i},53.{i % 100:02d},-6.2{i % 10},3,"
            + ('house,"x\n' if i == 0 else "house,\n") for i in range(200)))
        out = tmp_path / "o"
        assert run("ingest", "--input", str(src), "--output-dir", str(out)) == 0
        captured = capsys.readouterr()
        assert "kept 0/0 records" in captured.out
        assert "warning: 1 malformed row(s) skipped" in captured.err
        assert json.loads((out / "parse_errors.json").read_text()) == [
            {"row": 2, "message": "note cell spans lines 2-201: an unbalanced quote is likely"}]

    def test_open_quote_in_a_series_is_data_error_at_its_first_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("month,value,note\n2015-01,100,\n2015-02,101,\"x\n"
                       + "".join(f"2015-{m:02d},{100 + m},\n" for m in range(3, 13)))
        out = tmp_path / "o"
        assert run("compare", str(bad), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert (f"error: {bad}:3: note cell spans lines 3-13: an unbalanced quote is likely"
                in err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "index"])
    def test_cell_past_the_field_limit_is_data_error(self, tmp_path, capsys, command):
        src = tmp_path / "feed.csv"
        src.write_text(open_quote_feed(4000))
        out = tmp_path / "o"
        assert run(command, "--input", str(src), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {src}: line 2: field larger than field limit (131072)" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "index"])
    def test_open_quote_in_the_header_is_data_error_at_line_1(self, tmp_path, capsys,
                                                              command):
        src = tmp_path / "header.csv"
        src.write_text('id,"date,price,lat,lng,bedrooms,type\n' + "".join(
            f"r{i},2015-01-05,{200_000 + i},53.35,-6.26,3,house\n" for i in range(4000)))
        out = tmp_path / "o"
        assert run(command, "--input", str(src), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {src}: line 1: field larger than field limit (131072)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_open_quote_in_a_series_header_is_data_error_at_line_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('month,"value\n' + "2015-03,102\n" * 20_000)
        out = tmp_path / "o"
        assert run("compare", str(bad), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 1: field larger than field limit (131072)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_series_cell_past_the_field_limit_is_data_error(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        write_series(good, [(f"2015-{m:02d}", 100 + m) for m in range(1, 7)])
        bad = tmp_path / "bad.csv"
        bad.write_text("month,value\n\n2015-01,100\n2015-02,\"101\n"
                       + "2015-03,102\n" * 12_000)
        out = tmp_path / "o"
        assert run("compare", str(good), str(bad), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 4: field larger than field limit (131072)" in err
        assert "Traceback" not in err
        assert not out.exists()


def write_series(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["month", "value"])
        writer.writerows(rows)


# Each command's file flags, in command-line order; "series" is positional.
_FILE_FLAGS = {"ingest": ["--input", "--output-dir"],
               "index": ["--input", "--config", "--output-dir"],
               "compare": ["series", "--output-dir"],
               "synth": ["--output-dir"]}
_LATIN1_TEXT = {"--input": _LATIN1_LISTINGS, "series": _LATIN1_SERIES,
                "--config": "# caf\u00e9\nchain_mode = geometric\n"}


def _bad_path(tmp_path, flag, kind):
    if kind == "latin1":
        path = tmp_path / "latin1.txt"
        path.write_bytes(_LATIN1_TEXT[flag].encode("latin-1"))
        return path
    if kind == "directory":
        return tmp_path
    if kind == "missing":
        return tmp_path / "absent"
    path = tmp_path / "plain.txt"
    path.write_text("not a directory\n")
    return path if kind == "file" else path / "sub"


@pytest.mark.parametrize("command, flag, kind", [
    (command, flag, kind)
    for command, flags in _FILE_FLAGS.items()
    for flag in flags
    for kind in (["file", "under_file"] if flag == "--output-dir"
                 else ["latin1", "directory", "missing"])
])
def test_bad_user_path_is_data_error_naming_it(tmp_path, capsys, command, flag, kind):
    """Every path named on the command line that cannot be used exits 2, naming it."""
    series = tmp_path / "series.csv"
    write_series(series, [(f"2015-{m:02d}", 100 + m) for m in range(1, 7)])
    config = tmp_path / "run.cfg"
    config.write_text("chain_mode = geometric\n")
    paths = {"--input": synth(tmp_path) / "listings.csv", "--config": config,
             "series": series, "--output-dir": tmp_path / "out"}
    (tmp_path / "bad").mkdir()
    bad = paths[flag] = _bad_path(tmp_path / "bad", flag, kind)
    argv = [command]
    for name in _FILE_FLAGS[command]:
        argv += [str(paths[name])] if name == "series" else [name, str(paths[name])]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [("ingest", "--input"), ("index", "--input"),
                                           ("index", "--config"), ("compare", "series")])
def test_byte_order_mark_is_skipped_and_hashed(tmp_path, command, flag):
    """A UTF-8 file that starts with a byte-order mark, as Excel writes one, runs as
    the file without it does; the manifest digest is of the bytes read, mark included."""
    series = tmp_path / "series.csv"
    write_series(series, [(f"2015-{m:02d}", 100 + m * m) for m in range(1, 7)])
    config = tmp_path / "run.cfg"
    config.write_text("chain_mode = geometric\n")
    paths = {"--input": synth(tmp_path) / "listings.csv", "--config": config,
             "series": series}
    marked = tmp_path / "bom" / paths[flag].name
    marked.parent.mkdir()
    marked.write_bytes(b"\xef\xbb\xbf" + paths[flag].read_bytes())
    runs = []
    for name, path in (("plain", paths[flag]), ("marked", marked)):
        out = tmp_path / name
        argv = [command]
        for arg in _FILE_FLAGS[command][:-1]:
            value = str(path if arg == flag else paths[arg])
            argv += [value] if arg == "series" else [arg, value]
        assert run(*argv, "--output-dir", str(out)) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        digests = {entry["path"]: entry["sha256"] for entry in manifest["inputs"]}
        if flag != "--config":  # the config file is not a listed input
            assert digests[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()
        runs.append((manifest["config"],
                     {name: (out / name).read_bytes() for name in manifest["outputs"]}))
    assert runs[0] == runs[1]
    assert flag != "--config" or runs[1][0]["chain_mode"] == "geometric"


class TestCompare:
    def test_single_series_table(self, tmp_path, capsys):
        series = tmp_path / "only.csv"
        write_series(series, [(f"2015-{m:02d}", 100 + m) for m in range(1, 7)])
        out = tmp_path / "cmp"
        assert run("compare", str(series), "--output-dir", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "only" in stdout
        table = csv_rows(out / "comparison_table.csv")
        assert len(table) == 1

    def test_smooth_series_has_lower_msm(self, tmp_path):
        months = [f"2015-{m:02d}" for m in range(1, 11)]
        smooth = tmp_path / "smooth.csv"
        spiky = tmp_path / "spiky.csv"
        write_series(smooth, [(m, 100 + i) for i, m in enumerate(months)])
        write_series(spiky, [(m, 100 + (8 if i % 2 else -8)) for i, m in enumerate(months)])
        out = tmp_path / "cmp"
        assert run("compare", str(smooth), str(spiky), "--output-dir", str(out)) == 0
        table = {row["series"]: row for row in csv_rows(out / "comparison_table.csv")}
        assert float(table["smooth"]["msm"]) < float(table["spiky"]["msm"])
        long_rows = csv_rows(out / "comparison_long.csv")
        assert len(long_rows) == 20
        assert {row["series_name"] for row in long_rows} == {"smooth", "spiky"}

    def test_partial_overlap_warns_and_aligns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series(a, [(f"2015-{m:02d}", 100 + m) for m in range(1, 9)])
        write_series(b, [(f"2015-{m:02d}", 200 - m) for m in range(4, 12)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), str(b), "--output-dir", str(out)) == 0
        assert "aligned on 5 shared month(s)" in capsys.readouterr().err

    def test_disjoint_months_error(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series(a, [("2015-01", 100), ("2015-02", 101), ("2015-03", 99)])
        write_series(b, [("2016-01", 100), ("2016-02", 101), ("2016-03", 99)])
        assert run("compare", str(a), str(b), "--output-dir", str(tmp_path / "x")) == 2

    def test_svg_chart_emitted(self, tmp_path):
        months = [f"2015-{m:02d}" for m in range(1, 7)]
        a = tmp_path / "a.csv"
        write_series(a, [(m, 100 + i) for i, m in enumerate(months)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out)) == 0
        chart = (out / "chart.svg").read_text()
        assert chart.startswith("<svg")
        assert "polyline" in chart

    def test_svg_chart_escapes_series_names(self, tmp_path):
        a = tmp_path / "a&b<c>.csv"
        write_series(a, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out)) == 0
        root = ElementTree.parse(out / "chart.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c>" in texts

    def test_undecodable_name_is_data_error_writing_nothing(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "o1"
        # an argv byte that is not UTF-8 reaches the program as a lone surrogate
        assert run("compare", str(a), "--output-dir", str(out), "--names", "\udcff") == 2
        err = capsys.readouterr().err
        assert f"error: {out / 'comparison_table.csv'}: cannot write '\\udcff' as UTF-8" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, line, problem", [
        ([("2015-01", 100), ("2015-02",), ("2015-03", 102)], 3, "non-numeric value ''"),
        ([("2015-01", 100), ("2015-02", "nan"), ("2015-03", 102)], 3,
         "non-numeric value 'nan'"),
        ([("2015-01", 100), ("2015-02", "1_01"), ("2015-03", 102)], 3,
         "non-numeric value '1_01'"),
        ([("2015-01", 100), ("2015-02", 101), ("2015-02", 102), ("2015-03", 103)], 4,
         "repeated month '2015-02'"),
        ([("2015-01", 100), ("2015-2", 101), ("2015-03", 102)], 3,
         "month '2015-2' is not YYYY-MM"),
        ([("2015-12", 100), ("2015-13", 101)], 3, "month '2015-13' is not YYYY-MM"),
        ([("2015-01", 100), ("", 101)], 3, "month '' is not YYYY-MM"),
    ], ids=["missing_value", "nan", "underscore", "repeated_month", "unpadded_month",
            "thirteenth_month", "blank_month"])
    def test_bad_series_row_is_data_error_naming_its_line(self, tmp_path, capsys,
                                                          rows, line, problem):
        a = tmp_path / "a.csv"
        write_series(a, rows)
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {a}:{line}: {problem}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("header", ["month,value,value", "month,value,month",
                                        "value,month,value"])
    def test_repeated_series_column_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                                  header):
        a = tmp_path / "a.csv"
        a.write_text(header + "\n" + "".join(f"2015-{m:02d},{m},{m + 4}\n"
                                              for m in range(1, 4)))
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {a}: repeated mapped column(s): " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("names", [None, "plain,plain"], ids=["stems", "names_flag"])
    def test_repeated_series_name_is_usage_error(self, tmp_path, capsys, names):
        paths = [tmp_path / run_dir / "index_series.csv" for run_dir in ("plain", "factored")]
        for path in paths:
            path.parent.mkdir()
            write_series(path, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "cmp"
        argv = ["compare", *map(str, paths), "--output-dir", str(out)]
        assert run(*argv, *(["--names", names] if names else [])) == 1
        err = capsys.readouterr().err
        repeated = "plain" if names else "index_series"
        assert f"usage error: series name {repeated!r} is repeated" in err
        assert "--names" in err
        assert not out.exists()

    def test_rerun_holds_exactly_the_second_runs_outputs(self, tmp_path):
        a = tmp_path / "a.csv"
        write_series(a, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out), "--names", "first") == 0
        assert run("compare", str(a), "--output-dir", str(out), "--names", "second") == 0
        outputs = json.loads((out / "compare_manifest.json").read_text())["outputs"]
        assert sorted(os.listdir(out)) == sorted([*outputs, "compare_manifest.json"])
        chart = (out / "chart.svg").read_text()
        assert "second" in chart and "first" not in chart

    def test_two_month_index_series_gets_empty_metric_cells(self, tmp_path, capsys):
        src = tmp_path / "two.csv"
        write_raw_csv([make_raw(f"r{i}", lat=53.0 + 0.001 * i, price=200_000 + i,
                                month=f"2015-0{1 + i % 2}") for i in range(6)], src)
        indexed = tmp_path / "indexed"
        assert run("index", "--input", str(src), "--output-dir", str(indexed)) == 0
        out = tmp_path / "cmp"
        assert run("compare", str(indexed / "index_series.csv"), "--output-dir", str(out)) == 0
        assert ("warning: 2 shared month(s) are too short for smoothness metrics"
                in capsys.readouterr().err)
        with open(out / "comparison_table.csv", newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["series", "std_dev", "std_dev_diffs", "msm", "spike_count"],
                ["index_series", "", "", "", ""]]
        assert len(csv_rows(out / "comparison_long.csv")) == 2
        assert (out / "chart.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("names, message", [
        ("x", "--names must list one name per series"),
        ("x,", "--names holds a blank name"),
        (" ,y", "--names holds a blank name"),
    ])
    def test_bad_names_is_usage_error(self, tmp_path, capsys, names, message):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            write_series(path, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), str(b), "--output-dir", str(out),
                   "--names", names) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_series_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, [])
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out)) == 2
        assert f"error: {a}: series is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_names_flag(self, tmp_path):
        a = tmp_path / "a.csv"
        write_series(a, [(f"2015-{m:02d}", 100 + m) for m in range(1, 6)])
        out = tmp_path / "cmp"
        assert run("compare", str(a), "--output-dir", str(out),
                   "--names", "control") == 0
        table = csv_rows(out / "comparison_table.csv")
        assert table[0]["series"] == "control"


def _run_argv(tmp_path, command):
    """A run of ``command`` that writes every output it can; ingest meets a bad row."""
    if command == "synth":
        return ["synth", "--months", "6", "--records-per-month", "30"]
    listings = tmp_path / "listings.csv"
    listings.write_text((synth(tmp_path) / "listings.csv").read_text()
                        + "bad,2015-13-01,1,2,3,4,\n")
    series = tmp_path / "series.csv"
    write_series(series, [(f"2015-{m:02d}", 100 + m * m) for m in range(1, 7)])
    return {"ingest": ["ingest", "--input", str(listings)],
            "index": ["index", "--input", str(listings)],
            "compare": ["compare", str(series)]}[command]


@pytest.mark.parametrize("command", ["ingest", "index", "compare", "synth"])
def test_output_dir_holds_exactly_the_manifest_outputs(tmp_path, command):
    out = tmp_path / "out"
    assert run(*_run_argv(tmp_path, command), "--output-dir", str(out)) == 0
    manifest_name = f"{command}_manifest.json"
    outputs = json.loads((out / manifest_name).read_text())["outputs"]
    assert sorted(os.listdir(out)) == sorted([*outputs, manifest_name])
    assert ("parse_errors.json" in outputs) == (command == "ingest")
    assert ("chart.svg" in outputs) == (command == "compare")


def test_write_failing_midway_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "chart.svg").mkdir(parents=True)
    assert run(*_run_argv(tmp_path, "compare"), "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: {out / 'chart.svg'}: cannot write: Is a directory" in err
    assert "Traceback" not in err
    assert not (out / "compare_manifest.json").exists()


def test_only_the_read_and_write_steps_touch_files():
    """cli.py calls open, write_bytes, write_text and mkdir only inside _user_file
    (the one read step) and _write_run (the one write step)."""
    touching = {}
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in {"open", "write_bytes", "write_text", "mkdir"}:
                    touching.setdefault(getattr(top, "name", "<module>"), set()).add(name)
    assert set(touching) == {"_user_file", "_write_run"}, touching


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--output-dir", str(tmp_path / "x"), "--bogus") == 1

    def test_missing_required_flag(self):
        assert run("ingest") == 1


class TestEndToEnd:
    def test_mix_shift_two_mode_comparison(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(
            "synth", "--output-dir", str(data), "--months", "8",
            "--records-per-month", "60", "--drift", "0.003", "--noise", "0.03",
            "--bedroom-mix", "0,0,0.8,0.2,0,0;0,0,0.2,0.8,0,0",
            "--bedroom-premium", "1,1,1,1.4,1,1", "--cluster-count", "3", "--seed", "11",
        ) == 0
        ingested = tmp_path / "ingested"
        assert run("ingest", "--input", str(data / "listings.csv"),
                   "--output-dir", str(ingested)) == 0
        plain = tmp_path / "plain"
        factored = tmp_path / "factored"
        for out, extra in ((plain, []), (factored, ["--factor-bedrooms"])):
            assert run("index", "--input", str(ingested / "filtered.csv"),
                       "--output-dir", str(out), "--min-ratios-for-chain", "1", *extra) == 0
        cmp_dir = tmp_path / "cmp"
        assert run(
            "compare",
            str(plain / "index_series.csv"), str(factored / "index_series.csv"),
            "--output-dir", str(cmp_dir), "--names", "plain,factored",
        ) == 0
        table = {row["series"]: row for row in csv_rows(cmp_dir / "comparison_table.csv")}
        assert float(table["factored"]["msm"]) < float(table["plain"]["msm"])
        assert (cmp_dir / "chart.svg").exists()

    def test_mix_shift_script_writes_csv_and_chart(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_mix_shift_experiment.py"
        done = subprocess.run(
            [sys.executable, str(script), "--seeds", "1", "--months", "4",
             "--records-per-month", "30", "--output-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "mix_shift.svg").exists()
        with open(tmp_path / "mix_shift_long.csv", newline="") as handle:
            assert next(csv.reader(handle)) == ["series_name", "month", "value"]


@pytest.mark.parametrize("command", ["index", "synth"])
def test_every_flagged_field_has_its_flag(command):
    """A command's options are its file options and one ``--<field>`` per config
    field, ``_`` written ``-``, so a renamed field renames its flag."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)).choices[command]
    files = {"index": {"--input", "--schema", "--config"}, "synth": set()}[command]
    assert set(sub._option_string_actions) == {"-h", "--help", "--output-dir",
                                              *files, *config_flags(command)}


def test_readme_flag_tables_match_the_config_classes():
    """README's `index` and `synth` tables list every config flag in field order,
    each with its field's default written as the flag would take it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [tuple(cell.strip().strip("`") for cell in line.strip().strip("|").split("|"))
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.strip().startswith("| `--")]
    expected = [(flag, field, _CONFIG_CLASSES[command])
                for command in ("index", "synth")
                for flag, field in config_flags(command).items()]
    assert [row[0] for row in rows] == [flag for flag, _, _ in expected]
    for (flag, default), (_, field, cls) in zip(rows, expected):
        assert cli._parse_value(getattr(cls(), field), default) == getattr(cls(), field), flag


def test_readme_command_lines_parse():
    """Every ``geohpi ...`` command line in README's code blocks, continuation
    lines joined, parses with the CLI's own parser, so a removed flag cannot
    linger in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```")[1::2]
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("geohpi ")]
    assert {argv[0] for argv in commands} == {"synth", "ingest", "index", "compare"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("flag, value", [
    ("--months", "1_2"),
    ("--records-per-month", "2_0"),
    ("--drift", "0.0_1"),
    ("--bedroom-premium", "1,1,1,1,1,1_0"),
    ("--bedroom-mix", "0,0,1_0,0,0,0"),
])
def test_synth_number_with_underscore_is_usage_error(tmp_path, capsys, flag, value):
    # int and float read "_" as a digit separator; listings reject it, and so do flags
    out = tmp_path / "o"
    assert run("synth", "--output-dir", str(out), flag, value) == 1
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["votes_per_record = 1_0", "removal_fraction = 0.1_5"])
def test_config_number_with_underscore_is_usage_error(tmp_path, capsys, line):
    data = synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# underscores\n" + line + "\n")
    out = tmp_path / "o"
    assert run("index", "--input", str(data / "listings.csv"),
               "--output-dir", str(out), "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "run.cfg:2" in err and repr(line.split("= ")[1]) in err
    assert not out.exists()
