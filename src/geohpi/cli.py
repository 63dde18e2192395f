"""Command-line entry point: ingest, index, compare, synth.

Every run computes fully in memory before any file is written (so a
failed run leaves no partial outputs) and drops one manifest recording
the config, input digests, outputs and stage timings.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal.

A path named on the command line (input, config, series, output directory)
that cannot be read, decoded as UTF-8, created or written is a data error,
exit 2, naming the path.  Outputs go to a directory made at the first write.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import sys
import time
import traceback
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .index_engine import (
    CHAIN_MODES,
    ChainUndefinedError,
    IndexConfig,
    VotingUndefinedError,
    compute_index,
)
from .ingestion import (
    CsvSchema,
    SchemaError,
    filter_listings,
    parse_listings,
    write_csv,
    write_listings_csv,
)
from .metrics import SeriesMetrics, UndefinedMetricError, series_metrics
from .plotting import render_line_chart
from .synthgen import SynthConfig, generate, write_truth_csv


class _UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _user_file(path, mode: str):
    """Open a path the user named as UTF-8 text for ``mode`` "r" or "w" ("w" makes
    the parent directory); a decode or OS error inside becomes a DataError naming it."""
    path = Path(path)
    try:
        if mode == "w":
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode, encoding="utf-8", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file start
        raise DataError(f"{path}: not UTF-8 text "
                        f"(byte 0x{exc.object[exc.start]:02x} cannot be decoded)") from exc
    except OSError as exc:
        action = "read" if mode == "r" else "write"
        raise DataError(f"{exc.filename or path}: cannot {action}: "
                        f"{exc.strerror or exc}") from exc


def _write_json(path: Path, payload) -> None:
    with _user_file(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[str],
    timings: dict[str, float],
    extra: dict | None = None,
) -> None:
    manifest = {
        "tool": f"geohpi {__version__}",
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": config,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    _write_json(out_dir / f"{command}_manifest.json", manifest)


def _read_listings(args) -> tuple:
    """Parse and filter ``args.input``: (schema, kept, report, errors, timings)."""
    try:
        schema = CsvSchema.from_spec(args.schema) if args.schema else CsvSchema()
    except ValueError as exc:
        raise _UsageError(f"--schema {args.schema!r}: {exc}") from exc
    start = time.perf_counter()
    with _user_file(args.input, "r") as handle:
        records, errors = parse_listings(handle, schema)
    t_parse = time.perf_counter() - start
    start = time.perf_counter()
    kept, report = filter_listings(records)
    t_filter = time.perf_counter() - start
    if errors:
        print(f"warning: {len(errors)} malformed row(s) skipped", file=sys.stderr)
    return schema, kept, report, errors, {"parse": t_parse, "filter": t_filter}


def cmd_ingest(args) -> None:
    schema, kept, report, errors, timings = _read_listings(args)
    out = Path(args.output_dir)
    with _user_file(out / "filtered.csv", "w") as handle:
        write_listings_csv(kept, handle)
    _write_json(out / "filtration_report.json", report.to_dict())
    outputs = ["filtered.csv", "filtration_report.json"]
    if errors:
        _write_json(out / "parse_errors.json", [asdict(e) for e in errors])
        outputs.append("parse_errors.json")
    _write_manifest(
        out,
        "ingest",
        {"schema": asdict(schema)},
        [Path(args.input)],
        outputs,
        timings,
        extra={"parse_errors": len(errors)},
    )
    print(f"kept {report.surviving}/{report.total} records "
          f"({report.surviving_fraction:.1%})")


# Each ``index`` flag and the IndexConfig field it sets; the field names
# are the ``--config`` keys, and values are typed by the field defaults.
_INDEX_FLAGS = {
    "--precision": "geohash_precision",
    "--factor-bedrooms": "factor_bedrooms",
    "--votes-k": "votes_per_record",
    "--removal-fraction": "removal_fraction",
    "--min-ratios": "min_ratios_for_chain",
    "--scb-min-population": "scb_min_population",
    "--chain-mode": "chain_mode",
}
_DEFAULTS = asdict(IndexConfig())
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _parse_value(key: str, text: str):
    default = _DEFAULTS[key]
    if not isinstance(default, bool):
        return type(default)(text)
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


def _read_config_file(path: str) -> dict:
    values: dict = {}
    with _user_file(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(key, value)
            except ValueError as exc:
                raise _UsageError(f"{path}:{line_no}: {key}: {exc}") from exc
    return values


def _index_config(args) -> IndexConfig:
    values = _read_config_file(args.config) if args.config else {}
    for name in _INDEX_FLAGS.values():
        value = getattr(args, name)
        if value is not None:
            values[name] = value
    try:
        return IndexConfig(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_index(args) -> None:
    config = _index_config(args)
    _, kept, report, _, read_timings = _read_listings(args)
    rejected = report.total - report.surviving
    if rejected:
        print(f"warning: input was not pre-filtered; {rejected} record(s) dropped",
              file=sys.stderr)

    result = compute_index(kept, config)
    try:
        stats = series_metrics(result.series.values)
    except UndefinedMetricError:  # two months: an index, but no smoothness
        stats = None

    out = Path(args.output_dir)
    series = result.series
    diffs = ["", *map(repr, series.diffs)]
    with _user_file(out / "index_series.csv", "w") as handle:
        write_csv(handle, ["month", "value", "diff", "flagged"],
                  ([month, repr(value), diff, str(flag).lower()] for month, value, diff, flag
                   in zip(series.months, series.values, diffs, series.flagged)))
    with _user_file(out / "ratio_matrix.csv", "w") as handle:
        write_csv(handle, ["base_month", "prior_month", "median_ratio", "support"],
                  ([base, prior, repr(ratio), support]
                   for base, prior, ratio, support in result.matrix.rows()))
    _write_json(out / "metrics.json", stats.to_dict() if stats else
                dict.fromkeys(f.name for f in fields(SeriesMetrics)))

    _write_manifest(
        out,
        "index",
        asdict(config),
        [Path(args.input)],
        ["index_series.csv", "ratio_matrix.csv", "metrics.json"],
        {**read_timings, **result.timings},
        extra={
            "records": {
                "parsed": report.total,
                "filtered": report.surviving,
                "after_voting": result.voting.survivors,
            }
        },
    )
    if stats is None:
        print(f"index over {len(series.months)} months, "
              "too short for smoothness metrics")
    else:
        print(f"index over {len(series.months)} months, "
              f"msm={stats.msm:.4f} sd_diffs={stats.std_dev_diffs:.4f}")


def _read_series_csv(path: Path) -> tuple[list[str], list[float]]:
    with _user_file(path, "r") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"month", "value"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns month,value")
        months: list[str] = []
        values: list[float] = []
        for row in reader:
            months.append(row["month"])
            try:
                values.append(float(row["value"]))
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric value {row['value']!r}") from exc
    if not months:
        raise DataError(f"{path}: series is empty")
    return months, values


def cmd_compare(args) -> None:
    paths = [Path(p) for p in args.series]
    names = args.names.split(",") if args.names else [p.stem for p in paths]
    if len(names) != len(paths):
        raise _UsageError("--names must list one name per series")
    loaded = [_read_series_csv(p) for p in paths]
    common = set(loaded[0][0])
    for months, _ in loaded[1:]:
        common &= set(months)
    if not common:
        raise DataError("series share no months")
    aligned_months = sorted(common)
    if any(len(months) != len(aligned_months) for months, _ in loaded):
        print(f"warning: aligned on {len(aligned_months)} shared month(s)",
              file=sys.stderr)
    aligned: list[tuple[str, list[float]]] = []
    for name, (months, values) in zip(names, loaded):
        lookup = dict(zip(months, values))
        aligned.append((name, [lookup[m] for m in aligned_months]))

    stats = [(name, series_metrics(values)) for name, values in aligned]
    header = f"{'series':<28} {'st_dev':>10} {'st_dev_diffs':>14} {'msm':>10}"
    print(header)
    for name, m in stats:
        print(f"{name:<28} {m.std_dev:>10.3f} {m.std_dev_diffs:>14.3f} {m.msm:>10.3f}")

    out = Path(args.output_dir)
    with _user_file(out / "comparison_table.csv", "w") as handle:
        write_csv(handle, ["series", "std_dev", "std_dev_diffs", "msm", "spike_count"],
                  ([name, repr(m.std_dev), repr(m.std_dev_diffs), repr(m.msm), m.spike_count]
                   for name, m in stats))
    with _user_file(out / "comparison_long.csv", "w") as handle:
        write_csv(handle, ["series_name", "month", "value"],
                  ([name, month, repr(value)] for name, values in aligned
                   for month, value in zip(aligned_months, values)))
    outputs = ["comparison_table.csv", "comparison_long.csv"]
    if args.svg:
        chart = render_line_chart(aligned_months, aligned)
        with _user_file(out / "chart.svg", "w") as handle:
            handle.write(chart)
        outputs.append("chart.svg")
    _write_manifest(out, "compare", {"names": names}, paths, outputs, {})


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_mix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_floats(row) for row in text.split(";"))


# Each ``synth`` flag and the SynthConfig field it sets; a flag left out
# keeps the field's default.  Values are typed by the field defaults,
# except the tuple fields, which take the parser and help given here.
_SYNTH_FLAGS = {
    "--months": "months",
    "--records-per-month": "records_per_month",
    "--drift": "drift",
    "--noise": "noise",
    "--clusters": "cluster_count",
    "--base-price": "base_price",
    "--mix": "bedroom_mix",
    "--premiums": "bedroom_premium",
    "--seed": "seed",
}
_SYNTH_DEFAULTS = asdict(SynthConfig())
_SYNTH_TUPLES = {
    "bedroom_mix": (_parse_mix, "semicolon-separated rows of six weights"),
    "bedroom_premium": (_parse_floats, "six comma-separated multipliers"),
}


def cmd_synth(args) -> None:
    values = {name: getattr(args, name) for name in _SYNTH_FLAGS.values()}
    try:
        config = SynthConfig(**{k: v for k, v in values.items() if v is not None})
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    start = time.perf_counter()
    records, truth = generate(config)
    t_generate = time.perf_counter() - start
    out = Path(args.output_dir)
    with _user_file(out / "listings.csv", "w") as handle:
        write_listings_csv(records, handle)
    with _user_file(out / "truth.csv", "w") as handle:
        write_truth_csv(truth, handle, config.start_month)
    _write_manifest(
        out,
        "synth",
        asdict(config),
        [],
        ["listings.csv", "truth.csv"],
        {"generate": t_generate},
    )
    print(f"wrote {len(records)} listings over {config.months} months")


def build_parser() -> _Parser:
    parser = _Parser(prog="geohpi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geohpi {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_ingest = sub.add_parser("ingest", help="parse and filter a listings CSV")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument("--output-dir", required=True)
    p_ingest.add_argument("--schema", help="field=column overrides, comma separated")
    p_ingest.set_defaults(func=cmd_ingest)

    p_index = sub.add_parser("index", help="compute the price index from filtered CSV")
    p_index.add_argument("--input", required=True)
    p_index.add_argument("--output-dir", required=True)
    p_index.add_argument("--schema")
    p_index.add_argument("--config", help="flat key = value config file")
    for flag, name in _INDEX_FLAGS.items():
        default = _DEFAULTS[name]
        if isinstance(default, bool):
            p_index.add_argument(flag, dest=name, action="store_true", default=None)
        else:
            choices = CHAIN_MODES if name == "chain_mode" else None
            p_index.add_argument(flag, dest=name, type=type(default), choices=choices)
    p_index.set_defaults(func=cmd_index)

    p_compare = sub.add_parser("compare", help="compare one or more index series")
    p_compare.add_argument("series", nargs="+")
    p_compare.add_argument("--output-dir", required=True)
    p_compare.add_argument("--names", help="comma-separated series names")
    p_compare.add_argument("--svg", action="store_true")
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic listings dataset")
    p_synth.add_argument("--output-dir", required=True)
    for flag, name in _SYNTH_FLAGS.items():
        parse, help_text = _SYNTH_TUPLES.get(name, (type(_SYNTH_DEFAULTS[name]), None))
        p_synth.add_argument(flag, dest=name, type=parse, help=help_text)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        DataError,
        SchemaError,
        UndefinedMetricError,
        VotingUndefinedError,
        ChainUndefinedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
