"""Command-line entry point: ingest, index, compare, synth.

Each run reads every input once, hashing its bytes as they are parsed, so
the manifest's SHA-256 is of the bytes the run read, pipes included.  It
then renders every output to UTF-8 in memory, each held there once, and
only then makes the output directory and writes them together, the manifest
last: a run that fails before writing leaves nothing, and a directory
without its manifest holds no complete run.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal.  A path named on
the command line that cannot be read, decoded, created or written, or an
output that cannot be encoded as UTF-8, is a data error naming the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import io
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
    _is_finite_float,
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


class _HashingReader(io.RawIOBase):
    """A binary file's bytes, passed through unchanged and hashed as they are read."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count


@contextlib.contextmanager
def _user_file(path):
    """Open a path the user named as UTF-8 text: yield the stream and the SHA-256
    of the bytes read from it so far; a decode or OS error inside becomes a
    DataError naming the path."""
    path = Path(path)
    try:
        with open(path, "rb", buffering=0) as raw:
            hashing = _HashingReader(raw)
            with io.TextIOWrapper(hashing, encoding="utf-8", newline="") as handle:
                yield handle, hashing.sha256
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file start
        raise DataError(f"{path}: not UTF-8 text "
                        f"(byte 0x{exc.object[exc.start]:02x} cannot be decoded)") from exc
    except OSError as exc:
        raise DataError(f"{exc.filename or path}: cannot read: "
                        f"{exc.strerror or exc}") from exc


class _Output(io.RawIOBase):
    """One output rendered to UTF-8: ``content(stream)`` writes it, or ``content`` is a
    JSON payload.  The bytes stay the chunks written, never copied to grow (on the
    dirty_feed input a growing BytesIO raised ingest's peak RSS by 12 MB, chunks by 7)."""

    def __init__(self, content) -> None:
        self.chunks: list[bytes] = []
        stream = io.TextIOWrapper(self, encoding="utf-8", newline="")
        if callable(content):
            content(stream)
        else:
            json.dump(content, stream, indent=2)
            stream.write("\n")
        stream.detach()  # flushes

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.chunks.append(bytes(data))
        return len(data)


def _write_run(out_dir, command: str, config: dict, inputs: list, files: dict,
               timings: dict[str, float], **extra) -> None:
    """Encode every output in ``files`` (name -> ``_Output`` content) and then the
    manifest, which names them with the (path, sha256) ``inputs``, ``timings`` and
    ``extra``; only then make ``out_dir`` and write them all, the manifest last.
    A file that cannot be encoded or written is a DataError naming it."""
    out_dir = Path(out_dir)
    manifest = {
        "tool": f"geohpi {__version__}",
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "config": config,
        "inputs": [{"path": str(Path(p)), "sha256": digest.hexdigest()}
                   for p, digest in inputs],
        "outputs": list(files),
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        **extra,
    }
    encoded = {}
    try:
        for name, content in {**files, f"{command}_manifest.json": manifest}.items():
            encoded[name] = _Output(content).chunks
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, chunks in encoded.items():
            with open(out_dir / name, "wb") as handle:
                handle.writelines(chunks)
    except UnicodeEncodeError as exc:  # raised only while encoding, so ``name`` is its file
        raise DataError(f"{out_dir / name}: cannot write "
                        f"{exc.object[exc.start:exc.end]!r} as UTF-8") from exc
    except OSError as exc:
        raise DataError(f"{exc.filename or out_dir}: cannot write: "
                        f"{exc.strerror or exc}") from exc


def _read_listings(args) -> tuple:
    """Parse and filter ``args.input``: (schema, kept, report, errors, digest, timings)."""
    try:
        schema = CsvSchema.from_spec(args.schema) if args.schema else CsvSchema()
    except ValueError as exc:
        raise _UsageError(f"--schema {args.schema!r}: {exc}") from exc
    start = time.perf_counter()
    with _user_file(args.input) as (handle, digest):
        records, errors = parse_listings(handle, schema)
    t_parse = time.perf_counter() - start
    start = time.perf_counter()
    kept, report = filter_listings(records)
    t_filter = time.perf_counter() - start
    if errors:
        print(f"warning: {len(errors)} malformed row(s) skipped", file=sys.stderr)
    return schema, kept, report, errors, digest, {"parse": t_parse, "filter": t_filter}


def _write_parse_errors(errors: list, handle) -> None:
    """``json.dump([asdict(e) for e in errors], handle, indent=2)`` and a newline,
    rendered one error at a time so the list of dicts is never built."""
    separator = "\n"
    handle.write("[")
    for error in errors:
        handle.write(f'{separator}  {{\n    "row": {error.row},\n'
                     f'    "message": {json.dumps(error.message)}\n  }}')
        separator = ",\n"
    handle.write("\n]\n" if errors else "]\n")


def cmd_ingest(args) -> None:
    schema, kept, report, errors, digest, timings = _read_listings(args)
    files = {"filtered.csv": lambda handle: write_listings_csv(kept, handle),
             "filtration_report.json": report.to_dict()}
    if errors:
        files["parse_errors.json"] = lambda handle: _write_parse_errors(errors, handle)
    _write_run(args.output_dir, "ingest", {"schema": asdict(schema)},
               [(args.input, digest)], files, timings, parse_errors=len(errors))
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
    with _user_file(path) as (handle, _):
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
    _, kept, report, _, digest, read_timings = _read_listings(args)
    rejected = report.total - report.surviving
    if rejected:
        print(f"warning: input was not pre-filtered; {rejected} record(s) dropped",
              file=sys.stderr)

    result = compute_index(kept, config)
    try:
        stats = series_metrics(result.series.values)
    except UndefinedMetricError:  # two months: an index, but no smoothness
        stats = None

    series = result.series
    diffs = ["", *map(repr, series.diffs)]
    files = {
        "index_series.csv": lambda handle: write_csv(
            handle, ["month", "value", "diff", "flagged"],
            ([month, repr(value), diff, str(flag).lower()] for month, value, diff, flag
             in zip(series.months, series.values, diffs, series.flagged))),
        "ratio_matrix.csv": lambda handle: write_csv(
            handle, ["base_month", "prior_month", "median_ratio", "support"],
            ([base, prior, repr(ratio), support]
             for base, prior, ratio, support in result.matrix.rows())),
        "metrics.json": stats.to_dict() if stats else
                        dict.fromkeys(f.name for f in fields(SeriesMetrics)),
    }
    _write_run(args.output_dir, "index", asdict(config), [(args.input, digest)], files,
               {**read_timings, **result.timings},
               records={"parsed": report.total, "filtered": report.surviving,
                        "after_voting": result.voting.survivors})
    if stats is None:
        print(f"index over {len(series.months)} months, "
              "too short for smoothness metrics")
    else:
        print(f"index over {len(series.months)} months, "
              f"msm={stats.msm:.4f} sd_diffs={stats.std_dev_diffs:.4f}")


def _read_series_csv(path: str) -> tuple[dict[str, float], object]:
    """A ``month,value`` series file: ({month: value}, SHA-256 of its bytes)."""
    with _user_file(path) as (handle, digest):
        reader = csv.DictReader(handle, restval="")
        if reader.fieldnames is None or not {"month", "value"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns month,value")
        series: dict[str, float] = {}
        for row in reader:
            month, text = row["month"], row["value"]
            if not _is_finite_float(text):
                raise DataError(f"{path}:{reader.line_num}: non-numeric value {text!r}")
            if month in series:
                raise DataError(f"{path}:{reader.line_num}: repeated month {month!r}")
            series[month] = float(text)
    if not series:
        raise DataError(f"{path}: series is empty")
    return series, digest


def cmd_compare(args) -> None:
    names = args.names.split(",") if args.names else [Path(p).stem for p in args.series]
    if len(names) != len(args.series):
        raise _UsageError("--names must list one name per series")
    loaded = [_read_series_csv(p) for p in args.series]
    common = set(loaded[0][0]).intersection(*(series for series, _ in loaded[1:]))
    if not common:
        raise DataError("series share no months")
    aligned_months = sorted(common)
    if any(len(series) != len(aligned_months) for series, _ in loaded):
        print(f"warning: aligned on {len(aligned_months)} shared month(s)",
              file=sys.stderr)
    aligned = [(name, [series[m] for m in aligned_months])
               for name, (series, _) in zip(names, loaded)]

    stats = [(name, series_metrics(values)) for name, values in aligned]
    files = {
        "comparison_table.csv": lambda handle: write_csv(
            handle, ["series", "std_dev", "std_dev_diffs", "msm", "spike_count"],
            ([name, repr(m.std_dev), repr(m.std_dev_diffs), repr(m.msm), m.spike_count]
             for name, m in stats)),
        "comparison_long.csv": lambda handle: write_csv(
            handle, ["series_name", "month", "value"],
            ([name, month, repr(value)] for name, values in aligned
             for month, value in zip(aligned_months, values))),
    }
    if args.svg:
        files["chart.svg"] = lambda handle: handle.write(
            render_line_chart(aligned_months, aligned))
    inputs = [(path, digest) for path, (_, digest) in zip(args.series, loaded)]
    _write_run(args.output_dir, "compare", {"names": names}, inputs, files, {})

    print(f"{'series':<28} {'st_dev':>10} {'st_dev_diffs':>14} {'msm':>10}")
    for name, m in stats:
        print(f"{name:<28} {m.std_dev:>10.3f} {m.std_dev_diffs:>14.3f} {m.msm:>10.3f}")


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
    files = {"listings.csv": lambda handle: write_listings_csv(records, handle),
             "truth.csv": lambda handle: write_truth_csv(truth, handle, config.start_month)}
    _write_run(args.output_dir, "synth", asdict(config), [], files,
               {"generate": t_generate})
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
