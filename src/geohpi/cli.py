"""Command-line entry point: ingest, index, compare, synth.

Each run reads every input once, hashing its bytes as they are parsed, so
the manifest's SHA-256 is of the bytes the run read, pipes included.  It
then renders every output to UTF-8 in memory, each held there once, and
only then makes the output directory and writes them together, the manifest
last: a run that fails before writing leaves nothing, and a directory
without its manifest holds no complete run.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal.  A path named on
the command line that cannot be read, decoded, split into CSV rows under
the header it needs, created or written, or an output that cannot be encoded
as UTF-8, is a data error naming the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .index_engine import (
    ChainUndefinedError,
    IndexConfig,
    VotingUndefinedError,
    compute_index,
)
from .ingestion import (
    CsvSchema,
    SchemaError,
    filter_listings,
    is_finite_float,
    is_month,
    parse_listings,
    read_rows,
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
    """Open a path the user named as UTF-8 text, skipping a leading byte-order mark:
    yield the stream and the SHA-256 of the bytes read from it so far, the mark
    included; a decode, OS, ``csv`` or header error inside becomes a DataError naming
    the path."""
    path = Path(path)
    try:
        with open(path, "rb", buffering=0) as raw:
            hashing = _HashingReader(raw)
            with io.TextIOWrapper(hashing, encoding="utf-8-sig", newline="") as handle:
                yield handle, hashing.sha256
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file start
        raise DataError(f"{path}: not UTF-8 text "
                        f"(byte 0x{exc.object[exc.start]:02x} cannot be decoded)") from exc
    except OSError as exc:
        raise DataError(f"{exc.filename or path}: cannot read: "
                        f"{exc.strerror or exc}") from exc
    except (csv.Error, SchemaError) as exc:  # ingestion.read_rows adds a csv.Error's line
        raise DataError(f"{path}: {exc}") from exc


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
    """``json.dump([e._asdict() for e in errors], handle, indent=2)`` and a newline,
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
             "filtration_report.json": report.to_dict(),
             "parse_errors.json": lambda handle: _write_parse_errors(errors, handle)}
    _write_run(args.output_dir, "ingest", {"schema": asdict(schema)},
               [(args.input, digest)], files, timings, parse_errors=len(errors))
    print(f"kept {report.surviving}/{report.total} records "
          f"({report.surviving_fraction:.1%})")


# Each command's config class and the fields no flag sets.  Every other field
# is set by the flag ``--`` plus its name, ``_`` written ``-``; the field names
# are also the ``index`` command's ``--config`` keys.
_CONFIGS = {
    "index": (IndexConfig, ()),
    "synth": (SynthConfig, ("cluster_radius_deg", "start_month")),
}
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _value_kind(default) -> str:
    """How a value typed by ``default`` is written."""
    if isinstance(default, bool):
        return "one of " + "/".join(_BOOLEANS)
    if isinstance(default, tuple):
        rows = "semicolon-separated rows of " if isinstance(default[0], tuple) else ""
        return rows + "comma-separated numbers"
    return type(default).__name__


def _parse_value(default, text: str):
    """``text`` typed by a config field's ``default``, for flags and ``--config`` lines
    alike: a boolean spelled as in ``_BOOLEANS``, comma-separated floats for a tuple,
    semicolon-separated rows of them for a tuple of tuples, else ``type(default)``.
    A number may not contain ``_``, as in listings."""
    try:
        if "_" in text and not isinstance(default, str):  # int and float read it as a separator
            raise ValueError
        if isinstance(default, bool):
            return _BOOLEANS[text.lower()]
        if isinstance(default, tuple) and isinstance(default[0], tuple):
            return tuple(tuple(float(w) for w in row.split(",")) for row in text.split(";"))
        if isinstance(default, tuple):
            return tuple(float(w) for w in text.split(","))
        return type(default)(text)
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected {_value_kind(default)}, got {text!r}") from None


def _read_config_file(path: str, defaults: dict) -> dict:
    values: dict = {}
    with _user_file(path) as (handle, _):
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in defaults:
                raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(defaults[key], value)
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"{path}:{line_no}: {key}: {exc}") from exc
    return values


def _config(args):
    """The command's config class built from its ``--config`` file, if any, with
    every flag given put over the file's values."""
    cls = _CONFIGS[args.command][0]
    config_file = getattr(args, "config", None)
    values = _read_config_file(config_file, asdict(cls())) if config_file else {}
    # a field no flag sets is not in ``args``
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    values.update((field, value) for field, value in given.items() if value is not None)
    try:
        return cls(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# Filled months this many or more empty months cut off from the rest, at
# either end of the feed, are stray: most likely a year typed wrong.
_STRAY_GAP_MONTHS = 12


def _stray_months(records) -> dict:
    """The leading and trailing filled months of ``records`` that
    ``_STRAY_GAP_MONTHS`` or more empty months cut off from the rest, with the
    calendar span and the number of filled months.

    The filled months split into runs at each such gap.  An end run is stray
    while all its months together hold fewer records than the median filled
    month, so a gap between two runs of real data is no stray."""
    ids: dict[str, list[str]] = {}
    for record in records:
        ids.setdefault(record.month_key, []).append(record.id)
    months = sorted(ids)
    ordinal = {m: int(m[:4]) * 12 + int(m[5:]) for m in months}
    runs: list[list[str]] = [[]]
    for prev, month in zip([None, *months], months):
        if prev is not None and ordinal[month] - ordinal[prev] > _STRAY_GAP_MONTHS:
            runs.append([])
        runs[-1].append(month)
    median = sorted(map(len, ids.values()))[len(ids) // 2] if ids else 0
    leading: list[str] = []
    trailing: list[str] = []
    for end, stray in ((0, leading), (-1, trailing)):
        while len(runs) > 1 and sum(len(ids[m]) for m in runs[end]) < median:
            stray += runs.pop(end)
    return {"calendar_months": ordinal[months[-1]] - ordinal[months[0]] + 1 if months else 0,
            "filled_months": len(months),
            "leading": {m: ids[m] for m in sorted(leading)},
            "trailing": {m: ids[m] for m in sorted(trailing)}}


def cmd_index(args) -> None:
    config = _config(args)
    schema, kept, report, errors, digest, read_timings = _read_listings(args)
    rejected = report.total - report.surviving
    if rejected:
        print(f"warning: input was not pre-filtered; {rejected} record(s) dropped",
              file=sys.stderr)
    strays = _stray_months(kept)
    stray_ids = {**strays["leading"], **strays["trailing"]}
    if stray_ids:
        named = ", ".join(f"{month} ({len(ids)} record{'s' * (len(ids) != 1)})"
                          for month, ids in sorted(stray_ids.items()))
        print(f"warning: {len(stray_ids)} stray month(s) {_STRAY_GAP_MONTHS} or more "
              f"empty months from the rest: {named}; the index spans "
              f"{strays['calendar_months']} months for {strays['filled_months']} filled",
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
               {**read_timings, **result.timings}, schema=asdict(schema),
               records={"parsed": report.total, "parse_errors": len(errors),
                        "rejected": {rule: count for rule, count in asdict(report).items()
                                     if rule not in ("total", "surviving")},
                        "filtered": report.surviving,
                        "after_voting": result.voting.survivors,
                        "stray_months": strays})
    if stats is None:
        print(f"index over {len(series.months)} months, "
              "too short for smoothness metrics")
    else:
        print(f"index over {len(series.months)} months, "
              f"msm={stats.msm:.4f} sd_diffs={stats.std_dev_diffs:.4f}")


def _read_series_csv(path: str) -> tuple[dict[str, float], object]:
    """A ``month,value`` series file: ({month: value}, SHA-256 of its bytes)."""
    with _user_file(path) as (handle, digest):
        series: dict[str, float] = {}
        for first, line, (month, text), swallowing in read_rows(
                handle, ["month", "value"], lambda row: is_month(row[0])):
            if swallowing:
                raise DataError(f"{path}:{first}: {swallowing[0]} cell spans lines "
                                f"{first}-{line}: an unbalanced quote is likely")
            if not is_month(month):
                raise DataError(f"{path}:{line}: month {month!r} is not YYYY-MM")
            if not is_finite_float(text):
                raise DataError(f"{path}:{line}: non-numeric value {text!r}")
            if month in series:
                raise DataError(f"{path}:{line}: repeated month {month!r}")
            series[month] = float(text)
    if not series:
        raise DataError(f"{path}: series is empty")
    return series, digest


def cmd_compare(args) -> None:
    names = args.names.split(",") if args.names else [Path(p).stem for p in args.series]
    if len(names) != len(args.series):
        raise _UsageError("--names must list one name per series")
    if not all(name.strip() for name in names):
        raise _UsageError("--names holds a blank name")
    if len(set(names)) != len(names):
        repeated = next(name for name in names if names.count(name) > 1)
        raise _UsageError(f"series name {repeated!r} is repeated; "
                          "give each series its own name with --names")
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

    try:
        stats = [(name, series_metrics(values)) for name, values in aligned]
    except UndefinedMetricError:  # under three months: a table, but no smoothness
        print(f"warning: {len(aligned_months)} shared month(s) are too short for "
              "smoothness metrics; their cells are left empty", file=sys.stderr)
        stats = []
    files = {
        "comparison_table.csv": lambda handle: write_csv(
            handle, ["series", "std_dev", "std_dev_diffs", "msm", "spike_count"],
            ([name, repr(m.std_dev), repr(m.std_dev_diffs), repr(m.msm), m.spike_count]
             for name, m in stats) if stats else ([name, "", "", "", ""] for name in names)),
        "comparison_long.csv": lambda handle: write_csv(
            handle, ["series_name", "month", "value"],
            ([name, month, repr(value)] for name, values in aligned
             for month, value in zip(aligned_months, values))),
        "chart.svg": lambda handle: handle.write(render_line_chart(aligned_months, aligned)),
    }
    inputs = [(path, digest) for path, (_, digest) in zip(args.series, loaded)]
    _write_run(args.output_dir, "compare", {"names": names}, inputs, files, {})

    if stats:
        print(f"{'series':<28} {'st_dev':>10} {'st_dev_diffs':>14} {'msm':>10}")
    for name, m in stats:
        print(f"{name:<28} {m.std_dev:>10.3f} {m.std_dev_diffs:>14.3f} {m.msm:>10.3f}")


def cmd_synth(args) -> None:
    config = _config(args)
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
    listings = argparse.ArgumentParser(add_help=False)
    listings.add_argument("--input", required=True, help="listings CSV")
    listings.add_argument("--schema", help="field=column overrides, comma separated")
    commands = {
        "ingest": (cmd_ingest, [listings], "parse and filter a listings CSV"),
        "index": (cmd_index, [listings], "compute the price index from filtered CSV"),
        "compare": (cmd_compare, [], "compare one or more index series"),
        "synth": (cmd_synth, [], "generate a synthetic listings dataset"),
    }
    for name, (func, parents, help_text) in commands.items():
        command_parser = sub.add_parser(name, parents=parents, help=help_text)
        command_parser.add_argument("--output-dir", required=True)
        command_parser.set_defaults(func=func)
    sub.choices["index"].add_argument("--config", help="flat key = value config file")
    sub.choices["compare"].add_argument("series", nargs="+")
    sub.choices["compare"].add_argument("--names", help="comma-separated series names")
    for command, (cls, unflagged) in _CONFIGS.items():
        for field in fields(cls):
            if field.name in unflagged:
                continue
            typing = ({"action": "store_true", "default": None}
                      if isinstance(field.default, bool)
                      else {"type": functools.partial(_parse_value, field.default),
                            "help": _value_kind(field.default)})
            sub.choices[command].add_argument("--" + field.name.replace("_", "-"), **typing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help(sys.stderr)
            return 1
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, VotingUndefinedError, ChainUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # loaded only here: every other run is spared its imports

        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
