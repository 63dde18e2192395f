"""Output check for one ``geohpi index`` run of a benchmark workload.

A run passes when its three outputs exist and are well formed, the index
tracks the generator's true level over the real months, and the record
counts add up.  How decimal prices are classified and how many months the
index spans are deliberately not checked: both may change legitimately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

OUTPUTS = ("index_series.csv", "ratio_matrix.csv", "metrics.json")

# Largest allowed gap, in index points, between the level rebased to 100 at
# the first real month and the generator's truth.  The largest gaps seen over
# 30 to 40 seeds per workload: 2.3 (monthly), 3.1 (dense_cell), 3.2
# (dirty_feed).  Plain keys on the monthly data are off by about 34.
TOLERANCE_POINTS = 6.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _next_month(month: str) -> str:
    year, mon = (int(p) for p in month.split("-"))
    return f"{year + mon // 12:04d}-{mon % 12 + 1:02d}"


def _read_series(path: Path, problems: list[str]) -> dict[str, float]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows or not {"month", "value"} <= set(rows[0]):
        problems.append("index_series.csv lacks month,value rows")
        return {}
    levels: dict[str, float] = {}
    previous = None
    for row in rows:
        month, value = row["month"], float(row["value"])
        if previous is not None and month != _next_month(previous):
            problems.append(f"index_series.csv: {month} does not follow {previous}")
            return {}
        if not math.isfinite(value):
            problems.append(f"index_series.csv: level {value} at {month}")
            return {}
        if previous is not None and row.get("diff"):
            if abs(float(row["diff"]) - (value - levels[previous])) > 1e-9:
                problems.append(f"index_series.csv: diff at {month} is inconsistent")
        levels[month] = value
        previous = month
    return levels


def _check_matrix(path: Path, problems: list[str]) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        problems.append("ratio_matrix.csv is empty")
        return
    pairs = [(r["base_month"], r["prior_month"]) for r in rows]
    if pairs != sorted(pairs) or len(set(pairs)) != len(pairs):
        problems.append("ratio_matrix.csv rows are not sorted and unique")
    for row in rows:
        ratio, support = float(row["median_ratio"]), int(row["support"])
        if not (row["prior_month"] < row["base_month"] and ratio > 0
                and math.isfinite(ratio) and support >= 1):
            problems.append(f"ratio_matrix.csv: bad row {row}")
            return


def check_run(out_dir: Path, workload) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    problems: list[str] = []
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output(s): {', '.join(missing)}"]
    try:
        levels = _read_series(out_dir / "index_series.csv", problems)
        _check_matrix(out_dir / "ratio_matrix.csv", problems)
        stats = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed output: {exc!r}"]

    absent = [m for m in workload.truth_months if m not in levels]
    if absent:
        problems.append(f"index lacks real month(s) {absent[:3]}")
    elif levels:
        base = levels[workload.truth_months[0]]
        worst = max(abs(100.0 * levels[m] / base - truth)
                    for m, truth in zip(workload.truth_months, workload.truth_levels))
        if worst > TOLERANCE_POINTS:
            problems.append(f"level is {worst:.2f} points off the truth")
        values = list(levels.values())
        mean = sum(values) / len(values)
        spread = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        if abs(float(stats["std_dev"]) - spread) > 1e-9 * max(1.0, spread):
            problems.append("metrics.json std_dev does not match the series")

    manifest_path = out_dir / "index_manifest.json"
    if not manifest_path.is_file():
        return problems + ["index_manifest.json is missing"]
    counts = json.loads(manifest_path.read_text(encoding="utf-8")).get("records", {})
    problems.extend(check_counts(workload, counts.get("parsed"), counts.get("filtered")))
    return problems


def check_counts(workload, parsed, kept) -> list[str]:
    """The row accounting: parse errors, per-rule rejections and survivors.

    Decimal-price rows are valid listings apart from their price format, so
    they either all fail to parse or all survive filtering.
    """
    if parsed is None or kept is None:
        return ["record counts are missing"]
    decimal = workload.decimal_rows
    rejected = sum(workload.rule_counts.values())
    parseable = workload.input_rows - workload.parse_errors
    problems = []
    if parsed not in (parseable - decimal, parseable):
        problems.append(f"{parsed} rows parsed, expected {parseable - decimal}"
                        f" or {parseable}")
    if kept != parsed - rejected:
        problems.append(f"{kept} of {parsed} parsed rows kept, but {rejected} "
                        "fail a pruning rule")
    if kept not in (workload.clean_rows, workload.clean_rows + decimal):
        problems.append(f"{kept} rows kept, {workload.clean_rows} clean rows in input")
    return problems


def check_ingestion(workload, parsed, errors, kept, report) -> list[str]:
    """The traced run's exact accounting, from the ingestion layer's results."""
    problems = check_counts(workload, len(parsed), len(kept))
    if len(parsed) + len(errors) != workload.input_rows:
        problems.append(f"{len(parsed)} parsed + {len(errors)} parse errors != "
                        f"{workload.input_rows} input rows")
    rules = {k: v for k, v in report.to_dict().items()
             if k not in ("total", "surviving", "surviving_fraction")}
    if sum(rules.values()) + report.surviving != report.total:
        problems.append(f"per-rule counts {rules} + {report.surviving} survivors "
                        f"!= {report.total}")
    for rule, expected in workload.rule_counts.items():
        if rules.get(rule) != expected:
            problems.append(f"rule {rule} rejected {rules.get(rule)}, expected {expected}")
    kept_ids = {r.id for r in kept}
    lost = [r.id for r in workload.records if r.id not in kept_ids]
    if lost:
        problems.append(f"{len(lost)} clean row(s) dropped, e.g. {lost[0]}")
    return problems
