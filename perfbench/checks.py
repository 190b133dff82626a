"""Output checks run on every op.

Each check returns a list of problems; an empty list means the op passed.
The expected schemas are written out here rather than imported, so a change
to the program's writers shows up as a failed check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

SCHEMA_VERSION = 1

COLUMNS = {
    "distance_curves": (
        "distance", "scheme", "reachable", "EE_norm_analysis", "EE_norm_sim",
        "DT_hours_analysis", "DT_hours_sim", "EE_norm_sim_stderr", "DT_hours_sim_stderr",
    ),
    "scheme_averages": (
        "scheme", "avg_EE_norm_analysis", "avg_EE_norm_sim", "avg_DT_hours_analysis",
        "avg_DT_hours_sim", "unreachable_bins", "incomplete_sessions", "unfinished_recipients",
    ),
    "sweep": ("w", "L", "avg_EE", "avg_DT"),
    "lifetime": (
        "location", "scheme", "distance_m", "uplink_sf", "rx_hours_per_update",
        "lifetime_years",
    ),
}

OUTPUTS = {
    "analyze": ("distance_curves", "scheme_averages"),
    "simulate": ("distance_curves", "scheme_averages"),
    "sweep": ("sweep",),
    "lifetime": ("lifetime",),
}

# sweep grid and lifetime locations of the packaged defaults
SWEEP_POINTS = 20 * 5
LIFETIME_LOCATIONS = 2

# Sim-vs-analysis bound, in standard errors. One simulate op makes 120
# tests (6 schemes x 10 bins x 2 metrics); at 6 sigma a correct simulator
# fails far fewer than 1 in 1,000 ops even with skewed bin means.
Z_BOUND = 6.0

_FINGERPRINT = re.compile(r"# fingerprint=([0-9a-f]{64}) seed=(\d+)$")


def read_table(path: Path) -> list[dict]:
    """The rows of one of the program's CSVs, below its two comment lines."""
    return list(csv.DictReader(path.read_text().splitlines()[2:]))


def expected_rows(schema: str, spec: dict) -> int:
    schemes = len(spec["schemes"])
    if schema == "distance_curves":
        return schemes * spec["layout"]["distance_bins"]
    if schema == "scheme_averages":
        return schemes
    if schema == "sweep":
        return SWEEP_POINTS
    return LIFETIME_LOCATIONS * schemes


def check_outputs(op, rc: int) -> list[str]:
    """Exit code, manifest, and the schema and fingerprint lines of each CSV."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    try:
        manifest = json.loads((op.out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    fingerprint = str(manifest.get("config_fingerprint", ""))
    schemas = OUTPUTS[op.verb.verb]
    if manifest.get("outputs") != [f"{s}.csv" for s in schemas]:
        problems.append(f"manifest outputs {manifest.get('outputs')}")
    if manifest.get("seed") != op.seed:
        problems.append(f"manifest seed {manifest.get('seed')} != {op.seed}")
    for schema in schemas:
        path = op.out / f"{schema}.csv"
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            continue
        if len(lines) < 3:
            problems.append(f"{path.name} has {len(lines)} lines")
            continue
        if lines[0] != f"# fuotacast {schema} v{SCHEMA_VERSION}":
            problems.append(f"{path.name} schema line {lines[0]!r}")
        match = _FINGERPRINT.match(lines[1])
        if not match or match.group(1) != fingerprint or int(match.group(2)) != op.seed:
            problems.append(f"{path.name} fingerprint line {lines[1]!r}")
        if tuple(lines[2].split(",")) != COLUMNS[schema]:
            problems.append(f"{path.name} header {lines[2]!r}")
        rows = len(lines) - 3
        if rows != expected_rows(schema, op.spec):
            problems.append(f"{path.name} has {rows} rows")
    return problems


def _cell(row: dict, column: str) -> float:
    text = row.get(column, "")
    return float(text) if text.strip() else math.nan


def check_agreement(op, table: dict, runs: int) -> list[str]:
    """Sim against analysis per scheme and bin, after the measured bias.

    ``table[scheme][metric]`` lists, per bin, the relative bias of the
    simulated mean over the closed form, the relative standard deviation of
    one session's bin mean, and the standard error of the bias, all measured
    by ``calibrate.py`` on the seed commit. The group-based delivery-time
    gap lives in those biases, not in the tolerance.
    """
    rows = read_table(op.out / "distance_curves.csv")
    bins = op.spec["layout"]["distance_bins"]
    problems = []
    for i, row in enumerate(rows):
        scheme, b = row["scheme"], i % bins
        if row["reachable"] != "1":
            problems.append(f"{scheme} bin {b + 1} unreachable")
            continue
        for metric in ("EE_norm", "DT_hours"):
            ana = _cell(row, f"{metric}_analysis")
            sim = _cell(row, f"{metric}_sim")
            bias, sd, bias_se = table[scheme][metric][b]
            allowed = Z_BOUND * math.sqrt(sd * sd / runs + bias_se * bias_se)
            rel = sim / ana - 1.0
            if not abs(rel - bias) <= allowed:
                problems.append(
                    f"{scheme} bin {b + 1} {metric}: sim/analysis-1 = {rel:.4f},"
                    f" bias {bias:.4f}, allowed +-{allowed:.4f}"
                )
    return problems


def compare_reference(main, reference: Path, produced: Path, tolerance: float) -> list[str]:
    """Run ``fuotacast compare`` on a stored reference and a fresh output."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        rc = main(["compare", str(reference), str(produced), "--tolerance", repr(tolerance)])
    if rc == 0:
        return []
    failing = [ln for ln in log.getvalue().splitlines() if not ln.startswith("checked")]
    return [f"compare {produced.name} vs reference exited {rc}: " + "; ".join(failing[:3])]
