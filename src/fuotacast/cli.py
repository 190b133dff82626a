"""Command line front end.

Verbs:
    analyze   closed-form metrics only (zero simulation runs, no rng use)
    simulate  Monte Carlo metrics, optionally paired with the closed forms
    sweep     ramp-scheme design grid over (frames per round, lowest rate)
    lifetime  battery lifetime table per duty location and scheme
    compare   check two result CSVs against a relative tolerance

Exit codes: 0 success, 1 comparison mismatch, 2 configuration error,
3 numerical failure, 4 incomplete simulation.

Every CSV starts with two comment lines: a schema tag with a version, and
the config fingerprint plus seed that produced it. Schemas are stable;
column order never changes within a version. A manifest.json listing the
inputs and outputs accompanies every run, and re-running the same verb on
the same config with the same seed reproduces every byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import NumericalIntegrationError
from .config import ConfigError, ExperimentSpec, load_config

SCHEMA_VERSION = 1

# (column name, row attribute) pairs; column order is part of the schema
DISTANCE_COLUMNS = (
    ("distance", "distance_m"),
    ("scheme", "scheme"),
    ("reachable", "reachable"),
    ("EE_norm_analysis", "ee_norm_analysis"),
    ("EE_norm_sim", "ee_norm_sim"),
    ("DT_hours_analysis", "dt_hours_analysis"),
    ("DT_hours_sim", "dt_hours_sim"),
    ("EE_norm_sim_stderr", "ee_norm_sim_stderr"),
    ("DT_hours_sim_stderr", "dt_hours_sim_stderr"),
)
AVERAGE_COLUMNS = (
    ("scheme", "scheme"),
    ("avg_EE_norm_analysis", "avg_ee_norm_analysis"),
    ("avg_EE_norm_sim", "avg_ee_norm_sim"),
    ("avg_DT_hours_analysis", "avg_dt_hours_analysis"),
    ("avg_DT_hours_sim", "avg_dt_hours_sim"),
    ("unreachable_bins", "unreachable_bins"),
    ("incomplete_sessions", "incomplete_sessions"),
    ("unfinished_recipients", "unfinished_recipients"),
)
SWEEP_COLUMNS = (
    ("w", "frames_per_round"),
    ("L", "min_sf"),
    ("avg_EE", "avg_ee_norm"),
    ("avg_DT", "avg_dt_hours"),
)
LIFETIME_COLUMNS = (
    ("location", "location"),
    ("scheme", "scheme"),
    ("distance_m", "distance_m"),
    ("uplink_sf", "uplink_sf"),
    ("rx_hours_per_update", "rx_hours_per_update"),
    ("lifetime_years", "lifetime_years"),
)

# columns never treated as metrics by `compare`
_KEY_COLUMNS = ("distance", "scheme", "location", "w", "L")
_BOOKKEEPING = (
    "reachable", "distance_m", "uplink_sf", "unreachable_bins",
    "incomplete_sessions", "unfinished_recipients",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: Path, schema: str, columns, rows, fingerprint: str, seed) -> None:
    buf = io.StringIO()
    buf.write(f"# fuotacast {schema} v{SCHEMA_VERSION}\n")
    buf.write(f"# fingerprint={fingerprint} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow([_fmt(getattr(row, attr)) for _, attr in columns])
    path.write_text(buf.getvalue())


def _read_csv(path: Path) -> tuple[str, list[dict]]:
    """Parse one of our CSVs; returns (schema line, rows as string dicts)."""
    lines = path.read_text().splitlines()
    schema = ""
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            if line.startswith("# fuotacast "):
                schema = line[2:].strip()
            body_start = i + 1
        else:
            break
    reader = csv.DictReader(lines[body_start:])
    return schema, list(reader)


def _load_spec(args) -> ExperimentSpec:
    if args.config is None:
        raise ConfigError("a config file is required; pass --config <path>")
    spec = load_config(args.config)
    runs = getattr(args, "runs", None)
    if runs is not None and runs < 1:
        raise ConfigError("--runs must be at least 1")
    if args.seed is not None:
        try:
            spec = dataclasses.replace(spec, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    return spec


def _out_dir(args, spec: ExperimentSpec) -> Path:
    out = Path(args.out) if args.out is not None else Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(args, spec: ExperimentSpec, out: Path, command: str, mode: str,
                   csvs) -> None:
    """Write each ``(schema, columns, rows)`` of ``csvs`` to ``<schema>.csv``
    in ``out``, then the manifest that lists them."""
    fp = spec.fingerprint()
    for schema, columns, rows in csvs:
        _write_csv(out / f"{schema}.csv", schema, columns, rows, fp, spec.seed)
    runs = getattr(args, "runs", None)
    manifest = {
        "command": command,
        "config": str(args.config),
        "config_fingerprint": fp,
        "mode": mode,
        "name": spec.name,
        "outputs": [f"{schema}.csv" for schema, _, _ in csvs],
        "runs": 0 if mode == "analysis" else (runs if runs is not None else spec.sim.runs),
        "schema_version": SCHEMA_VERSION,
        "seed": spec.seed,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (out / "manifest.json").write_text(text)


def _run_suite_verb(args, mode: Optional[str]) -> int:
    from . import benchmarks

    spec = _load_spec(args)
    if mode is None:
        mode = spec.mode
    out = _out_dir(args, spec)
    rows, summaries = benchmarks.run_suite(
        spec, mode, runs=getattr(args, "runs", None), seed=spec.seed
    )
    command = "analyze" if mode == "analysis" else "simulate"
    _write_outputs(args, spec, out, command, mode, [
        ("distance_curves", DISTANCE_COLUMNS, rows),
        ("scheme_averages", AVERAGE_COLUMNS, summaries),
    ])
    incomplete = sum(s.incomplete_sessions for s in summaries) + sum(
        s.unfinished_recipients for s in summaries
    )
    if mode != "analysis" and incomplete:
        print(
            f"warning: incomplete simulation ({incomplete} flagged events); "
            f"outputs written to {out}",
            file=sys.stderr,
        )
        return 4
    print(f"wrote {out / 'distance_curves.csv'} and {out / 'scheme_averages.csv'}")
    return 0


def _cmd_analyze(args) -> int:
    return _run_suite_verb(args, "analysis")


def _cmd_simulate(args) -> int:
    return _run_suite_verb(args, args.mode)


def _cmd_sweep(args) -> int:
    from . import benchmarks

    spec = _load_spec(args)
    out = _out_dir(args, spec)
    rows = benchmarks.sweep_grid(spec)
    _write_outputs(args, spec, out, "sweep", "analysis", [("sweep", SWEEP_COLUMNS, rows)])
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} grid points)")
    return 0


def _cmd_lifetime(args) -> int:
    from . import benchmarks

    spec = _load_spec(args)
    out = _out_dir(args, spec)
    mode = args.mode or "analysis"
    rows = benchmarks.lifetime_rows(spec, mode, runs=args.runs, seed=spec.seed)
    _write_outputs(args, spec, out, "lifetime", mode, [("lifetime", LIFETIME_COLUMNS, rows)])
    if mode == "sim" and any(r.reachable and math.isnan(r.lifetime_years) for r in rows):
        print("warning: some locations produced no completed recipients", file=sys.stderr)
        return 4
    print(f"wrote {out / 'lifetime.csv'} ({len(rows)} rows)")
    return 0


def _parse_cell(text: Optional[str]) -> Optional[float]:
    if text is None or text.strip() == "":
        return None
    return float(text)


def _metric_variants(columns: Sequence[str]) -> dict[str, list[str]]:
    """Group metric columns by base name, stripping _analysis/_sim tags."""
    out: dict[str, list[str]] = {}
    for col in columns:
        if col in _KEY_COLUMNS or col in _BOOKKEEPING or col.endswith("_stderr"):
            continue
        base = col
        for tag in ("_analysis", "_sim"):
            if col.endswith(tag):
                base = col[: -len(tag)]
                break
        out.setdefault(base, []).append(col)
    return out


def _cmd_compare(args) -> int:
    path_a, path_b = Path(args.analysis_csv), Path(args.sim_csv)
    try:
        schema_a, rows_a = _read_csv(path_a)
        schema_b, rows_b = _read_csv(path_b)
    except OSError as exc:
        print(f"config error: cannot read input: {exc}", file=sys.stderr)
        return 2
    if not rows_a or not rows_b:
        print("config error: empty comparison input", file=sys.stderr)
        return 2
    tol = args.tolerance

    cols_a = list(rows_a[0].keys())
    cols_b = list(rows_b[0].keys())
    keys = [c for c in _KEY_COLUMNS if c in cols_a and c in cols_b]
    if not keys:
        print("config error: comparison inputs share no key columns", file=sys.stderr)
        return 2

    def index(rows):
        return {tuple(r[k] for k in keys): r for r in rows}

    by_key_a, by_key_b = index(rows_a), index(rows_b)
    shared = [k for k in by_key_a if k in by_key_b]
    missing = [k for k in by_key_a if k not in by_key_b] + [
        k for k in by_key_b if k not in by_key_a
    ]

    def nonempty(col, rows):
        return any(r.get(col, "").strip() for r in rows)

    # Column pairing, per metric: every column filled in both files is
    # checked against itself, so identical inputs always pass. On top of
    # that, closed-form values in the first file are checked against
    # simulated values in the second, unless both files already carry both
    # kinds (then the same-column checks cover everything).
    variants_a = _metric_variants(cols_a)
    variants_b = _metric_variants(cols_b)
    pairs: list[tuple[str, str]] = []
    for base in sorted(set(variants_a) & set(variants_b)):
        live_a = [c for c in variants_a[base] if nonempty(c, rows_a)]
        live_b = [c for c in variants_b[base] if nonempty(c, rows_b)]
        pairs.extend((c, c) for c in live_a if c in live_b)
        ana_col, sim_col = f"{base}_analysis", f"{base}_sim"
        both_double = {ana_col, sim_col} <= set(live_a) and {ana_col, sim_col} <= set(live_b)
        if ana_col in live_a and sim_col in live_b and not both_double:
            pairs.append((ana_col, sim_col))

    if not pairs:
        print("config error: no comparable metric columns", file=sys.stderr)
        return 2

    failures = len(missing)
    for key in missing:
        print(f"MISSING   row {dict(zip(keys, key))} present in only one input")
    for col_a, col_b in pairs:
        label = col_a if col_a == col_b else f"{col_a} vs {col_b}"
        worst, compared = 0.0, 0
        for key in shared:
            a = _parse_cell(by_key_a[key].get(col_a))
            b = _parse_cell(by_key_b[key].get(col_b))
            if a is None and b is None:
                continue
            if a is None or b is None:
                failures += 1
                print(f"MISSING   {label} at {dict(zip(keys, key))}: one side empty")
                continue
            rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
            worst = max(worst, rel)
            compared += 1
            if rel > tol:
                failures += 1
                print(
                    f"EXCEEDED  {label} at {dict(zip(keys, key))}: "
                    f"{a!r} vs {b!r}, rel err {rel:.3e} > {tol:g}"
                )
        print(f"checked   {label}: {compared} rows, max rel err {worst:.3e}")
    if failures:
        print(f"COMPARE FAIL ({failures} problems, tolerance {tol:g})")
        return 1
    print(f"COMPARE PASS (tolerance {tol:g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuotacast",
        description="Multicast firmware delivery: closed-form models and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default from config)")

    p = sub.add_parser("analyze", help="closed-form metrics only, no rng")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo metrics")
    common(p)
    p.add_argument("--runs", type=int, default=None, help="override session count")
    p.add_argument(
        "--mode", choices=("analysis", "simulate", "both"), default=None,
        help="override the config mode",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="design grid for the ramp scheme")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lifetime", help="battery lifetime table")
    common(p)
    p.add_argument("--runs", type=int, default=None, help="override session count")
    p.add_argument("--mode", choices=("analysis", "sim"), default=None)
    p.set_defaults(func=_cmd_lifetime)

    p = sub.add_parser("compare", help="check two result CSVs against a tolerance")
    p.add_argument("analysis_csv", help="first CSV (reference)")
    p.add_argument("sim_csv", help="second CSV (candidate)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="max relative error per row (default 0.10)")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
