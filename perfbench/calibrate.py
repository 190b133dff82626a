"""Regenerate the stored references the benchmark checks against.

    python3 perfbench/calibrate.py

Run from the root of a checkout. It writes, under perfbench/reference/:

- ``<scenario>/<table>.csv``: the analysis outputs of the un-jittered
  scenarios on the default seed, for the ``fuotacast compare`` check;
- ``agreement.json``: per simulator workload, scheme, metric and bin, the
  relative bias of the simulated mean over the closed form, the relative
  standard deviation of one session's bin mean, and the standard error of
  that bias, from one long ``simulate --mode both`` run of
  ``SESSIONS[scenario]`` sessions.

Only rerun it when a change is meant to move the outputs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CALIBRATION_SEED = 7
SESSIONS = {"stock": 2000, "large-n": 40, "dense": 400}


def _run(main, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")


def write_references(main, work: Path) -> None:
    factory = workloads.OpFactory(0, work)
    done = set()
    for workload in workloads.WORKLOADS.values():
        for verb in workload.verbs:
            key = (workload.reference, verb.verb)
            if key in done:
                continue
            done.add(key)
            op = factory.reference(verb)
            _run(main, op.argv)
            target = HERE / "reference" / workload.reference
            target.mkdir(parents=True, exist_ok=True)
            for schema in checks.OUTPUTS[op.verb.verb]:
                shutil.copyfile(op.out / f"{schema}.csv", target / f"{schema}.csv")


def agreement(main, work: Path, workload, sessions: int) -> dict:
    verb = next(v for v in workload.verbs if v.verb == "simulate")
    factory = workloads.OpFactory(0, work)
    op = factory.reference(verb)
    argv = [
        "simulate", "--config", str(op.config), "--out", str(op.out),
        "--seed", str(CALIBRATION_SEED), "--mode", "both", "--runs", str(sessions),
    ]
    _run(main, argv)
    rows = checks.read_table(op.out / "distance_curves.csv")
    table: dict = {}
    for row in rows:
        per_scheme = table.setdefault(row["scheme"], {"EE_norm": [], "DT_hours": []})
        for metric in per_scheme:
            ana = float(row[f"{metric}_analysis"])
            sim = float(row[f"{metric}_sim"])
            stderr = float(row[f"{metric}_sim_stderr"])
            per_scheme[metric].append([
                sim / ana - 1.0,
                stderr * math.sqrt(sessions) / ana,
                stderr / ana,
            ])
    return {"sessions": sessions, "seed": CALIBRATION_SEED, "schemes": table}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fuotacast.cli import main as cli_main

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent))
    try:
        write_references(cli_main, work)
        table = {}
        for workload in workloads.WORKLOADS.values():
            if workload.agreement:
                table[workload.agreement] = agreement(
                    cli_main, work, workload, SESSIONS[workload.agreement]
                )
                print(f"calibrated {workload.agreement}", flush=True)
        path = HERE / "reference" / "agreement.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
