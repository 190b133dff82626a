#!/usr/bin/env python3
"""Count the simulator's work on the perfbench simulate ops.

For each workload of ``perfbench/workloads.py`` that simulates, run its
un-jittered ``simulate`` op once through ``fuotacast.cli.main`` and count

- ``batches``: calls of ``sim.run_session``, one per batch of sessions
- ``passes``: calls of ``sim._dirty_frame_verdicts``, one per sampler pass
- ``frames_judged``: detected frames with at least one overlap to judge,
  handed to ``sim._dirty_frame_verdicts`` (each gets a fading draw and
  overlap verdicts)
- ``verdict_blocks``: blocks of at most ``sim.VERDICT_BLOCK`` frames those
  passes judge, ``ceil(frames / VERDICT_BLOCK)`` per pass
- ``overlaps_judged``: interferer overlaps those frames hold, the summed
  size of ``sim._overlap_frames``' output (each gets an interferer, an SF
  and a capture verdict)

and the op's exit code. The three functions are wrapped in place; nothing
else changes. The script reads either form of the kernel's last argument: the
per-recipient ``dirty`` counts, or the per-frame ``owner`` array the kernel
took before passes were sized per recipient, so one script counts both
sides of either change.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python scripts/count_sim_work.py [--seed 7] [--workload sim-stock ...]

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from fuotacast import cli, sim  # noqa: E402


def count(workload: str, seed: int) -> dict:
    verb = next(v for v in workloads.WORKLOADS[workload].verbs if v.verb == "simulate")
    tally = {"batches": 0, "passes": 0, "frames_judged": 0, "verdict_blocks": 0,
             "overlaps_judged": 0}
    real_session, real_verdicts = sim.run_session, sim._dirty_frame_verdicts
    real_overlaps = sim._overlap_frames
    last_name = list(inspect.signature(real_verdicts).parameters)[-1]

    def counting_session(*args, **kwargs):
        tally["batches"] += 1
        return real_session(*args, **kwargs)

    def counting_verdicts(*args, **kwargs):
        last = args[-1]
        frames = int(last.size) if last_name == "owner" else int(last.sum())
        tally["frames_judged"] += frames
        tally["verdict_blocks"] += -(-frames // sim.VERDICT_BLOCK)
        tally["passes"] += 1
        return real_verdicts(*args, **kwargs)

    def counting_overlaps(*args, **kwargs):
        cell = real_overlaps(*args, **kwargs)
        tally["overlaps_judged"] += int(cell.size)
        return cell

    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "op.yaml"
        config.write_text(yaml.safe_dump(dict(verb.base, name=f"count-{workload}")))
        argv = [verb.verb, "--config", str(config), "--out", str(Path(work) / "out"),
                "--seed", str(seed), *verb.flags]
        sim.run_session, sim._dirty_frame_verdicts = counting_session, counting_verdicts
        sim._overlap_frames = counting_overlaps
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        finally:
            sim.run_session, sim._dirty_frame_verdicts = real_session, real_verdicts
            sim._overlap_frames = real_overlaps
    return dict(tally, exit_code=rc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        help="workload name; repeat for several (default: every simulating one)")
    args = parser.parse_args(argv)
    names = args.workload or [
        name for name, w in workloads.WORKLOADS.items()
        if any(v.verb == "simulate" for v in w.verbs)
    ]
    print(json.dumps({name: count(name, args.seed) for name in names}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
