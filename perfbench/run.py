"""Benchmark of the fuotacast CLI verbs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the program from ``src/``.
One process drives a closed loop with one caller: each op is one call of
``fuotacast.cli.main`` on a freshly generated config, and the next op starts
when the previous one returns. A round is one op of each of the workload's
verbs followed by the two untimed known-defect probes; rounds start until
``--seconds`` have passed. Every op's outputs are checked (see checks.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced rounds, so the tracing overhead is
the traced rounds against the untraced ones. The last line of standard
output is one JSON object; the lines before it describe the machine, the
command and every timing with its sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

IMPORTTIME_SAMPLES = 3
SETUP_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import fuotacast\n"
    "from fuotacast.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_op_share", "share"),
)

PER_LAYER = (
    ("import.total_s", "s"),
    ("import.scipy.stats_s", "s"),
    ("import.scipy.special_s", "s"),
    ("import.numpy_s", "s"),
    ("import.yaml_s", "s"),
    ("import.fuotacast_self_s", "s"),
    ("config.load_config.p50_s", "s"),
    ("config.load_config.calls", "count"),
    ("channel.interferer_count_weights.self_s", "s"),
    ("channel.count_window", "count"),
    ("analysis.success_tables.calls", "count"),
    ("analysis.success_tables.self_s", "s"),
    ("analysis.success_tables.p50_s", "s"),
    ("analysis.integrand_evals", "computed-count"),
    ("analysis.integrand_evals_per_s", "1/s"),
    ("analysis.evaluate_proposed.calls", "count"),
    ("analysis.evaluate_proposed.self_s", "s"),
    ("analysis.evaluate_fixed_sf.self_s", "s"),
    ("analysis.assign_group_sf.calls", "count"),
    ("analysis.assign_group_sf.self_s", "s"),
    ("analysis.group_assignment_map.self_s", "s"),
    ("sim.run_session.calls", "count"),
    ("sim.run_session.self_s", "s"),
    ("sim.run_session.p50_s", "s"),
    ("sim.recipient_frames", "count"),
    ("sim.recipient_frames_per_s", "1/s"),
    ("sim.frames_sent", "count"),
    ("sim.run_experiment.self_s", "s"),
    ("sim.unfinished_recipients", "count"),
    ("sim.recipient_sessions_per_s", "1/s"),
    ("benchmarks.run_suite.self_s", "s"),
    ("benchmarks.build_tables.self_s", "s"),
    ("benchmarks.sweep_grid.self_s", "s"),
    ("benchmarks.lifetime_rows.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_share", "share"),
    ("trace.accounted_share", "share"),
)

@dataclass
class OpRecord:
    op_id: int
    verb: str
    wall_s: float
    problems: list[str]
    bytes_written: int = 0
    sessions: int = 0


@dataclass
class Round:
    traced: bool
    ops: list[OpRecord] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{base}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_sample(config: Path) -> float:
    """A fresh interpreter timing ``import fuotacast`` plus a first load_config."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(config)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def import_layers() -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fuotacast"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(tracing.parse_importtime(done.stderr))
    return {f"import.{key}": _median(r[key] for r in runs) for key in runs[0]}


class Runner:
    """Runs ops through ``fuotacast.cli.main`` and checks their outputs."""

    def __init__(self, workload, factory, tracer=None):
        from fuotacast import cli

        self.cli = cli
        self.main = cli.main  # the unwrapped entry point, for probes and compare
        self.workload = workload
        self.factory = factory
        self.tracer = tracer
        self.agreement = {}
        if workload.agreement:
            table = json.loads((REFERENCE / "agreement.json").read_text())
            self.agreement = table[workload.agreement]["schemes"]
        self.ops = 0
        self.inputs: set[str] = set()  # physical inputs of every op so far
        self.reference_problems: list[str] = []
        self.reference_failed = 0
        self.probe_codes: list[int] = []
        self.probes_ok = 0

    def _call(self, op, traced: bool) -> tuple[int, float, str]:
        out, err = io.StringIO(), io.StringIO()
        self.ops += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if traced:
                    rc = self.tracer.call(self.ops, self.cli.main, op.argv)
                else:
                    rc = self.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the op failed; keep the loop running and report it
                rc = -1
                traceback.print_exc()
            wall = time.perf_counter() - start
        if traced:
            self.tracer.settle()
        return rc, wall, err.getvalue()

    def _finish(self, op) -> None:
        shutil.rmtree(op.out, ignore_errors=True)
        op.config.unlink(missing_ok=True)

    def timed(self, verb, traced: bool) -> OpRecord:
        op = self.factory.jittered(verb)
        rc, wall, err = self._call(op, traced)
        problems = checks.check_outputs(op, rc)
        if rc != 0 and err.strip():
            problems.append(err.strip().splitlines()[-1])
        if op.inputs in self.inputs:
            problems.append("physical inputs repeat an earlier op")
        self.inputs.add(op.inputs)
        record = OpRecord(self.ops, verb.verb, wall, problems)
        if verb.verb == "simulate":
            runs = self.workload.sim_runs
            record.sessions = op.spec["layout"]["recipients"] * runs * len(op.spec["schemes"])
            if not problems:
                record.problems += checks.check_agreement(op, self.agreement, runs)
        if op.out.is_dir():
            record.bytes_written = sum(p.stat().st_size for p in op.out.iterdir())
        self._finish(op)
        return record

    def probe(self, verb) -> None:
        op = self.factory.jittered(verb)
        rc, _, _ = self._call(op, traced=False)
        problems = checks.check_outputs(op, rc)
        self.probe_codes.append(rc)
        self.probes_ok += not problems
        self._finish(op)

    def reference(self) -> None:
        """Analysis-only ops on the un-jittered scenario and the default seed,
        checked against the stored reference through ``fuotacast compare``."""
        stored = REFERENCE / self.workload.reference
        for verb in self.workload.verbs:
            op = self.factory.reference(verb)
            self.inputs.add(op.inputs)
            rc, _, err = self._call(op, traced=False)
            problems = checks.check_outputs(op, rc)
            if rc != 0 and err.strip():
                problems.append(err.strip().splitlines()[-1])
            if not problems:
                tolerance = workloads.reference_tolerance(op.spec)
                for schema in checks.OUTPUTS[op.verb.verb]:
                    problems += checks.compare_reference(
                        self.main, stored / f"{schema}.csv", op.out / f"{schema}.csv", tolerance
                    )
            self.reference_problems += [f"reference {verb.verb}: {p}" for p in problems]
            self.reference_failed += bool(problems)
            self._finish(op)


def run_rounds(runner: Runner, seconds: float, trace: bool, midway=None) -> list[Round]:
    """Rounds for about ``seconds``: a round starts while a typical round,
    probes included, would end no more than half its length past the
    deadline. ``midway`` runs once, between rounds, after half the time."""
    rounds: list[Round] = []
    cycles: list[float] = []
    minimum = 2 if trace else 1
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(rounds) >= minimum and now + _median(cycles) / 2 > start + seconds:
            break
        if midway is not None and now - start >= seconds / 2:
            midway()
            midway = None
            start += time.perf_counter() - now  # the pause is not measuring time
            now = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        current = Round(traced)
        if traced:
            runner.tracer.install()
        try:
            for verb in runner.workload.verbs:
                current.ops.append(runner.timed(verb, traced))
        finally:
            if traced:
                runner.tracer.uninstall()
        for verb in workloads.PROBES:
            runner.probe(verb)
        rounds.append(current)
        cycles.append(time.perf_counter() - now)
    return rounds


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, where
    that percentile lies above the median."""
    if len(values) <= 20:
        return "n/a (20 samples or fewer)"
    ordered = sorted(values)
    k = len(ordered) - 11
    return f"p{100.0 * (k + 1) / len(ordered):.0f}={ordered[k]!r} s"


def describe(rounds: list[Round], runner: Runner) -> None:
    by_verb: dict[str, list[float]] = {}
    for rnd in rounds:
        if rnd.traced:
            continue
        for op in rnd.ops:
            by_verb.setdefault(op.verb, []).append(op.wall_s)
    for verb, walls in by_verb.items():
        print(f"op {verb}: n={len(walls)} median={_median(walls)!r} s tail {tail(walls)}")
    codes = {}
    for rc in runner.probe_codes:
        codes[rc] = codes.get(rc, 0) + 1
    print(
        f"probes: {len(runner.probe_codes)} run, "
        f"{len(runner.probe_codes) - runner.probes_ok} failed, exit codes {codes}"
    )


def end_to_end(rounds, runner, setup) -> dict[str, float]:
    timed = [op for rnd in rounds for op in rnd.ops]
    attempted = len(timed) + len(runner.probe_codes)
    ok = sum(not op.problems for op in timed) + runner.probes_ok
    return {
        "setup_s": _median(setup),
        "round_s": _median(rnd.wall_s for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_share": ok / attempted,
    }


def per_layer(rounds, runner, imports) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    wall = {op.op_id: op.wall_s for r in traced for op in r.ops}
    layers = tracing.layer_metrics(
        runner.tracer, [[op.op_id for op in r.ops] for r in traced], wall
    )
    sim_ops = [op for r in plain for op in r.ops if op.sessions]
    sim_wall = sum(op.wall_s for op in sim_ops)
    derived = {
        "sim.recipient_sessions_per_s": (
            sum(op.sessions for op in sim_ops) / sim_wall if sim_wall > 0 else 0.0
        ),
        "cli.bytes_written": _median(sum(op.bytes_written for op in r.ops) for r in traced),
        "trace.overhead_share": (
            _median(r.wall_s for r in traced) / _median(r.wall_s for r in plain) - 1.0
        ),
    }
    figures = {**layers, **imports, **derived}
    out = {name: figures[name] for name, _ in PER_LAYER}
    print(f"traced rounds: n={len(traced)}, untraced: n={len(plain)}")
    if runner.tracer.absent:
        print(f"absent layers (reported as 0): {', '.join(runner.tracer.absent)}")
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuotacast" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("command: " + " ".join([Path(sys.executable).name, *sys.argv]))
    print("machine: " + json.dumps(machine(), sort_keys=True))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        factory = workloads.OpFactory(args.seed, work)
        runner = Runner(workload, factory, tracing.Tracer() if args.trace else None)
        runner.reference()
        if args.trace:
            extra = import_layers()
            rounds = run_rounds(runner, args.seconds, True)
        else:
            # set-up samples before, halfway through and after the rounds
            config = factory.reference(workload.verbs[0]).config
            extra = [setup_sample(config)]
            rounds = run_rounds(
                runner, args.seconds, False, lambda: extra.append(setup_sample(config))
            )
            extra.append(setup_sample(config))
            print(f"setup: n={len(extra)} samples {extra!r} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    describe(rounds, runner)
    print(f"rounds: n={len(rounds)} median={_median(r.wall_s for r in rounds)!r} s")
    timed = [op for rnd in rounds for op in rnd.ops]
    problems = runner.reference_problems + [
        f"op {op.op_id} {op.verb}: {p}" for op in timed for p in op.problems
    ]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = sum(bool(op.problems) for op in timed) + runner.reference_failed
    attempted = len(timed) + len(workload.verbs)

    if args.trace:
        values, units = per_layer(rounds, runner, extra), dict(PER_LAYER)
    else:
        values, units = end_to_end(rounds, runner, extra), dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
