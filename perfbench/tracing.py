"""In-memory span tracing for the traced benchmark run.

Wrappers are installed on the module attribute through which callers look a
function up (``fuotacast.analysis.interferer_count_weights``, not the
``channel`` original), so calls made inside the program are caught too. Each
span records its name, start, end, parent and op id; a span's self time is
its duration minus the durations of its direct children. A function that no
longer exists is listed as absent and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

INTEGRAND_NODES = 600  # 16- and 24-point Gauss-Legendre rules on 15 panels
SEGMENTS = 2  # preamble and whole frame
SF_ROWS = 6


def _window(result) -> dict:
    counts, _ = result
    return {"channel.count_window": len(counts)}


def _integrand_evals(result) -> dict:
    # computed from the table's count window, not counted inside the quadrature
    window = len(result.count_values)
    return {"analysis.integrand_evals": window * SF_ROWS * SEGMENTS * INTEGRAND_NODES}


def _session(result) -> dict:
    outcomes = result.outcomes
    return {
        "sim.recipient_frames": sum(
            o.attempts_full + o.attempts_preamble_only for o in outcomes
        ),
        "sim.frames_sent": result.transmissions,
        "sim.unfinished_recipients": sum(not o.completed for o in outcomes),
    }


# (module, attribute callers look up, layer name, counters from the result)
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("fuotacast.cli", "load_config", "config.load_config", None),
    ("fuotacast.analysis", "interferer_count_weights", "channel.interferer_count_weights", _window),
    ("fuotacast.analysis", "success_tables", "analysis.success_tables", _integrand_evals),
    ("fuotacast.analysis", "evaluate_proposed", "analysis.evaluate_proposed", None),
    ("fuotacast.analysis", "evaluate_fixed_sf", "analysis.evaluate_fixed_sf", None),
    ("fuotacast.analysis", "assign_group_sf", "analysis.assign_group_sf", None),
    ("fuotacast.analysis", "group_assignment_map", "analysis.group_assignment_map", None),
    ("fuotacast.sim", "run_session", "sim.run_session", _session),
    ("fuotacast.sim", "run_experiment", "sim.run_experiment", None),
    ("fuotacast.benchmarks", "run_suite", "benchmarks.run_suite", None),
    ("fuotacast.benchmarks", "build_tables", "benchmarks.build_tables", None),
    ("fuotacast.benchmarks", "sweep_grid", "benchmarks.sweep_grid", None),
    ("fuotacast.benchmarks", "lifetime_rows", "benchmarks.lifetime_rows", None),
)
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op's root
    op: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pending: list[tuple[int, Callable, object]] = []

    def _enter(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _leave(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, op: int, fn: Callable, *args):
        """Run one op under a root span."""
        self.op = op
        span = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._leave(span)

    def settle(self) -> None:
        """Apply the counters to the results the last op returned; called
        after the op's clock stops, so counting costs no span any time."""
        for op, counter, result in self._pending:
            try:
                counted = counter(result)
            except (AttributeError, TypeError, ValueError):
                counted = {}
            for key, value in counted.items():
                self.counts[op][key].append(int(value))
        self._pending.clear()

    def _wrap(self, original: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(span)
            if counter is not None:
                self._pending.append((self.op, counter, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: list[list[int]], op_wall: dict[int, float]) -> dict:
    """Per-layer figures over the traced rounds (lists of op ids).

    Counts and self times are per round (the median over rounds); ``p50_s``
    is the median inclusive duration over every call. All spans' self times
    of an op sum to its root span, which is timed around the same call as
    its wall time; ``trace.accounted_share`` is therefore the share of wall
    time inside the wrapped layers, the rest being ``cli.main`` self time.
    """
    own = tracer.self_times()
    round_of = {op: r for r, ops in enumerate(rounds) for op in ops}
    calls = defaultdict(lambda: [0] * len(rounds))
    self_s = defaultdict(lambda: [0.0] * len(rounds))
    durations = defaultdict(list)
    accounted = defaultdict(float)
    for span, s_own in zip(tracer.spans, own):
        r = round_of[span.op]
        calls[span.name][r] += 1
        self_s[span.name][r] += s_own
        durations[span.name].append(span.end - span.start)
        if span.parent >= 0:
            accounted[span.op] += s_own
    counted = defaultdict(lambda: [0] * len(rounds))
    window = []
    for op, per_op in tracer.counts.items():
        for key, values in per_op.items():
            counted[key][round_of[op]] += sum(values)
        window.extend(per_op.get("channel.count_window", []))

    def ratio(num: list, den: list) -> float:
        return _median(n / d if d > 0 else 0.0 for n, d in zip(num, den))

    names = [ROOT] + [name for _, _, name, _ in LAYERS]
    out = {}
    for name in names:
        out[f"{name}.calls"] = _median(calls[name])
        out[f"{name}.self_s"] = _median(self_s[name])
        out[f"{name}.p50_s"] = _median(durations[name])
    for key in (
        "analysis.integrand_evals", "sim.recipient_frames", "sim.frames_sent",
        "sim.unfinished_recipients",
    ):
        out[key] = _median(counted[key])
    out["channel.count_window"] = _median(window)
    out["analysis.integrand_evals_per_s"] = ratio(
        counted["analysis.integrand_evals"], self_s["analysis.success_tables"]
    )
    out["sim.recipient_frames_per_s"] = ratio(
        counted["sim.recipient_frames"], self_s["sim.run_session"]
    )
    out["trace.accounted_share"] = _median(accounted[op] / op_wall[op] for op in round_of)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds of the packages the set-up pays for.

    scipy loads ``scipy.stats`` and ``scipy.special`` lazily, so they have no
    line of their own; a package's figure is the summed cumulative time of
    its outermost modules in the import tree, which counts the dependencies
    it imported first and leaves out those already loaded.
    """
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        lines.append((depth, name, int(fields[0]) / 1e6, int(fields[1]) / 1e6))
    # lines come children first; walking backwards meets each parent first
    parents: list[str] = []
    ancestors: list[tuple[int, str]] = []
    for depth, name, _, _ in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parents.append(ancestors[-1][1] if ancestors else "")
        ancestors.append((depth, name))
    parents.reverse()

    def package(prefix: str) -> float:
        def inside(name: str) -> bool:
            return name == prefix or name.startswith(prefix + ".")

        return sum(
            cum for (_, name, _, cum), parent in zip(lines, parents)
            if inside(name) and not inside(parent)
        )

    return {
        "total_s": package("fuotacast"),
        "scipy.stats_s": package("scipy.stats"),
        "scipy.special_s": package("scipy.special"),
        "numpy_s": package("numpy"),
        "yaml_s": package("yaml"),
        "fuotacast_self_s": sum(
            own for _, name, own, _ in lines
            if name == "fuotacast" or name.startswith("fuotacast.")
        ),
    }
