"""Workload definitions: the configs and argument lists each op runs.

Every op gets its own config and seed, drawn from the workload seed, so no
two ops share inputs and an in-process cache cannot fake a gain across ops
(a real CLI user pays each call in a fresh process). Density is jittered by
up to +-3 %. Analysis-only ops also shrink the cell radius by up to 4 %;
simulate ops keep the stock 1000 m, because a smaller cell moves bins across
the group-based SF boundaries and with them the measured sim-vs-analysis
bias, and a larger one starts to leave fixed-SF10 recipients unserved.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

STOCK_DENSITY = 5.0e-5
DENSE_DENSITY = 2.0e-3
STOCK_RADIUS = 1000.0
DEFAULT_SEED = 20240

# the stock six-scheme scenario (same content as configs/baseline.yaml)
STOCK = {
    "name": "perfbench-stock",
    "mode": "both",
    "schemes": [
        {"type": "proposed", "min_sf": 7, "max_sf": 12, "frames_per_round": 300},
        {"type": "fixed_sf", "sf": 10},
        {"type": "fixed_sf", "sf": 11},
        {"type": "fixed_sf", "sf": 12},
        {"type": "group_based", "criterion": "energy"},
        {"type": "group_based", "criterion": "latency"},
    ],
    "network": {"cell_radius_m": STOCK_RADIUS},
    "interferers": {"intensity_per_m2": STOCK_DENSITY},
    "layout": {"kind": "grid", "recipients": 100, "distance_bins": 10},
    "analysis": {"quadrature_rtol": 1.0e-8, "count_tail_mass": 1.0e-6},
}


def reference_tolerance(spec: dict) -> float:
    """Relative tolerance of the stored-reference check: ten times the
    quadrature refinement tolerance plus the cut Poisson tail mass."""
    opts = spec["analysis"]
    return 10.0 * (opts["quadrature_rtol"] + opts["count_tail_mass"])


def scenario(density: float = STOCK_DENSITY, recipients: int = 100, **sections) -> dict:
    """The stock scenario with a density, a group size and extra sections."""
    cfg = copy.deepcopy(STOCK)
    cfg["interferers"]["intensity_per_m2"] = density
    cfg["layout"]["recipients"] = recipients
    for key, value in sections.items():
        cfg.setdefault(key, {}).update(value)
    return cfg


@dataclass(frozen=True)
class Verb:
    """One CLI call: the verb, its extra flags, and the scenario it runs on."""

    verb: str
    flags: tuple[str, ...]
    base: dict

    def analysis_only(self) -> "Verb":
        """The same call with the simulator switched off."""
        if self.verb != "simulate":
            return self
        return Verb("simulate", ("--mode", "analysis"), self.base)


@dataclass(frozen=True)
class Workload:
    name: str
    verbs: tuple[Verb, ...]
    sim_runs: int = 0  # sessions per simulate op (0: no simulator)
    agreement: str = ""  # key of the sim-vs-analysis calibration table
    reference: str = ""  # key of the stored analysis reference


def _simulate(base: dict, runs: int) -> Verb:
    return Verb("simulate", ("--mode", "both", "--runs", str(runs)), base)


# Sessions per simulate op: at 80 the simulator is over 90 % of a stock op;
# one session of 10^4 recipients already takes seconds; at 2e-3 /m2 four
# sessions take somewhat longer than the analysis tables the op also builds.
STOCK_RUNS = 80
LARGE_RUNS = 1
DENSE_RUNS = 4

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analysis-stock",
            (
                Verb("analyze", (), scenario()),
                Verb("sweep", (), scenario()),
                Verb("lifetime", ("--mode", "analysis"), scenario()),
            ),
            reference="stock",
        ),
        Workload(
            "sim-stock",
            (_simulate(scenario(), STOCK_RUNS),),
            sim_runs=STOCK_RUNS,
            agreement="stock",
            reference="stock",
        ),
        Workload(
            "sim-large-n",
            (_simulate(scenario(recipients=10_000), LARGE_RUNS),),
            sim_runs=LARGE_RUNS,
            agreement="large-n",
            reference="stock",
        ),
        Workload(
            "dense-field",
            (
                Verb("analyze", (), scenario(DENSE_DENSITY)),
                _simulate(scenario(DENSE_DENSITY), DENSE_RUNS),
            ),
            sim_runs=DENSE_RUNS,
            agreement="dense",
            reference="dense",
        ),
    )
}


def _disc_group_scenario() -> dict:
    cfg = scenario(layout={"kind": "disc"})
    cfg["schemes"] = [{"type": "group_based", "criterion": "energy"}]
    return cfg


# Known-defect probes: both exit 3 at default settings on the seed commit,
# because the quadrature refinement fails at 2-30 m (the disc layout's group
# lattice starts at 3.9 m; 40 bins put the first one at 24-25 m). They run
# untimed, once per round, and count only in the op-success share.
PROBES = (
    Verb("simulate", ("--mode", "simulate", "--runs", "1"), _disc_group_scenario()),
    Verb("analyze", (), scenario(layout={"distance_bins": 40})),
)


@dataclass(frozen=True)
class Op:
    """A generated op: the argv for ``fuotacast.cli.main`` and its inputs."""

    verb: Verb
    config: Path
    out: Path
    seed: int
    spec: dict

    @property
    def argv(self) -> list[str]:
        return [
            self.verb.verb, "--config", str(self.config), "--out", str(self.out),
            "--seed", str(self.seed), *self.verb.flags,
        ]

    @property
    def inputs(self) -> str:
        """The physical inputs: the config without its name. The seed is left
        out, because the closed forms do not depend on it."""
        return json.dumps({k: v for k, v in self.spec.items() if k != "name"}, sort_keys=True)


class OpFactory:
    """Writes one fresh config per op into a work directory."""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.count = 0

    def _write(self, verb: Verb, spec: dict, seed: int) -> Op:
        self.count += 1
        tag = f"op{self.count:05d}-{verb.verb}"
        spec = dict(spec, name=f"perfbench-{tag}")
        path = self.work / f"{tag}.yaml"
        path.write_text(yaml.safe_dump(spec, sort_keys=True))
        return Op(verb, path, self.work / tag, seed, spec)

    def jittered(self, verb: Verb) -> Op:
        spec = copy.deepcopy(verb.base)
        spec["interferers"]["intensity_per_m2"] *= self.rng.uniform(0.97, 1.03)
        shrink = self.rng.uniform(0.96, 1.0)
        if verb.verb != "simulate":
            spec["network"]["cell_radius_m"] *= shrink
        return self._write(verb, spec, self.rng.randrange(1, 2**31))

    def reference(self, verb: Verb) -> Op:
        """The un-jittered scenario on the default seed, analysis only."""
        verb = verb.analysis_only()
        return self._write(verb, copy.deepcopy(verb.base), DEFAULT_SEED)
