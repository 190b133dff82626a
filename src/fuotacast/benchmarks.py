"""Side-by-side evaluation of every configured scheme.

Produces the per-distance rows, per-scheme averages, design-parameter
sweeps, traffic-density sweeps, and battery-lifetime rows that the CLI
serializes. All schemes share one recipient layout, one channel, and (in
simulation) one seed, so comparisons are paired.

The fixed-SF and group-based baselines are evaluated with an ideal decoder
(exactly ``fragments`` receptions complete the image): their published
descriptions predate rateless delivery, and charging them the coded
overhead would tilt every comparison toward the ramp scheme. The ramp
scheme itself uses the configured code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import analysis, lifetime, sim
from .config import ExperimentSpec, spec_from_mapping
from .fec import RatelessModel
from .phy import ALL_SFS
from .schemes import GroupBasedScheme, ProposedScheme, Scheme, Segment, session_plan


@dataclass(frozen=True)
class DistanceRow:
    distance_m: float
    scheme: str
    reachable: bool
    ee_norm_analysis: float = float("nan")
    dt_hours_analysis: float = float("nan")
    ee_norm_sim: float = float("nan")
    ee_norm_sim_stderr: float = float("nan")
    dt_hours_sim: float = float("nan")
    dt_hours_sim_stderr: float = float("nan")


@dataclass(frozen=True)
class SchemeSummary:
    scheme: str
    avg_ee_norm_analysis: float = float("nan")
    avg_dt_hours_analysis: float = float("nan")
    avg_ee_norm_sim: float = float("nan")
    avg_dt_hours_sim: float = float("nan")
    unreachable_bins: int = 0
    incomplete_sessions: int = 0
    unfinished_recipients: int = 0


@dataclass(frozen=True)
class SweepRow:
    frames_per_round: int
    min_sf: int
    avg_ee_norm: float
    avg_dt_hours: float


@dataclass(frozen=True)
class DensityRow:
    intensity_per_m2: float
    scheme: str
    avg_ee_norm: float
    avg_dt_hours: float


@dataclass(frozen=True)
class LifetimeRow:
    location: str
    scheme: str
    distance_m: float
    uplink_sf: int
    rx_hours_per_update: float
    lifetime_years: float
    reachable: bool = True


def scheme_code(spec: ExperimentSpec, scheme: Scheme) -> RatelessModel:
    """The decode model each scheme is charged with (ideal for baselines)."""
    if isinstance(scheme, ProposedScheme):
        return spec.firmware.code
    return dataclasses.replace(spec.firmware.code, mode="ideal")


def build_tables(
    spec: ExperimentSpec,
    distances: Optional[Sequence[float]] = None,
    intensity_per_m2: Optional[float] = None,
) -> dict[float, analysis.SuccessTables]:
    """Success tables on the reporting grid, keyed by distance."""
    field = spec.network.interferers
    if intensity_per_m2 is not None:
        field = dataclasses.replace(field, intensity_per_m2=intensity_per_m2)
    if distances is None:
        distances = spec.grid_distances()
    return {
        float(d): analysis.success_tables(
            float(d),
            spec.firmware.fragment_payload_bytes,
            spec.phy,
            spec.network.link,
            field,
            options=spec.analysis,
        )
        for d in distances
    }


def _costs(
    spec: ExperimentSpec, tables: dict[float, analysis.SuccessTables]
) -> dict[float, analysis.StreamCosts]:
    """The stream costs of each table, shared by every scheme and plan."""
    return {
        d: analysis.stream_costs(
            tab, spec.phy, spec.network.duty_cycle_max_percent, spec.analysis.energy_formula
        )
        for d, tab in tables.items()
    }


def _expected(
    segments: list[Segment], costs: analysis.StreamCosts, needed: float, spec: ExperimentSpec
) -> Optional[tuple[float, float]]:
    """Deconditioned (energy J, time s) of one stream at one distance, or
    ``None`` where the stream does not reach it."""
    try:
        energy, time, _ = analysis.evaluate_stream(
            segments, costs, needed, spec.analysis.eta_denominator
        )
    except analysis.UnreachableRecipientError:
        return None
    return float(costs.weights @ energy), float(costs.weights @ time)


def _group_assignment(
    costs: dict[float, analysis.StreamCosts],
    spec: ExperimentSpec,
    scheme: Scheme,
) -> Optional[dict[float, Optional[int]]]:
    """Serving SF per distance of ``costs`` for a group-based scheme;
    ``None`` for any other scheme.

    Each distance takes the SF whose one-SF stream, costed on the
    count-weighted mean table, is cheapest by the scheme's criterion, ties
    to the lower SF, among the SFs that reach it within the stream's frame
    budget. ``None`` marks a distance that no SF reaches.
    """
    if not isinstance(scheme, GroupBasedScheme):
        return None
    code = scheme_code(spec, scheme)
    needed, cap = code.expected_fragments(), sim.attempts_cap(spec, code)
    # the criterion picks energy or time from the deconditioned pair
    pick = ("energy", "latency").index(scheme.criterion)
    assignment = {}
    for d, at_d in costs.items():
        mean = at_d.mean()
        cost = {}
        for sf in ALL_SFS:
            res = _expected([(sf, cap)], mean, needed, spec)
            if res is not None:
                cost[sf] = res[pick]
        assignment[d] = min(cost, key=cost.get, default=None)
    return assignment


def _analysis_metrics(
    costs: dict[float, analysis.StreamCosts],
    spec: ExperimentSpec,
    scheme: Scheme,
) -> dict[float, tuple[float, float]]:
    """Per-distance (energy J, delivery time s) of the scheme's session
    plan; nan pairs mark unreachable distances.

    A group stream serves the distances assigned its SF, costed on their
    count-weighted mean tables; a stream without a group serves every
    distance on its per-count tables. A recipient's delivery time stacks
    the durations of the streams before its own, each the time of that
    stream's farthest member, on its own completion; its energy is its
    own stream's listening only.
    """
    code = scheme_code(spec, scheme)
    needed = code.expected_fragments()
    # a group-based plan serves each distance in the stream of its SF; the
    # one stream of any other plan serves them all
    assignment = _group_assignment(costs, spec, scheme) or dict.fromkeys(costs)
    group_sfs = [sf for sf in assignment.values() if sf is not None]
    out = dict.fromkeys(costs, (float("nan"), float("nan")))
    wait = 0
    for group_sf, segments in session_plan(scheme, sim.attempts_cap(spec, code), group_sfs):
        own = {}
        for d, sf in assignment.items():
            if sf != group_sf:
                continue
            res = _expected(
                segments, costs[d] if group_sf is None else costs[d].mean(), needed, spec
            )
            if res is not None:
                own[d] = res[1]
                out[d] = (res[0], wait + res[1])
        if own:
            wait += own[max(own)]
    return out


def run_suite(
    spec: ExperimentSpec,
    mode: Optional[str] = None,
    *,
    runs: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[list[DistanceRow], list[SchemeSummary]]:
    """Evaluate every configured scheme once; per-distance rows plus
    distance-averaged summaries.

    Every average runs over the bins where each engine of the run has a
    value: the bins the analysis reaches, those where some simulated
    recipient completed, or in ``both`` mode the bins with both, so the
    two engines are always averaged over the same bins. Unreachable bins
    are counted, never silently averaged.
    """
    mode = mode or spec.mode
    if mode not in ("analysis", "simulate", "both"):
        raise ValueError("mode must be 'analysis', 'simulate', or 'both'")
    grid = [float(d) for d in spec.grid_distances()]
    e_norm = analysis.normalization_energy_j(
        spec.phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
    )
    # group-based sessions take their SFs from the grid tables the closed
    # forms use; a disc layout's recipients take those of the nearest of
    # 256 evenly spaced distances out to the cell edge
    grouped = mode != "analysis" and any(
        isinstance(s, GroupBasedScheme) for s in spec.schemes
    )
    on_grid = spec.layout.kind == "grid"
    costs = None
    if mode != "simulate" or (grouped and on_grid):
        costs = _costs(spec, build_tables(spec, grid))
    assignment_costs = costs
    if grouped and not on_grid:
        radius = spec.network.cell_radius_m
        lattice = build_tables(spec, [radius * (j + 1) / 256 for j in range(256)])
        assignment_costs = _costs(spec, lattice)

    rows: list[DistanceRow] = []
    summaries: list[SchemeSummary] = []
    for scheme in spec.schemes:
        ana = _analysis_metrics(costs, spec, scheme) if mode != "simulate" else None
        res = None
        if mode != "analysis":
            res = sim.run_experiment(
                spec, scheme, runs=runs, seed=seed, code=scheme_code(spec, scheme),
                group_assignment=_group_assignment(assignment_costs, spec, scheme),
            )
        mine: list[DistanceRow] = []
        for i, d in enumerate(grid):
            kw = {}
            reachable = True
            if ana is not None:
                energy, time_s = ana[d]
                reachable = not math.isnan(energy)
                kw.update(
                    ee_norm_analysis=energy / e_norm, dt_hours_analysis=time_s / 3600.0
                )
            if res is not None:
                kw.update(
                    ee_norm_sim=res.ee_norm_mean[i],
                    ee_norm_sim_stderr=res.ee_norm_stderr[i],
                    dt_hours_sim=res.dt_hours_mean[i],
                    dt_hours_sim_stderr=res.dt_hours_stderr[i],
                )
                if ana is None:
                    reachable = not math.isnan(res.ee_norm_mean[i])
            mine.append(
                DistanceRow(distance_m=d, scheme=scheme.label, reachable=reachable, **kw)
            )
        rows.extend(mine)

        kw = {"unreachable_bins": sum(not r.reachable for r in mine)}
        engines = [tag for tag, ran in (("analysis", ana), ("sim", res)) if ran is not None]
        shared = [
            r for r in mine
            if not any(math.isnan(getattr(r, f"ee_norm_{tag}")) for tag in engines)
        ]
        for tag in engines:
            for metric in ("ee_norm", "dt_hours"):
                values = [getattr(r, f"{metric}_{tag}") for r in shared]
                kw[f"avg_{metric}_{tag}"] = float(np.mean(values)) if values else float("nan")
        if res is not None:
            kw.update(
                incomplete_sessions=res.incomplete_sessions,
                unfinished_recipients=res.unfinished_recipients,
            )
        summaries.append(SchemeSummary(scheme=scheme.label, **kw))
    return rows, summaries


def sweep_grid(spec: ExperimentSpec) -> list[SweepRow]:
    """Average EE and DT of the ramp scheme over the (w, L) design grid."""
    base = next(
        (s for s in spec.schemes if isinstance(s, ProposedScheme)), None
    )
    if base is None:
        raise ValueError("the design sweep needs a ramp scheme in the suite")
    needed = spec.firmware.code.expected_fragments()
    cap = sim.attempts_cap(spec, spec.firmware.code)
    e_norm = analysis.normalization_energy_j(
        spec.phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
    )
    # the per-SF costs depend only on the table, not on (w, L)
    costs = _costs(spec, build_tables(spec)).values()
    rows = []
    for min_sf in spec.sweep.min_sf:
        for w in spec.sweep.frames_per_round:
            scheme = ProposedScheme(min_sf=min_sf, max_sf=base.max_sf, frames_per_round=w)
            [(_, segments)] = session_plan(scheme, cap)
            # averaged over the bins the design reaches, as in run_suite
            reached = [_expected(segments, c, needed, spec) for c in costs]
            ee = [res[0] / e_norm for res in reached if res]
            dt = [res[1] / 3600.0 for res in reached if res]
            rows.append(
                SweepRow(
                    frames_per_round=int(w),
                    min_sf=int(min_sf),
                    avg_ee_norm=float(np.mean(ee)) if ee else float("nan"),
                    avg_dt_hours=float(np.mean(dt)) if dt else float("nan"),
                )
            )
    return rows


def density_sweep(
    spec: ExperimentSpec, intensities: Sequence[float]
) -> list[DensityRow]:
    """Distance-averaged metrics of every configured scheme per interferer
    density (the traffic-impact table shape)."""
    rows = []
    config = spec.to_dict()
    for lam in intensities:
        config["interferers"]["intensity_per_m2"] = float(lam)
        dense = spec_from_mapping(config)
        for summary in run_suite(dense, "analysis")[1]:
            rows.append(
                DensityRow(
                    intensity_per_m2=float(lam),
                    scheme=summary.scheme,
                    avg_ee_norm=summary.avg_ee_norm_analysis,
                    avg_dt_hours=summary.avg_dt_hours_analysis,
                )
            )
    return rows


def _location_energy_sim(
    spec: ExperimentSpec,
    scheme: Scheme,
    distance_m: float,
    runs: int,
    seed: int,
) -> float:
    """Mean per-recipient listening energy from sessions of a cohort pinned
    at one distance. Raises :class:`analysis.UnreachableRecipientError`
    when a group-based scheme has no SF that reaches the distance."""
    code = scheme_code(spec, scheme)
    assignment = None
    if isinstance(scheme, GroupBasedScheme):
        costs = _costs(spec, build_tables(spec, [distance_m]))
        assignment = _group_assignment(costs, spec, scheme)
        if assignment[distance_m] is None:
            raise analysis.UnreachableRecipientError(distance_m, code.expected_fragments())
    energies = np.concatenate([
        batch.energy_fragments_j[batch.completed]
        for batch in sim.session_batches(
            spec, scheme, runs, seed, group_assignment=assignment,
            distances=np.full(spec.layout.recipients, distance_m), code=code,
        )
    ])
    if energies.size == 0:
        return float("nan")
    return float(np.mean(energies))


def lifetime_rows(
    spec: ExperimentSpec,
    mode: str = "analysis",
    *,
    runs: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[LifetimeRow]:
    """Battery lifetime of each configured scheme at each duty location."""
    if mode not in ("analysis", "sim"):
        raise ValueError("mode must be 'analysis' or 'sim'")
    runs = runs if runs is not None else spec.sim.runs
    seed = seed if seed is not None else spec.seed
    phy, net, lt = spec.phy, spec.network, spec.lifetime
    rows = []
    for loc in lt.locations:
        d = loc.distance_fraction * net.cell_radius_m
        profile = lifetime.DutyProfile(
            battery_mah=lt.battery_mah,
            updates_per_month=lt.updates_per_month,
            uplink_period_hr=lt.uplink_period_hr,
            uplink_airtime_s=phy.frame_airtime(loc.uplink_sf, lt.uplink_payload_bytes),
            tx_current_ma=lt.tx_current_ma,
            rx_current_ma=lt.rx_current_ma,
            sleep_current_ma=lt.sleep_current_ma,
        )
        costs = _costs(spec, build_tables(spec, [d])) if mode == "analysis" else None
        for scheme in spec.schemes:
            if mode == "analysis":
                energy = _analysis_metrics(costs, spec, scheme)[d][0]
                reachable = not math.isnan(energy)
            else:
                # an unreachable location gets the analysis's nan row; a nan
                # from sessions that ran means no recipient completed
                try:
                    energy = _location_energy_sim(spec, scheme, d, runs, seed)
                    reachable = True
                except analysis.UnreachableRecipientError:
                    energy, reachable = float("nan"), False
            if math.isnan(energy):
                rows.append(
                    LifetimeRow(
                        location=loc.label, scheme=scheme.label, distance_m=d,
                        uplink_sf=loc.uplink_sf,
                        rx_hours_per_update=float("nan"),
                        lifetime_years=float("nan"),
                        reachable=reachable,
                    )
                )
                continue
            listen_j = energy + phy.rx_power_w * net.control_listen_s
            r_u = lifetime.rx_hours_per_update(listen_j, phy.rx_power_w)
            rows.append(
                LifetimeRow(
                    location=loc.label,
                    scheme=scheme.label,
                    distance_m=d,
                    uplink_sf=loc.uplink_sf,
                    rx_hours_per_update=r_u,
                    lifetime_years=lifetime.battery_lifetime_years(profile, r_u),
                )
            )
    return rows
