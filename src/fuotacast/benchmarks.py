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
from .config import ExperimentSpec
from .fec import RatelessModel
from .schemes import FixedSfScheme, GroupBasedScheme, ProposedScheme, Scheme


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


def _group_assignment(
    tables: dict[float, analysis.SuccessTables],
    spec: ExperimentSpec,
    scheme: GroupBasedScheme,
) -> dict[float, Optional[int]]:
    """Serving SF of a group-based scheme per tabulated distance, ``None``
    where no SF reaches it within the stream's frame budget."""
    code = scheme_code(spec, scheme)
    return analysis.assign_groups(
        tables,
        code.expected_fragments(),
        spec.phy,
        scheme.criterion,
        duty_cycle_max_percent=spec.network.duty_cycle_max_percent,
        options=spec.analysis,
        max_expected_attempts=sim.attempts_cap(spec, code),
    )


def _gb_metrics(
    tables: dict[float, analysis.SuccessTables],
    spec: ExperimentSpec,
    scheme: GroupBasedScheme,
    needed: float,
) -> dict[float, tuple[float, float]]:
    """Per-distance (energy J, delivery time s) under sequential groups.

    A recipient's delivery time stacks the full durations of every earlier
    (lower-SF) group on top of its own expected completion; its energy is
    only its own group's listening. Group durations are set by the group's
    farthest member. Unreachable distances map to nan pairs.
    """
    phy, net = spec.phy, spec.network
    opts, dc = spec.analysis, net.duty_cycle_max_percent
    assignment = _group_assignment(tables, spec, scheme)
    groups: dict[int, list[float]] = {}
    for d, sf in assignment.items():
        if sf is not None:
            groups.setdefault(sf, []).append(d)
    duration = {}
    for sf, ds in groups.items():
        boundary = tables[max(ds)]
        duration[sf] = (
            needed / boundary.mean_frame_success(sf)
        ) * analysis.duty_slot_s(phy, sf, boundary.payload_bytes, dc)
    out = {}
    for d, tab in tables.items():
        sf = assignment[d]
        if sf is None:
            out[d] = (float("nan"), float("nan"))
            continue
        attempts = needed / tab.mean_frame_success(sf)
        energy = attempts * tab.mean_attempt_energy(sf, phy, opts.energy_formula)
        wait = sum(t for s, t in duration.items() if s < sf)
        own = attempts * analysis.duty_slot_s(phy, sf, tab.payload_bytes, dc)
        out[d] = (energy, wait + own)
    return out


def _analysis_metrics(
    tables: dict[float, analysis.SuccessTables],
    spec: ExperimentSpec,
    scheme: Scheme,
) -> dict[float, tuple[float, float]]:
    """Per-distance (energy J, delivery time s); nan pairs mark unreachable."""
    phy, net = spec.phy, spec.network
    opts, dc = spec.analysis, net.duty_cycle_max_percent
    code = scheme_code(spec, scheme)
    needed = code.expected_fragments()
    cap = float(sim.attempts_cap(spec, code))
    if isinstance(scheme, GroupBasedScheme):
        return _gb_metrics(tables, spec, scheme, needed)
    out = {}
    for d, tab in tables.items():
        try:
            if isinstance(scheme, ProposedScheme):
                res = analysis.evaluate_proposed(
                    tab, scheme, needed, phy, duty_cycle_max_percent=dc, options=opts
                )
                if res.expected_frames > cap:
                    raise analysis.UnreachableRecipientError(d, needed)
            elif isinstance(scheme, FixedSfScheme):
                s_mean = tab.mean_frame_success(scheme.sf)
                if s_mean <= 0.0 or needed / s_mean > cap:
                    raise analysis.UnreachableRecipientError(d, needed)
                res = analysis.evaluate_fixed_sf(
                    tab, scheme.sf, needed, phy, duty_cycle_max_percent=dc, options=opts
                )
            else:
                raise TypeError(f"unknown scheme {scheme!r}")
        except analysis.UnreachableRecipientError:
            out[d] = (float("nan"), float("nan"))
            continue
        out[d] = (res.energy_fragments_j, res.update_time_s)
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
    tables = build_tables(spec, grid) if mode != "simulate" or (grouped and on_grid) else None
    assignment_tables = tables
    if grouped and not on_grid:
        radius = spec.network.cell_radius_m
        assignment_tables = build_tables(spec, [radius * (j + 1) / 256 for j in range(256)])

    rows: list[DistanceRow] = []
    summaries: list[SchemeSummary] = []
    for scheme in spec.schemes:
        ana = _analysis_metrics(tables, spec, scheme) if mode != "simulate" else None
        res = None
        if mode != "analysis":
            assignment = None
            if isinstance(scheme, GroupBasedScheme):
                assignment = _group_assignment(assignment_tables, spec, scheme)
            res = sim.run_experiment(
                spec, scheme, runs=runs, seed=seed, code=scheme_code(spec, scheme),
                group_assignment=assignment,
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
    tables = build_tables(spec)
    phy = spec.phy
    opts, dc = spec.analysis, spec.network.duty_cycle_max_percent
    needed = spec.firmware.code.expected_fragments()
    cap = sim.attempts_cap(spec, spec.firmware.code)
    e_norm = analysis.normalization_energy_j(
        phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
    )
    # attempt energies and duty slots depend only on the table, not on (w, L)
    costs = [
        (tab, analysis.ramp_costs(tab, phy, dc, opts.energy_formula))
        for tab in tables.values()
    ]
    rows = []
    for min_sf in spec.sweep.min_sf:
        for w in spec.sweep.frames_per_round:
            scheme = ProposedScheme(min_sf=min_sf, max_sf=base.max_sf, frames_per_round=w)
            # averaged over the bins the design reaches, as in run_suite
            ee, dt = [], []
            for tab, cost in costs:
                try:
                    res = analysis.proposed_outcome(tab, scheme, needed, cost, options=opts)
                except analysis.UnreachableRecipientError:
                    continue
                if res.expected_frames > cap:
                    continue
                ee.append(res.energy_fragments_j / e_norm)
                dt.append(res.update_time_s / 3600.0)
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
    for lam in intensities:
        dense = dataclasses.replace(
            spec,
            network=dataclasses.replace(
                spec.network,
                interferers=dataclasses.replace(
                    spec.network.interferers, intensity_per_m2=float(lam)
                ),
            ),
        )
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
        assignment = _group_assignment(build_tables(spec, [distance_m]), spec, scheme)
        if assignment[distance_m] is None:
            raise analysis.UnreachableRecipientError(distance_m, code.expected_fragments())
    distances = np.full(spec.layout.recipients, distance_m)
    energies = []
    children = np.random.SeedSequence(seed).spawn(runs)
    for child in children:
        rng = np.random.default_rng(child)
        session = sim.run_session(
            spec, scheme, rng, group_assignment=assignment, distances=distances, code=code
        )
        energies.extend(session.energy_fragments_j[session.completed])
    if not energies:
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
        tables = build_tables(spec, [d]) if mode == "analysis" else None
        for scheme in spec.schemes:
            if mode == "analysis":
                energy = _analysis_metrics(tables, spec, scheme)[d][0]
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
