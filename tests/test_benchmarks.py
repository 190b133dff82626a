"""Scheme-comparison harness: row shapes, averaging rules, and the sweep,
density, and lifetime table builders.

Frozen values were produced by this code and are pinned to catch silent
drift; the structural checks (group stacking, averaging over reachable
bins only) are recomputed from the analysis primitives independently of
the harness internals.
"""

import dataclasses
import math

import numpy as np
import pytest

from fuotacast import analysis, benchmarks, sim
from fuotacast.benchmarks import (
    DensityRow,
    DistanceRow,
    LifetimeRow,
    SchemeSummary,
    SweepRow,
)
from fuotacast.config import load_default_spec
from fuotacast.schemes import FixedSfScheme, GroupBasedScheme, ProposedScheme, session_plan

def _costs(spec, tab):
    return benchmarks._costs(spec, {tab.distance_m: tab})[tab.distance_m]


def _plan(scheme, cap):
    [(_, segments)] = session_plan(scheme, cap)
    return segments


SUITE_LABELS = ["proposed", "fsf-10", "fsf-11", "fsf-12", "gb-e", "gb-l"]

FROZEN_SUITE_AVERAGES = {
    "proposed": (11.790024203527716, 16.50267486370793),
    "fsf-10": (12.272436506699805, 23.209371480328496),
    "fsf-11": (16.532825715697662, 17.959025799868947),
    "fsf-12": (26.182150889823323, 20.246261457027707),
    "gb-e": (8.592194745077311, 34.41969073617228),
    "gb-l": (11.021518274650328, 26.90750053049153),
}
FROZEN_SWEEP_SPOT = (18.888561992729585, 17.031075226838585)
FROZEN_LIFETIME_SPOTS = {
    ("edge", "proposed"): 0.8493903437639059,
    ("near", "proposed"): 2.6978374157893694,
}


@pytest.fixture(scope="module")
def suite(spec):
    return benchmarks.run_suite(spec, "analysis")


class TestSuiteStructure:
    def test_row_and_summary_shapes(self, spec, suite):
        rows, summaries = suite
        assert len(rows) == len(spec.schemes) * len(spec.grid_distances())
        assert [s.scheme for s in summaries] == SUITE_LABELS
        grid = list(spec.grid_distances())
        for label in SUITE_LABELS:
            mine = [r for r in rows if r.scheme == label]
            assert [r.distance_m for r in mine] == grid

    def test_analysis_mode_leaves_sim_columns_empty(self, suite):
        rows, summaries = suite
        assert all(math.isnan(r.ee_norm_sim) for r in rows)
        assert all(math.isnan(s.avg_ee_norm_sim) for s in summaries)
        assert all(not math.isnan(r.ee_norm_analysis) for r in rows if r.reachable)

    def test_frozen_suite_averages(self, suite):
        _, summaries = suite
        for s in summaries:
            ee, dt = FROZEN_SUITE_AVERAGES[s.scheme]
            assert s.avg_ee_norm_analysis == pytest.approx(ee, rel=1e-9), s.scheme
            assert s.avg_dt_hours_analysis == pytest.approx(dt, rel=1e-9), s.scheme
            assert s.unreachable_bins == 0

    def test_averages_recompute_from_reachable_rows(self, suite):
        rows, summaries = suite
        for s in summaries:
            mine = [r for r in rows if r.scheme == s.scheme and r.reachable]
            assert s.avg_ee_norm_analysis == pytest.approx(
                float(np.mean([r.ee_norm_analysis for r in mine])), rel=1e-12
            )
            assert s.avg_dt_hours_analysis == pytest.approx(
                float(np.mean([r.dt_hours_analysis for r in mine])), rel=1e-12
            )

    def test_wrappers_split_run_suite(self, spec, suite):
        # the density sweep at the configured density is the suite's summary
        _, summaries = suite
        lam = spec.network.interferers.intensity_per_m2
        rows = benchmarks.density_sweep(spec, [lam])
        assert [(r.scheme, r.avg_ee_norm, r.avg_dt_hours) for r in rows] == [
            (s.scheme, s.avg_ee_norm_analysis, s.avg_dt_hours_analysis) for s in summaries
        ]

    def test_engines_average_over_the_same_bins(self):
        # at path-loss exponent 3.5 the analysis reaches only the 100 m bin
        # for fsf-12, while some simulated recipients at 200 m complete
        spec = load_default_spec({
            "network": {"path_loss_exponent": 3.5},
            "schemes": [{"type": "fixed_sf", "sf": 12}],
            "layout": {"recipients": 20},
        })
        rows, [summary] = benchmarks.run_suite(spec, "both", runs=2, seed=20240)
        near, second = rows[0], rows[1]
        assert near.reachable and not second.reachable
        assert not math.isnan(second.ee_norm_sim)
        assert summary.avg_ee_norm_sim == near.ee_norm_sim
        assert summary.avg_dt_hours_sim == near.dt_hours_sim
        assert summary.avg_ee_norm_analysis == near.ee_norm_analysis

    def test_mode_validation(self, spec):
        with pytest.raises(ValueError):
            benchmarks.run_suite(spec, "fast")


class TestAgainstDirectEvaluation:
    def test_proposed_rows_match_direct_closed_form(self, spec, suite):
        rows, _ = suite
        scheme = next(s for s in spec.schemes if isinstance(s, ProposedScheme))
        needed = spec.firmware.code.expected_fragments()
        segments = _plan(scheme, sim.attempts_cap(spec, spec.firmware.code))
        e_norm = analysis.normalization_energy_j(
            spec.phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
        )
        for d in (100.0, 500.0, 1000.0):
            tab = analysis.success_tables(
                d, spec.firmware.fragment_payload_bytes, spec.phy,
                spec.network.link, spec.network.interferers, options=spec.analysis,
            )
            energy, time, _ = analysis.evaluate_stream(
                segments, _costs(spec, tab), needed, spec.analysis.eta_denominator
            )
            row = next(
                r for r in rows if r.scheme == "proposed" and r.distance_m == d
            )
            assert row.ee_norm_analysis == pytest.approx(
                tab.count_weights @ energy / e_norm, rel=1e-12
            )
            assert row.dt_hours_analysis == pytest.approx(
                tab.count_weights @ time / 3600.0, rel=1e-12
            )

    def test_baselines_use_ideal_decoder(self, spec, suite):
        rows, _ = suite
        # an fsf-10 recipient at 100 m needs exactly `fragments` receptions,
        # not the coded expectation
        tab = analysis.success_tables(
            100.0, spec.firmware.fragment_payload_bytes, spec.phy,
            spec.network.link, spec.network.interferers, options=spec.analysis,
        )
        e_norm = analysis.normalization_energy_j(
            spec.phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
        )
        row = next(r for r in rows if r.scheme == "fsf-10" and r.distance_m == 100.0)
        energy = analysis.evaluate_stream(
            [(10, 10**9)], _costs(spec, tab), float(spec.firmware.fragments)
        )[0]
        assert row.ee_norm_analysis == pytest.approx(
            tab.count_weights @ energy / e_norm, rel=1e-12
        )

    def test_scheme_code_selection(self, spec):
        ramp = next(s for s in spec.schemes if isinstance(s, ProposedScheme))
        assert benchmarks.scheme_code(spec, ramp) is spec.firmware.code
        basecode = benchmarks.scheme_code(spec, FixedSfScheme(10))
        assert basecode.mode == "ideal"
        assert basecode.fragments == spec.firmware.fragments
        assert basecode.expected_fragments() == float(spec.firmware.fragments)


class TestOnePlanEvaluator:
    @pytest.mark.parametrize("eta_denominator", ["success", "failure_literal"])
    def test_one_sf_ramp_matches_fixed_sf(self, eta_denominator):
        # with an ideal code both schemes need the same fragments, and a
        # ramp from SF 11 to SF 11 is one open-ended SF 11 stream whatever
        # its round length
        spec = load_default_spec({
            "firmware": {"code": {"mode": "ideal"}},
            "analysis": {"eta_denominator": eta_denominator},
        })
        costs = benchmarks._costs(spec, benchmarks.build_tables(spec, [200.0, 600.0, 1000.0]))
        want = benchmarks._analysis_metrics(costs, spec, FixedSfScheme(11))
        assert not any(math.isnan(e) for e, _ in want.values())
        cap = sim.attempts_cap(spec, spec.firmware.code)
        for w in (1, 300, cap):
            got = benchmarks._analysis_metrics(costs, spec, ProposedScheme(11, 11, w))
            assert got == want, w


class TestUnreachableHandling:
    def test_short_range_baseline_flags_far_bins(self):
        spec = load_default_spec({"schemes": [{"type": "fixed_sf", "sf": 7}]})
        rows, summaries = benchmarks.run_suite(spec, "analysis")
        summary = summaries[0]
        far = [r for r in rows if not r.reachable]
        assert summary.unreachable_bins == len(far) > 0
        assert all(math.isnan(r.ee_norm_analysis) for r in far)
        near_rows = [r for r in rows if r.reachable]
        assert summary.avg_ee_norm_analysis == pytest.approx(
            float(np.mean([r.ee_norm_analysis for r in near_rows])), rel=1e-12
        )

    def test_ramp_bins_past_the_frame_cap_are_unreachable(self):
        # at alpha 3.5 the ramp's tail SF 12 stalls from 200 m on: the
        # closed form still finishes, but only after more frames than the
        # simulator sends before it abandons the stream
        spec = load_default_spec(
            {
                "schemes": [{"type": "proposed"}, {"type": "fixed_sf", "sf": 12}],
                "network": {"path_loss_exponent": 3.5},
            }
        )
        cap = sim.attempts_cap(spec, spec.firmware.code)
        # the same rounds with no frame cap on the last segment
        uncapped = _plan(spec.schemes[0], 10**12)
        needed = spec.firmware.code.expected_fragments()
        rows, summaries = benchmarks.run_suite(spec, "analysis")
        reachable = {(r.scheme, r.distance_m): r.reachable for r in rows}
        for d, tab in benchmarks.build_tables(spec).items():
            try:
                frames = analysis.evaluate_stream(uncapped, _costs(spec, tab), needed)[2]
            except analysis.UnreachableRecipientError:
                # SF 12 delivers nothing at some counts: the stream never ends
                assert not reachable[("proposed", d)], d
                continue
            assert reachable[("proposed", d)] == (tab.count_weights @ frames <= cap), d
        assert [d for (label, d), ok in reachable.items() if label == "proposed" and ok] == [
            100.0
        ]
        assert not any(ok for (label, d), ok in reachable.items() if label == "fsf-12" and d > 100)
        assert summaries[0].unreachable_bins == 9

    def test_expected_frames_count_full_rounds_and_the_final_sliver(self, spec):
        tab = benchmarks.build_tables(spec, [500.0])[500.0]
        scheme = ProposedScheme(min_sf=7, max_sf=12, frames_per_round=300)
        needed = spec.firmware.code.expected_fragments()
        cap = sim.attempts_cap(spec, spec.firmware.code)
        frames = analysis.evaluate_stream(_plan(scheme, cap), _costs(spec, tab), needed)[2]
        # per count: 300 frames for every round short of the need, then the
        # sliver of the finishing round (open-ended at SF 12)
        want = []
        for col in range(tab.count_values.size):
            spent, received = 0.0, 0.0
            for sf in range(7, 13):
                s = float(tab.frame_success_for(sf)[col])
                if sf == 12 or received + 300.0 * s >= needed:
                    want.append(spent + (needed - received) / s)
                    break
                spent, received = spent + 300.0, received + 300.0 * s
        assert frames == pytest.approx(np.array(want), rel=1e-12)
        mean = float(tab.count_weights @ frames)
        assert needed < mean < cap


class TestGroupStacking:
    def test_delivery_times_stack_group_durations(self, spec, suite):
        rows, _ = suite
        scheme = GroupBasedScheme("energy")
        code = benchmarks.scheme_code(spec, scheme)
        needed = code.expected_fragments()
        cap = float(sim.attempts_cap(spec, code))
        phy, dc = spec.phy, spec.network.duty_cycle_max_percent
        tables = benchmarks.build_tables(spec)

        def mean_success(d, sf):
            return float(tables[d].count_weights @ tables[d].frame_success_for(sf))

        assignment = benchmarks._group_assignment(benchmarks._costs(spec, tables), spec, scheme)
        assert all(
            sf is not None and needed / mean_success(d, sf) <= cap
            for d, sf in assignment.items()
        )
        groups = {}
        for d, sf in assignment.items():
            groups.setdefault(sf, []).append(d)
        duration = {
            sf: needed / mean_success(max(ds), sf)
            * analysis.duty_slot_s(phy, sf, spec.firmware.fragment_payload_bytes, dc)
            for sf, ds in groups.items()
        }

        gb_rows = {r.distance_m: r for r in rows if r.scheme == "gb-e"}
        for d, sf in assignment.items():
            wait = sum(t for s, t in duration.items() if s < sf)
            own = (
                needed / mean_success(d, sf)
                * analysis.duty_slot_s(phy, sf, spec.firmware.fragment_payload_bytes, dc)
            )
            assert gb_rows[d].dt_hours_analysis == pytest.approx(
                (wait + own) / 3600.0, rel=1e-12
            ), d
        # the farthest member of the highest group carries every duration
        assert max(r.dt_hours_analysis for r in gb_rows.values()) == pytest.approx(
            sum(duration.values()) / 3600.0, rel=1e-12
        )

    def test_energy_is_own_listening_only(self, spec, suite):
        rows, _ = suite
        gb = [r for r in rows if r.scheme == "gb-e"]
        fsf = {
            (r.distance_m): r for r in rows if r.scheme in ("fsf-10", "fsf-11", "fsf-12")
        }
        assert all(r.ee_norm_analysis > 0 for r in gb)
        # waiting through earlier groups costs time, not energy: gb-e never
        # spends more energy than the cheapest configured fixed-SF baseline
        for r in gb:
            rivals = [
                x.ee_norm_analysis
                for x in rows
                if x.scheme.startswith("fsf-") and x.distance_m == r.distance_m
            ]
            assert r.ee_norm_analysis <= min(rivals) + 1e-9


class TestSweepGrid:
    def test_grid_shape_and_spot_value(self, spec):
        rows = benchmarks.sweep_grid(spec)
        assert len(rows) == len(spec.sweep.frames_per_round) * len(spec.sweep.min_sf)
        combos = {(r.frames_per_round, r.min_sf) for r in rows}
        assert len(combos) == len(rows)
        spot = next(r for r in rows if r.frames_per_round == 50 and r.min_sf == 7)
        assert spot.avg_ee_norm == pytest.approx(FROZEN_SWEEP_SPOT[0], rel=1e-9)
        assert spot.avg_dt_hours == pytest.approx(FROZEN_SWEEP_SPOT[1], rel=1e-9)

    def test_requires_a_ramp_scheme(self):
        spec = load_default_spec({"schemes": [{"type": "fixed_sf", "sf": 10}]})
        with pytest.raises(ValueError):
            benchmarks.sweep_grid(spec)

    def test_stock_grid_stays_under_the_frame_cap(self, spec):
        # the cap rule leaves the stock sweep untouched: every (w, L) point
        # reaches every bin with room to spare
        needed = spec.firmware.code.expected_fragments()
        cap = sim.attempts_cap(spec, spec.firmware.code)
        worst = 0.0
        for tab in benchmarks.build_tables(spec).values():
            costs = _costs(spec, tab)
            for min_sf in spec.sweep.min_sf:
                for w in spec.sweep.frames_per_round:
                    scheme = ProposedScheme(min_sf=min_sf, max_sf=12, frames_per_round=w)
                    frames = analysis.evaluate_stream(_plan(scheme, cap), costs, needed)[2]
                    worst = max(worst, float(tab.count_weights @ frames))
        assert worst < cap / 1.5


class TestDensitySweep:
    def test_rows_cover_density_by_scheme(self, spec):
        intensities = (5e-4, 1e-3)
        rows = benchmarks.density_sweep(spec, intensities)
        assert len(rows) == len(intensities) * len(spec.schemes)
        for lam in intensities:
            labels = [r.scheme for r in rows if r.intensity_per_m2 == lam]
            assert labels == SUITE_LABELS
        by = {(r.intensity_per_m2, r.scheme): r for r in rows}
        for label in ("proposed", "fsf-11"):
            assert by[(1e-3, label)].avg_ee_norm >= by[(5e-4, label)].avg_ee_norm
            assert by[(1e-3, label)].avg_dt_hours >= by[(5e-4, label)].avg_dt_hours


class TestLifetimeRows:
    def test_locations_by_schemes(self, spec):
        rows = benchmarks.lifetime_rows(spec, "analysis")
        assert len(rows) == 2 * len(spec.schemes)
        assert [r.location for r in rows[:6]] == ["edge"] * 6
        assert [r.location for r in rows[6:]] == ["near"] * 6
        for r in rows:
            assert r.lifetime_years > 0
            assert r.rx_hours_per_update > 0

    def test_frozen_spot_values(self, spec):
        rows = benchmarks.lifetime_rows(spec, "analysis")
        by = {(r.location, r.scheme): r for r in rows}
        for key, want in FROZEN_LIFETIME_SPOTS.items():
            assert by[key].lifetime_years == pytest.approx(want, rel=1e-9), key

    def test_near_location_outlives_edge(self, spec):
        rows = benchmarks.lifetime_rows(spec, "analysis")
        by = {(r.location, r.scheme): r for r in rows}
        for label in SUITE_LABELS:
            assert by[("near", label)].lifetime_years > by[("edge", label)].lifetime_years

    def test_lifetime_matches_duty_model(self, spec):
        from fuotacast import lifetime as lt

        rows = benchmarks.lifetime_rows(spec, "analysis")
        cfg = spec.lifetime
        for r in rows[:2]:
            loc = next(l for l in cfg.locations if l.label == r.location)
            profile = lt.DutyProfile(
                battery_mah=cfg.battery_mah,
                updates_per_month=cfg.updates_per_month,
                uplink_period_hr=cfg.uplink_period_hr,
                uplink_airtime_s=spec.phy.frame_airtime(
                    loc.uplink_sf, cfg.uplink_payload_bytes
                ),
                tx_current_ma=cfg.tx_current_ma,
                rx_current_ma=cfg.rx_current_ma,
                sleep_current_ma=cfg.sleep_current_ma,
            )
            assert r.lifetime_years == pytest.approx(
                lt.battery_lifetime_years(profile, r.rx_hours_per_update), rel=1e-12
            )

    def test_mode_validation(self, spec):
        with pytest.raises(ValueError):
            benchmarks.lifetime_rows(spec, "quick")

    def test_sim_mode_tracks_analysis(self):
        spec = load_default_spec(
            {"layout": {"recipients": 30}, "schemes": [{"type": "proposed"}]}
        )
        ana = benchmarks.lifetime_rows(spec, "analysis")
        simmed = benchmarks.lifetime_rows(spec, "sim", runs=12, seed=77)
        for a, s in zip(ana, simmed):
            assert (a.location, a.scheme) == (s.location, s.scheme)
            assert s.lifetime_years == pytest.approx(a.lifetime_years, rel=0.05)


    def test_sim_mode_serves_each_location_in_batches(self, monkeypatch):
        spec = load_default_spec({"layout": {"recipients": 400}})
        sizes = []
        real = sim.run_session

        def recording(*args, sessions, **kwargs):
            sizes.append(sessions)
            return real(*args, sessions=sessions, **kwargs)

        monkeypatch.setattr(sim, "run_session", recording)
        rows = benchmarks.lifetime_rows(spec, "sim", runs=5, seed=8)
        assert len(rows) == len(spec.lifetime.locations) * len(spec.schemes)
        for r in rows:
            assert r.reachable, (r.location, r.scheme)
            assert math.isfinite(r.lifetime_years) and r.lifetime_years > 0
            assert math.isfinite(r.rx_hours_per_update)
        per_batch = max(1, sim.BATCH_RECIPIENTS // 400)
        assert sizes == [min(per_batch, 5 - first) for first in range(0, 5, per_batch)] * len(rows)


class TestSimulationSuite:
    def test_both_mode_fills_every_column(self):
        spec = load_default_spec({"layout": {"recipients": 30}})
        rows, summaries = benchmarks.run_suite(spec, "both", runs=5, seed=99)
        assert len(rows) == 60
        filled = [r for r in rows if r.reachable and not math.isnan(r.ee_norm_sim)]
        assert len(filled) > 40
        for r in filled:
            assert r.ee_norm_sim > 0
            assert r.dt_hours_sim > 0
            assert r.ee_norm_sim_stderr >= 0
        for s in summaries:
            assert not math.isnan(s.avg_ee_norm_sim)
            assert not math.isnan(s.avg_ee_norm_analysis)

    def test_sim_agrees_with_analysis_at_moderate_range(self):
        spec = load_default_spec({"layout": {"recipients": 60}})
        rows, _ = benchmarks.run_suite(spec, "both", runs=20, seed=41)
        # single-stream schemes track the closed forms tightly in mid cell
        for label in ("proposed", "fsf-11"):
            for d in (300.0, 500.0, 700.0):
                row = next(
                    r for r in rows if r.scheme == label and r.distance_m == d
                )
                assert row.ee_norm_sim == pytest.approx(
                    row.ee_norm_analysis, rel=0.10
                ), (label, d)

    @pytest.mark.parametrize("mode", ["both", "simulate"])
    def test_grid_tables_are_built_once_per_suite(self, monkeypatch, mode):
        spec = load_default_spec({"layout": {"recipients": 10}})
        built = []
        real = analysis.success_tables

        def counting(distance_m, *args, **kwargs):
            built.append(distance_m)
            return real(distance_m, *args, **kwargs)

        monkeypatch.setattr(analysis, "success_tables", counting)
        benchmarks.run_suite(spec, mode, runs=1, seed=3)
        assert sorted(built) == list(spec.grid_distances())

    def test_disc_group_sfs_come_from_one_lattice_per_suite(self, monkeypatch):
        spec = load_default_spec({
            "schemes": [
                {"type": "group_based", "criterion": "energy"},
                {"type": "group_based", "criterion": "latency"},
            ],
            "layout": {"kind": "disc", "recipients": 30},
            "analysis": {"quadrature_rtol": 5e-3},
        })
        built = []
        real = analysis.success_tables

        def counting(distance_m, *args, **kwargs):
            built.append(distance_m)
            return real(distance_m, *args, **kwargs)

        sessions = []
        real_session = sim.run_session

        def recording(spec_, scheme, *args, **kwargs):
            res = real_session(spec_, scheme, *args, **kwargs)
            sessions.append((scheme, res))
            return res

        monkeypatch.setattr(analysis, "success_tables", counting)
        monkeypatch.setattr(sim, "run_session", recording)
        benchmarks.run_suite(spec, "simulate", runs=1, seed=3)
        radius = spec.network.cell_radius_m
        lattice = np.array([radius * (j + 1) / 256 for j in range(256)])
        assert sorted(built) == list(lattice)
        assert len(sessions) == 2

        monkeypatch.setattr(analysis, "success_tables", real)
        for scheme, res in sessions:
            for o in res.outcomes:
                # the nearest lattice point, ties to the lower one
                d = float(lattice[np.argmin(np.abs(lattice - o.distance_m))])
                tab = real(
                    d, spec.firmware.fragment_payload_bytes, spec.phy,
                    spec.network.link, spec.network.interferers, options=spec.analysis,
                )
                costs = benchmarks._costs(spec, {d: tab})
                want = benchmarks._group_assignment(costs, spec, scheme)[d]
                assert o.assigned_sf == want, (scheme.label, o.distance_m)
