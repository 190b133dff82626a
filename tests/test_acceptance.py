"""End-to-end acceptance gates.

Each test checks one delivery promise of the library and prints a single
PASS or FAIL verdict line straight to the terminal (bypassing pytest's
capture) so a plain ``pytest`` run shows the whole scorecard.

Four clauses are genuinely not met by the model as built. Those tests
are marked ``xfail(strict=True)``: they still run, print a FAIL line
with the measured numbers, and carry the full numeric analysis in the
assertion message. If a change ever makes one of them pass, the strict
marker turns the silent flip into a loud failure so the marker and this
docstring get retired together.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from fuotacast import analysis, benchmarks, channel, cli, sim
from fuotacast.config import load_default_spec
from fuotacast.lifetime import DutyProfile, battery_lifetime_years
from fuotacast.schemes import FixedSfScheme, session_plan

from test_phy import AIRTIME_TABLE
from test_sim import _interferer_state

# distance-averaged reference values for the default six-scheme scenario,
# checked at 25% tolerance
REFERENCE_AVG_EE = {
    "proposed": 11.6, "fsf-10": 13.4, "fsf-11": 16.3,
    "fsf-12": 26.5, "gb-e": 8.7, "gb-l": 10.7,
}
REFERENCE_AVG_DT = {
    "proposed": 15.3, "fsf-10": 24.2, "fsf-11": 17.0,
    "fsf-12": 19.5, "gb-e": 36.4, "gb-l": 28.3,
}
# (location, scheme) -> years, for the two configured duty locations,
# checked at 15% tolerance
REFERENCE_LIFETIME_YEARS = {
    ("edge", "proposed"): 1.42, ("edge", "fsf-11"): 1.47, ("edge", "gb-e"): 1.47,
    ("near", "proposed"): 1.82, ("near", "fsf-11"): 1.66, ("near", "gb-e"): 1.82,
}

# sensitivities so strong the outage threshold underflows: detection is
# exactly 1.0 in floats, which is what the exact-cost gates need
CLEAN_OVERRIDES = {
    "phy": {
        "sensitivity_dbm": {
            7: -995.0, 8: -996.0, 9: -997.0,
            10: -998.0, 11: -999.0, 12: -1000.0,
        }
    },
    "interferers": {"intensity_per_m2": 0.0},
}


def _verdict(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[accept {tag}] {'PASS' if ok else 'FAIL'} {detail}")


class TestSimulatorMatchesAnalysis:
    def test_mean_curves_agree_at_every_bin(self, capsys):
        spec = load_default_spec({"schemes": [{"type": "proposed"}]})
        start = time.perf_counter()
        rows, _ = benchmarks.run_suite(spec, "both")
        elapsed = time.perf_counter() - start
        assert len(rows) == 10 and all(r.reachable for r in rows)
        worst_ee = max(
            abs(r.ee_norm_sim - r.ee_norm_analysis) / r.ee_norm_analysis for r in rows
        )
        worst_dt = max(
            abs(r.dt_hours_sim - r.dt_hours_analysis) / r.dt_hours_analysis for r in rows
        )
        ok = worst_ee <= 0.10 and worst_dt <= 0.10
        _verdict(
            capsys, "1", ok,
            f"simulated ramp means track the closed forms at all 10 distance bins: "
            f"worst rel err EE {worst_ee:.2%}, DT {worst_dt:.2%} (limit 10%); "
            f"{spec.sim.runs} runs x {spec.layout.recipients} recipients in {elapsed:.1f}s",
        )
        assert ok, (worst_ee, worst_dt)


class TestDecodeOverheadOracle:
    def test_expected_threshold_matches_series_and_sampling(self, capsys, spec):
        code = spec.firmware.code
        k, a, b = code.fragments, code.failure_at_k, code.failure_beyond_k
        # independent truncated series for the mean decode threshold:
        # P(k) = 1-a, P(k+j) = a b^(j-1) (1-b)
        series = (1.0 - a) * k
        j = 1
        while a * b ** (j - 1) > 1e-18:
            series += (k + j) * a * b ** (j - 1) * (1.0 - b)
            j += 1
        got = code.expected_fragments()
        rng = np.random.default_rng(424242)
        sampled = float(np.mean(code.sample_completion_threshold(rng, 1_000_000)))
        ok = (
            abs(got - series) <= 1e-6
            and round(got, 3) == 201.963
            and abs(sampled - got) <= 0.01
        )
        _verdict(
            capsys, "2", ok,
            f"expected decode threshold {got:.6f}: series gap {abs(got - series):.2e} "
            f"(limit 1e-6), 1e6-draw mean {sampled:.4f}, gap {abs(sampled - got):.4f} "
            f"(limit 0.01)",
        )
        assert ok, (got, series, sampled)


class TestAirtimeReference:
    def test_pairs_within_one_symbol(self, capsys, phy):
        assert len(AIRTIME_TABLE) >= 12
        worst = max(
            abs(phy.frame_airtime(sf, nb) - want) / phy.symbol_duration(sf)
            for (sf, nb), want in AIRTIME_TABLE.items()
        )
        ok = worst < 1.0
        _verdict(
            capsys, "3", ok,
            f"{len(AIRTIME_TABLE)} (sf, payload) airtimes within one symbol of the "
            f"hand-computed reference (worst gap {worst:.2e} symbols)",
        )
        assert ok, worst


class TestInterferenceFreeLimits:
    def test_silent_interferers_reduce_to_pure_outage(self, capsys, phy, link, field):
        quiet = dataclasses.replace(field, frame_rate_hz=0.0)
        worst = 0.0
        for d in (100.0, 500.0, 1000.0):
            for sf in (7, 10, 12):
                threshold = (
                    phy.sensitivity_w(sf)
                    * d ** link.path_loss_exponent
                    / (link.link_gain * link.tx_rf_power_w)
                )
                expect = 1.0 - math.exp(-threshold)
                for n in (0, 1, 5, 25, 200):
                    tab = analysis.success_tables(d, 50, phy, link, quiet, counts=[n])
                    got = 1.0 - float(tab.preamble_success_for(sf)[0])
                    worst = max(worst, abs(got - expect))
        ok = worst <= 1e-9
        _verdict(
            capsys, "4a", ok,
            f"with no interferer traffic the miss probability collapses to pure "
            f"fading outage for every interferer count (worst gap {worst:.2e}, "
            f"limit 1e-9)",
        )
        assert ok, worst

    def test_empty_field_ideal_code_costs_exactly_k_frames(self, capsys):
        spec = load_default_spec(CLEAN_OVERRIDES)
        phy, net = spec.phy, spec.network
        code = dataclasses.replace(spec.firmware.code, mode="ideal")
        k = spec.firmware.fragments
        payload = spec.firmware.fragment_payload_bytes
        e_fr = phy.rx_energy_frame(7, payload)
        control = analysis.control_energy_j(
            phy, net.control_listen_s, net.ack_payload_bytes, net.ack_uplink_sf
        )

        res = sim.run_session(
            spec, FixedSfScheme(7), np.random.default_rng(7),
            distances=np.full(8, 400.0), code=code,
        )
        sim_exact = res.transmissions == k and all(
            o.completed
            and o.attempts_full == k
            and o.attempts_preamble_only == 0
            and o.energy_fragments_j == k * e_fr
            and o.energy_control_j == control
            for o in res.outcomes
        )

        tables = analysis.success_tables(
            400.0, payload, phy, net.link, net.interferers, counts=[0]
        )
        costs = analysis.stream_costs(tables, phy, net.duty_cycle_max_percent, "partitioned")
        energy, _, frames = analysis.evaluate_stream(
            session_plan(FixedSfScheme(7), 10 * k)[0][1], costs, float(k)
        )
        ana_exact = energy[0] == k * e_fr and frames[0] == float(k)
        ok = sim_exact and ana_exact
        _verdict(
            capsys, "4b", ok,
            f"empty interferer field + ideal code: simulator and closed form both "
            f"finish at frame {k} with receive energy exactly {k}*{e_fr:.6f} J, and the "
            f"simulator adds {control:.6f} J of control listening (bitwise)",
        )
        assert ok, (sim_exact, ana_exact)


class TestSchemeTableReproduction:
    def test_ordering_and_averages(self, capsys, spec):
        _, summaries = benchmarks.run_suite(spec, "analysis")
        ee = {s.scheme: s.avg_ee_norm_analysis for s in summaries}
        dt = {s.scheme: s.avg_dt_hours_analysis for s in summaries}
        fsf = ("fsf-10", "fsf-11", "fsf-12")
        ordering = all(dt["proposed"] < dt[s] for s in (*fsf, "gb-e", "gb-l")) and (
            ee["gb-e"] < ee["proposed"] and all(ee["proposed"] < ee[s] for s in fsf)
        )
        worst = max(
            max(abs(ee[s] - REFERENCE_AVG_EE[s]) / REFERENCE_AVG_EE[s] for s in ee),
            max(abs(dt[s] - REFERENCE_AVG_DT[s]) / REFERENCE_AVG_DT[s] for s in dt),
        )
        ok = ordering and worst <= 0.25
        _verdict(
            capsys, "5", ok,
            f"scheme ordering holds (ramp fastest on average; energy groups cheapest, "
            f"then ramp, then every fixed SF) and all 12 averages sit within "
            f"{worst:.1%} of the reference values (limit 25%)",
        )
        assert ok, (ordering, worst, ee, dt)


@pytest.fixture(scope="module")
def grid(spec):
    rows = benchmarks.sweep_grid(spec)
    ws = sorted({r.frames_per_round for r in rows})
    ls = sorted({r.min_sf for r in rows})
    ee = {(r.frames_per_round, r.min_sf): r.avg_ee_norm for r in rows}
    dt = {(r.frames_per_round, r.min_sf): r.avg_dt_hours for r in rows}
    return ws, ls, ee, dt


DENSITIES = (5e-4, 1e-3, 2e-3)


@pytest.fixture(scope="module")
def density_table(spec):
    rows = benchmarks.density_sweep(spec, list(DENSITIES))
    return {(r.intensity_per_m2, r.scheme): (r.avg_ee_norm, r.avg_dt_hours) for r in rows}


class TestRoundLengthSweep:
    def test_delivery_time_is_convex_in_round_length(self, capsys, grid):
        ws, _, _, dt = grid
        seq = [dt[(w, 7)] for w in ws]
        diffs = np.diff(seq)
        argmin = int(np.argmin(seq))
        interior = 0 < argmin < len(ws) - 1
        unimodal = all(d < 0 for d in diffs[:argmin]) and all(d > 0 for d in diffs[argmin:])
        ok = interior and unimodal
        _verdict(
            capsys, "6a", ok,
            f"average delivery time vs round length is strictly convex-shaped for the "
            f"full SF 7..12 ramp: falls to an interior minimum at w={ws[argmin]} "
            f"({seq[argmin]:.3f} h) then rises",
        )
        assert ok, seq

    @pytest.mark.xfail(
        strict=True,
        reason="for long rounds (w >= 650) widening the ramp from SF 8 down to SF 7 "
        "raises the distance-averaged energy instead of lowering it",
    )
    def test_wider_sf_set_always_improves_energy(self, capsys, grid):
        ws, ls, ee, _ = grid
        breaking = [
            w for w in ws
            if not all(ee[(w, ls[i])] < ee[(w, ls[i + 1])] for i in range(len(ls) - 1))
        ]
        ok = not breaking
        _verdict(
            capsys, "6b", ok,
            "lowering the ramp's starting SF lowers average energy at every round "
            "length" if ok else
            f"energy ordering inverts at w={breaking}: e.g. starting at SF 7 costs "
            f"{ee[(650, 7)]:.4f} vs {ee[(650, 8)]:.4f} from SF 8 at w=650, and "
            f"{ee[(1000, 7)]:.4f} vs {ee[(1000, 8)]:.4f} at w=1000",
        )
        assert ok, (
            f"claim: a ramp starting one SF lower is never less energy efficient on "
            f"average. measured: the ordering holds for w <= 600 but inverts at every "
            f"w in {breaking}. at w=650 the SF7 ramp averages {ee[(650, 7)]:.6f} vs "
            f"{ee[(650, 8)]:.6f} for the SF8 ramp; at w=1000 the gap widens to "
            f"{ee[(1000, 7)]:.6f} vs {ee[(1000, 8)]:.6f}. cause: recipients beyond "
            f"SF7 range still pay a preamble listen for every frame of the SF7 block, "
            f"and that dead listening grows linearly with w while the SF7 block only "
            f"helps the innermost bins, so past w=650 it outweighs their saving."
        )


class TestInterfererDensityTrend:
    def _profiles(self, table, scheme):
        ee = [table[(x, scheme)][0] for x in DENSITIES]
        dt = [table[(x, scheme)][1] for x in DENSITIES]
        return ee, dt

    def test_denser_traffic_costs_more_for_ramp_and_fixed(self, capsys, density_table):
        checks = {}
        for scheme in ("proposed", "fsf-11"):
            ee, dt = self._profiles(density_table, scheme)
            checks[scheme] = all(np.diff(ee) >= 0) and all(np.diff(dt) >= 0)
        ok = all(checks.values())
        _verdict(
            capsys, "7a", ok,
            f"average energy and delivery time rise monotonically with interferer "
            f"density for the ramp and for fixed SF 11 across {DENSITIES}",
        )
        assert ok, checks

    @pytest.mark.xfail(
        strict=True,
        reason="the latency-optimal grouping refits at each density and its refit "
        "breaks monotonicity at 2e-3",
    )
    def test_denser_traffic_costs_more_for_latency_groups(self, capsys, density_table):
        ee, dt = self._profiles(density_table, "gb-l")
        ok = all(np.diff(ee) >= 0) and all(np.diff(dt) >= 0)
        _verdict(
            capsys, "7b", ok,
            "latency-optimal grouping also degrades monotonically with density" if ok
            else f"latency-optimal grouping is non-monotone: EE {ee[0]:.4f} -> "
            f"{ee[1]:.4f} -> {ee[2]:.4f}, DT {dt[0]:.4f} -> {dt[1]:.4f} -> {dt[2]:.4f} "
            f"(both drop at 2e-3)",
        )
        assert ok, (
            f"claim: average EE and DT never improve when the interferer density "
            f"rises. measured for the latency-optimal grouping over {DENSITIES}: "
            f"EE {ee} and DT {dt} both fall from 1e-3 to 2e-3. cause: the grouping is "
            f"refit at every density, and at 2e-3 the latency-optimal boundaries move "
            f"some members to a different SF; each fixed assignment degrades "
            f"monotonically, but the argmin over assignments does not."
        )

    @pytest.mark.xfail(
        strict=True,
        reason="at density 2e-3 fixed SF 11 delivers faster on average than the ramp",
    )
    def test_ramp_has_lowest_delivery_time_at_every_density(self, capsys, density_table):
        schemes = sorted({s for _, s in density_table})
        losers = {}
        for x in DENSITIES:
            best = min(schemes, key=lambda s: density_table[(x, s)][1])
            if best != "proposed":
                losers[x] = (best, density_table[(x, best)][1],
                             density_table[(x, "proposed")][1])
        ok = not losers
        _verdict(
            capsys, "7c", ok,
            "the ramp has the lowest average delivery time at every density" if ok
            else f"the ramp loses the delivery-time lead at density "
            f"{list(losers)[0]:g}: " + ", ".join(
                f"{best} {b:.4f} h vs ramp {p:.4f} h" for best, b, p in losers.values()
            ),
        )
        assert ok, (
            f"claim: the ramp delivers fastest on average at every interferer "
            f"density. measured: true at 5e-4 and 1e-3, false at 2e-3 where "
            f"{losers}. cause: under heavy traffic the ramp still walks through its "
            f"low-SF prefix at every distance while a fixed SF 11 stream serves the "
            f"whole disc directly; the crossover sits between 1e-3 and 2e-3."
        )


class TestLifetimeReproduction:
    @pytest.mark.xfail(
        strict=True,
        reason="the duty model cannot reproduce the reference lifetimes at the "
        "configured battery and current draw inputs (40-52% off)",
    )
    def test_lifetime_levels_match_reference_table(self, capsys):
        spec = load_default_spec(
            {
                "schemes": [
                    {"type": "proposed"},
                    {"type": "fixed_sf", "sf": 11},
                    {"type": "group_based", "criterion": "energy"},
                ],
                "layout": {"recipients": 50},
            }
        )
        rows = benchmarks.lifetime_rows(spec, "sim", runs=20, seed=spec.seed)
        devs = {
            (r.location, r.scheme): (
                r.lifetime_years,
                (r.lifetime_years - REFERENCE_LIFETIME_YEARS[(r.location, r.scheme)])
                / REFERENCE_LIFETIME_YEARS[(r.location, r.scheme)],
            )
            for r in rows
        }
        worst = max(abs(d) for _, d in devs.values())
        ok = worst <= 0.15
        lines = ", ".join(
            f"{loc}/{s} {lt:.3f}y ({d:+.0%})" for (loc, s), (lt, d) in devs.items()
        )
        _verdict(
            capsys, "8a", ok,
            f"simulated-listening lifetimes within 15% of the reference table" if ok
            else f"lifetimes off by up to {worst:.0%} (limit 15%): {lines}",
        )
        assert ok, (
            f"claim: battery lifetimes from simulated listening hours land within "
            f"15% of the reference years. measured (20 runs x 50 recipients): "
            f"{lines}. the reference values are unreachable for this duty model at "
            f"the configured inputs: at the edge location the model's own listening "
            f"and uplink shares drain about {1200 / devs[('edge', 'proposed')][0]:.0f} "
            f"mAh/year (lifetime {devs[('edge', 'proposed')][0]:.2f}y) while 1.42y "
            f"needs about {1200 / 1.42:.0f} mAh/year; near the gateway the model "
            f"drains about {1200 / devs[('near', 'proposed')][0]:.0f} mAh/year "
            f"({devs[('near', 'proposed')][0]:.2f}y) while 1.82y implies "
            f"{1200 / 1.82:.0f} mAh/year. closed-form and simulated listening agree "
            f"within 5%, so the gap is structural, not noise."
        )

    def test_degenerate_duty_mixes_are_exact(self, capsys):
        flat = 1200.0 / (40.0 * 8760.0)
        # equal draw in every state: the split cannot matter; the three-way
        # sum reassociates float rounding, so exact only to a few ulp
        even = DutyProfile(1200.0, 1.0, 1.0, 0.3, 40.0, 40.0, 40.0)
        even_ok = math.isclose(battery_lifetime_years(even, 3.0), flat, rel_tol=5e-16)
        even2 = DutyProfile(997.0, 2.7, 0.37, 0.177, 41.3, 41.3, 41.3)
        even2_ok = math.isclose(
            battery_lifetime_years(even2, 1.234), 997.0 / (41.3 * 8760.0), rel_tol=5e-16
        )
        # never transmitting or listening leaves the pure sleep drain, bitwise
        asleep = DutyProfile(1200.0, 1.0, math.inf, 0.3, 83.0, 38.0, 0.045)
        sleep_ok = battery_lifetime_years(asleep, 0.0) == 1200.0 / (0.045 * 8760.0)
        ok = even_ok and even2_ok and sleep_ok
        _verdict(
            capsys, "8b", ok,
            "degenerate duty mixes are exact: equal currents collapse to "
            "battery/(current*year) within a few ulp, and the sleep-only limit is "
            "bitwise 1200/(0.045*8760)",
        )
        assert ok, (even_ok, even2_ok, sleep_ok)


class TestPropertyGates:
    def test_probability_and_energy_identities(self, capsys, spec, phy, link, field):
        tables = analysis.success_tables(500.0, 50, phy, link, field, counts=[0, 2, 8])
        partition = True
        for sf in range(7, 13):
            pre = tables.preamble_success_for(sf)
            fr = tables.frame_success_for(sf)
            detect = link.detection_probability(phy.sensitivity_w(sf), 500.0)
            partition &= bool(
                np.all(fr >= 0.0)
                and np.all(fr <= pre + 1e-12)
                and np.all(pre <= detect + 1e-12)
                and detect <= 1.0
            )

        res = sim.run_session(
            spec, FixedSfScheme(12), np.random.default_rng(5),
            distances=np.full(30, 700.0),
        )
        payload = spec.firmware.fragment_payload_bytes
        e_fr, e_pr = phy.rx_energy_frame(12, payload), phy.rx_energy_preamble(12)
        energy_ok = all(
            o.energy_fragments_j
            == pytest.approx(o.attempts_full * e_fr + o.attempts_preamble_only * e_pr,
                             rel=1e-12)
            for o in res.outcomes
        )

        # frames go out at the end of their duty slots
        stream = [7, 7, 8, 9, 12, 10, 11, 7, 12, 8] * 5
        ends = np.cumsum([analysis.duty_slot_s(phy, s, payload, 1.0) for s in stream])
        air = np.cumsum([phy.frame_airtime(s, payload) for s in stream])
        duty_ok = bool(np.all(air / ends <= 0.01 + 1e-12))

        ok = partition and energy_ok and duty_ok
        _verdict(
            capsys, "9a", ok,
            "probability partition (frame <= preamble <= detection), per-recipient "
            "energy accounting, and the 1% duty bound at every stream prefix all hold",
        )
        assert ok, (partition, energy_ok, duty_ok)

    def test_sampler_statistics(self, capsys, phy, link, field):
        # the draws the simulator makes: the verdict kernel's fading, then
        # run_session's interferer counts with their near-zone split and
        # the counter-based distances of each slot
        rng = np.random.default_rng(99)
        fading = rng.exponential(1.0, 1_000_000)
        mean_ok = abs(float(fading.mean()) - 1.0) <= 0.01
        tail_ok = abs(float((fading > 1.0).mean()) - math.exp(-1.0)) <= 0.005

        tables = sim._SfTables(phy, link, field, field.payload_bytes, 1.0)
        radius = channel.interference_radius(link, field, phy.sensitivity_w(12))
        expect = channel.mean_interferer_count(field, radius)
        draws = 100_000
        counts, near = sim._draw_interferers(rng, expect, tables.near_share, draws)
        state = _interferer_state(
            radius, link.path_loss_exponent, rng.integers(2**64, dtype=np.uint64), counts,
            near_counts=near, near_share=tables.near_share,
        )
        total = int(counts.sum())
        half = (radius / 2.0) ** link.path_loss_exponent
        inner = 0
        for lo in range(0, total, 2**21):
            slots = np.arange(lo, min(lo + 2**21, total))
            inner += int((state.interferer_u_alpha(slots) <= half).sum())
        count_ok = abs(total / draws - expect) <= 0.01 * expect
        cdf_ok = abs(inner / total - 0.25) <= 0.01

        ok = mean_ok and tail_ok and count_ok and cdf_ok
        _verdict(
            capsys, "9b", ok,
            f"fading mean {fading.mean():.4f} (want 1 +- 0.01), tail at 1 "
            f"{(fading > 1.0).mean():.4f} (want e^-1 +- 0.005); interferer count "
            f"mean {total / draws:.2f} vs {expect:.2f} (+-1%), radial CDF at half "
            f"radius {inner / total:.4f} (want 0.25 +- 0.01)",
        )
        assert ok, (mean_ok, tail_ok, count_ok, cdf_ok)

    def test_fixed_seed_outputs_are_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "repro.yaml"
        cfg.write_text(
            "name: repro\n"
            "mode: both\n"
            "seed: 7\n"
            "schemes:\n"
            "  - {type: proposed}\n"
            "  - {type: fixed_sf, sf: 12}\n"
            "layout: {recipients: 20}\n"
            "sim: {runs: 3}\n"
        )
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "8",
                         "--out", str(out3)]) == 0
        names = ("distance_curves.csv", "scheme_averages.csv", "manifest.json")
        identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
        distinct = (out1 / "distance_curves.csv").read_bytes() != (
            out3 / "distance_curves.csv"
        ).read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        ok = identical and distinct and manifest["seed"] == 7
        _verdict(
            capsys, "9c", ok,
            "two runs with the same config and seed reproduce every output file "
            "byte for byte; a different seed changes the simulated columns",
        )
        assert ok, (identical, distinct)
