"""Monte Carlo session simulator.

The strongest checks run the simulator in regimes where its output is
forced: a clean channel with an ideal decoder must produce exactly one
full-frame listen per fragment, and a deaf link must burn the whole frame
budget as preamble-only listens. Statistical agreement with the closed
forms is checked at a pinned distance with a seeded run, the
event-skipping sampler is compared in law with the frame-by-frame sampler
of ``tests/frame_oracle.py``, and batched sessions are compared with
sessions simulated one per batch, in law and, where the outcome is
forced, bit for bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from frame_oracle import serve_segment_by_frame
from hypothesis import example, given, strategies as st
from scipy import integrate, stats

from fuotacast import analysis, sim
from fuotacast.config import load_default_spec
from fuotacast.schemes import FixedSfScheme, GroupBasedScheme, ProposedScheme, session_plan

PAYLOAD = 50

CLEAN_OVERRIDES = {
    "phy": {
        "sensitivity_dbm": {
            7: -995.0, 8: -996.0, 9: -997.0,
            10: -998.0, 11: -999.0, 12: -1000.0,
        }
    },
    "interferers": {"intensity_per_m2": 0.0},
}


def _ideal(spec):
    return dataclasses.replace(spec.firmware.code, mode="ideal")


def _tables(spec):
    net = spec.network
    return sim._SfTables(spec.phy, net.link, net.interferers, PAYLOAD, 1.0)


class TestCleanChannelExactness:
    def test_every_listen_is_a_reception(self):
        spec = load_default_spec(CLEAN_OVERRIDES)
        rng = np.random.default_rng(7)
        res = sim.run_session(
            spec,
            FixedSfScheme(7),
            rng,
            distances=np.full(10, 300.0),
            code=_ideal(spec),
        )
        phy = spec.phy
        k = spec.firmware.fragments
        slot = analysis.duty_slot_s(phy, 7, PAYLOAD, 1.0)
        control = analysis.control_energy_j(phy, 60.0, 12, 12)
        assert res.transmissions == k
        assert not res.incomplete.any()
        assert res.duration_s[0] == pytest.approx(k * slot, rel=1e-12)
        for o in res.outcomes:
            assert o.completed
            assert o.fragments_needed == k
            assert o.fragments_received == k
            assert o.attempts_full == k
            assert o.attempts_preamble_only == 0
            assert o.energy_fragments_j == k * phy.rx_energy_frame(7, PAYLOAD)
            assert o.energy_control_j == control
            assert o.completion_time_s == pytest.approx(k * slot, rel=1e-12)
        assert control == pytest.approx(7.840374220800001, rel=1e-12)

    def test_ramp_finishes_inside_first_round(self):
        spec = load_default_spec(CLEAN_OVERRIDES)
        rng = np.random.default_rng(8)
        res = sim.run_session(
            spec,
            ProposedScheme(7, 12, 300),
            rng,
            distances=np.full(5, 900.0),
            code=_ideal(spec),
        )
        k = spec.firmware.fragments
        assert res.transmissions == k
        assert all(o.completed and o.attempts_full == k for o in res.outcomes)


class TestDeafLinkExhaustion:
    def test_budget_burned_as_preamble_listens(self):
        self._check_budget_burned(density=5e-5, chunk=512)

    def test_dense_field_short_passes_burn_budget_as_preamble_listens(self):
        # the dense field overlaps nearly every frame and the short pass splits
        # the budget over 1,443 passes; neither may turn a listen into a full one
        self._check_budget_burned(density=2e-3, chunk=7)

    @staticmethod
    def _check_budget_burned(density, chunk):
        deaf = load_default_spec(
            {
                "phy": {
                    "sensitivity_dbm": {
                        7: -10.0, 8: -11.0, 9: -12.0,
                        10: -13.0, 11: -14.0, 12: -15.0,
                    }
                },
                "interferers": {"intensity_per_m2": density},
                "layout": {"recipients": 12},
                "sim": {"chunk_frames": chunk},
            }
        )
        rng = np.random.default_rng(9)
        cap = sim.attempts_cap(deaf, deaf.firmware.code)
        res = sim.run_session(
            deaf, FixedSfScheme(9), rng, distances=np.full(12, 800.0)
        )
        assert res.incomplete.all()
        assert res.transmissions == cap
        e_pr = deaf.phy.rx_energy_preamble(9)
        for o in res.outcomes:
            assert not o.completed
            assert o.fragments_received == 0
            assert o.attempts_full == 0
            assert o.attempts_preamble_only == cap
            assert o.energy_fragments_j == pytest.approx(cap * e_pr, rel=1e-12)
            assert o.energy_control_j == 0.0
            assert math.isnan(o.completion_time_s)


class TestAttemptsCap:
    def test_scales_with_expected_fragments(self, spec):
        assert sim.attempts_cap(spec, spec.firmware.code) == 10099
        assert sim.attempts_cap(spec, _ideal(spec)) == 10000


class TestReproducibility:
    def test_same_seed_same_session(self):
        spec = load_default_spec({"layout": {"recipients": 30}})
        a = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(42))
        b = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(42))
        assert repr(a.outcomes) == repr(b.outcomes)
        assert a.transmissions == b.transmissions
        assert np.array_equal(a.duration_s, b.duration_s)

    def test_different_seed_diverges(self):
        spec = load_default_spec({"layout": {"recipients": 30}})
        a = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(42))
        b = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(43))
        assert repr(a.outcomes) != repr(b.outcomes)


class TestEnergyBookkeeping:
    def test_single_sf_energy_identity(self):
        spec = load_default_spec({"layout": {"recipients": 40}})
        res = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(5))
        e_fr = spec.phy.rx_energy_frame(12, PAYLOAD)
        e_pr = spec.phy.rx_energy_preamble(12)
        for o in res.outcomes:
            want = o.attempts_full * e_fr + o.attempts_preamble_only * e_pr
            assert o.energy_fragments_j == pytest.approx(want, rel=1e-12)

    def test_energy_adds_up_pass_by_pass_across_sfs(self):
        # every frame is received, so the recipient takes the first
        # segment's whole budget at SF7, then the rest of its need at SF9,
        # each in one pass
        spec = load_default_spec(CLEAN_OVERRIDES)
        tables = _tables(spec)
        need, budget = 700, 300
        state = _clean_state([need], sessions=1)
        rng = np.random.default_rng(15)
        sent, left = sim._serve_segment(
            rng, state, tables, 7, budget, np.arange(1), np.zeros(1), 10_000
        )
        assert list(sent) == [budget] and list(left) == [0]
        sent, left = sim._serve_segment(
            rng, state, tables, 9, 10_000, left, sent * tables.slot_s[0], 10_000
        )
        assert list(sent) == [need - budget] and left.size == 0
        assert state.full_listens[0] == need and state.preamble_listens[0] == 0
        assert state.energy[0] == budget * tables.e_frame[0] + (need - budget) * tables.e_frame[2]

    def test_received_never_exceeds_needed(self):
        spec = load_default_spec({"layout": {"recipients": 40}})
        res = sim.run_session(spec, ProposedScheme(7, 12, 300), np.random.default_rng(6))
        for o in res.outcomes:
            assert o.fragments_received <= o.fragments_needed
            assert o.completed == (o.fragments_received == o.fragments_needed)


class TestGroupBasedSession:
    def test_assignment_is_respected(self):
        spec = load_default_spec()
        distances = np.array([200.0, 200.0, 800.0, 800.0])
        assignment = {200.0: 8, 800.0: 11}
        res = sim.run_session(
            spec,
            GroupBasedScheme("energy"),
            np.random.default_rng(11),
            group_assignment=assignment,
            distances=distances,
        )
        assert [o.assigned_sf for o in res.outcomes] == [8, 8, 11, 11]
        e_fr8 = spec.phy.rx_energy_frame(8, PAYLOAD)
        e_pr8 = spec.phy.rx_energy_preamble(8)
        for o in res.outcomes[:2]:
            want = o.attempts_full * e_fr8 + o.attempts_preamble_only * e_pr8
            assert o.energy_fragments_j == pytest.approx(want, rel=1e-12)

    def test_unreachable_member_marks_incomplete(self):
        spec = load_default_spec()
        res = sim.run_session(
            spec,
            GroupBasedScheme("energy"),
            np.random.default_rng(12),
            group_assignment={300.0: 9, 950.0: None},
            distances=np.array([300.0, 950.0]),
        )
        assert res.incomplete.all()
        served, skipped = res.outcomes
        assert served.assigned_sf == 9
        assert skipped.assigned_sf is None
        assert not skipped.completed
        assert skipped.attempts_full == 0 and skipped.attempts_preamble_only == 0

    def test_nearest_key_lookup_breaks_ties_low(self):
        spec = load_default_spec()
        res = sim.run_session(
            spec,
            GroupBasedScheme("energy"),
            np.random.default_rng(13),
            group_assignment={100.0: 7, 200.0: 9, 300.0: None},
            distances=np.array([150.0, 151.0, 50.0, 250.0, 260.0, 999.0]),
        )
        assert [o.assigned_sf for o in res.outcomes] == [7, 9, 7, 9, None, None]

    def test_exhausted_group_does_not_stop_later_groups(self):
        spec = load_default_spec({"sim": {"transmission_cap_factor": 3.0}})
        code = _ideal(spec)
        cap = sim.attempts_cap(spec, code)
        res = sim.run_session(
            spec,
            GroupBasedScheme("energy"),
            np.random.default_rng(14),
            group_assignment={300.0: 9, 50_000.0: 7},
            distances=np.array([50_000.0, 300.0, 300.0]),
            code=code,
        )
        stalled, *served = res.outcomes
        # the deaf SF7 group burns its whole cap, then the SF9 group is served
        assert not stalled.completed
        assert stalled.attempts_preamble_only == cap
        slot7 = analysis.duty_slot_s(spec.phy, 7, PAYLOAD, 1.0)
        for o in served:
            assert o.completed
            assert o.completion_time_s > cap * slot7
        assert res.transmissions > cap
        assert res.incomplete.all()

    def test_missing_assignment_raises(self):
        spec = load_default_spec()
        with pytest.raises(ValueError):
            sim.run_session(
                spec, GroupBasedScheme("energy"), np.random.default_rng(1)
            )


class TestSessionPlanSegments:
    def test_zero_budget_segments_draw_nothing(self):
        # a ramp whose first round covers the whole cap leaves zero budgets
        # at SF8..12, so its session is the fixed-SF7 session, draw for draw
        spec = load_default_spec({"sim": {"transmission_cap_factor": 1.0}})
        cap = sim.attempts_cap(spec, spec.firmware.code)
        runs = []
        for scheme in (ProposedScheme(7, 12, cap), FixedSfScheme(7)):
            rng = np.random.default_rng(21)
            res = sim.run_session(spec, scheme, rng, distances=np.full(20, 900.0))
            runs.append((repr(res.outcomes), res.transmissions, rng.bit_generator.state))
        assert runs[0] == runs[1]
        assert runs[0][1] == cap


class TestAgainstClosedForms:
    def test_pinned_distance_energy_and_time(self):
        spec = load_default_spec()
        scheme = ProposedScheme(7, 12, 300)
        needed = spec.firmware.code.expected_fragments()
        tab = analysis.success_tables(
            500.0, PAYLOAD, spec.phy, spec.network.link, spec.network.interferers,
            options=spec.analysis,
        )
        [(_, segments)] = session_plan(scheme, sim.attempts_cap(spec, spec.firmware.code))
        costs = analysis.stream_costs(
            tab, spec.phy, spec.network.duty_cycle_max_percent, spec.analysis.energy_formula
        )
        energy, time, _ = analysis.evaluate_stream(segments, costs, needed)
        rng_master = np.random.SeedSequence(2024).spawn(60)
        energies, times = [], []
        for child in rng_master:
            res = sim.run_session(
                spec, scheme, np.random.default_rng(child),
                distances=np.full(50, 500.0),
            )
            for o in res.outcomes:
                if o.completed:
                    energies.append(o.energy_fragments_j)
                    times.append(o.completion_time_s)
        assert np.mean(energies) == pytest.approx(tab.count_weights @ energy, rel=0.05)
        assert np.mean(times) == pytest.approx(tab.count_weights @ time, rel=0.05)


class TestRunExperiment:
    def test_binning_and_reduction(self):
        spec = load_default_spec({"layout": {"recipients": 30}, "sim": {"runs": 3}})
        res = sim.run_experiment(spec, FixedSfScheme(12), runs=3, seed=1)
        assert res.bin_distances == spec.grid_distances()
        assert res.scheme == "fsf-12"
        assert res.runs == 3
        assert res.config_fingerprint == spec.fingerprint()
        for mean, err in zip(res.ee_norm_mean, res.ee_norm_stderr):
            assert math.isnan(mean) == math.isnan(err)
            if not math.isnan(mean):
                assert mean > 0 and err >= 0
        assert not all(math.isnan(mean) for mean in res.ee_norm_mean)

    def test_single_run_has_zero_stderr(self):
        spec = load_default_spec({"layout": {"recipients": 30}})
        res = sim.run_experiment(spec, FixedSfScheme(12), runs=1, seed=3)
        for mean, err in zip(res.dt_hours_mean, res.dt_hours_stderr):
            if not math.isnan(mean):
                assert err == 0.0

    def test_experiment_is_reproducible(self):
        spec = load_default_spec({"layout": {"recipients": 20}})
        a = sim.run_experiment(spec, ProposedScheme(7, 12, 300), runs=2, seed=11)
        b = sim.run_experiment(spec, ProposedScheme(7, 12, 300), runs=2, seed=11)
        assert a == b

    def test_rejects_zero_runs(self, spec):
        with pytest.raises(ValueError):
            sim.run_experiment(spec, FixedSfScheme(12), runs=0, seed=1)

    def test_unknown_scheme_type_rejected(self, spec):
        with pytest.raises(TypeError):
            sim.run_session(spec, object(), np.random.default_rng(1))


class TestGridPlacement:
    def test_grid_layout_lands_on_bins(self):
        spec = load_default_spec({"layout": {"recipients": 23}})
        res = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(2))
        grid = set(spec.grid_distances())
        seen = [o.distance_m for o in res.outcomes]
        assert set(seen) <= grid
        counts = [seen.count(g) for g in sorted(grid)]
        assert max(counts) - min(counts) <= 1

    def test_disc_layout_stays_inside_cell(self):
        spec = load_default_spec({"layout": {"kind": "disc", "recipients": 50}})
        res = sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(3))
        radius = spec.network.cell_radius_m
        assert all(0.0 < o.distance_m <= radius for o in res.outcomes)


STOCK, DENSE = 5.0e-5, 2.0e-3


def _sessions(spec, scheme, distance, *, recipients, runs, seed, assignment=None):
    """Per-recipient energies and completion times (nan: unfinished), and
    frames sent per session, from ``runs`` seeded sessions of a cohort
    pinned at one distance."""
    energy, finish, sent = [], [], []
    for child in np.random.SeedSequence(seed).spawn(runs):
        res = sim.run_session(
            spec, scheme, np.random.default_rng(child),
            group_assignment=assignment, distances=np.full(recipients, distance),
        )
        energy.append(res.energy_fragments_j)
        finish.append(res.completion_time_s)
        sent.append(res.transmissions)
    return np.concatenate(energy), np.concatenate(finish), np.array(sent, dtype=float)


def _assert_same_law(a, b, p_min=1e-3, z_max=4.0):
    """Two-sample KS on energy and on completion time, and a z-test on the
    mean frames sent. A cohort at one distance makes the recipients of a
    session i.i.d., which the KS test assumes."""
    (e_a, t_a, s_a), (e_b, t_b, s_b) = a, b
    assert stats.ks_2samp(e_a, e_b).pvalue > p_min
    assert np.isnan(t_a).mean() == pytest.approx(np.isnan(t_b).mean(), abs=0.05)
    assert stats.ks_2samp(t_a[~np.isnan(t_a)], t_b[~np.isnan(t_b)]).pvalue > p_min
    se = math.sqrt(s_a.var(ddof=1) / s_a.size + s_b.var(ddof=1) / s_b.size)
    if se == 0.0:
        assert s_a.mean() == s_b.mean()
    else:
        assert abs(s_a.mean() - s_b.mean()) / se < z_max


# (scheme, cohort distance, group assignment); fixed SF12 at 2e-3 /m2 is the
# saturated field, where 99.998 % of frames overlap an interferer frame
SCHEME_CASES = {
    "proposed": (ProposedScheme(7, 12, 300), 600.0, None),
    "fixed": (FixedSfScheme(12), 800.0, None),
    "group": (GroupBasedScheme("energy"), 400.0, {400.0: 9}),
}


class TestSamplerMatchesFrameOracle:
    """The event-skipping sampler against the frame-by-frame reference
    sampler kept in ``tests/frame_oracle.py``."""

    @pytest.mark.parametrize("density", [STOCK, DENSE], ids=["stock", "dense"])
    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_two_sample_agreement(self, monkeypatch, density, case):
        scheme, distance, assignment = SCHEME_CASES[case]
        spec = load_default_spec({"interferers": {"intensity_per_m2": density}})
        kw = dict(recipients=25, runs=40, assignment=assignment)
        skipping = _sessions(spec, scheme, distance, seed=1, **kw)
        monkeypatch.setattr(sim, "_serve_segment", serve_segment_by_frame)
        by_frame = _sessions(spec, scheme, distance, seed=2, **kw)
        _assert_same_law(skipping, by_frame)

    def test_saturated_field_overlaps_almost_every_frame(self):
        spec = load_default_spec({"interferers": {"intensity_per_m2": DENSE}})
        tables = _tables(spec)
        radius = sim.interference_radius(
            spec.network.link, spec.network.interferers, spec.phy.sensitivity_w(12)
        )
        mean_count = sim.mean_interferer_count(spec.network.interferers, radius)
        rate = tables.event_rate_per_interferer[12 - 7] * mean_count
        assert -math.expm1(-rate) == pytest.approx(0.99998, abs=1e-5)

    def test_empty_field_matches_oracle_and_negative_binomial(self, monkeypatch):
        # no interferer: every frame is clean, so completions fall among
        # clean frames only and the listen count is k + NegBin(k, q)
        spec = load_default_spec({"interferers": {"intensity_per_m2": 0.0}})
        code = _ideal(spec)
        k = code.fragments
        q = spec.network.link.detection_probability(spec.phy.sensitivity_w(9), 400.0)
        assert 0.3 < q < 0.9
        energies, listens = [], []
        for child in np.random.SeedSequence(3).spawn(30):
            res = sim.run_session(
                spec, FixedSfScheme(9), np.random.default_rng(child),
                distances=np.full(20, 400.0), code=code,
            )
            assert all(o.attempts_full == k for o in res.outcomes)
            listens.extend(o.attempts_full + o.attempts_preamble_only for o in res.outcomes)
            energies.append(res.energy_fragments_j)
        listens = np.array(listens, dtype=float)
        se = math.sqrt(k * (1.0 - q)) / q / math.sqrt(listens.size)
        assert abs(listens.mean() - k / q) < 4.0 * se
        monkeypatch.setattr(sim, "_serve_segment", serve_segment_by_frame)
        oracle = [
            sim.run_session(
                spec, FixedSfScheme(9), np.random.default_rng(child),
                distances=np.full(20, 400.0), code=code,
            ).energy_fragments_j
            for child in np.random.SeedSequence(4).spawn(30)
        ]
        assert stats.ks_2samp(np.concatenate(energies), np.concatenate(oracle)).pvalue > 1e-3

    def test_pass_length_does_not_change_the_law(self, monkeypatch):
        laws = {}
        for chunk in (1, 7, 512):
            spec = load_default_spec({"sim": {"chunk_frames": chunk}})
            laws[chunk] = _sessions(
                spec, FixedSfScheme(10), 700.0, recipients=20, runs=20, seed=10 + chunk
            )
        monkeypatch.setattr(sim, "_serve_segment", serve_segment_by_frame)
        oracle = _sessions(
            load_default_spec(), FixedSfScheme(10), 700.0, recipients=20, runs=20, seed=5
        )
        for chunk in (1, 7):
            _assert_same_law(laws[chunk], laws[512])
        _assert_same_law(laws[512], oracle)

    @pytest.mark.parametrize("case", ["fixed", "proposed"])
    def test_need_sized_passes_that_fall_short(self, monkeypatch, case):
        # at 2e-3 /m2 nearly every frame overlaps and many overlaps kill, so a
        # pass sized from the detection probability alone often ends with
        # receptions still needed, and the recipient starts another one
        scheme = {"fixed": FixedSfScheme(10), "proposed": ProposedScheme(7, 12, 300)}[case]
        spec = load_default_spec({"interferers": {"intensity_per_m2": DENSE}})
        kw = dict(recipients=20, runs=30)
        passes = _PassRecorder(monkeypatch)
        sized = _sessions(spec, scheme, 700.0, seed=21, **kw)
        assert passes.short_passes_resumed() > 0
        monkeypatch.setattr(sim, "_serve_segment", serve_segment_by_frame)
        by_frame = _sessions(spec, scheme, 700.0, seed=22, **kw)
        _assert_same_law(sized, by_frame)


class _PassRecorder:
    """Records each sampler pass: its recipients, their pass lengths and
    budgets left, and the overlapped frames judged for each."""

    def __init__(self, monkeypatch):
        self.passes = []
        lengths, verdicts = sim._pass_lengths, sim._dirty_frame_verdicts

        def record_lengths(need, p, chunk_frames, budget_left):
            f = lengths(need, p, chunk_frames, budget_left)
            self.passes.append(dict(f=f, chunk=chunk_frames, left=budget_left.copy()))
            return f

        def record_verdicts(rng, state, tables, row, active, *args):
            dirty = args[-1]
            self.passes[-1].update(
                segment=(state, row), active=active.copy(), dirty=dirty.copy()
            )
            return verdicts(rng, state, tables, row, active, *args)

        monkeypatch.setattr(sim, "_pass_lengths", record_lengths)
        monkeypatch.setattr(sim, "_dirty_frame_verdicts", record_verdicts)

    def short_passes_resumed(self):
        """Recipients that ended a pass shorter than both caps, which only
        its expected need set, and were served again in the next pass of the
        same segment."""
        resumed = 0
        for this, after in zip(self.passes, self.passes[1:]):
            if this["segment"] != after["segment"]:
                continue
            sized = this["active"][this["f"] < np.minimum(this["chunk"], this["left"])]
            resumed += np.isin(sized, after["active"]).sum()
        return int(resumed)


class TestPassSizing:
    """Per-recipient pass lengths, watched pass by pass."""

    @staticmethod
    def _check_passes(passes):
        assert passes.passes
        for p in passes.passes:
            assert np.all(p["f"] >= 1)
            assert np.all(p["f"] <= p["chunk"])
            assert np.all(p["f"] <= p["left"])
            assert np.all(p["dirty"] <= p["f"])

    def test_clean_channel_takes_k_frames_in_one_pass(self, monkeypatch):
        spec = load_default_spec(CLEAN_OVERRIDES)
        passes = _PassRecorder(monkeypatch)
        res = sim.run_session(
            spec, FixedSfScheme(7), np.random.default_rng(7),
            distances=np.full(10, 300.0), code=_ideal(spec),
        )
        k = spec.firmware.fragments
        assert res.transmissions == k
        self._check_passes(passes)
        # k plus three standard deviations, all received in the first pass
        assert len(passes.passes) == 1
        assert np.all(passes.passes[0]["f"] == math.ceil(k + 3.0 * math.sqrt(k)))

    def test_deaf_link_burns_the_budget_in_full_passes(self, monkeypatch):
        spec = load_default_spec({
            "phy": {"sensitivity_dbm": {7: -10.0, 8: -11.0, 9: -12.0,
                                        10: -13.0, 11: -14.0, 12: -15.0}},
        })
        passes = _PassRecorder(monkeypatch)
        res = sim.run_session(spec, FixedSfScheme(9), np.random.default_rng(9),
                              distances=np.full(12, 800.0))
        cap = sim.attempts_cap(spec, spec.firmware.code)
        assert res.transmissions == cap
        assert np.all(res.attempts_preamble_only == cap)
        self._check_passes(passes)
        # nothing is ever detected, so each pass is as long as the caps allow
        chunk = spec.sim.chunk_frames
        assert [int(p["f"][0]) for p in passes.passes] == (
            [chunk] * (cap // chunk) + ([cap % chunk] if cap % chunk else [])
        )

    def test_dense_field_judges_at_most_a_pass_per_recipient(self, monkeypatch):
        spec = load_default_spec({"interferers": {"intensity_per_m2": DENSE}})
        passes = _PassRecorder(monkeypatch)
        sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(5),
                        distances=np.full(20, 600.0))
        self._check_passes(passes)
        assert sum(int(p["dirty"].sum()) for p in passes.passes) > 0


class TestOverlapDraws:
    """The overlap count and interferer-SF draws of the verdict kernel."""

    @pytest.mark.parametrize("rate", [0.01, 0.5, 6.0])
    def test_overlap_count_is_zero_truncated_poisson(self, rate):
        n = 100_000
        rates = np.full(n, rate)
        cell = sim._overlap_frames(np.random.default_rng(31), rates, -np.expm1(-rates))
        assert np.all(cell[:n] == np.arange(n))
        k = np.bincount(cell, minlength=n)
        # bins 1 .. top - 1, then k >= top, each expecting at least five
        law = stats.poisson(rate)
        norm = law.sf(0)
        top = 1
        while n * law.pmf(top + 1) / norm >= 5.0:
            top += 1
        expected = np.append(law.pmf(np.arange(1, top)), law.sf(top - 1)) / norm * n
        observed = np.append(np.bincount(k, minlength=top)[1:top], (k >= top).sum())
        assert k.min() >= 1
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @given(
        weights=st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
        free=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    @example(weights=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], free=[0.5])  # cdf[-1] < 1
    @example(weights=[0.0] * 6, free=[0.0, 0.99])  # an empty mix: every entry is 1
    def test_sf_draw_matches_searchsorted(self, weights, free):
        w = np.array(weights)
        # as sim._SfTables builds a row of the CDF
        cdf = np.cumsum(w / w.sum()) if w.sum() > 0 else np.ones(6)
        below_one = np.nextafter(1.0, 0.0)
        edges = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)))
        u = np.concatenate((
            free, edges[(edges >= 0.0) & (edges < 1.0)], [min(cdf[-1], below_one), below_one],
        ))
        want = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
        assert np.array_equal(sim._interferer_sf_rows(cdf, u), want)


def _clean_state(needs, sessions):
    """A batch state on an empty field where every frame is received,
    with recipient ``i`` still ``needs[i]`` receptions short."""
    needs = np.asarray(needs, dtype=np.int64)
    n = needs.size
    state = sim._SessionState(
        sessions=sessions,
        session=np.repeat(np.arange(sessions), n // sessions),
        d_alpha=np.ones(n),
        thresholds=np.full(n, 10_000, dtype=np.int64),
        int_counts=np.zeros(n, dtype=np.int64),
        radius_m=1.0,
        path_loss_exponent=2.7,
        detect_scale=np.zeros(6),
        key=0,
    )
    state.received[:] = state.thresholds - needs
    return state


def _interferer_state(radius_m=1200.0, alpha=2.7, key=12345, counts=(10**5,), **zones):
    """A state holding only an interferer field, one recipient per entry of
    ``counts``; ``zones`` may give ``near_counts`` and ``near_share``."""
    n = len(counts)
    return sim._SessionState(
        sessions=1, session=np.zeros(n, dtype=np.int64), d_alpha=np.ones(n),
        thresholds=np.ones(n, dtype=np.int64), int_counts=np.asarray(counts),
        radius_m=radius_m, path_loss_exponent=alpha, detect_scale=np.zeros(6), key=key,
        **zones,
    )


def _batch_law(spec, scheme, assignment, runs, seed):
    """Per-session durations and per-bin recipient energies of ``runs``
    sessions served through the batch loop."""
    bins = np.array(spec.grid_distances())
    durations, energy = [], {b: [] for b in bins}
    for batch in sim.session_batches(spec, scheme, runs, seed, group_assignment=assignment):
        durations.append(batch.duration_s)
        for b in bins:
            energy[b].append(batch.energy_fragments_j[batch.distances == b])
    return np.concatenate(durations), {b: np.concatenate(e) for b, e in energy.items()}


# a plausible energy-criterion map of the ten grid bins
GROUP_MAP = {100.0 * (i + 1): sf for i, sf in enumerate([7, 7, 8, 8, 9, 9, 10, 10, 11, 12])}


class TestBatchedSessions:
    """Sessions batched in one state against sessions simulated alone."""

    def test_batch_sizes_follow_the_recipient_cap(self, monkeypatch):
        sizes = []
        real = sim.run_session

        def recording(*args, sessions, **kwargs):
            sizes.append(sessions)
            return real(*args, sessions=sessions, **kwargs)

        monkeypatch.setattr(sim, "run_session", recording)
        # the stock cohort fits many sessions in a batch; 10^4 recipients
        # fit one, so their three runs take three batches
        for recipients, runs in ((100, 25), (10**4, 3)):
            spec = load_default_spec({"layout": {"recipients": recipients}})
            sizes.clear()
            res = sim.run_experiment(spec, FixedSfScheme(12), runs=runs, seed=4)
            per_batch = max(1, sim.BATCH_RECIPIENTS // recipients)
            assert sizes == [min(per_batch, runs - first) for first in range(0, runs, per_batch)]
            assert res.runs == runs
        assert len(sizes) == 3
        sizes.clear()
        monkeypatch.setattr(sim, "BATCH_RECIPIENTS", 1)
        sim.run_experiment(load_default_spec(), FixedSfScheme(12), runs=3, seed=4)
        assert sizes == [1, 1, 1]

    def test_stock_batch_memory_stays_slim(self):
        # per-recipient totals instead of (recipients x SF) matrices: one
        # batch of 80 stock sessions serving the ramp peaked at 3.68 MB with
        # four such matrices and at 2.33 MB with totals
        spec = load_default_spec({"layout": {"recipients": 100}})
        scheme = ProposedScheme(7, 12, 300)
        sim.run_session(spec, scheme, np.random.default_rng(0), sessions=80)
        tracemalloc.start()
        try:
            sim.run_session(spec, scheme, np.random.default_rng(1), sessions=80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    @pytest.mark.parametrize("density", [STOCK, DENSE], ids=["stock", "dense"])
    @pytest.mark.parametrize("case", ["proposed", "gb-e"])
    def test_batched_matches_one_session_per_batch(self, monkeypatch, density, case):
        scheme, assignment = {
            "proposed": (ProposedScheme(7, 12, 300), None),
            "gb-e": (GroupBasedScheme("energy"), GROUP_MAP),
        }[case]
        spec = load_default_spec({
            "interferers": {"intensity_per_m2": density},
            "layout": {"recipients": 20},
        })
        # the 60 sessions of 20 recipients fill one batch
        batched = _batch_law(spec, scheme, assignment, runs=60, seed=3)
        monkeypatch.setattr(sim, "BATCH_RECIPIENTS", 1)
        alone = _batch_law(spec, scheme, assignment, runs=60, seed=4)
        assert stats.ks_2samp(batched[0], alone[0]).pvalue > 1e-3
        for b, energies in batched[1].items():
            assert stats.ks_2samp(energies, alone[1][b]).pvalue > 1e-3, b

    def test_empty_field_sessions_end_as_lone_sessions(self):
        spec = load_default_spec(CLEAN_OVERRIDES)
        code = _ideal(spec)
        kw = dict(distances=np.full(10, 300.0), code=code)
        lone = sim.run_session(spec, FixedSfScheme(7), np.random.default_rng(1), **kw)
        batch = sim.run_session(
            spec, FixedSfScheme(7), np.random.default_rng(2), sessions=4, **kw
        )
        assert batch.transmissions == 4 * lone.transmissions == 4 * code.fragments
        assert np.array_equal(batch.duration_s, np.repeat(lone.duration_s, 4))
        assert np.array_equal(batch.completion_time_s, np.tile(lone.completion_time_s, 4))
        assert np.array_equal(batch.session, np.repeat(np.arange(4), 10))

    def test_sessions_leave_a_segment_on_different_passes(self):
        # chunks of 512 frames: the sessions finish on passes 1, 2 and 3,
        # and the last one is cut by the 2,000-frame budget
        spec = load_default_spec(CLEAN_OVERRIDES)
        tables = _tables(spec)
        needs = [[5, 3], [700, 650], [1400, 1500], [2500, 10]]
        t_start = np.array([0.0, 12.5, 1e4 / 3.0, 7.0])
        batch = _clean_state(np.concatenate(needs), sessions=4)
        sent, left = sim._serve_segment(
            np.random.default_rng(3), batch, tables, 9, 2000, np.arange(8), t_start, 512
        )
        assert list(sent) == [5, 700, 1500, 2000]
        assert list(left) == [6]
        for s, need in enumerate(needs):
            alone = _clean_state(need, sessions=1)
            one_sent, one_left = sim._serve_segment(
                np.random.default_rng(4), alone, tables, 9, 2000, np.arange(2),
                t_start[s:s + 1], 512,
            )
            mine = slice(2 * s, 2 * s + 2)
            assert sent[s] == one_sent[0]
            assert list(one_left + 2 * s) == [g for g in left if batch.session[g] == s]
            for field_ in ("completion_time", "received", "completed", "full_listens",
                           "preamble_listens", "energy"):
                assert np.array_equal(
                    getattr(batch, field_)[mine], getattr(alone, field_), equal_nan=True
                ), (s, field_)


class TestCounterBasedDraws:
    """Interferer distances from SplitMix64 of the batch key and the slot."""

    def test_a_slot_always_gives_the_same_value(self):
        state = _interferer_state()
        first = state.interferer_u_alpha(np.array([5, 99_999, 5, 0]))
        again = state.interferer_u_alpha(np.array([0, 5]))
        assert first[0] == first[2] == again[1]
        assert first[3] == again[0]
        assert first[0] != first[1]
        other = _interferer_state(key=54321).interferer_u_alpha(np.array([5]))
        assert other[0] != first[0]

    def test_consecutive_slots_are_uniform(self):
        u = sim._counter_uniform(np.uint64(2024), np.arange(10**5))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_radial_cdf_at_half_radius(self):
        radius, alpha = 1200.0, 2.7
        u_alpha = _interferer_state(radius, alpha).interferer_u_alpha(np.arange(10**5))
        inner = float(np.mean(u_alpha <= (radius / 2.0) ** alpha))
        assert inner == pytest.approx(0.25, abs=0.01)

    def test_dense_session_memory_stays_bounded(self):
        # nothing is stored per interferer and the verdicts run in blocks;
        # storing one float per interferer alone took 16 MB here
        spec = load_default_spec({
            "interferers": {"intensity_per_m2": DENSE}, "layout": {"recipients": 100}
        })
        sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(0))
        tracemalloc.start()
        try:
            sim.run_session(spec, FixedSfScheme(12), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestNearFarZones:
    """The split of each recipient's interferers into a near zone, the
    centre ``near_share`` of the disc's area, and a far zone."""

    Q, MEAN, RECIPIENTS = 0.3, 30.0, 20_000

    def _zoned(self, seed=41):
        counts, near = sim._draw_interferers(
            np.random.default_rng(seed), self.MEAN, self.Q, self.RECIPIENTS
        )
        return counts, near, _interferer_state(
            counts=counts, near_counts=near, near_share=self.Q, key=seed
        )

    def test_near_count_is_binomial_given_the_count(self):
        counts, near, _ = self._zoned()
        assert np.all((near >= 0) & (near <= counts))
        # expected recipients per near count: each recipient's Binomial(K_i, q)
        # pmf, summed; the tails are pooled until each cell expects five
        values = np.arange(counts.max() + 1)
        expected = stats.binom.pmf(values[:, None], counts[None, :], self.Q).sum(axis=1)
        observed = np.bincount(near, minlength=values.size)
        ok = np.flatnonzero(expected >= 5.0)
        lo, hi = ok[0], ok[-1]

        def pooled(x):
            return np.concatenate(([x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]))

        assert stats.chisquare(pooled(observed), pooled(expected)).pvalue > 1e-3

    def test_every_interferer_has_its_own_slot(self):
        counts, _, state = self._zoned()
        owner = np.repeat(np.arange(counts.size), counts)
        local = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        slots = state.interferer_slots(owner, local)
        assert np.array_equal(np.sort(slots), np.arange(owner.size))

    def test_radial_cdf_is_the_near_share_at_the_zone_edge(self):
        counts, near, state = self._zoned()
        slots = np.arange(counts.sum())
        u_alpha = state.interferer_u_alpha(slots)
        edge = state.far_edge_alpha
        assert edge == pytest.approx(1200.0**2.7 * self.Q**1.35, rel=1e-12)
        # a slot's zone is exactly whether its distance is inside the edge
        inside = u_alpha < edge
        assert np.array_equal(inside, slots < near.sum())
        se = math.sqrt(self.Q * (1.0 - self.Q) / slots.size)
        assert abs(inside.mean() - self.Q) < 4.0 * se

    def test_radial_cdf_at_half_radius(self):
        counts, _, state = self._zoned()
        u_alpha = state.interferer_u_alpha(np.arange(counts.sum()))
        inner = float(np.mean(u_alpha <= 600.0**2.7))
        assert inner == pytest.approx(0.25, abs=0.01)


def _verdict_law(tables, row, d_alpha, u_alpha):
    """Probabilities that one detected frame is received, killed in its
    preamble, and killed after it, by quadrature over the fading: given the
    level L, the overlaps of interferer k at SF j kill at the rate
    rho * pi_j * exp(-L * u_k / c_j), a share of them in the preamble."""
    rho = tables.event_rate_per_interferer[row]
    mix, capture = tables.sf_mix[row], tables.capture[row]
    pre = tables.preamble_share[row]
    scale = tables.detect_scale[row]

    def rates(e):
        level = scale + e / d_alpha
        kill = rho * (mix * np.exp(-level * u_alpha[:, None] / capture)).sum(axis=0)
        return (kill * pre).sum(), (kill * (1.0 - pre)).sum()

    def killed_pre(e):
        return -math.expm1(-rates(e)[0]) * math.exp(-e)

    def killed_after(e):
        in_pre, after = rates(e)
        return math.exp(-in_pre) * -math.expm1(-after) * math.exp(-e)

    p_pre = integrate.quad(killed_pre, 0.0, np.inf, epsabs=0.0, epsrel=1e-10)[0]
    p_after = integrate.quad(killed_after, 0.0, np.inf, epsabs=0.0, epsrel=1e-10)[0]
    return np.array([1.0 - p_pre - p_after, p_pre, p_after])


class TestThinnedVerdicts:
    """The verdict kernel's outcomes for one recipient with a known small
    interferer field, against the exact per-frame law."""

    @pytest.mark.parametrize("near_share,near", [(0.0, 0), (0.2, 2)], ids=["unthinned", "zoned"])
    def test_outcomes_match_the_exact_law(self, near_share, near):
        spec = load_default_spec()
        tables = _tables(spec)
        alpha = spec.network.link.path_loss_exponent
        # SF10 at 700 m; at near share 0.2 the zone edge is 793 m, so the far
        # interferers sit close enough to kill often and a wrong gap or SF
        # tilt in the far law shows
        row, d_alpha, count, frames = 3, 700.0**alpha, 6, 200_000
        # recipient 1 is judged; recipient 0 holds other interferers, all
        # near when there is a near zone, so that a slot lookup that mixes
        # the two up shows
        state = sim._SessionState(
            sessions=1, session=np.zeros(2, dtype=np.int64), d_alpha=np.full(2, d_alpha),
            thresholds=np.ones(2, dtype=np.int64), int_counts=np.array([count, count]),
            radius_m=tables.radius_m, path_loss_exponent=alpha,
            detect_scale=tables.detect_scale, key=2024,
            near_counts=np.array([count if near_share > 0 else 0, near]), near_share=near_share,
        )
        u_alpha = state.interferer_u_alpha(
            state.interferer_slots(np.ones(count, dtype=np.int64), np.arange(count))
        )
        law = _verdict_law(tables, row, d_alpha, u_alpha)

        # as _serve_segment sets up a segment
        active = np.array([1])
        far_law = sim._far_law(state, tables, row)
        weight = state.candidate_weight(active, far_law[1])
        p_dirty = -np.expm1(-tables.event_rate_per_interferer[row] * weight)
        threshold = state.d_alpha[active] * tables.detect_scale[row]
        ok, heard_lost = sim._dirty_frame_verdicts(
            np.random.default_rng(77), state, tables, row, active, threshold,
            weight, p_dirty, far_law, np.array([frames]),
        )
        observed = np.array([ok[0], frames - ok[0] - heard_lost[0], heard_lost[0]])
        # the kernel judges frames with at least one candidate; the others
        # are received
        kills = law[1:] / p_dirty[0]
        expected = frames * np.concatenate(([1.0 - kills.sum()], kills))
        assert expected.min() > 100.0
        assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestCompletionPlacement:
    """``_place_completion`` against explicit shuffles of a pass."""

    @pytest.mark.parametrize(
        "r,got,heard_lost,frames",
        [
            (1, 1, 0, 1),  # the pass is one frame, which completes it
            (3, 3, 0, 3),  # every frame is a reception
            (2, 5, 4, 20),
            (5, 6, 0, 40),
            (1, 9, 30, 40),
        ],
    )
    def test_law_matches_shuffled_pass(self, r, got, heard_lost, frames):
        draws = 4000
        rng = np.random.default_rng(17)
        at, full = sim._place_completion(
            rng,
            np.full(draws, r), np.full(draws, got), np.full(draws, heard_lost),
            np.full(draws, frames),
        )
        # 2: reception, 1: full listen without one, 0: preamble-only listen
        pass_ = np.array([2] * got + [1] * heard_lost + [0] * (frames - got - heard_lost))
        want_at, want_full = [], []
        for _ in range(draws):
            seq = rng.permutation(pass_)
            stop = int(np.flatnonzero(seq == 2)[r - 1])
            want_at.append(stop + 1)
            want_full.append(int((seq[: stop + 1] > 0).sum()))
        assert np.all((at >= r) & (at <= frames - got + r))
        assert np.all((full >= r) & (full <= at))
        for mine, want in ((at, want_at), (full, want_full)):
            if np.ptp(want) == 0:
                assert np.all(mine == want[0])
            else:
                assert stats.ks_2samp(mine, want).pvalue > 1e-3
