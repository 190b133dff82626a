"""Closed-form reception, energy, and timing models.

Two independent references anchor the outage-plus-capture integrals:

* A 25-digit adaptive quadrature (mpmath) of the survivor integral
  S = exp(-c) * int_0^inf exp(-t) (1 - Q(c + t))^n dt, with the disc
  average of the capture-kill probability done through the incomplete
  gamma closed form. Frozen below in MPMATH_ORACLE and regenerated by
  ``scripts/make_mpmath_oracle.py``. The four stock-field cases agree with
  this module to within 4e-16 relative; the three at the low end, the mode
  and the high end of the 2e-3 /m2 count window to within 5e-14.
* A direct Monte Carlo of the same mechanism (shared desired fading, one
  Bernoulli collision per interferer, fresh interferer fading), run here
  at reduced size and checked to four standard errors. A 2e6-trial run
  agreed with the frozen values within 0.8 standard errors.

Everything else is checked against small hand models built inline.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fuotacast import analysis, benchmarks, sim
from fuotacast.analysis import (
    AnalysisOptions,
    NumericalIntegrationError,
    UnreachableRecipientError,
)
from fuotacast.channel import ChannelLaw, interferer_count_weights
from fuotacast.config import ConfigError, load_default_spec
from fuotacast.schemes import GroupBasedScheme, ProposedScheme, session_plan

PAYLOAD = 50
NEEDED = 201.96304849884527

# (distance_m, interferer_count, sf, segment) -> survival probability
MPMATH_ORACLE = {
    (500.0, 3, 9, "preamble"): 0.293265845393580,
    (500.0, 3, 9, "frame"): 0.293264714227246,
    (900.0, 10, 11, "preamble"): 0.222479799715397,
    (900.0, 10, 11, "frame"): 0.222448494015653,
    (500.0, 19074, 12, "frame"): 0.482375417768757,
    (500.0, 19757, 12, "frame"): 0.473968752239979,
    (500.0, 20449, 12, "frame"): 0.465647470963305,
}
# the Monte Carlo draws every interferer, so it covers the small counts only
MC_SEEDS = {
    (500.0, 3, 9, "preamble"): 11,
    (500.0, 3, 9, "frame"): 12,
    (900.0, 10, 11, "preamble"): 13,
    (900.0, 10, 11, "frame"): 14,
}


def _law(phy, link, field):
    """The channel law of PAYLOAD-byte fragments at a 1 % duty cycle."""
    return ChannelLaw.build(phy, link, field, PAYLOAD, 1.0)


def _survival(d0, n, sf, segment, law):
    """Pointwise survival probability at one interferer count."""
    tab = analysis.success_tables(d0, law, counts=[n])
    table = tab.preamble_success if segment == "preamble" else tab.frame_success
    return float(table[sf - 7][0])


class TestSurvivalOracles:
    def test_frozen_mpmath_values(self, law):
        for (d0, n, sf, seg), want in MPMATH_ORACLE.items():
            got = _survival(d0, n, sf, seg, law)
            assert got == pytest.approx(want, rel=1e-12), (d0, n, sf, seg)

    @pytest.mark.parametrize("case", sorted(MC_SEEDS))
    def test_monte_carlo_agrees(self, case, phy, link, field, law):
        d0, n, sf, seg = case
        trials = 200_000
        rng = np.random.default_rng(MC_SEEDS[case])
        radius = law.radius_m
        alpha = link.path_loss_exponent
        own = (
            phy.preamble_duration(sf)
            if seg == "preamble"
            else phy.frame_airtime(sf, PAYLOAD)
        )
        sfs = list(range(7, 13))
        mix = np.array([field.sf_probabilities[j] for j in sfs])
        collide_p = np.array(
            [
                (own + field.mean_frame_duration_s[j])
                * field.frame_rate_hz
                / field.channel_count
                for j in sfs
            ]
        )
        xi = np.array([phy.capture_ratio(sf, j) for j in sfs])
        c = phy.sensitivity_w(sf) * d0**alpha / (link.link_gain * link.tx_rf_power_w)
        a = rng.exponential(1.0, trials)
        alive = a > c
        for _ in range(n):
            j = rng.choice(len(sfs), trials, p=mix)
            collide = rng.random(trials) < collide_p[j]
            u = radius * np.sqrt(rng.random(trials))
            # capture fails when the interferer outfades a * (u/d0)^alpha / xi
            limit = a * (u / d0) ** alpha / xi[j]
            alive &= ~(collide & (rng.exponential(1.0, trials) > limit))
        p_hat = alive.mean()
        se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        assert MPMATH_ORACLE[case] == pytest.approx(p_hat, abs=4 * se)

    def test_quadrature_refinement_failure_raises(self, spec):
        dense = dataclasses.replace(spec.network.interferers, intensity_per_m2=0.05)
        dense_law = _law(spec.phy, spec.network.link, dense)
        strict = dataclasses.replace(spec.analysis, quadrature_rtol=1e-13)
        with pytest.raises(NumericalIntegrationError) as info:
            analysis.success_tables(1000.0, dense_law, options=strict)
        # the message names the worst count, which must lie in the window
        found = re.search(r"SF\d+ at 1000\.0 m: .* at interferer count (\d+)$", str(info.value))
        assert found, str(info.value)
        window = _window(dense_law, strict.count_tail_mass)
        assert window[0] <= int(found.group(1)) <= window[-1]


def _loss(d0, sf, segment, law):
    """Q(c + t) as a function of t, through the module's closed form."""
    d_alpha = d0**law.path_loss_exponent
    c = float(d_alpha * law.detect_scale[sf - 7])
    window = (law.preamble_window if segment == "preamble" else law.frame_window)[sf - 7]

    def q_of_t(t):
        terms = analysis._loss_terms(c + np.atleast_1d(t), law.capture[sf - 7], law, d_alpha)
        return analysis._per_interferer_loss(terms, window, law)

    return c, q_of_t


def _direct_power_sums(survive, counts):
    """The count-by-node power matrix that the two-level table replaces."""
    n_coarse = analysis._NODES_COARSE.size
    out = []
    for s, nodes, weights in (
        (survive[:n_coarse], analysis._NODES_COARSE, analysis._WEIGHTS_COARSE),
        (survive[n_coarse:], analysis._NODES_FINE, analysis._WEIGHTS_FINE),
    ):
        powered = np.power(s[None, :], counts[:, None].astype(np.float64))
        out.append(powered @ (weights * np.exp(-nodes)))
    return np.stack(out)


def _window(law, tail=1e-6):
    return interferer_count_weights(law.mean_count, tail)[0]


class TestPowerTable:
    """The two-level power table against the direct power matrix."""

    SURVIVE_CASES = (
        (100.0, 7, "frame"),
        (500.0, 12, "frame"),
        (900.0, 12, "preamble"),
    )

    def _check(self, counts, law):
        counts = np.asarray(counts, dtype=np.int64)
        for d0, sf, segment in self.SURVIVE_CASES:
            _, q_of_t = _loss(d0, sf, segment, law)
            survive = 1.0 - q_of_t(analysis._NODES)
            got = analysis._power_sums(survive, counts)
            np.testing.assert_allclose(
                got, _direct_power_sums(survive, counts), rtol=1e-13, atol=0.0,
                err_msg=f"{d0} m SF{sf} {segment}",
            )

    @pytest.mark.parametrize("density", [5e-5, 2e-3])
    def test_count_windows(self, density, phy, link, field, law):
        dense = dataclasses.replace(field, intensity_per_m2=density)
        self._check(_window(_law(phy, link, dense)), law)

    @pytest.mark.parametrize("counts", [[0], [5], [0, 7, 1000]])
    def test_explicit_counts(self, counts, law):
        self._check(counts, law)

    # 1, 2, and B**2 and B**2 + 1 for B = 3 and 37 (B**2 + 1 needs B + 1)
    @pytest.mark.parametrize("span", [1, 2, 9, 10, 1369, 1370])
    def test_spans_around_a_full_square(self, span, law):
        self._check(np.arange(19074, 19074 + span), law)


class TestPoissonPgfIdentity:
    """sum_n w_n S(n) = e**-c int e**-t exp(-m Q(c + t)) dt, because
    E[(1 - Q)**N] = exp(-m Q) for Poisson N of mean m."""

    @pytest.mark.parametrize("density", [5e-5, 2e-3])
    @pytest.mark.parametrize("d0", [100.0, 500.0, 950.0])
    @pytest.mark.parametrize("sf", [7, 12])
    def test_deconditioned_success_matches_pgf(self, density, d0, sf, spec):
        opts = spec.analysis
        dense = dataclasses.replace(spec.network.interferers, intensity_per_m2=density)
        law = _law(spec.phy, spec.network.link, dense)
        tables = analysis.success_tables(d0, law, options=opts)
        m = law.mean_count
        budget = opts.count_tail_mass + opts.quadrature_rtol
        for segment, got in (
            ("preamble", float(tables.count_weights @ tables.preamble_success[sf - 7])),
            ("frame", float(tables.count_weights @ tables.frame_success[sf - 7])),
        ):
            c, q_of_t = _loss(d0, sf, segment, law)
            edges = (0.0, 0.05, 0.25, 1.0, 4.0, 16.0, np.inf)
            integral = sum(
                integrate.quad(
                    lambda t: math.exp(-t - m * float(q_of_t(t)[0])),
                    a, b, epsabs=0.0, epsrel=1e-12, limit=200,
                )[0]
                for a, b in zip(edges[:-1], edges[1:])
            )
            want = math.exp(-c) * integral
            assert got == pytest.approx(want, rel=budget, abs=0.0), segment


class TestCollisionProbability:
    """The per-interferer overlap windows of the channel law."""

    def test_matches_window_formula(self, phy, field, law):
        for seg, windows in (("preamble", law.preamble_window), ("frame", law.frame_window)):
            for s in (7, 9, 12):
                for j in (7, 10, 12):
                    own = (
                        phy.preamble_duration(s)
                        if seg == "preamble"
                        else phy.frame_airtime(s, PAYLOAD)
                    )
                    want = (
                        (own + field.mean_frame_duration_s[j])
                        * field.frame_rate_hz
                        / field.channel_count
                    )
                    assert windows[s - 7, j - 7] == pytest.approx(want, rel=1e-12)

    def test_hand_value(self, law):
        # SF9 frame against SF7 traffic: (0.328704 + 0.030976) s windows at
        # one frame per 600 s over 8 channels
        assert law.frame_window[9 - 7, 7 - 7] == pytest.approx(0.35968 / 4800.0, rel=1e-12)

    def test_window_above_one_is_rejected(self, phy, link, field):
        # both engines count at most one overlap per interferer and frame on
        # average, so neither holds past a window of 1; the largest window
        # is an SF12 frame against SF12 traffic
        span = phy.frame_airtime(12, PAYLOAD) + field.mean_frame_duration_s[12]
        edge = field.channel_count / span
        calm = dataclasses.replace(field, frame_rate_hz=edge * (1.0 - 1e-9))
        assert ChannelLaw.build(phy, link, calm, PAYLOAD, 1.0).frame_window.max() < 1.0
        busy = dataclasses.replace(field, frame_rate_hz=edge * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="interferers.frame_rate_hz"):
            ChannelLaw.build(phy, link, busy, PAYLOAD, 1.0)
        with pytest.raises(ConfigError, match="interferers.frame_rate_hz .* SF12 frame"):
            load_default_spec({"interferers": {"frame_rate_hz": 10_000.0}})


class TestDegenerateCases:
    def test_zero_frame_rate_failure_is_pure_outage(self, spec):
        phy, link = spec.phy, spec.network.link
        quiet = dataclasses.replace(spec.network.interferers, frame_rate_hz=0.0)
        for d0 in (150.0, 700.0, 1000.0):
            for sf in (7, 10, 12):
                c = (
                    phy.sensitivity_w(sf)
                    * d0**link.path_loss_exponent
                    / (link.link_gain * link.tx_rf_power_w)
                )
                want = 1.0 - math.exp(-c)
                for n in (0, 4, 60):
                    got = 1.0 - _survival(d0, n, sf, "preamble", _law(phy, link, quiet))
                    assert got == pytest.approx(want, abs=1e-9)

    def test_zero_intensity_strong_link_energy_exact(self):
        perfect = load_default_spec(
            {
                "phy": {
                    "sensitivity_dbm": {
                        7: -995.0, 8: -996.0, 9: -997.0,
                        10: -998.0, 11: -999.0, 12: -1000.0,
                    }
                },
                "interferers": {"intensity_per_m2": 0.0},
            }
        )
        phy = perfect.phy
        tab = analysis.success_tables(800.0, perfect.law)
        assert float(tab.frame_success[0][0]) == 1.0
        k = 200.0
        energy, time, frames = analysis.evaluate_stream([(7, 10_000)], _costs(tab, perfect.law), k)
        assert energy[0] == k * phy.rx_energy_frame(7, PAYLOAD)
        assert time[0] == pytest.approx(k * 100.0 * phy.frame_airtime(7, PAYLOAD), rel=1e-12)
        assert frames[0] == pytest.approx(k, abs=1e-9)


class TestSuccessTables:
    def test_explicit_counts_uniform_weights(self, law):
        tab = analysis.success_tables(400.0, law, counts=[0, 2, 7])
        assert list(tab.count_values) == [0, 2, 7]
        assert np.allclose(tab.count_weights, 1.0 / 3.0)

    def test_rejects_bad_counts(self, law):
        with pytest.raises(ValueError):
            analysis.success_tables(400.0, law, counts=[])
        with pytest.raises(ValueError):
            analysis.success_tables(400.0, law, counts=[-1])
        with pytest.raises(ValueError):
            analysis.success_tables(-5.0, law)

    def test_row_matches_pointwise_wrappers(self, law):
        # each column of a multi-count table against a one-count table
        tab = analysis.success_tables(600.0, law, counts=[0, 5, 9])
        for sf in range(7, 13):
            for col, n in enumerate((0, 5, 9)):
                assert float(tab.preamble_success[sf - 7][col]) == pytest.approx(
                    _survival(600.0, n, sf, "preamble", law), rel=1e-12
                )
                assert float(tab.frame_success[sf - 7][col]) == pytest.approx(
                    _survival(600.0, n, sf, "frame", law), rel=1e-12
                )

    def test_partition_ordering(self, phy, link, law):
        tab = analysis.success_tables(800.0, law)
        for sf in range(7, 13):
            pre = tab.preamble_success[sf - 7]
            fr = tab.frame_success[sf - 7]
            base = math.exp(
                -phy.sensitivity_w(sf)
                * tab.distance_m**link.path_loss_exponent
                / (link.link_gain * link.tx_rf_power_w)
            )
            assert np.all(fr <= pre + 1e-15)
            assert np.all(pre <= base + 1e-15)
            assert np.all(fr >= 0.0)

    @given(
        d0=st.floats(min_value=100.0, max_value=1500.0),
        sf=st.sampled_from(range(7, 13)),
        n=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=25)
    def test_survival_decreases_with_interferers(self, law, d0, sf, n):
        s_n = _survival(d0, n, sf, "frame", law)
        s_more = _survival(d0, n + 5, sf, "frame", law)
        assert s_more <= s_n + 1e-12

    def test_survival_decreases_with_distance(self, law):
        vals = [_survival(d, 3, 10, "frame", law) for d in (200.0, 500.0, 900.0, 1300.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_attempt_energy_partition_identity(self, phy, law):
        tab = analysis.success_tables(700.0, law)
        got = _costs(tab, law).attempt_energy
        for sf in range(7, 13):
            pre = tab.preamble_success[sf - 7]
            want = pre * phy.rx_energy_frame(sf, PAYLOAD) + (
                1.0 - pre
            ) * phy.rx_energy_preamble(sf)
            assert np.allclose(got[sf - 7], want, rtol=1e-14)

    def test_payload_failure_given_preamble_requires_detection(self, phy, law):
        # distance so large the detection probability underflows to zero: the
        # payload failure given the preamble is undefined, so the printed
        # energy form charges preamble-only listens
        tab = analysis.success_tables(1e9, law, counts=[0])
        assert float(tab.preamble_success[0][0]) == 0.0
        got = _printed_attempt_energy(tab, law)[0]
        assert list(got) == [phy.rx_energy_preamble(7)]

    def test_expected_round_receptions_is_linear(self, law):
        # a round of w frames at one SF is expected to hold w * S receptions,
        # so a need just under that finishes inside the round, and one just
        # over spills into the next
        tab = analysis.success_tables(500.0, law, counts=[3])
        s = float(tab.frame_success[9 - 7][0])
        scheme = ProposedScheme(9, 12, 300)
        inside = _ramp(tab, scheme, 300.0 * s * (1.0 - 1e-9), law)[2][0]
        spilled = _ramp(tab, scheme, 300.0 * s * (1.0 + 1e-9), law)[2][0]
        assert inside < 300.0 < spilled
        with pytest.raises(ValueError):
            ProposedScheme(9, 12, 0)


def _costs(tab, law):
    return analysis.stream_costs(tab, law)


def _ramp(tab, scheme, needed, law):
    """Per-count (energy, time, frames) of the ramp's session plan, with a
    frame cap far past any need here."""
    [(_, segments)] = session_plan(scheme, 10**9)
    return analysis.evaluate_stream(segments, _costs(tab, law), needed)


def _printed_attempt_energy(tab, law):
    """Attempt energy per SF and count as the paper prints it:
    (S_fr + F_pl) * e_frame + F_pr * e_preamble, with F_pl = 1 - S_fr / S_pr
    the payload failure given the preamble (0 where nothing is detected).
    A frame lost after its preamble is charged a full listen twice, once
    in F_pl and once in the preamble success it is part of."""
    s_pr, s_fr = tab.preamble_success, tab.frame_success
    with np.errstate(invalid="ignore", divide="ignore"):
        f_pl = np.where(s_pr > 0.0, 1.0 - s_fr / np.where(s_pr > 0.0, s_pr, 1.0), 0.0)
    return (s_fr + f_pl) * law.e_frame[:, None] + (1.0 - s_pr) * law.e_preamble[:, None]


def _literal_stream(segments, costs, needed):
    """``analysis.evaluate_stream`` with the finishing segment's remaining
    fragments divided by its failure probability, the literal reading of
    the printed final-round formula. Raises
    :class:`UnreachableRecipientError` where ``evaluate_stream`` would."""
    rows = [sf - 7 for sf, _ in segments]
    budgets = np.array([budget for _, budget in segments[:-1]], dtype=np.float64)
    s_fr, e_att, slots = costs.success[rows], costs.attempt_energy[rows], costs.slots[rows]
    col = np.arange(s_fr.shape[1])

    def started(per_frame):
        out = np.zeros(per_frame.shape)
        (budgets[:, None] * per_frame[:-1]).cumsum(axis=0, out=out[1:])
        return out

    received = started(s_fr)
    block = (received[1:] < needed).sum(axis=0)
    s_final = s_fr[block, col]
    if np.any(s_final <= 0.0):
        raise UnreachableRecipientError(costs.distance_m, needed)
    eta = (needed - received[block, col]) / (1.0 - s_final)
    energy = started(e_att)[block, col] + eta * e_att[block, col]
    time = np.concatenate(([0.0], (budgets * slots[:-1]).cumsum()))[block] + eta * slots[block]
    frames = np.concatenate(([0.0], budgets.cumsum()))[block] + eta
    if float(costs.weights @ frames) > sum(budget for _, budget in segments):
        raise UnreachableRecipientError(costs.distance_m, needed)
    return energy, time, frames


def _reference_ramp(tab, scheme, needed, phy, dc=1.0):
    """Fluid ramp model at a single interferer count: serve w frames per SF
    from min_sf up; the first round whose cumulative expected receptions
    cover the need finishes early, and anything still missing after the
    full last round spills into an open-ended tail at max_sf. Returns
    (energy, time, frames)."""
    energy = time = frames = 0.0
    remaining = needed
    for sf in range(scheme.min_sf, scheme.max_sf + 1):
        pre = float(tab.preamble_success[sf - 7][0])
        fr = float(tab.frame_success[sf - 7][0])
        att = pre * phy.rx_energy_frame(sf, PAYLOAD) + (
            1 - pre
        ) * phy.rx_energy_preamble(sf)
        slot = (100.0 / dc) * phy.frame_airtime(sf, PAYLOAD)
        if scheme.frames_per_round * fr >= remaining:
            attempts = remaining / fr
            return energy + attempts * att, time + attempts * slot, frames + attempts
        energy += scheme.frames_per_round * att
        time += scheme.frames_per_round * slot
        frames += scheme.frames_per_round
        remaining -= scheme.frames_per_round * fr
    fr = float(tab.frame_success[scheme.max_sf - 7][0])
    if fr <= 0.0:
        raise UnreachableRecipientError(tab.distance_m, remaining)
    pre = float(tab.preamble_success[scheme.max_sf - 7][0])
    att = pre * phy.rx_energy_frame(scheme.max_sf, PAYLOAD) + (
        1 - pre
    ) * phy.rx_energy_preamble(scheme.max_sf)
    slot = (100.0 / dc) * phy.frame_airtime(scheme.max_sf, PAYLOAD)
    attempts = remaining / fr
    return energy + attempts * att, time + attempts * slot, frames + attempts


class TestProposedClosedForm:
    @pytest.mark.parametrize("d0", [250.0, 600.0, 950.0])
    @pytest.mark.parametrize("w", [40, 300, 5000])
    def test_matches_reference_ramp(self, phy, law, d0, w):
        scheme = ProposedScheme(7, 12, w)
        for n in (0, 6):
            tab = analysis.success_tables(d0, law, counts=[n])
            want_e, want_t, want_frames = _reference_ramp(tab, scheme, NEEDED, phy)
            energy, time, frames = _ramp(tab, scheme, NEEDED, law)
            assert energy[0] == pytest.approx(want_e, rel=1e-9)
            assert time[0] == pytest.approx(want_t, rel=1e-9)
            assert frames[0] == pytest.approx(want_frames, rel=1e-9)

    def test_deconditioning_is_linear_in_count_weights(self, law):
        scheme = ProposedScheme(7, 12, 300)
        energies = []
        for counts in ([0], [8], [0, 8]):
            tab = analysis.success_tables(700.0, law, counts=counts)
            energies.append(float(tab.count_weights @ _ramp(tab, scheme, NEEDED, law)[0]))
        e_a, e_b, e_ab = energies
        assert e_ab == pytest.approx(0.5 * (e_a + e_b), rel=1e-12)

    def test_completion_round_wrappers(self, law):
        # the frames of the per-count profile: a round big enough for the
        # whole need finishes at SF7
        tab = analysis.success_tables(300.0, law, counts=[0])
        s = [float(v) for v in tab.frame_success[:, 0]]
        big_w = ProposedScheme(7, 12, 100_000)
        assert _ramp(tab, big_w, 202.0, law)[2][0] == pytest.approx(202.0 / s[0], rel=1e-12)
        # one frame per SF cannot cover the need, so completion lands in
        # the open-ended last segment at SF12
        tiny_w = ProposedScheme(7, 12, 1)
        want = 5.0 + (202.0 - sum(s[:5])) / s[5]
        assert _ramp(tab, tiny_w, 202.0, law)[2][0] == pytest.approx(want, rel=1e-12)

    def test_final_round_attempts_hand_case(self, law):
        tab = analysis.success_tables(300.0, law, counts=[0])
        s7 = float(tab.frame_success[0][0])
        s8 = float(tab.frame_success[1][0])
        needed = 100.0
        w = int(needed / s7 * 0.9)
        assert w * s7 < needed < w * (s7 + s8)
        scheme = ProposedScheme(7, 12, w)
        want = (needed - w * s7) / s8
        got = float(_ramp(tab, scheme, needed, law)[2][0])
        assert got == pytest.approx(w + want, rel=1e-9)

    def test_unreachable_recipient_raises(self, law):
        tab = analysis.success_tables(80_000.0, law, counts=[0])
        with pytest.raises(UnreachableRecipientError) as exc:
            _ramp(tab, ProposedScheme(7, 12, 300), 202.0, law)
        assert "cannot be reached" in str(exc.value)

    def test_option_variants_differ_but_stay_finite(self, law):
        # the two printed readings of the erratum oracle, on the ramp
        tab = analysis.success_tables(900.0, law)
        [(_, segments)] = session_plan(ProposedScheme(7, 12, 300), 10**9)
        costs = _costs(tab, law)
        base = analysis.evaluate_stream(segments, costs, 202.0)
        as_printed = dataclasses.replace(costs, attempt_energy=_printed_attempt_energy(tab, law))
        printed = analysis.evaluate_stream(segments, as_printed, 202.0)
        literal = _literal_stream(segments, costs, 202.0)
        w = tab.count_weights
        assert w @ printed[0] > w @ base[0]
        assert w @ literal[1] != w @ base[1]
        for energy, time, _ in (base, printed, literal):
            assert math.isfinite(w @ energy)
            assert math.isfinite(w @ time)

    def test_stream_past_its_frame_budget_is_unreachable(self, law):
        tab = analysis.success_tables(600.0, law)
        costs = _costs(tab, law)
        frames = analysis.evaluate_stream([(9, 10**9)], costs, NEEDED)[2]
        budget = float(tab.count_weights @ frames)
        analysis.evaluate_stream([(9, math.ceil(budget))], costs, NEEDED)
        with pytest.raises(UnreachableRecipientError):
            analysis.evaluate_stream([(9, math.floor(budget))], costs, NEEDED)


class TestPrintedFormulaErratum:
    """The paper's printed closed forms, kept on record as a test oracle.

    Two of its formulas disagree with the reception model they describe,
    and the simulator follows neither: the final-round carry-over divides
    the missing fragments by the frame *failure* probability
    (``_literal_stream``), and the attempt energy charges
    (S_fr + F_pl) * e_frame + F_pr * e_preamble (``_printed_attempt_energy``).
    The package charges the reading both engines share. The values below
    are the ``analyze`` outputs (EE_norm, DT hours) of the stock cell with
    the ramp and fixed SF11, as the analysis reported them when the two
    readings were still the options ``eta_denominator: failure_literal``
    and ``energy_formula: as_printed``."""

    RUNTIME = {
        ("proposed", 100.0): (1.0216971863951025, 0.5971600328211256),
        ("proposed", 1000.0): (33.086085618293794, 50.76759449223038),
        ("fsf-11", 500.0): (14.40320523043091, 10.397309208665526),
        ("fsf-11", 1000.0): (26.226019052628452, 52.25164968891834),
    }
    FAILURE_LITERAL = {
        ("proposed", 100.0): (11.186787124549198, 6.5384364910909305),
        ("fsf-11", 500.0): (34.017594353947864, 24.556437390962603),
        ("fsf-11", 1000.0): (4.262094366217193, 8.491622341471173),
    }
    AS_PRINTED = {
        ("proposed", 1000.0): (33.81517300152951, 50.76759449223038),
        ("fsf-11", 1000.0): (26.829116944521488, 52.25164968891834),
    }

    @pytest.fixture(scope="class")
    def readings(self):
        """(scheme, distance) -> {reading: (EE_norm, DT hours)}, nan where
        the stream does not reach the distance."""
        spec = load_default_spec(
            {"schemes": [{"type": "proposed"}, {"type": "fixed_sf", "sf": 11}]}
        )
        tables = benchmarks.build_tables(spec)
        e_norm = analysis.normalization_energy_j(spec.law, spec.firmware.fragments)
        out = {}
        for scheme in spec.schemes:
            code = benchmarks.scheme_code(spec, scheme)
            [(_, segments)] = session_plan(scheme, sim.attempts_cap(spec, code))
            needed = code.expected_fragments()
            for d, tab in tables.items():
                costs = _costs(tab, spec.law)
                printed = dataclasses.replace(
                    costs, attempt_energy=_printed_attempt_energy(tab, spec.law)
                )
                out[scheme.label, d] = {}
                for reading, evaluate, at in (
                    ("runtime", analysis.evaluate_stream, costs),
                    ("failure_literal", _literal_stream, costs),
                    ("as_printed", analysis.evaluate_stream, printed),
                ):
                    try:
                        energy, time, _ = evaluate(segments, at, needed)
                    except UnreachableRecipientError:
                        out[scheme.label, d][reading] = (math.nan, math.nan)
                        continue
                    out[scheme.label, d][reading] = (
                        float(tab.count_weights @ energy) / e_norm,
                        float(tab.count_weights @ time) / 3600.0,
                    )
        return out

    def test_runtime_reading_is_the_analysis(self, readings):
        spec = load_default_spec(
            {"schemes": [{"type": "proposed"}, {"type": "fixed_sf", "sf": 11}]}
        )
        rows = benchmarks.run_suite(spec, "analysis")[0]
        for row in rows:
            got = readings[row.scheme, row.distance_m]["runtime"]
            assert got == (row.ee_norm_analysis, row.dt_hours_analysis)
        for key, want in self.RUNTIME.items():
            assert readings[key]["runtime"] == pytest.approx(want, rel=1e-12), key

    def test_failure_denominator(self, readings):
        for key, want in self.FAILURE_LITERAL.items():
            assert readings[key]["failure_literal"] == pytest.approx(want, rel=1e-12), key
        # fixed SF11 at the cell edge in 8.5 h instead of 52.3 h, and at
        # 500 m in 24.6 h instead of 10.4 h: the literal time falls with
        # distance
        edge, mid = readings["fsf-11", 1000.0], readings["fsf-11", 500.0]
        assert round(edge["failure_literal"][1], 1) == 8.5
        assert round(edge["runtime"][1], 1) == 52.3
        assert round(mid["failure_literal"][1], 1) == 24.6
        assert round(mid["runtime"][1], 1) == 10.4
        # a nearly loss-free SF11 link at 100 m needs more frames than the
        # cap, so the bin goes blank; the ramp pays 11.2 instead of 1.02
        assert all(math.isnan(v) for v in readings["fsf-11", 100.0]["failure_literal"])
        ramp = readings["proposed", 100.0]
        assert round(ramp["runtime"][0], 2) == 1.02
        assert round(ramp["failure_literal"][0], 1) == 11.2

    def test_printed_attempt_energy(self, readings):
        for key, want in self.AS_PRINTED.items():
            assert readings[key]["as_printed"] == pytest.approx(want, rel=1e-12), key
        rise = {
            key: by["as_printed"][0] / by["runtime"][0] - 1.0 for key, by in readings.items()
        }
        # the energy rises everywhere, by 2.3 % at most (fixed SF11 at the
        # cell edge), and the delivery time does not move
        assert min(rise.values()) >= 0.0
        assert max(rise, key=rise.get) == ("fsf-11", 1000.0)
        assert round(max(rise.values()), 3) == 0.023
        assert all(by["as_printed"][1] == by["runtime"][1] for by in readings.values())


class TestFixedSfClosedForm:
    def test_attempts_identity(self, phy, law):
        tab = analysis.success_tables(650.0, law)
        energy, time, frames = analysis.evaluate_stream([(11, 10**9)], _costs(tab, law), NEEDED)
        per_count = NEEDED / tab.frame_success[11 - 7]
        slot = 100.0 * phy.frame_airtime(11, PAYLOAD)
        s_pr = tab.preamble_success[11 - 7]
        e_att = s_pr * phy.rx_energy_frame(11, PAYLOAD) + (1.0 - s_pr) * phy.rx_energy_preamble(11)
        assert np.array_equal(frames, per_count)
        assert np.array_equal(time, per_count * slot)
        assert np.array_equal(energy, per_count * e_att)

    def test_out_of_range_raises(self, law):
        far = analysis.success_tables(80_000.0, law, counts=[0])
        with pytest.raises(UnreachableRecipientError):
            analysis.evaluate_stream([(7, 10**9)], _costs(far, law), 202.0)
        near = analysis.success_tables(1000.0, law, counts=[0])
        assert analysis.evaluate_stream([(12, 10**9)], _costs(near, law), 202.0)[1][0] > 0


def _assign(spec, distances, criterion="energy"):
    tables = benchmarks.build_tables(spec, distances)
    return benchmarks._group_assignment(
        benchmarks._costs(spec, tables), spec, GroupBasedScheme(criterion)
    )


class TestGroupAssignment:
    def test_costs_drive_assignment(self, spec):
        # a brute-force argmin over hand-computed mean costs, ties to the
        # lower SF, among the SFs within the stream's frame budget
        needed = float(spec.firmware.fragments)
        cap = sim.attempts_cap(spec, benchmarks.scheme_code(spec, GroupBasedScheme()))
        distances = (100.0, 500.0, 1000.0)
        tables = benchmarks.build_tables(spec, distances)
        for criterion in ("energy", "latency"):
            got = _assign(spec, distances, criterion)
            for d, tab in tables.items():
                costs = {}
                for sf in range(7, 13):
                    s = float(tab.count_weights @ tab.frame_success[sf - 7])
                    if s <= 0.0 or needed / s > cap:
                        continue
                    if criterion == "energy":
                        s_pr = tab.preamble_success[sf - 7]
                        e_att = s_pr * spec.phy.rx_energy_frame(sf, PAYLOAD) + (
                            1.0 - s_pr
                        ) * spec.phy.rx_energy_preamble(sf)
                        costs[sf] = needed / s * float(tab.count_weights @ e_att)
                    else:
                        slot = 100.0 * spec.phy.frame_airtime(sf, PAYLOAD)
                        costs[sf] = needed / s * slot
                assert got[d] == min(costs, key=lambda sf: (costs[sf], sf)), (criterion, d)

    def test_ties_go_to_the_lower_sf(self, spec, monkeypatch):
        def flat(segments, costs, needed):
            # every SF but SF7 costs the same
            sf = segments[0][0]
            if sf == 7:
                raise UnreachableRecipientError(costs.distance_m, needed)
            return (np.ones(1),) * 3

        monkeypatch.setattr(analysis, "evaluate_stream", flat)
        assert _assign(spec, [500.0]) == {500.0: 8}

    def test_latency_differs_from_energy_somewhere(self, spec):
        distances = (100.0, 400.0, 700.0, 1000.0)
        energy = _assign(spec, distances, "energy")
        latency = _assign(spec, distances, "latency")
        assert any(energy[d] != latency[d] for d in distances)
        assert all(7 <= energy[d] <= 12 and 7 <= latency[d] <= 12 for d in distances)

    def test_attempt_cap_excludes_slow_groups(self, spec):
        assert 7 <= _assign(spec, [1000.0])[1000.0] <= 12
        # a cap below the needed attempt count at every SF leaves nothing
        tight = dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, transmission_cap_factor=0.001)
        )
        assert _assign(tight, [1000.0]) == {1000.0: None}

    def test_assignment_map_marks_unreachable(self, spec):
        mapping = _assign(spec, [300.0, 80_000.0])
        assert mapping[300.0] is not None
        assert mapping[80_000.0] is None


class TestSessionConstants:
    def test_duty_slot(self, phy, law):
        assert law.slot_s[7 - 7] == pytest.approx(100.0 * phy.frame_airtime(7, PAYLOAD), rel=1e-12)
        busy = load_default_spec({"network": {"duty_cycle_max_percent": 10.0}})
        assert busy.law.slot_s[12 - 7] == pytest.approx(
            10.0 * phy.frame_airtime(12, PAYLOAD), rel=1e-12
        )
        for bad in (0.0, 101.0):
            with pytest.raises(ConfigError, match="duty_cycle_max_percent"):
                load_default_spec({"network": {"duty_cycle_max_percent": bad}})

    def test_control_energy_hand_value(self, phy):
        # 60 s of setup listening plus one 12-byte uplink at SF12
        got = analysis.control_energy_j(phy, 60.0, 12, 12)
        want = phy.rx_power_w * 60.0 + phy.tx_power_w * phy.frame_airtime(12, 12)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.840374220800001, rel=1e-12)
        with pytest.raises(ValueError):
            analysis.control_energy_j(phy, -1.0, 12, 12)

    def test_normalization_energy(self, phy, law):
        got = analysis.normalization_energy_j(law, 200)
        assert got == pytest.approx(200 * phy.rx_power_w * 0.097536, rel=1e-12)
        assert got == pytest.approx(2.44620288, rel=1e-12)


class TestOptionsValidation:
    def test_rejects_unknown_switches(self):
        # the printed-formula readings are test oracles, not options
        with pytest.raises(TypeError):
            AnalysisOptions(eta_denominator="failure_literal")
        with pytest.raises(TypeError):
            AnalysisOptions(energy_formula="as_printed")
        with pytest.raises(ValueError):
            AnalysisOptions(count_tail_mass=0.7)
        with pytest.raises(ValueError):
            AnalysisOptions(quadrature_rtol=0.0)

    def test_unreachable_error_carries_location(self):
        err = UnreachableRecipientError(1234.5, 42.0)
        assert err.distance_m == 1234.5
        assert "1234.5" in str(err)
