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
from fuotacast.channel import (
    interference_radius,
    interferer_count_weights,
    mean_interferer_count,
)
from fuotacast.config import load_default_spec
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


def _survival(d0, n, sf, segment, phy, link, field):
    """Pointwise survival probability at one interferer count."""
    tab = analysis.success_tables(d0, PAYLOAD, phy, link, field, counts=[n])
    if segment == "preamble":
        return float(tab.preamble_success_for(sf)[0])
    return float(tab.frame_success_for(sf)[0])


class TestSurvivalOracles:
    def test_frozen_mpmath_values(self, phy, link, field):
        for (d0, n, sf, seg), want in MPMATH_ORACLE.items():
            got = _survival(d0, n, sf, seg, phy, link, field)
            assert got == pytest.approx(want, rel=1e-12), (d0, n, sf, seg)

    @pytest.mark.parametrize("case", sorted(MC_SEEDS))
    def test_monte_carlo_agrees(self, case, phy, link, field):
        d0, n, sf, seg = case
        trials = 200_000
        rng = np.random.default_rng(MC_SEEDS[case])
        radius = interference_radius(link, field, phy.sensitivity_w(12))
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
        c = link.outage_threshold(phy.sensitivity_w(sf), d0)
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
        strict = dataclasses.replace(spec.analysis, quadrature_rtol=1e-13)
        with pytest.raises(NumericalIntegrationError) as info:
            analysis.success_tables(
                1000.0, PAYLOAD, spec.phy, spec.network.link, dense, options=strict
            )
        # the message names the worst count, which must lie in the window
        found = re.search(r"SF\d+ at 1000\.0 m: .* at interferer count (\d+)$", str(info.value))
        assert found, str(info.value)
        window = _window(dense, spec.phy, spec.network.link, strict.count_tail_mass)
        assert window[0] <= int(found.group(1)) <= window[-1]


def _loss(d0, sf, segment, phy, link, field):
    """Q(c + t) as a function of t, through the module's closed form."""
    radius = interference_radius(link, field, phy.sensitivity_w(12))
    c = link.outage_threshold(phy.sensitivity_w(sf), d0)
    collide = {
        j: analysis.collision_probability(sf, j, segment, PAYLOAD, phy, field)
        for j in range(7, 13)
    }

    def q_of_t(t):
        terms = analysis._loss_terms(
            c + np.atleast_1d(t), sf, phy, link, radius, d0**link.path_loss_exponent
        )
        return analysis._per_interferer_loss(terms, collide, link, field, radius)

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


def _window(field, phy, link, tail=1e-6):
    radius = interference_radius(link, field, phy.sensitivity_w(12))
    return interferer_count_weights(mean_interferer_count(field, radius), tail)[0]


class TestPowerTable:
    """The two-level power table against the direct power matrix."""

    SURVIVE_CASES = (
        (100.0, 7, "frame"),
        (500.0, 12, "frame"),
        (900.0, 12, "preamble"),
    )

    def _check(self, counts, phy, link, field):
        counts = np.asarray(counts, dtype=np.int64)
        for d0, sf, segment in self.SURVIVE_CASES:
            _, q_of_t = _loss(d0, sf, segment, phy, link, field)
            survive = 1.0 - q_of_t(analysis._NODES)
            got = analysis._power_sums(survive, counts)
            np.testing.assert_allclose(
                got, _direct_power_sums(survive, counts), rtol=1e-13, atol=0.0,
                err_msg=f"{d0} m SF{sf} {segment}",
            )

    @pytest.mark.parametrize("density", [5e-5, 2e-3])
    def test_count_windows(self, density, phy, link, field):
        dense = dataclasses.replace(field, intensity_per_m2=density)
        self._check(_window(dense, phy, link), phy, link, field)

    @pytest.mark.parametrize("counts", [[0], [5], [0, 7, 1000]])
    def test_explicit_counts(self, counts, phy, link, field):
        self._check(counts, phy, link, field)

    # 1, 2, and B**2 and B**2 + 1 for B = 3 and 37 (B**2 + 1 needs B + 1)
    @pytest.mark.parametrize("span", [1, 2, 9, 10, 1369, 1370])
    def test_spans_around_a_full_square(self, span, phy, link, field):
        self._check(np.arange(19074, 19074 + span), phy, link, field)


class TestPoissonPgfIdentity:
    """sum_n w_n S(n) = e**-c int e**-t exp(-m Q(c + t)) dt, because
    E[(1 - Q)**N] = exp(-m Q) for Poisson N of mean m."""

    @pytest.mark.parametrize("density", [5e-5, 2e-3])
    @pytest.mark.parametrize("d0", [100.0, 500.0, 950.0])
    @pytest.mark.parametrize("sf", [7, 12])
    def test_deconditioned_success_matches_pgf(self, density, d0, sf, spec):
        phy, link, opts = spec.phy, spec.network.link, spec.analysis
        dense = dataclasses.replace(spec.network.interferers, intensity_per_m2=density)
        tables = analysis.success_tables(d0, PAYLOAD, phy, link, dense, options=opts)
        m = mean_interferer_count(dense, tables.interference_radius_m)
        budget = opts.count_tail_mass + opts.quadrature_rtol
        for segment, got in (
            ("preamble", float(tables.count_weights @ tables.preamble_success_for(sf))),
            ("frame", float(tables.count_weights @ tables.frame_success_for(sf))),
        ):
            c, q_of_t = _loss(d0, sf, segment, phy, link, dense)
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
    def test_matches_window_formula(self, phy, field):
        for seg in ("preamble", "frame"):
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
                    got = analysis.collision_probability(s, j, seg, PAYLOAD, phy, field)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_hand_value(self, phy, field):
        # SF9 frame against SF7 traffic: (0.328704 + 0.030976) s windows at
        # one frame per 600 s over 8 channels
        got = analysis.collision_probability(9, 7, "frame", PAYLOAD, phy, field)
        assert got == pytest.approx(0.35968 / 4800.0, rel=1e-12)

    def test_clamped_to_one_with_warning(self, phy, field):
        busy = dataclasses.replace(field, frame_rate_hz=10_000.0)
        with pytest.warns(RuntimeWarning):
            got = analysis.collision_probability(12, 12, "frame", PAYLOAD, phy, busy)
        assert got == 1.0

    def test_rejects_unknown_segment(self, phy, field):
        with pytest.raises(ValueError):
            analysis.collision_probability(9, 9, "payload", PAYLOAD, phy, field)


class TestDegenerateCases:
    def test_zero_frame_rate_failure_is_pure_outage(self, spec):
        phy, link = spec.phy, spec.network.link
        quiet = dataclasses.replace(spec.network.interferers, frame_rate_hz=0.0)
        for d0 in (150.0, 700.0, 1000.0):
            for sf in (7, 10, 12):
                c = link.outage_threshold(phy.sensitivity_w(sf), d0)
                want = 1.0 - math.exp(-c)
                for n in (0, 4, 60):
                    got = 1.0 - _survival(d0, n, sf, "preamble", phy, link, quiet)
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
        tab = analysis.success_tables(
            800.0, PAYLOAD, phy, perfect.network.link, perfect.network.interferers
        )
        assert float(tab.frame_success_for(7)[0]) == 1.0
        k = 200.0
        energy, time, frames = analysis.evaluate_stream([(7, 10_000)], _costs(tab, phy), k)
        assert energy[0] == k * phy.rx_energy_frame(7, PAYLOAD)
        assert time[0] == pytest.approx(k * analysis.duty_slot_s(phy, 7, PAYLOAD, 1.0), rel=1e-12)
        assert frames[0] == pytest.approx(k, abs=1e-9)


class TestSuccessTables:
    def test_explicit_counts_uniform_weights(self, phy, link, field):
        tab = analysis.success_tables(400.0, PAYLOAD, phy, link, field, counts=[0, 2, 7])
        assert list(tab.count_values) == [0, 2, 7]
        assert np.allclose(tab.count_weights, 1.0 / 3.0)

    def test_rejects_bad_counts(self, phy, link, field):
        with pytest.raises(ValueError):
            analysis.success_tables(400.0, PAYLOAD, phy, link, field, counts=[])
        with pytest.raises(ValueError):
            analysis.success_tables(400.0, PAYLOAD, phy, link, field, counts=[-1])
        with pytest.raises(ValueError):
            analysis.success_tables(-5.0, PAYLOAD, phy, link, field)

    def test_row_matches_pointwise_wrappers(self, phy, link, field):
        # each column of a multi-count table against a one-count table
        tab = analysis.success_tables(600.0, PAYLOAD, phy, link, field, counts=[0, 5, 9])
        for sf in range(7, 13):
            for col, n in enumerate((0, 5, 9)):
                assert float(tab.preamble_success_for(sf)[col]) == pytest.approx(
                    _survival(600.0, n, sf, "preamble", phy, link, field), rel=1e-12
                )
                assert float(tab.frame_success_for(sf)[col]) == pytest.approx(
                    _survival(600.0, n, sf, "frame", phy, link, field), rel=1e-12
                )

    def test_partition_ordering(self, phy, link, field):
        tab = analysis.success_tables(800.0, PAYLOAD, phy, link, field)
        for sf in range(7, 13):
            pre = tab.preamble_success_for(sf)
            fr = tab.frame_success_for(sf)
            base = math.exp(
                -link.outage_threshold(phy.sensitivity_w(sf), tab.distance_m)
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
    def test_survival_decreases_with_interferers(self, phy, link, field, d0, sf, n):
        s_n = _survival(d0, n, sf, "frame", phy, link, field)
        s_more = _survival(d0, n + 5, sf, "frame", phy, link, field)
        assert s_more <= s_n + 1e-12

    def test_survival_decreases_with_distance(self, phy, link, field):
        vals = [
            _survival(d, 3, 10, "frame", phy, link, field)
            for d in (200.0, 500.0, 900.0, 1300.0)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_attempt_energy_partition_identity(self, phy, link, field):
        tab = analysis.success_tables(700.0, PAYLOAD, phy, link, field)
        for sf in range(7, 13):
            pre = tab.preamble_success_for(sf)
            want = pre * phy.rx_energy_frame(sf, PAYLOAD) + (
                1.0 - pre
            ) * phy.rx_energy_preamble(sf)
            got = tab.attempt_energy_by_count(sf, phy, "partitioned")
            assert np.allclose(got, want, rtol=1e-14)

    def test_payload_failure_given_preamble_requires_detection(self, phy, link, field):
        # distance so large the detection probability underflows to zero: the
        # payload failure given the preamble is undefined, so the printed
        # energy form charges preamble-only listens
        tab = analysis.success_tables(1e9, PAYLOAD, phy, link, field, counts=[0])
        assert float(tab.preamble_success_for(7)[0]) == 0.0
        got = tab.attempt_energy_by_count(7, phy, "as_printed")
        assert list(got) == [phy.rx_energy_preamble(7)]

    def test_expected_round_receptions_is_linear(self, phy, link, field):
        # a round of w frames at one SF is expected to hold w * S receptions,
        # so a need just under that finishes inside the round, and one just
        # over spills into the next
        tab = analysis.success_tables(500.0, PAYLOAD, phy, link, field, counts=[3])
        s = float(tab.frame_success_for(9)[0])
        scheme = ProposedScheme(9, 12, 300)
        inside = _ramp(tab, scheme, 300.0 * s * (1.0 - 1e-9), phy)[2][0]
        spilled = _ramp(tab, scheme, 300.0 * s * (1.0 + 1e-9), phy)[2][0]
        assert inside < 300.0 < spilled
        with pytest.raises(ValueError):
            ProposedScheme(9, 12, 0)


def _costs(tab, phy, energy_formula="partitioned"):
    return analysis.stream_costs(tab, phy, 1.0, energy_formula)


def _ramp(tab, scheme, needed, phy, eta_denominator="success", energy_formula="partitioned"):
    """Per-count (energy, time, frames) of the ramp's session plan, with a
    frame cap far past any need here."""
    [(_, segments)] = session_plan(scheme, 10**9)
    return analysis.evaluate_stream(
        segments, _costs(tab, phy, energy_formula), needed, eta_denominator
    )


def _reference_ramp(tab, scheme, needed, phy, dc=1.0):
    """Fluid ramp model at a single interferer count: serve w frames per SF
    from min_sf up; the first round whose cumulative expected receptions
    cover the need finishes early, and anything still missing after the
    full last round spills into an open-ended tail at max_sf. Returns
    (energy, time, frames)."""
    energy = time = frames = 0.0
    remaining = needed
    for sf in range(scheme.min_sf, scheme.max_sf + 1):
        pre = float(tab.preamble_success_for(sf)[0])
        fr = float(tab.frame_success_for(sf)[0])
        att = pre * phy.rx_energy_frame(sf, PAYLOAD) + (
            1 - pre
        ) * phy.rx_energy_preamble(sf)
        slot = analysis.duty_slot_s(phy, sf, PAYLOAD, dc)
        if scheme.frames_per_round * fr >= remaining:
            attempts = remaining / fr
            return energy + attempts * att, time + attempts * slot, frames + attempts
        energy += scheme.frames_per_round * att
        time += scheme.frames_per_round * slot
        frames += scheme.frames_per_round
        remaining -= scheme.frames_per_round * fr
    fr = float(tab.frame_success_for(scheme.max_sf)[0])
    if fr <= 0.0:
        raise UnreachableRecipientError(tab.distance_m, remaining)
    pre = float(tab.preamble_success_for(scheme.max_sf)[0])
    att = pre * phy.rx_energy_frame(scheme.max_sf, PAYLOAD) + (
        1 - pre
    ) * phy.rx_energy_preamble(scheme.max_sf)
    slot = analysis.duty_slot_s(phy, scheme.max_sf, PAYLOAD, dc)
    attempts = remaining / fr
    return energy + attempts * att, time + attempts * slot, frames + attempts


class TestProposedClosedForm:
    @pytest.mark.parametrize("d0", [250.0, 600.0, 950.0])
    @pytest.mark.parametrize("w", [40, 300, 5000])
    def test_matches_reference_ramp(self, phy, link, field, d0, w):
        scheme = ProposedScheme(7, 12, w)
        for n in (0, 6):
            tab = analysis.success_tables(d0, PAYLOAD, phy, link, field, counts=[n])
            want_e, want_t, want_frames = _reference_ramp(tab, scheme, NEEDED, phy)
            energy, time, frames = _ramp(tab, scheme, NEEDED, phy)
            assert energy[0] == pytest.approx(want_e, rel=1e-9)
            assert time[0] == pytest.approx(want_t, rel=1e-9)
            assert frames[0] == pytest.approx(want_frames, rel=1e-9)

    def test_deconditioning_is_linear_in_count_weights(self, phy, link, field):
        scheme = ProposedScheme(7, 12, 300)
        energies = []
        for counts in ([0], [8], [0, 8]):
            tab = analysis.success_tables(700.0, PAYLOAD, phy, link, field, counts=counts)
            energies.append(float(tab.count_weights @ _ramp(tab, scheme, NEEDED, phy)[0]))
        e_a, e_b, e_ab = energies
        assert e_ab == pytest.approx(0.5 * (e_a + e_b), rel=1e-12)

    def test_completion_round_wrappers(self, phy, link, field):
        # the frames of the per-count profile: a round big enough for the
        # whole need finishes at SF7
        tab = analysis.success_tables(300.0, PAYLOAD, phy, link, field, counts=[0])
        s = [float(tab.frame_success_for(sf)[0]) for sf in range(7, 13)]
        big_w = ProposedScheme(7, 12, 100_000)
        assert _ramp(tab, big_w, 202.0, phy)[2][0] == pytest.approx(202.0 / s[0], rel=1e-12)
        # one frame per SF cannot cover the need, so completion lands in
        # the open-ended last segment at SF12
        tiny_w = ProposedScheme(7, 12, 1)
        want = 5.0 + (202.0 - sum(s[:5])) / s[5]
        assert _ramp(tab, tiny_w, 202.0, phy)[2][0] == pytest.approx(want, rel=1e-12)

    def test_final_round_attempts_hand_case(self, phy, link, field):
        tab = analysis.success_tables(300.0, PAYLOAD, phy, link, field, counts=[0])
        s7 = float(tab.frame_success_for(7)[0])
        s8 = float(tab.frame_success_for(8)[0])
        needed = 100.0
        w = int(needed / s7 * 0.9)
        assert w * s7 < needed < w * (s7 + s8)
        scheme = ProposedScheme(7, 12, w)
        want = (needed - w * s7) / s8
        got = float(_ramp(tab, scheme, needed, phy)[2][0])
        assert got == pytest.approx(w + want, rel=1e-9)

    def test_unreachable_recipient_raises(self, phy, link, field):
        tab = analysis.success_tables(80_000.0, PAYLOAD, phy, link, field, counts=[0])
        with pytest.raises(UnreachableRecipientError) as exc:
            _ramp(tab, ProposedScheme(7, 12, 300), 202.0, phy)
        assert "cannot be reached" in str(exc.value)

    def test_option_variants_differ_but_stay_finite(self, phy, link, field):
        tab = analysis.success_tables(900.0, PAYLOAD, phy, link, field)
        scheme = ProposedScheme(7, 12, 300)
        base = _ramp(tab, scheme, 202.0, phy)
        printed = _ramp(tab, scheme, 202.0, phy, energy_formula="as_printed")
        literal = _ramp(tab, scheme, 202.0, phy, eta_denominator="failure_literal")
        w = tab.count_weights
        assert w @ printed[0] > w @ base[0]
        assert w @ literal[1] != w @ base[1]
        for energy, time, _ in (base, printed, literal):
            assert math.isfinite(w @ energy)
            assert math.isfinite(w @ time)

    def test_stream_past_its_frame_budget_is_unreachable(self, phy, link, field):
        tab = analysis.success_tables(600.0, PAYLOAD, phy, link, field)
        costs = _costs(tab, phy)
        frames = analysis.evaluate_stream([(9, 10**9)], costs, NEEDED)[2]
        budget = float(tab.count_weights @ frames)
        analysis.evaluate_stream([(9, math.ceil(budget))], costs, NEEDED)
        with pytest.raises(UnreachableRecipientError):
            analysis.evaluate_stream([(9, math.floor(budget))], costs, NEEDED)


class TestFixedSfClosedForm:
    def test_attempts_identity(self, phy, link, field):
        tab = analysis.success_tables(650.0, PAYLOAD, phy, link, field)
        energy, time, frames = analysis.evaluate_stream([(11, 10**9)], _costs(tab, phy), NEEDED)
        per_count = NEEDED / tab.frame_success_for(11)
        slot = analysis.duty_slot_s(phy, 11, PAYLOAD, 1.0)
        e_att = tab.attempt_energy_by_count(11, phy, "partitioned")
        assert np.array_equal(frames, per_count)
        assert np.array_equal(time, per_count * slot)
        assert np.array_equal(energy, per_count * e_att)

    def test_out_of_range_raises(self, phy, link, field):
        far = analysis.success_tables(80_000.0, PAYLOAD, phy, link, field, counts=[0])
        with pytest.raises(UnreachableRecipientError):
            analysis.evaluate_stream([(7, 10**9)], _costs(far, phy), 202.0)
        near = analysis.success_tables(1000.0, PAYLOAD, phy, link, field, counts=[0])
        assert analysis.evaluate_stream([(12, 10**9)], _costs(near, phy), 202.0)[1][0] > 0


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
                    s = float(tab.count_weights @ tab.frame_success_for(sf))
                    if s <= 0.0 or needed / s > cap:
                        continue
                    if criterion == "energy":
                        e_att = tab.attempt_energy_by_count(sf, spec.phy, "partitioned")
                        costs[sf] = needed / s * float(tab.count_weights @ e_att)
                    else:
                        slot = analysis.duty_slot_s(spec.phy, sf, PAYLOAD, 1.0)
                        costs[sf] = needed / s * slot
                assert got[d] == min(costs, key=lambda sf: (costs[sf], sf)), (criterion, d)

    def test_ties_go_to_the_lower_sf(self, spec, monkeypatch):
        def flat(segments, costs, needed, eta_denominator):
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
    def test_duty_slot(self, phy):
        assert analysis.duty_slot_s(phy, 7, PAYLOAD, 1.0) == pytest.approx(
            100.0 * phy.frame_airtime(7, PAYLOAD), rel=1e-12
        )
        assert analysis.duty_slot_s(phy, 12, PAYLOAD, 10.0) == pytest.approx(
            10.0 * phy.frame_airtime(12, PAYLOAD), rel=1e-12
        )
        with pytest.raises(ValueError):
            analysis.duty_slot_s(phy, 7, PAYLOAD, 0.0)
        with pytest.raises(ValueError):
            analysis.duty_slot_s(phy, 7, PAYLOAD, 101.0)

    def test_control_energy_hand_value(self, phy):
        # 60 s of setup listening plus one 12-byte uplink at SF12
        got = analysis.control_energy_j(phy, 60.0, 12, 12)
        want = phy.rx_power_w * 60.0 + phy.tx_power_w * phy.frame_airtime(12, 12)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.840374220800001, rel=1e-12)
        with pytest.raises(ValueError):
            analysis.control_energy_j(phy, -1.0, 12, 12)

    def test_normalization_energy(self, phy):
        got = analysis.normalization_energy_j(phy, 200, PAYLOAD)
        assert got == pytest.approx(200 * phy.rx_power_w * 0.097536, rel=1e-12)
        assert got == pytest.approx(2.44620288, rel=1e-12)


class TestOptionsValidation:
    def test_rejects_unknown_switches(self):
        with pytest.raises(ValueError):
            AnalysisOptions(eta_denominator="other")
        with pytest.raises(ValueError):
            AnalysisOptions(energy_formula="other")
        with pytest.raises(ValueError):
            AnalysisOptions(count_tail_mass=0.7)
        with pytest.raises(ValueError):
            AnalysisOptions(quadrature_rtol=0.0)

    def test_unreachable_error_carries_location(self):
        err = UnreachableRecipientError(1234.5, 42.0)
        assert err.distance_m == 1234.5
        assert "1234.5" in str(err)
