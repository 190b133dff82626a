"""Propagation, fading, and the interferer field."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_sim import _interferer_state

from fuotacast import sim
from fuotacast.channel import ChannelLaw, InterfererField, interferer_count_weights

# radius inside which an SF12 interferer is still detectable at the stock
# link budget; solves detection_probability = epsilon in closed form
FROZEN_INTERFERENCE_RADIUS = 1773.2775406687774


def _detection_probability(law, sf, d):
    """Chance that one frame at SF ``sf`` clears the sensitivity floor at
    distance ``d``, interference aside."""
    return math.exp(-law.detect_scale[sf - 7] * d**law.path_loss_exponent)


class TestLinkModel:
    def test_outage_threshold_and_detection(self, link, phy, law):
        d = 650.0
        z = phy.sensitivity_w(10)
        c = law.detect_scale[10 - 7] * d**law.path_loss_exponent
        want = z * d**link.path_loss_exponent / (link.link_gain * link.tx_rf_power_w)
        assert c == pytest.approx(want, rel=1e-15)
        assert _detection_probability(law, 10, d) == pytest.approx(math.exp(-c), rel=1e-15)

    @given(st.floats(min_value=10.0, max_value=5000.0))
    def test_detection_decreases_with_distance(self, law, d):
        assert _detection_probability(law, 9, d + 1.0) <= _detection_probability(law, 9, d)


class TestInterferenceRadius:
    def test_frozen_value(self, law):
        assert law.radius_m == pytest.approx(FROZEN_INTERFERENCE_RADIUS, rel=1e-9)

    def test_detection_probability_at_radius_equals_epsilon(self, field, law):
        assert _detection_probability(law, 12, law.radius_m) == pytest.approx(
            field.detection_epsilon, rel=1e-9
        )

    def test_radius_by_bisection(self, field, law):
        lo, hi = 1.0, 1e7
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _detection_probability(law, 12, mid) > field.detection_epsilon:
                lo = mid
            else:
                hi = mid
        assert law.radius_m == pytest.approx(lo, rel=1e-6)


class TestInterfererCounts:
    def test_mean_count(self, field, law):
        want = field.intensity_per_m2 * math.pi * law.radius_m ** 2
        assert law.mean_count == pytest.approx(want, rel=1e-12)

    def test_count_weights_normalized_and_centered(self):
        counts, weights = interferer_count_weights(100.0, tail_mass=1e-6)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0.0)
        assert counts[0] <= 100 <= counts[-1]
        # integer mean: the Poisson law has twin modes at mu-1 and mu
        assert counts[np.argmax(weights)] in (99, 100)
        # truncated support still carries nearly all the mass of the
        # untruncated law, so the span covers many standard deviations
        assert counts[-1] - counts[0] > 4 * math.sqrt(100.0)

    def test_count_weights_degenerate_mean_zero(self):
        counts, weights = interferer_count_weights(0.0)
        assert list(counts) == [0]
        assert weights[0] == pytest.approx(1.0)

    def test_weighted_mean_matches_poisson_mean(self):
        for mu in (0.5, 7.0, 300.0):
            counts, weights = interferer_count_weights(mu, tail_mass=1e-9)
            assert float(weights @ counts) == pytest.approx(mu, rel=1e-6)

    # (mean, tail mass): (lo, hi, first, middle and last weight), as produced
    # by scipy.stats.poisson ppf / isf / pmf; 493.9 and 19757.6 are the stock
    # (5e-5 /m2) and dense (2e-3 /m2) mean counts
    PINNED_WINDOWS = {
        (100.0, 1e-6): (55, 153, 2.9300254440270435e-07, 0.03612071501038032,
                        1.8541579426819159e-07),
        (100.0, 1e-9): (45, 167, 3.109853630328222e-10, 0.032453450716675526,
                        2.4740856072591346e-10),
        (300.0, 1e-6): (219, 388, 1.530959627188612e-07, 0.02227535100346745,
                        1.515838808527276e-07),
        (300.0, 1e-9): (200, 412, 1.7338747943552047e-10, 0.0214805508013846,
                        1.4813562952016826e-10),
        (493.9, 1e-6): (389, 606, 1.2120980042426792e-07, 0.017573280017797108,
                        1.1504439399694673e-07),
        (493.9, 1e-9): (364, 636, 1.4096413258580042e-10, 0.017181454801090453,
                        1.169675972542782e-10),
        (19757.6, 1e-6): (19074, 20449, 1.838300294699255e-08, 0.002836484749595574,
                          1.786251371358446e-08),
        (19757.6, 1e-9): (18905, 20622, 2.268898023528407e-11, 0.0028347886641640874,
                          2.2332427332924503e-11),
    }

    @pytest.mark.parametrize("mean,tail", sorted(PINNED_WINDOWS))
    def test_count_window_and_weights_are_pinned(self, mean, tail):
        lo, hi, first, middle, last = self.PINNED_WINDOWS[(mean, tail)]
        counts, weights = interferer_count_weights(mean, tail_mass=tail)
        assert (int(counts[0]), int(counts[-1])) == (lo, hi)
        assert np.array_equal(counts, np.arange(lo, hi + 1))
        got = (weights[0], weights[weights.size // 2], weights[-1])
        assert got == pytest.approx((first, middle, last), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("mean", [0.5, 7.0, 100.0, 493.9, 19757.6])
    @pytest.mark.parametrize("tail", [1e-6, 1e-9, 0.3])
    def test_count_weights_match_scipy_stats(self, mean, tail):
        stats = pytest.importorskip("scipy.stats")
        counts, weights = interferer_count_weights(mean, tail_mass=tail)
        lo = int(stats.poisson.ppf(tail / 2.0, mean))
        hi = int(stats.poisson.isf(tail / 2.0, mean))
        assert (int(counts[0]), int(counts[-1])) == (lo, hi)
        want = stats.poisson.pmf(np.arange(lo, hi + 1), mean)
        np.testing.assert_allclose(weights, want / want.sum(), rtol=1e-15, atol=0.0)


def _simulated_field(phy, link, field, radius_m, rng, recipients):
    """Interferer counts and distances of ``recipients`` recipients inside
    ``radius_m``, drawn as the simulator draws them: counts with their
    near-zone split, then the counter-based distance of each slot."""
    tables = sim._SfTables(ChannelLaw.build(phy, link, field, field.payload_bytes, 1.0))
    counts, near = sim._draw_interferers(
        rng, field.intensity_per_m2 * math.pi * radius_m**2, tables.near_share, recipients
    )
    state = _interferer_state(
        radius_m, link.path_loss_exponent, rng.integers(2**64, dtype=np.uint64), counts,
        near_counts=near, near_share=tables.near_share,
    )
    u_alpha = state.interferer_u_alpha(np.arange(counts.sum()))
    return counts, u_alpha ** (1.0 / link.path_loss_exponent)


class TestSamplers:
    def test_fading_moments(self, rng):
        # the verdict kernel's fading draw
        a = rng.exponential(1.0, 200_000)
        assert a.mean() == pytest.approx(1.0, abs=0.01)
        # exponential tail: P(A > 1) = 1/e
        assert (a > 1.0).mean() == pytest.approx(math.exp(-1.0), abs=0.005)

    def test_interferer_distances_inside_radius(self, phy, link, field, rng):
        r = 500.0
        _, d = _simulated_field(phy, link, field, r, rng, 1)
        assert np.all(d <= r)
        assert np.all(d >= 0)

    def test_interferer_distance_distribution(self, phy, link, field, rng):
        # uniform over the disc: E[d] = 2r/3, E[d^2] = r^2/2
        r = 1000.0
        _, pooled = _simulated_field(phy, link, field, r, rng, 3000)
        n = pooled.size
        se_mean = r * math.sqrt(1.0 / 18.0) / math.sqrt(n)  # Var[d] = r^2/18
        assert pooled.mean() == pytest.approx(2.0 * r / 3.0, abs=4 * se_mean)
        assert (pooled ** 2).mean() == pytest.approx(r ** 2 / 2.0, rel=0.02)

    def test_interferer_count_is_poisson(self, phy, link, field, rng):
        r = 300.0
        mu = field.intensity_per_m2 * math.pi * r**2
        counts, _ = _simulated_field(phy, link, field, r, rng, 4000)
        se = math.sqrt(mu / counts.size)
        assert counts.mean() == pytest.approx(mu, abs=4 * se)
        assert counts.var() == pytest.approx(mu, rel=0.15)


class TestFieldValidation:
    def test_sf_probabilities_must_sum_to_one(self, phy, field):
        bad = {sf: 0.1 for sf in range(7, 13)}
        with pytest.raises(ValueError):
            InterfererField.from_phy(
                phy,
                intensity_per_m2=field.intensity_per_m2,
                frame_rate_hz=field.frame_rate_hz,
                channel_count=field.channel_count,
                sf_probabilities=bad,
                payload_bytes=field.payload_bytes,
            )

    def test_zero_frame_rate_is_allowed(self, phy, field):
        quiet = InterfererField.from_phy(
            phy,
            intensity_per_m2=field.intensity_per_m2,
            frame_rate_hz=0.0,
            channel_count=field.channel_count,
            sf_probabilities=field.sf_probabilities,
            payload_bytes=field.payload_bytes,
        )
        assert quiet.frame_rate_hz == 0.0
