"""The package's own special functions against scipy and mpmath.

scipy stays a test dependency: it is the reference that the log-gamma port
must match bit for bit, and the source of the count windows and incomplete
gamma values the package computed before it dropped scipy at run time.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

import fuotacast
from fuotacast import analysis, specfun
from fuotacast.channel import ChannelLaw

PAYLOAD = 50


class TestLogGamma:
    def test_bit_identical_to_scipy_on_integers(self):
        x = np.arange(1, 300_001, dtype=np.float64)
        assert np.array_equal(specfun.lgam(x), special.gammaln(x))

    def test_bit_identical_to_scipy_on_reals(self):
        rng = np.random.default_rng(20240)
        x = np.concatenate(
            [rng.uniform(0.0, 20.0, 50_000), np.exp(rng.uniform(-30.0, 30.0, 50_000))]
        )
        x = x[x > 0.0]
        assert np.array_equal(specfun.lgam(x), special.gammaln(x))

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            specfun.lgam([1.0, 0.0])

    def test_poisson_log_pmf_matches_xlogy_form(self):
        n = np.arange(0, 25_000)
        for mean in (0.3, 493.9, 19757.6):
            want = special.xlogy(n, mean) - special.gammaln(n + 1) - mean
            assert np.array_equal(specfun.poisson_log_pmf(n, mean), want)


def _window_cases(pairs=1200, seed=7):
    """(mean, tail) pairs: log-uniform means over 0.01..5e4 plus the
    density-jittered stock and 2e-3 /m2 mean counts, with fixed and
    log-uniform tails."""
    rng = np.random.default_rng(seed)
    means = np.concatenate(
        [
            np.exp(rng.uniform(math.log(0.01), math.log(5e4), pairs // 2)),
            rng.uniform(479.0, 509.0, pairs // 4),
            rng.uniform(19165.0, 20350.0, pairs - pairs // 2 - pairs // 4),
        ]
    )
    fixed = (1e-6, 1e-9, 0.3)
    cases = []
    for i, mean in enumerate(means):
        if i % 4 < 3:
            tail = fixed[i % 4]
        else:
            tail = math.exp(rng.uniform(math.log(1e-12), math.log(0.4)))
        cases.append((float(mean), tail))
    return cases


class TestPoissonWindow:
    def test_edges_match_scipy_stats(self):
        cases = _window_cases()
        assert len(cases) >= 1000
        mismatches = []
        for mean, tail in cases:
            counts, _ = specfun.poisson_window(mean, tail)
            want = (
                int(stats.poisson.ppf(tail / 2, mean)),
                int(stats.poisson.isf(tail / 2, mean)),
            )
            if (int(counts[0]), int(counts[-1])) != want:
                mismatches.append((mean, tail, int(counts[0]), int(counts[-1]), want))
        assert not mismatches

    def test_probabilities_are_the_pmf_over_the_window(self):
        counts, pmf = specfun.poisson_window(493.9, 1e-6)
        assert np.array_equal(counts, np.arange(counts[0], counts[-1] + 1))
        assert np.array_equal(pmf, np.exp(specfun.poisson_log_pmf(counts, 493.9)))
        np.testing.assert_allclose(pmf, stats.poisson.pmf(counts, 493.9), rtol=1e-13)


def _mpmath_p(s, x):
    return float(mpmath.gammainc(s, 0, x, regularized=True))


class TestLowerIncompleteGamma:
    BOUNDARIES = (specfun.SERIES_MAX, specfun.SATURATION_X)

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.8, 0.99])
    def test_matches_mpmath(self, s):
        x = [0.0, 1e-300, 1e-12, 1e-3]
        for edge in self.BOUNDARIES:
            x += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        x += list(np.linspace(0.01, 40.0, 120)) + list(np.geomspace(40.0, 1e4, 12))
        got = specfun.gammainc_lower(s, np.array(x))
        with mpmath.workdps(40):
            want = np.array([_mpmath_p(s, v) for v in x])
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-14, atol=0.0)
        # past the saturation point the value is exactly 1
        assert np.all(got[np.array(x) >= specfun.SATURATION_X] == 1.0)

    @pytest.mark.parametrize("density", [5e-5, 2e-3])
    @pytest.mark.parametrize("alpha", [2.5, 3.5])
    def test_matches_scipy_on_table_arguments(self, monkeypatch, spec, alpha, density):
        calls = []
        inner = specfun.gammainc_lower

        def record(s, x):
            calls.append((s, np.array(x)))
            return inner(s, x)

        monkeypatch.setattr(specfun, "gammainc_lower", record)
        link = dataclasses.replace(spec.network.link, path_loss_exponent=alpha)
        field = dataclasses.replace(spec.network.interferers, intensity_per_m2=density)
        law = ChannelLaw.build(spec.phy, link, field, PAYLOAD, 1.0)
        for d in (100.0, 300.0, 500.0):
            analysis.success_tables(d, law, options=spec.analysis)
        assert len(calls) == 3  # one call per table
        for s, x in calls:
            np.testing.assert_allclose(
                inner(s, x), special.gammainc(s, x), rtol=1e-14, atol=0.0
            )

    def test_rejects_exponents_outside_the_unit_interval(self):
        with pytest.raises(ValueError):
            specfun.gammainc_lower(1.0, np.array([1.0]))


def test_package_import_loads_no_scipy():
    src = str(Path(fuotacast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fuotacast, fuotacast.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
