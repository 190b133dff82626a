#!/usr/bin/env python3
"""Regenerate ``MPMATH_ORACLE`` in ``tests/test_analysis.py`` with mpmath.

Each value is the conditioned survivor integral

    S(n) = exp(-c) * integral over t in (0, inf) of exp(-t) (1 - Q(c + t))**n dt

at 25 significant digits, where c is the outage threshold and Q(a) is the
probability that one interferer, uniform over the interference disc, kills
the desired segment at desired fading level a. Q uses the disc average in
its incomplete-gamma closed form,

    Q(a) = 2 / (alpha R**2) * sum_j p_j c_ij gamma(s, beta_j R**alpha) beta_j**-s,
    s = 2 / alpha, beta_j = a / (xi_ij d**alpha),

with gamma the lower incomplete gamma function. The model inputs (outage
threshold, capture ratios, collision probabilities, SF mix, disc radius) come
from the packaged default config as doubles; the integral itself is mpmath's
adaptive tanh-sinh quadrature over the whole half line, independent of the
package's Gauss-Legendre panels.

The first four cases are the stock-field values. The last three sit at the
low end, the mode and the high end of the interferer-count window at
2e-3 /m2 (Q does not depend on the density; only the window does), so the
large-count path of the closed form has an independent reference too.

Usage: ``python scripts/make_mpmath_oracle.py`` prints the dict literal.
Needs mpmath (a test dependency); a run takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fuotacast import analysis  # noqa: E402
from fuotacast.channel import interference_radius  # noqa: E402
from fuotacast.config import load_default_spec  # noqa: E402
from fuotacast.phy import ALL_SFS, SF_MAX  # noqa: E402

PAYLOAD = 50
# (distance_m, interferer_count, sf, segment)
CASES = (
    (500.0, 3, 9, "preamble"),
    (500.0, 3, 9, "frame"),
    (900.0, 10, 11, "preamble"),
    (900.0, 10, 11, "frame"),
    (500.0, 19074, 12, "frame"),
    (500.0, 19757, 12, "frame"),
    (500.0, 20449, 12, "frame"),
)
# the package's panel edges, used here only as breakpoints for the
# adaptive rule, which also covers the tail past the last edge
BREAKS = (0, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 40, mp.inf)


def survival(distance_m: float, n: int, sf: int, segment: str, spec) -> mp.mpf:
    phy, link, field = spec.phy, spec.network.link, spec.network.interferers
    alpha = mp.mpf(link.path_loss_exponent)
    s = 2 / alpha
    radius = mp.mpf(interference_radius(link, field, phy.sensitivity_w(SF_MAX)))
    r_alpha = radius**alpha
    d_alpha = mp.mpf(distance_m) ** alpha
    c = mp.mpf(link.outage_threshold(phy.sensitivity_w(sf), distance_m))
    mix = [
        (
            mp.mpf(field.sf_probabilities[j])
            * mp.mpf(analysis.collision_probability(sf, j, segment, PAYLOAD, phy, field)),
            mp.mpf(phy.capture_ratio(sf, j)) * d_alpha,
        )
        for j in ALL_SFS
    ]
    prefactor = 2 / (alpha * radius**2)

    def loss(a):
        total = mp.mpf(0)
        for weight, scale in mix:
            beta = a / scale
            total += weight * mp.gammainc(s, 0, beta * r_alpha) * beta ** (-s)
        return min(max(prefactor * total, mp.mpf(0)), mp.mpf(1))

    integral = mp.quad(lambda t: mp.exp(-t) * (1 - loss(c + t)) ** n, BREAKS)
    return mp.exp(-c) * integral


def main() -> int:
    mp.mp.dps = 25
    spec = load_default_spec()
    print("MPMATH_ORACLE = {")
    for case in CASES:
        d, n, sf, segment = case
        value = mp.nstr(survival(*case, spec), 15, strip_zeros=False)
        print(f'    ({d!r}, {n}, {sf}, "{segment}"): {value},')
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
