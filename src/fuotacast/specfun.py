"""The few special functions the closed forms need, without scipy.

- :func:`lgam`: log-gamma of positive reals, a port of Cephes ``lgam``
  (the routine behind ``scipy.special.gammaln``) that gives the same bits.
- :func:`poisson_log_pmf` and :func:`poisson_window`: Poisson weights and
  the central count window that holds all but a given tail mass.
- :func:`gammainc_lower`: the regularized lower incomplete gamma P(s, x)
  for one 0 < s < 1 over an array of x, by a power series below
  ``SERIES_MAX`` and a continued fraction above it.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes lgam: Stirling correction for 13 <= x < 1000, and the rational
# form of log Gamma(2 + x) for 0 <= x < 1
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_NUMERATOR = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
# the leading coefficient 1 is implied
_DENOMINATOR = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(x, coefficients, monic=False):
    """Cephes polevl, or p1evl when ``monic`` (an implied leading 1): the
    same multiply-add sequence, so scalars and numpy arrays round alike."""
    total = x + coefficients[0] if monic else coefficients[0]
    for c in coefficients[1:]:
        total = total * x + c
    return total


def _lgam_small(x: float) -> float:
    """Cephes' branch for 0 < x < 13: shift into [2, 3) by the recurrence,
    keeping the product in z, then a rational form."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + x * _horner(x, _NUMERATOR) / _horner(x, _DENOMINATOR, monic=True)


def lgam(x) -> np.ndarray:
    """log Gamma(x) elementwise for x > 0, bit for bit as Cephes computes
    it. numpy does the arithmetic of the Stirling branch (x >= 13) in
    Cephes' order; the logarithms come from ``math.log``, because numpy's
    log can differ from libm's in the last bit."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("lgam needs positive arguments")
    flat = x.ravel()
    out = np.empty_like(flat)
    large = flat >= 13.0
    v = flat[large]
    q = (v - 0.5) * np.array(list(map(math.log, v.tolist()))) - v + _LOG_SQRT_2PI
    p = 1.0 / (v * v)
    short = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333) / v
    correction = np.where(v >= 1000.0, short, _horner(p, _STIRLING) / v)
    out[large] = np.where(v > 1.0e8, q, q + correction)
    for i in np.flatnonzero(~large):
        out[i] = _lgam_small(float(flat[i]))
    return out.reshape(x.shape)


def poisson_log_pmf(counts, mean: float):
    """log P(N = n) for Poisson N of positive ``mean``: n log(mean) -
    log n! - mean, with 0 * log(mean) taken as 0."""
    n = np.asarray(counts, dtype=np.float64)
    log_mean = math.log(mean)
    return np.where(n == 0.0, 0.0, n * log_mean) - lgam(n + 1.0) - mean


def poisson_window(mean: float, tail_mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts from the tail_mass/2 quantile to the 1 - tail_mass/2 quantile
    of Poisson(``mean``), with their probabilities.

    The lower edge is the smallest count whose cumulative probability
    reaches tail_mass/2, the upper edge the smallest count above which at
    most tail_mass/2 remains. Both sums run inward from the tails, so they
    add only small terms. The probabilities come from a bracket of
    (z + 8) standard deviations + 20 around the mean, where z =
    sqrt(2 log(2 / tail_mass)) bounds the normal quantile; the Poisson mass
    outside it is far below a rounding error of tail_mass/2.
    """
    half = tail_mass / 2.0
    reach = (math.sqrt(2.0 * math.log(1.0 / half)) + 8.0) * math.sqrt(mean) + 20.0
    start = max(0, math.floor(mean - reach))
    bracket = np.arange(start, math.ceil(mean + reach) + 1, dtype=np.int64)
    pmf = np.exp(poisson_log_pmf(bracket, mean))
    lo = int(np.argmax(np.cumsum(pmf) >= half))
    # above[k] = P(N > bracket[k]), summed from the right
    above = np.concatenate([np.cumsum(pmf[:0:-1])[::-1], [0.0]])
    hi = int(np.argmax(above <= half))
    return bracket[lo : hi + 1], pmf[lo : hi + 1]


# P(s, x) is 1 in double precision from here on: for s <= 1,
# Q(s, x) <= exp(-x) < 2**-54
SATURATION_X = 38.0
# the power series runs below this argument, the continued fraction above
SERIES_MAX = 6.0
_EPS = 2.0**-53


def gammainc_lower(s: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)
    for one 0 < s < 1 and every x >= 0 of an array.

    Both branches run a fixed number of steps over their whole subarray:
    the count that the slowest-converging argument needs (the largest x of
    the series, the smallest of the continued fraction), found by a scalar
    run on that argument alone."""
    if not 0.0 < s < 1.0:
        raise ValueError("gammainc_lower needs 0 < s < 1")
    x = np.asarray(x, dtype=np.float64)
    out = np.ones(x.shape)
    series = x < SERIES_MAX
    fraction = ~series & (x < SATURATION_X)
    if series.any():
        out[series] = _lower_series(s, x[series])
    if fraction.any():
        out[fraction] = 1.0 - _upper_fraction(s, x[fraction])
    return out


def _lower_series(s: float, x: np.ndarray) -> np.ndarray:
    """P(s, x) = x**s e**-x / Gamma(s + 1) * sum_k x**k / ((s+1)...(s+k)).
    All terms are positive; the relative size of the k-th term grows with
    x, so the largest x sets the number of terms."""
    top = float(x.max())
    term = total = 1.0
    terms = 0
    while term > _EPS * total:
        terms += 1
        term *= top / (s + terms)
        total += term
    term = np.ones(x.shape)
    total = np.ones(x.shape)
    for k in range(1, terms + 1):
        term *= x / (s + k)
        total += term
    return x**s * np.exp(-x) / math.gamma(s + 1.0) * total


def _upper_fraction(s: float, x: np.ndarray) -> np.ndarray:
    """Q(s, x) = 1 - P(s, x) = x**s e**-x / Gamma(s) / (b0 + a1 / (b1 +
    a2 / (b2 + ...))) with a_i = -i (i - s), b_i = x + 2i + 1 - s.

    Modified Lentz on the smallest x, which converges slowest, gives the
    depth; every x is then evaluated from that depth backwards."""
    low = float(x.min())
    b = low + 1.0 - s
    c, d = math.inf, 1.0 / b
    depth = 0
    while True:
        depth += 1
        an = -depth * (depth - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(d * c - 1.0) <= _EPS:
            break
    tail = x + (2 * depth + 1 - s)
    for i in range(depth, 0, -1):
        tail = (x + (2 * i - 1 - s)) + (-i * (i - s)) / tail
    return x**s * np.exp(-x) / math.gamma(s) / tail
