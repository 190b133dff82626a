"""Closed-form performance models.

Per-distance reception probabilities against Rayleigh fading plus a
Poisson interferer field, and the expected energy and delivery time of
one stream of a scheme's session plan under duty-cycle pacing.

The central object is :class:`SuccessTables`: preamble and whole-frame
success probabilities for every spreading factor, conditioned on each
plausible interferer count, together with the Poisson weights needed to
decondition. Every scheme evaluation is cheap arithmetic on those tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import specfun
from .channel import (
    InterfererField,
    LinkModel,
    interference_radius,
    interferer_count_weights,
    mean_interferer_count,
)
from .phy import ALL_SFS, SF_MAX, SF_MIN, PhyProfile, check_sf


class NumericalIntegrationError(RuntimeError):
    """A success integral failed its quadrature refinement check."""


class UnreachableRecipientError(RuntimeError):
    """No spreading factor can deliver the remaining fragments at this distance."""

    def __init__(self, distance_m: float, deficit: float):
        super().__init__(
            f"recipient at {distance_m:.1f} m cannot be reached:"
            f" {deficit:.1f} expected fragments undeliverable"
        )
        self.distance_m = distance_m
        self.deficit = deficit


class LossFreeRoundError(ValueError):
    """``eta_denominator="failure_literal"`` met a finishing segment that
    never loses a frame, so its failure probability cannot divide."""

    def __init__(self, distance_m: float, sf: int):
        super().__init__(
            f"eta_denominator 'failure_literal' divides by the failure probability"
            f" of the final segment, which is 0 at SF{sf} for the recipient at"
            f" {distance_m:.1f} m; use 'success' for a loss-free link"
        )
        self.distance_m = distance_m
        self.sf = sf


@dataclass(frozen=True)
class AnalysisOptions:
    """Switches for the two places where the printed closed forms disagree
    with the reception behavior they describe, plus numerical knobs.

    ``eta_denominator``: the final sliver of attempts is remaining
    fragments divided by the per-frame success probability ("success");
    "failure_literal" divides by the failure probability instead, which is
    what a strictly literal reading of the final-round formula says. It
    applies to the segment in which a recipient finishes, in every
    scheme's streams: the ramp's, a fixed SF's and each group's, so a
    fixed SF and a one-SF ramp agree under either reading.

    ``energy_formula``: "partitioned" charges a full-frame listen whenever
    the preamble is acquired and a preamble-only listen otherwise, so the
    three reception outcomes partition each attempt. "as_printed" charges
    ``(S_fr + F_pl) * e_frame + F_pr * e_preamble``, the literal printed
    weighting, which double-counts nothing only when F_pl is conditional.
    """

    eta_denominator: str = "success"
    energy_formula: str = "partitioned"
    count_tail_mass: float = 1e-6
    quadrature_rtol: float = 1e-8

    def __post_init__(self) -> None:
        if self.eta_denominator not in ("success", "failure_literal"):
            raise ValueError("eta_denominator must be 'success' or 'failure_literal'")
        if self.energy_formula not in ("partitioned", "as_printed"):
            raise ValueError("energy_formula must be 'partitioned' or 'as_printed'")
        if not 0.0 < self.count_tail_mass < 0.1:
            raise ValueError("count_tail_mass must be in (0, 0.1)")
        if not 0.0 < self.quadrature_rtol < 1e-2:
            raise ValueError("quadrature_rtol must be in (0, 1e-2)")


def collision_probability(
    desired_sf: int,
    interferer_sf: int,
    segment: str,
    payload_bytes: int,
    phy: PhyProfile,
    field: InterfererField,
) -> float:
    """Per-interferer probability that one of its frames overlaps the
    desired segment on the same channel."""
    i = check_sf(desired_sf)
    j = check_sf(interferer_sf)
    if segment == "preamble":
        l_seg = phy.preamble_duration(i)
    elif segment == "frame":
        l_seg = phy.frame_airtime(i, payload_bytes)
    else:
        raise ValueError("segment must be 'preamble' or 'frame'")
    window = l_seg + field.mean_frame_duration_s[j]
    p = field.frame_rate_hz * window / field.channel_count
    if p > 1.0:
        warnings.warn(
            "vulnerable window exceeds the mean inter-frame gap;"
            " clamping collision probability to 1",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    return p


# Fixed panel edges for the semi-infinite fading integral, in units of the
# (unit-mean) exponential fading variable past the detection threshold. The
# discarded tail beyond the last edge carries e**-40 < 5e-18 mass. Dense
# near the origin: interferer counts in the tens of thousands turn the
# survival power into a steep wall close to t = 0.
_PANEL_EDGES = (
    0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 40.0,
)


def _panel_rule(points_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    nodes, weights = [], []
    for a, b in zip(_PANEL_EDGES[:-1], _PANEL_EDGES[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


_NODES_COARSE, _WEIGHTS_COARSE = _panel_rule(16)
_NODES_FINE, _WEIGHTS_FINE = _panel_rule(24)
# both rules side by side: the loss terms and the survivor powers are
# evaluated once over the union, then each rule sums its own columns
_NODES = np.concatenate([_NODES_COARSE, _NODES_FINE])
_DECAYED_WEIGHTS = np.concatenate([_WEIGHTS_COARSE, _WEIGHTS_FINE]) * np.exp(-_NODES)
_RULES = (slice(0, _NODES_COARSE.size), slice(_NODES_COARSE.size, _NODES.size))


def _loss_terms(
    a: np.ndarray,
    sf,
    phy: PhyProfile,
    link: LinkModel,
    radius_m: float,
    d_alpha: float,
) -> np.ndarray:
    """Disc-averaged capture-kill term of each interferer SF (rows, SF 7..12)
    at desired fading levels ``a``: gamma(s, beta r**alpha) * beta**-s with
    s = 2 / alpha. For a sequence of desired SFs, ``a`` has one row of
    levels per SF and the result one block of rows per SF, so one
    incomplete-gamma call covers a whole table. Shared by both segments,
    which weight the rows by their own collision probabilities."""
    s = 2.0 / link.path_loss_exponent
    r_alpha = radius_m**link.path_loss_exponent
    caps = np.array(
        [[phy.capture_ratio(i, j) for j in ALL_SFS] for i in np.atleast_1d(sf).tolist()]
    ).reshape(np.shape(sf) + (len(ALL_SFS),))
    beta = np.maximum(np.asarray(a)[..., None, :] / (caps[..., None] * d_alpha), 1e-300)
    return specfun.gammainc_lower(s, beta * r_alpha) * math.gamma(s) * beta ** (-s)


def _per_interferer_loss(
    terms: np.ndarray,
    seg_collision: dict[int, float],
    link: LinkModel,
    field: InterfererField,
    radius_m: float,
) -> np.ndarray:
    """Q(a): probability that one uniformly placed interferer wipes the
    desired segment, from the :func:`_loss_terms` at the same fading levels."""
    mix = np.array([field.sf_probabilities[j] * seg_collision[j] for j in ALL_SFS])
    prefactor = 2.0 / (link.path_loss_exponent * radius_m**2)
    return np.clip(prefactor * (mix @ terms), 0.0, 1.0)


def _power_sums(survive: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_k v_k * survive_k**n for every count n, one row per rule, where
    v_k is the rule's weight times e**-t at node k.

    A two-level power table: with the counts spanning [lo, hi] and
    B = ceil(sqrt(hi - lo + 1)), n = lo + i*B + j splits survive**n into
    big[i] = survive**(lo + i*B) times small[j] = survive**j, so
    sum_k v_k survive_k**n = (big @ (small * v).T)[i, j]. That costs about
    2 sqrt(N) powers per node instead of N, each power comes from two pows
    and one multiply (no cumulative-product drift), and the count-by-node
    matrix is never built.
    """
    lo = int(counts.min())
    offsets = counts - lo
    block = math.isqrt(int(offsets.max())) + 1
    starts = lo + block * np.arange(int(offsets.max()) // block + 1)
    big = np.power(survive, starts.astype(np.float64)[:, None])
    small = np.power(survive, np.arange(block, dtype=np.float64)[:, None])
    weighted = small * _DECAYED_WEIGHTS
    # row-major, the (i, j) entry of each table sits at offset i*B + j
    return np.stack([(big[:, r] @ weighted[:, r].T).ravel()[offsets] for r in _RULES])


def _conditioned_integral(
    survive: np.ndarray,
    counts: np.ndarray,
    rtol: float,
    context: str,
) -> np.ndarray:
    """J(n) = integral over t in (0, inf) of (1 - Q(c + t))**n e**-t dt for
    every count n, by fixed Gauss-Legendre panels with a refinement check.
    ``survive`` is 1 - Q(c + t) at ``_NODES`` (the 16-point rule's nodes,
    then the 24-point rule's). The power sums come from the two-level table
    of :func:`_power_sums`. The full success probability is e**-c times
    this."""
    coarse, fine = _power_sums(survive, counts)
    err = np.abs(fine - coarse)
    bound = np.maximum(rtol * np.abs(fine), 1e-12)
    if np.any(err > bound):
        worst = int(np.argmax(err - bound))
        raise NumericalIntegrationError(
            f"quadrature refinement failed for {context}:"
            f" error {err[worst]:.3e} at interferer count {int(counts[worst])}"
        )
    # with nobody to collide with the integral is exactly 1; skipping the
    # quadrature noise keeps the interferer-free limit exact
    return np.clip(np.where(counts == 0, 1.0, fine), 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class SuccessTables:
    """Reception probabilities at one distance, conditioned on interferer
    count, for every spreading factor. Rows are SF 7..12 in order."""

    distance_m: float
    payload_bytes: int
    interference_radius_m: float
    count_values: np.ndarray
    count_weights: np.ndarray
    preamble_success: np.ndarray
    frame_success: np.ndarray

    def row(self, sf: int) -> int:
        return check_sf(sf) - SF_MIN

    def preamble_success_for(self, sf: int) -> np.ndarray:
        return self.preamble_success[self.row(sf)]

    def frame_success_for(self, sf: int) -> np.ndarray:
        return self.frame_success[self.row(sf)]

    def attempt_energy_by_count(
        self, sf: int, phy: PhyProfile, energy_formula: str = "partitioned"
    ) -> np.ndarray:
        """Expected listening energy of one reception attempt, per count."""
        e_fr = phy.rx_energy_frame(sf, self.payload_bytes)
        e_pr = phy.rx_energy_preamble(sf)
        s_pr = self.preamble_success_for(sf)
        s_fr = self.frame_success_for(sf)
        if energy_formula == "partitioned":
            return s_pr * e_fr + (1.0 - s_pr) * e_pr
        if energy_formula != "as_printed":
            raise ValueError("energy_formula must be 'partitioned' or 'as_printed'")
        with np.errstate(invalid="ignore", divide="ignore"):
            f_pl = np.where(s_pr > 0.0, 1.0 - s_fr / np.where(s_pr > 0.0, s_pr, 1.0), 0.0)
        return (s_fr + f_pl) * e_fr + (1.0 - s_pr) * e_pr


def success_tables(
    distance_m: float,
    payload_bytes: int,
    phy: PhyProfile,
    link: LinkModel,
    field: InterfererField,
    *,
    options: Optional[AnalysisOptions] = None,
    counts: Optional[Sequence[int]] = None,
) -> SuccessTables:
    """Build the per-count success tables at one recipient distance.

    With ``counts`` given, the tables are conditioned on exactly those
    interferer counts (the weights then form a plain average); otherwise the
    counts cover the Poisson distribution up to ``count_tail_mass``.
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    options = options or AnalysisOptions()
    radius = interference_radius(link, field, phy.sensitivity_w(SF_MAX))
    if counts is None:
        count_values, count_weights = interferer_count_weights(
            mean_interferer_count(field, radius), options.count_tail_mass
        )
    else:
        count_values = np.asarray(counts, dtype=np.int64)
        if count_values.ndim != 1 or count_values.size == 0 or np.any(count_values < 0):
            raise ValueError("counts must be a nonempty 1-d sequence of nonnegative ints")
        count_weights = np.full(count_values.size, 1.0 / count_values.size)

    n_counts = count_values.size
    d_alpha = distance_m**link.path_loss_exponent
    pre = np.zeros((len(ALL_SFS), n_counts))
    fr = np.zeros((len(ALL_SFS), n_counts))
    # (row, SF, threshold, detection probability, preamble and frame
    # collisions) of every SF whose integrals need the quadrature
    pending = []
    for idx, sf in enumerate(ALL_SFS):
        c = link.outage_threshold(phy.sensitivity_w(sf), distance_m)
        base = math.exp(-c) if c < 745.0 else 0.0
        if base == 0.0:
            continue
        c_pre = {
            j: collision_probability(sf, j, "preamble", payload_bytes, phy, field)
            for j in ALL_SFS
        }
        c_fr = {
            j: collision_probability(sf, j, "frame", payload_bytes, phy, field)
            for j in ALL_SFS
        }
        if all(v == 0.0 for v in c_fr.values()):
            # no interferer traffic: the integral is exactly 1 for every n
            pre[idx] = base
            fr[idx] = base
            continue
        pending.append((idx, sf, c, base, c_pre, c_fr))
    if pending:
        _, sfs, thresholds, _, _, _ = zip(*pending)
        levels = np.array(thresholds)[:, None] + _NODES
        all_terms = _loss_terms(levels, sfs, phy, link, radius, d_alpha)
        for (idx, sf, _, base, c_pre, c_fr), terms in zip(pending, all_terms):
            for seg_collision, out in ((c_pre, pre), (c_fr, fr)):
                survive = 1.0 - _per_interferer_loss(terms, seg_collision, link, field, radius)
                out[idx] = base * _conditioned_integral(
                    survive,
                    count_values,
                    options.quadrature_rtol,
                    f"SF{sf} at {distance_m:.1f} m",
                )
    return SuccessTables(
        distance_m=float(distance_m),
        payload_bytes=int(payload_bytes),
        interference_radius_m=radius,
        count_values=count_values,
        count_weights=count_weights,
        preamble_success=pre,
        frame_success=fr,
    )


def duty_slot_s(
    phy: PhyProfile, sf: int, payload_bytes: int, duty_cycle_max_percent: float
) -> float:
    """Wall-clock spacing of consecutive frames at one SF under the duty cycle."""
    if not 0.0 < duty_cycle_max_percent <= 100.0:
        raise ValueError("duty_cycle_max_percent must be in (0, 100]")
    return (100.0 / duty_cycle_max_percent) * phy.frame_airtime(sf, payload_bytes)


def control_energy_j(
    phy: PhyProfile,
    control_listen_s: float,
    ack_payload_bytes: int,
    ack_uplink_sf: int,
) -> float:
    """Session-control overhead: setup listening plus one acknowledgment."""
    if control_listen_s < 0.0:
        raise ValueError("control_listen_s must be nonnegative")
    ack_airtime = phy.frame_airtime(ack_uplink_sf, ack_payload_bytes)
    return phy.rx_power_w * control_listen_s + phy.tx_power_w * ack_airtime


def normalization_energy_j(phy: PhyProfile, fragments: int, payload_bytes: int) -> float:
    """Energy of receiving the whole image once at the fastest SF; the
    reference against which scheme energies are normalized."""
    return fragments * phy.rx_energy_frame(SF_MIN, payload_bytes)


@dataclass(frozen=True, eq=False)
class StreamCosts:
    """What serving one distance costs, per SF: frame success and attempt
    energy (rows SF 7..12, one column per interferer count), the duty slot
    of each SF, and the weights that decondition the columns."""

    distance_m: float
    success: np.ndarray
    attempt_energy: np.ndarray
    slots: np.ndarray
    weights: np.ndarray

    def mean(self) -> StreamCosts:
        """The count-weighted mean success and attempt energy as a
        one-column table: what a group-based stream is costed on."""

        def column(rows: np.ndarray) -> np.ndarray:
            return np.array([[float(self.weights @ row)] for row in rows])

        return StreamCosts(
            self.distance_m,
            column(self.success),
            column(self.attempt_energy),
            self.slots,
            np.ones(1),
        )


def stream_costs(
    tables: SuccessTables,
    phy: PhyProfile,
    duty_cycle_max_percent: float,
    energy_formula: str,
) -> StreamCosts:
    """The :class:`StreamCosts` of one table; every stream evaluated at the
    table's distance shares them."""
    return StreamCosts(
        tables.distance_m,
        tables.frame_success,
        np.stack([tables.attempt_energy_by_count(sf, phy, energy_formula) for sf in ALL_SFS]),
        np.array(
            [duty_slot_s(phy, sf, tables.payload_bytes, duty_cycle_max_percent) for sf in ALL_SFS]
        ),
        tables.count_weights,
    )


def evaluate_stream(
    segments: Sequence[tuple[int, int]],
    costs: StreamCosts,
    needed: float,
    eta_denominator: str = "success",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-count (energy, time, frames) until a recipient holds ``needed``
    fragments, served one stream of a
    :func:`~fuotacast.schemes.session_plan`: each segment's frame budget at
    its SF in order, with the last segment open-ended.

    A count finishes in the first segment whose cumulative expected
    receptions cover ``needed``; there it pays the remaining fragments
    divided by that segment's success probability, or by its failure
    probability under ``eta_denominator="failure_literal"``, which raises
    :class:`LossFreeRoundError` where that probability is 0. Raises
    :class:`UnreachableRecipientError` when the last SF delivers nothing at
    some count, or when the deconditioned expected frames exceed the
    stream's total budget, where the simulator abandons the stream.
    """
    if needed <= 0.0:
        raise ValueError("needed fragment count must be positive")
    rows = [check_sf(sf) - SF_MIN for sf, _ in segments]
    budgets = np.array([budget for _, budget in segments[:-1]], dtype=np.float64)
    s_fr = costs.success[rows]
    e_att = costs.attempt_energy[rows]
    slots = costs.slots[rows]
    col = np.arange(s_fr.shape[1])

    def started(per_frame: np.ndarray) -> np.ndarray:
        # the totals over the segments before each one, per count
        out = np.zeros(per_frame.shape)
        (budgets[:, None] * per_frame[:-1]).cumsum(axis=0, out=out[1:])
        return out

    received = started(s_fr)
    # the cumulative receptions never fall, so the number of segment ends
    # still short of the need is the index of the finishing segment
    block = (received[1:] < needed).sum(axis=0)
    s_final = s_fr[block, col]
    remaining = needed - received[block, col]

    # a segment before the last that finishes a count delivered something,
    # so a dead count is one the open-ended last segment cannot serve
    dead = s_final <= 0.0
    if dead.any():
        raise UnreachableRecipientError(costs.distance_m, float(remaining[dead].max()))
    denom = s_final if eta_denominator == "success" else 1.0 - s_final
    vanished = np.flatnonzero(denom <= 0.0)
    if vanished.size:
        raise LossFreeRoundError(costs.distance_m, segments[block[vanished[0]]][0])
    eta = remaining / denom

    energy = started(e_att)[block, col] + eta * e_att[block, col]
    time = np.concatenate(([0.0], (budgets * slots[:-1]).cumsum()))[block] + eta * slots[block]
    frames = np.concatenate(([0.0], budgets.cumsum()))[block] + eta
    if float(costs.weights @ frames) > sum(budget for _, budget in segments):
        raise UnreachableRecipientError(costs.distance_m, float(needed))
    return energy, time, frames
