"""Closed-form performance models.

Per-distance reception probabilities against Rayleigh fading plus a
Poisson interferer field, and the expected energy and delivery time of
each multicast scheme under duty-cycle pacing.

The central object is :class:`SuccessTables`: preamble and whole-frame
success probabilities for every spreading factor, conditioned on each
plausible interferer count, together with the Poisson weights needed to
decondition. Every scheme evaluation is cheap arithmetic on those tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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
from .schemes import ProposedScheme


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


@dataclass(frozen=True)
class AnalysisOptions:
    """Switches for the two places where the printed closed forms disagree
    with the reception behavior they describe, plus numerical knobs.

    ``eta_denominator``: the final sliver of attempts is remaining
    fragments divided by the per-frame success probability ("success");
    "failure_literal" divides by the failure probability instead, which is
    what a strictly literal reading of the final-round formula says.

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


@dataclass(frozen=True)
class AnalyticalOutcome:
    """Expected per-recipient result of one firmware session.
    ``expected_frames`` counts the frames sent until the recipient
    completes, deconditioned over the interferer count."""

    energy_fragments_j: float
    energy_control_j: float
    update_time_s: float
    round_completed: int
    attempts_in_final_round: float
    expected_frames: float

    @property
    def energy_total_j(self) -> float:
        return self.energy_fragments_j + self.energy_control_j


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

    def mean_preamble_success(self, sf: int) -> float:
        return float(self.count_weights @ self.preamble_success_for(sf))

    def mean_frame_success(self, sf: int) -> float:
        return float(self.count_weights @ self.frame_success_for(sf))

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

    def mean_attempt_energy(
        self, sf: int, phy: PhyProfile, energy_formula: str = "partitioned"
    ) -> float:
        return float(self.count_weights @ self.attempt_energy_by_count(sf, phy, energy_formula))


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


def ramp_costs(
    tables: SuccessTables,
    phy: PhyProfile,
    duty_cycle_max_percent: float,
    energy_formula: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Attempt energy per count (rows SF 7..12) and the duty slot of each SF:
    the per-table inputs that every ramp (w, L) variant shares."""
    e_att = np.stack(
        [tables.attempt_energy_by_count(sf, phy, energy_formula) for sf in ALL_SFS]
    )
    slots = np.array(
        [duty_slot_s(phy, sf, tables.payload_bytes, duty_cycle_max_percent) for sf in ALL_SFS]
    )
    return e_att, slots


def _proposed_profile(
    tables: SuccessTables,
    scheme: ProposedScheme,
    needed: float,
    costs: tuple[np.ndarray, np.ndarray],
    options: AnalysisOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-count (energy, time, finishing round, final-round attempts) for
    the ramp scheme, given the table's :func:`ramp_costs`. The finishing
    round is reported as the SF of the round in which the expected
    receptions first cover ``needed``; ``max_sf + 1`` means the open-ended
    tail past the last nominal round."""
    if needed <= 0.0:
        raise ValueError("needed fragment count must be positive")
    rows = slice(tables.row(scheme.min_sf), tables.row(scheme.max_sf) + 1)
    w = float(scheme.frames_per_round)
    n_blocks = scheme.max_sf - scheme.min_sf + 1
    n_counts = tables.count_values.size
    col = np.arange(n_counts)

    s_fr = tables.frame_success[rows]
    e_att = costs[0][rows]
    slots = costs[1][rows]

    cum = np.vstack([np.zeros(n_counts), np.cumsum(w * s_fr, axis=0)])
    reached = cum[1:] >= needed
    has_block = reached.any(axis=0)
    first = np.argmax(reached, axis=0)
    block = np.where(has_block, first, n_blocks)
    final_idx = np.minimum(block, n_blocks - 1)
    s_final = s_fr[final_idx, col]
    remaining = needed - cum[block, col]

    dead = (block == n_blocks) & (s_final <= 0.0)
    if np.any(dead):
        raise UnreachableRecipientError(tables.distance_m, float(np.max(remaining[dead])))

    if options.eta_denominator == "success":
        denom = s_final
    else:
        denom = 1.0 - s_final
    if np.any(denom <= 0.0):
        raise ValueError(
            "final-round attempt denominator vanished; the literal failure-rate"
            " form cannot describe a loss-free final round"
        )
    eta = remaining / denom

    energy_cum = np.vstack([np.zeros(n_counts), np.cumsum(w * e_att, axis=0)])
    energy = energy_cum[block, col] + eta * e_att[final_idx, col]
    time_cum = np.concatenate([[0.0], np.cumsum(w * slots)])
    time = time_cum[block] + eta * slots[final_idx]
    rounds = np.where(block < n_blocks, scheme.min_sf + block, scheme.max_sf + 1)
    return energy, time, rounds, eta


def evaluate_proposed(
    tables: SuccessTables,
    scheme: ProposedScheme,
    needed: float,
    phy: PhyProfile,
    *,
    duty_cycle_max_percent: float = 1.0,
    control_energy: float = 0.0,
    options: Optional[AnalysisOptions] = None,
) -> AnalyticalOutcome:
    """Deconditioned expected outcome of the ramp scheme at one distance."""
    options = options or AnalysisOptions()
    costs = ramp_costs(tables, phy, duty_cycle_max_percent, options.energy_formula)
    return proposed_outcome(
        tables, scheme, needed, costs, control_energy=control_energy, options=options
    )


def proposed_outcome(
    tables: SuccessTables,
    scheme: ProposedScheme,
    needed: float,
    costs: tuple[np.ndarray, np.ndarray],
    *,
    control_energy: float = 0.0,
    options: Optional[AnalysisOptions] = None,
) -> AnalyticalOutcome:
    """:func:`evaluate_proposed` on a table whose :func:`ramp_costs` are
    already known, so a design sweep computes them once per table."""
    options = options or AnalysisOptions()
    energy, time, rounds, eta = _proposed_profile(tables, scheme, needed, costs, options)
    weights = tables.count_weights
    modal = int(np.argmax(weights))
    # the finishing round's index is the number of full rounds before it
    frames = scheme.frames_per_round * (rounds - scheme.min_sf) + eta
    return AnalyticalOutcome(
        energy_fragments_j=float(weights @ energy),
        energy_control_j=float(control_energy),
        update_time_s=float(weights @ time),
        round_completed=int(rounds[modal]),
        attempts_in_final_round=float(eta[modal]),
        expected_frames=float(weights @ frames),
    )


def evaluate_fixed_sf(
    tables: SuccessTables,
    sf: int,
    needed: float,
    phy: PhyProfile,
    *,
    duty_cycle_max_percent: float = 1.0,
    control_energy: float = 0.0,
    options: Optional[AnalysisOptions] = None,
) -> AnalyticalOutcome:
    """Deconditioned expected outcome of a single-SF session at one distance."""
    if needed <= 0.0:
        raise ValueError("needed fragment count must be positive")
    options = options or AnalysisOptions()
    s = tables.frame_success_for(sf)
    if np.any(s <= 0.0):
        raise UnreachableRecipientError(tables.distance_m, float(needed))
    attempts = needed / s
    energy = attempts * tables.attempt_energy_by_count(sf, phy, options.energy_formula)
    time = attempts * duty_slot_s(phy, sf, tables.payload_bytes, duty_cycle_max_percent)
    weights = tables.count_weights
    modal = int(np.argmax(weights))
    return AnalyticalOutcome(
        energy_fragments_j=float(weights @ energy),
        energy_control_j=float(control_energy),
        update_time_s=float(weights @ time),
        round_completed=check_sf(sf),
        attempts_in_final_round=float(attempts[modal]),
        expected_frames=float(weights @ attempts),
    )


def group_cost(
    tables: SuccessTables,
    sf: int,
    needed: float,
    phy: PhyProfile,
    criterion: str,
    *,
    duty_cycle_max_percent: float = 1.0,
    options: Optional[AnalysisOptions] = None,
) -> float:
    """Expected per-node cost of serving this distance entirely at one SF."""
    options = options or AnalysisOptions()
    s = tables.mean_frame_success(sf)
    if s <= 0.0:
        return math.inf
    attempts = needed / s
    if criterion == "energy":
        return attempts * tables.mean_attempt_energy(sf, phy, options.energy_formula)
    if criterion == "latency":
        return attempts * duty_slot_s(phy, sf, tables.payload_bytes, duty_cycle_max_percent)
    raise ValueError("criterion must be 'energy' or 'latency'")


def assign_group_sf(
    tables: SuccessTables,
    needed: float,
    phy: PhyProfile,
    criterion: str,
    *,
    duty_cycle_max_percent: float = 1.0,
    options: Optional[AnalysisOptions] = None,
    max_expected_attempts: Optional[float] = None,
) -> int:
    """Cheapest serving SF for this distance; ties go to the smaller SF.

    SFs whose expected attempt count exceeds ``max_expected_attempts`` are
    treated as out of range. Raises :class:`UnreachableRecipientError` when
    no SF qualifies.
    """
    best_sf = None
    best_cost = math.inf
    for sf in ALL_SFS:
        s = tables.mean_frame_success(sf)
        if s <= 0.0:
            continue
        if max_expected_attempts is not None and needed / s > max_expected_attempts:
            continue
        cost = group_cost(
            tables,
            sf,
            needed,
            phy,
            criterion,
            duty_cycle_max_percent=duty_cycle_max_percent,
            options=options,
        )
        if cost < best_cost:
            best_cost = cost
            best_sf = sf
    if best_sf is None:
        raise UnreachableRecipientError(tables.distance_m, float(needed))
    return best_sf


def assign_groups(
    tables: Mapping[float, SuccessTables],
    needed: float,
    phy: PhyProfile,
    criterion: str,
    *,
    duty_cycle_max_percent: float = 1.0,
    options: Optional[AnalysisOptions] = None,
    max_expected_attempts: Optional[float] = None,
) -> dict[float, Optional[int]]:
    """Serving SF per tabulated distance; ``None`` marks unreachable distances."""
    assignment: dict[float, Optional[int]] = {}
    for d, tab in tables.items():
        try:
            assignment[d] = assign_group_sf(
                tab,
                needed,
                phy,
                criterion,
                duty_cycle_max_percent=duty_cycle_max_percent,
                options=options,
                max_expected_attempts=max_expected_attempts,
            )
        except UnreachableRecipientError:
            assignment[d] = None
    return assignment
