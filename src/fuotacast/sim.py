"""Monte Carlo session simulator.

One session multicasts a firmware image to a cohort of recipients under a
chosen transmission policy. Per frame and recipient the model draws
Rayleigh fading against the detection threshold and a Poisson number of
interferer-frame overlaps judged by the capture matrix; recipients stop
listening the moment their rateless decoder is satisfied, and each stream
stops the moment its last recipient finishes (instant completion feedback).

Interferer overlaps are generated per desired frame as a Poisson event
stream whose rate matches the per-interferer collision windows, which
linearizes each interferer's Bernoulli overlap. The quadratic correction
is of order the collision probability itself (~1e-4 at the default load),
far below the simulation's statistical resolution.

The sampler simulates only the frames whose outcome is not already known.
A recipient's interferers are fixed for the session, so at one SF its
frames are i.i.d.: a frame clears the detection threshold ``c`` with
probability ``exp(-c)`` and, independently, overlaps at least one
interferer frame ("dirty") with probability ``1 - exp(-lambda)``, where
``lambda`` is the recipient's mean overlap count per frame. An undetected
frame is a preamble-only listen and a detected clean frame is a reception,
so each pass of at most ``sim.chunk_frames`` frames draws the detected
count and the dirty count within it binomially, and simulates only the
detected dirty frames: fading conditioned above the threshold, a first
overlap at a time conditioned into the frame plus a Poisson remainder, and
each overlap's SF, source interferer, capture verdict and preamble share.
An interferer's distance is drawn the first time an overlap names it.
The frames of a pass are exchangeable, so a recipient still ``r``
receptions short completes at the ``r``-th of its receptions placed
uniformly over the pass (a negative-hypergeometric draw), and its full
listens before that point are a draw without replacement. The cost grows
with detected dirty frames plus recipients times passes; in a dense field
nearly every frame is dirty and it approaches one simulated frame per
detected recipient-frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis
from .channel import InterfererField, LinkModel, interference_radius, mean_interferer_count
from .config import ExperimentSpec
from .fec import RatelessModel
from .phy import ALL_SFS, SF_MIN, PhyProfile
from .schemes import Scheme, session_plan


@dataclass(frozen=True)
class RecipientOutcome:
    """What one recipient experienced during one session."""

    distance_m: float
    fragments_needed: int
    fragments_received: int
    completed: bool
    completion_time_s: float
    energy_fragments_j: float
    energy_control_j: float
    attempts_full: int
    attempts_preamble_only: int
    assigned_sf: Optional[int] = None


@dataclass(frozen=True, eq=False)
class SessionResult:
    """One session: per-recipient arrays plus the stream totals.

    ``assigned_sf`` is nan for recipients without a group SF (every
    recipient of a non-group scheme). ``outcomes`` gives the same data as
    one :class:`RecipientOutcome` per recipient.
    """

    distances: np.ndarray
    fragments_needed: np.ndarray
    fragments_received: np.ndarray
    completed: np.ndarray
    completion_time_s: np.ndarray
    energy_fragments_j: np.ndarray
    control_energy_j: float
    attempts_full: np.ndarray
    attempts_preamble_only: np.ndarray
    assigned_sf: np.ndarray
    transmissions: int
    duration_s: float
    incomplete: bool

    @property
    def outcomes(self) -> tuple[RecipientOutcome, ...]:
        return tuple(
            RecipientOutcome(
                distance_m=float(self.distances[g]),
                fragments_needed=int(self.fragments_needed[g]),
                fragments_received=int(self.fragments_received[g]),
                completed=bool(self.completed[g]),
                completion_time_s=float(self.completion_time_s[g]),
                energy_fragments_j=float(self.energy_fragments_j[g]),
                energy_control_j=self.control_energy_j if self.completed[g] else 0.0,
                attempts_full=int(self.attempts_full[g]),
                attempts_preamble_only=int(self.attempts_preamble_only[g]),
                assigned_sf=None if math.isnan(self.assigned_sf[g]) else int(self.assigned_sf[g]),
            )
            for g in range(self.distances.size)
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Per-bin and averaged metrics over repeated sessions of one scheme."""

    scheme: str
    runs: int
    seed: int
    config_fingerprint: str
    bin_distances: tuple[float, ...]
    ee_norm_mean: tuple[float, ...]
    ee_norm_stderr: tuple[float, ...]
    dt_hours_mean: tuple[float, ...]
    dt_hours_stderr: tuple[float, ...]
    incomplete_sessions: int
    unfinished_recipients: int


class _SfTables:
    """Per-SF constants shared by every session of an experiment."""

    def __init__(self, phy: PhyProfile, field: InterfererField, payload_bytes: int,
                 duty_cycle_max_percent: float):
        n_sf = len(ALL_SFS)
        self.e_frame = np.zeros(n_sf)
        self.e_preamble = np.zeros(n_sf)
        self.slot_s = np.zeros(n_sf)
        self.event_rate_per_interferer = np.zeros(n_sf)
        self.sf_event_cdf = np.zeros((n_sf, n_sf))
        self.preamble_share = np.zeros((n_sf, n_sf))
        self.capture = np.zeros((n_sf, n_sf))
        mix = np.array([field.sf_probabilities[j] for j in ALL_SFS])
        l_bar = np.array([field.mean_frame_duration_s[j] for j in ALL_SFS])
        for row, s in enumerate(ALL_SFS):
            l_fr = phy.frame_airtime(s, payload_bytes)
            l_pr = phy.preamble_duration(s)
            self.e_frame[row] = phy.rx_energy_frame(s, payload_bytes)
            self.e_preamble[row] = phy.rx_energy_preamble(s)
            self.slot_s[row] = analysis.duty_slot_s(phy, s, payload_bytes, duty_cycle_max_percent)
            windows = mix * (l_fr + l_bar)
            self.event_rate_per_interferer[row] = (
                field.frame_rate_hz * windows.sum() / field.channel_count
            )
            total = windows.sum()
            self.sf_event_cdf[row] = np.cumsum(windows / total) if total > 0 else 1.0
            self.preamble_share[row] = (l_pr + l_bar) / (l_fr + l_bar)
            self.capture[row] = [phy.capture_ratio(s, j) for j in ALL_SFS]


class _SessionState:
    """Mutable per-recipient bookkeeping for one session."""

    def __init__(self, d_alpha: np.ndarray, thresholds: np.ndarray,
                 int_counts: np.ndarray, radius_m: float, path_loss_exponent: float,
                 detect_c: np.ndarray):
        n = d_alpha.size
        self.d_alpha = d_alpha
        self.thresholds = thresholds
        self.int_counts = int_counts
        self.int_offsets = np.cumsum(int_counts) - int_counts
        # interferer distances**alpha, drawn when an overlap first names one
        self.int_u_alpha = np.full(int(int_counts.sum()), np.nan)
        self.radius_alpha = radius_m**path_loss_exponent
        self.half_alpha = path_loss_exponent / 2.0
        self.detect_c = detect_c
        self.detect_p = np.exp(-detect_c)
        self.received = np.zeros(n, dtype=np.int64)
        self.completed = np.zeros(n, dtype=bool)
        self.completion_time = np.full(n, np.nan)
        self.full_listens = np.zeros((n, len(ALL_SFS)), dtype=np.int64)
        self.preamble_listens = np.zeros((n, len(ALL_SFS)), dtype=np.int64)

    def interferer_u_alpha(self, rng: np.random.Generator, slots: np.ndarray) -> np.ndarray:
        """distance**alpha of the interferers at ``slots``, drawing from the
        in-disc radial law those not named before."""
        u_alpha = self.int_u_alpha[slots]
        fresh = np.isnan(u_alpha)
        if fresh.any():
            draws = rng.random(int(fresh.sum()))
            self.int_u_alpha[slots[fresh]] = self.radius_alpha * draws**self.half_alpha
            # an interferer named twice keeps one of its draws
            u_alpha = self.int_u_alpha[slots]
        return u_alpha


def _dirty_frame_verdicts(
    rng: np.random.Generator,
    state: _SessionState,
    tables: _SfTables,
    row: int,
    g: np.ndarray,
    rate: np.ndarray,
    p_dirty: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(received, preamble heard) for detected frames of recipients ``g``
    that overlap at least one interferer frame; ``rate`` is each frame's
    mean overlap count and ``p_dirty`` its chance of at least one."""
    n = g.size
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    # exponential fading conditioned on clearing the detection threshold
    fading = state.detect_c[g, row] + rng.exponential(1.0, size=n)
    # the first overlap falls at T, conditioned into [0, 1); the rest of
    # the frame holds a Poisson(rate * (1 - T)) number of further overlaps
    rest = np.maximum(rate + np.log1p(-rng.random(n) * p_dirty), 0.0)
    k = 1 + rng.poisson(rest)
    total = int(k.sum())
    cell = np.repeat(np.arange(n), k)
    src = g[cell]
    j = np.searchsorted(tables.sf_event_cdf[row], rng.random(total), side="right")
    j = np.minimum(j, len(ALL_SFS) - 1)
    src_local = (rng.random(total) * state.int_counts[src]).astype(np.int64)
    u_alpha = state.interferer_u_alpha(rng, state.int_offsets[src] + src_local)
    # the overlap kills when the interferer's fading pushes its power past
    # the desired power over the capture threshold
    limit = fading[cell] * u_alpha / (state.d_alpha[src] * tables.capture[row, j])
    kill = rng.exponential(1.0, size=total) > limit
    in_pre = rng.random(total) < tables.preamble_share[row, j]
    frame_kill = np.bincount(cell[kill], minlength=n) > 0
    pre_kill = np.bincount(cell[kill & in_pre], minlength=n) > 0
    return ~frame_kill, ~pre_kill


def _place_completion(
    rng: np.random.Generator,
    r: np.ndarray,
    got: np.ndarray,
    heard_lost: np.ndarray,
    frames: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame of the ``r``-th reception and the full listens up to it, in a
    uniformly shuffled pass of ``frames`` frames holding ``got >= r``
    receptions and ``heard_lost`` full listens without a reception.

    The frames before the ``r``-th reception hold ``r - 1`` receptions and
    a negative-hypergeometric number of others, which is
    BetaBinomial(frames - got, r, got + 1 - r); those others are drawn
    without replacement from the pass's non-received frames.
    """
    at = r + rng.binomial(frames - got, rng.beta(r, got + 1 - r))
    full = r.copy()
    lost = np.flatnonzero(heard_lost > 0)
    if lost.size > 0:
        full[lost] += rng.hypergeometric(
            heard_lost[lost], frames - got[lost] - heard_lost[lost], at[lost] - r[lost]
        )
    return at, full


def _serve_segment(
    rng: np.random.Generator,
    state: _SessionState,
    tables: _SfTables,
    sf: int,
    max_frames: int,
    active: np.ndarray,
    t_start: float,
    chunk_frames: int,
) -> tuple[int, np.ndarray]:
    """Send up to ``max_frames`` frames at one SF to the active recipients.

    Returns frames actually transmitted and the still-active recipient
    indices. Mutates the session state in place.
    """
    row = sf - SF_MIN
    sent = 0
    while sent < max_frames and active.size > 0:
        f = min(chunk_frames, max_frames - sent)
        a = active.size
        rate = tables.event_rate_per_interferer[row] * state.int_counts[active]
        p_dirty = -np.expm1(-rate)
        # an undetected frame is a preamble-only listen whatever overlaps
        # it, and a detected one that overlaps no interferer frame is
        # received; only detected overlapped frames need simulating
        detected = rng.binomial(f, state.detect_p[active, row])
        dirty = rng.binomial(detected, p_dirty)
        owner = np.repeat(np.arange(a), dirty)
        ok, heard = _dirty_frame_verdicts(
            rng, state, tables, row, active[owner], rate[owner], p_dirty[owner]
        )
        got = detected - dirty + np.bincount(owner[ok], minlength=a)
        heard_lost = np.bincount(owner[heard & ~ok], minlength=a)

        need = state.thresholds[active] - state.received[active]
        done = got >= need
        fin = np.flatnonzero(done)
        listened = np.full(a, f, dtype=np.int64)
        full = got + heard_lost
        if fin.size > 0:
            listened[fin], full[fin] = _place_completion(
                rng, need[fin], got[fin], heard_lost[fin], f
            )

        state.full_listens[active, row] += full
        state.preamble_listens[active, row] += listened - full
        state.received[active] += np.minimum(got, need)
        finishers = active[fin]
        state.completed[finishers] = True
        state.completion_time[finishers] = t_start + (sent + listened[fin]) * tables.slot_s[row]
        active = active[~done]
        if active.size == 0:
            sent += int(listened.max())
            break
        sent += f
    return sent, active


def _place_recipients(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    lay = spec.layout
    if lay.kind == "grid":
        bins = np.array(spec.grid_distances())
        base, rem = divmod(lay.recipients, bins.size)
        counts = np.full(bins.size, base, dtype=np.int64)
        counts[:rem] += 1
        return np.repeat(bins, counts)
    radius = spec.network.cell_radius_m
    return radius * np.sqrt(rng.random(lay.recipients))


def attempts_cap(spec: ExperimentSpec, code: RatelessModel) -> int:
    """Frame budget per stream; a stream that exhausts it is abandoned."""
    return math.ceil(spec.sim.transmission_cap_factor * code.expected_fragments())


def run_session(
    spec: ExperimentSpec,
    scheme: Scheme,
    rng: np.random.Generator,
    *,
    group_assignment: Optional[dict[float, Optional[int]]] = None,
    distances: Optional[np.ndarray] = None,
    code: Optional[RatelessModel] = None,
    tables: Optional[_SfTables] = None,
) -> SessionResult:
    """Simulate one complete firmware session, serving the segments of the
    scheme's :func:`~fuotacast.schemes.session_plan` in order.

    A group-based scheme needs ``group_assignment``, the serving SF per
    distance (``None`` where unreachable); each recipient joins the group
    of its nearest key. ``tables`` may carry the per-SF constants of
    ``spec`` when many sessions share them.
    """
    phy, net = spec.phy, spec.network
    link, fld = net.link, net.interferers
    code = code or spec.firmware.code
    if tables is None:
        tables = _SfTables(
            phy, fld, spec.firmware.fragment_payload_bytes, net.duty_cycle_max_percent
        )

    if distances is None:
        distances = _place_recipients(spec, rng)
    else:
        distances = np.asarray(distances, dtype=float)
    n = distances.size

    radius_i = interference_radius(link, fld, phy.sensitivity_w(max(ALL_SFS)))
    counts = rng.poisson(mean_interferer_count(fld, radius_i), size=n)
    thresholds = code.sample_completion_threshold(rng, size=n)

    d_alpha = distances**link.path_loss_exponent
    sensitivity = np.array([phy.sensitivity_w(s) for s in ALL_SFS])
    detect_c = np.outer(d_alpha, sensitivity / (link.link_gain * link.tx_rf_power_w))
    state = _SessionState(
        d_alpha=d_alpha,
        thresholds=np.asarray(thresholds, dtype=np.int64),
        int_counts=counts,
        radius_m=radius_i,
        path_loss_exponent=link.path_loss_exponent,
        detect_c=detect_c,
    )

    cap = attempts_cap(spec, code)
    chunk = spec.sim.chunk_frames
    transmissions = 0
    elapsed = 0.0
    group_sfs = member_sf = None
    if group_assignment:
        group_sfs = [sf for sf in group_assignment.values() if sf is not None]
        member_sf = _lookup_assignment(group_assignment, distances)
    assigned_sf = np.full(n, np.nan)
    for group_sf, segments in session_plan(scheme, cap, group_sfs):
        if group_sf is None:
            active = np.arange(n)
        else:
            active = np.flatnonzero(member_sf == group_sf)
            assigned_sf[active] = group_sf
        for sf, budget in segments:
            sent, active = _serve_segment(rng, state, tables, sf, budget, active, elapsed, chunk)
            transmissions += sent
            elapsed += sent * tables.slot_s[sf - SF_MIN]

    return SessionResult(
        distances=distances,
        fragments_needed=state.thresholds,
        fragments_received=state.received,
        completed=state.completed,
        completion_time_s=state.completion_time,
        energy_fragments_j=(
            state.full_listens @ tables.e_frame + state.preamble_listens @ tables.e_preamble
        ),
        control_energy_j=analysis.control_energy_j(
            phy, net.control_listen_s, net.ack_payload_bytes, net.ack_uplink_sf
        ),
        attempts_full=state.full_listens.sum(axis=1),
        attempts_preamble_only=state.preamble_listens.sum(axis=1),
        assigned_sf=assigned_sf,
        transmissions=transmissions,
        duration_s=elapsed,
        incomplete=not state.completed.all(),
    )


def _lookup_assignment(
    assignment: dict[float, Optional[int]], distances: np.ndarray
) -> np.ndarray:
    """Serving SF of each distance's nearest assignment key, nan where that
    key is unreachable; equidistant keys resolve to the lower one."""
    keys = np.array(sorted(assignment))
    sfs = np.array([np.nan if assignment[k] is None else assignment[k] for k in keys])
    right = np.minimum(np.searchsorted(keys, distances), keys.size - 1)
    left = np.maximum(right - 1, 0)
    lower = np.abs(keys[left] - distances) <= np.abs(keys[right] - distances)
    return sfs[np.where(lower, left, right)]


def run_experiment(
    spec: ExperimentSpec,
    scheme: Scheme,
    *,
    runs: Optional[int] = None,
    seed: Optional[int] = None,
    code: Optional[RatelessModel] = None,
    group_assignment: Optional[dict[float, Optional[int]]] = None,
) -> ExperimentResult:
    """Repeat sessions with independent seeds and reduce to binned metrics.

    A group-based scheme needs ``group_assignment``, as in :func:`run_session`.
    """
    runs = runs if runs is not None else spec.sim.runs
    seed = seed if seed is not None else spec.seed
    code = code or spec.firmware.code
    if runs < 1:
        raise ValueError("runs must be at least 1")

    bins = np.array(spec.grid_distances())
    edges = np.linspace(0.0, spec.network.cell_radius_m, bins.size + 1)
    e_norm = analysis.normalization_energy_j(
        spec.phy, spec.firmware.fragments, spec.firmware.fragment_payload_bytes
    )
    tables = _SfTables(
        spec.phy, spec.network.interferers, spec.firmware.fragment_payload_bytes,
        spec.network.duty_cycle_max_percent,
    )

    ee_runs = np.full((runs, bins.size), np.nan)
    dt_runs = np.full((runs, bins.size), np.nan)
    incomplete_sessions = 0
    unfinished = 0
    children = np.random.SeedSequence(seed).spawn(runs)
    for r in range(runs):
        rng = np.random.default_rng(children[r])
        session = run_session(
            spec, scheme, rng, group_assignment=group_assignment, code=code, tables=tables
        )
        if session.incomplete:
            incomplete_sessions += 1
        ok = session.completed
        unfinished += int((~ok).sum())
        which = np.clip(np.digitize(session.distances, edges, right=True) - 1, 0, bins.size - 1)
        members = np.bincount(which[ok], minlength=bins.size)
        seen = members > 0
        for per_run, values in (
            (ee_runs, session.energy_fragments_j / e_norm),
            (dt_runs, session.completion_time_s / 3600.0),
        ):
            sums = np.bincount(which[ok], weights=values[ok], minlength=bins.size)
            per_run[r, seen] = sums[seen] / members[seen]

    def reduce(per_run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seen = ~np.isnan(per_run)
        count = seen.sum(axis=0)
        means = np.full(bins.size, np.nan)
        errs = np.full(bins.size, np.nan)
        has = count > 0
        means[has] = np.nanmean(per_run[:, has], axis=0)
        errs[has] = 0.0
        many = count > 1
        errs[many] = np.nanstd(per_run[:, many], axis=0, ddof=1) / np.sqrt(count[many])
        return means, errs

    ee_mean, ee_err = reduce(ee_runs)
    dt_mean, dt_err = reduce(dt_runs)
    return ExperimentResult(
        scheme=scheme.label,
        runs=runs,
        seed=seed,
        config_fingerprint=spec.fingerprint(),
        bin_distances=tuple(float(b) for b in bins),
        ee_norm_mean=tuple(float(x) for x in ee_mean),
        ee_norm_stderr=tuple(float(x) for x in ee_err),
        dt_hours_mean=tuple(float(x) for x in dt_mean),
        dt_hours_stderr=tuple(float(x) for x in dt_err),
        incomplete_sessions=incomplete_sessions,
        unfinished_recipients=unfinished,
    )
