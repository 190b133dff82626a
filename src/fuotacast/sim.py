"""Monte Carlo session simulator.

One session multicasts a firmware image to a cohort of recipients under a
chosen transmission policy. Per frame and recipient the model draws
Rayleigh fading against the detection threshold and a Poisson number of
interferer-frame overlaps judged by the capture matrix; recipients stop
listening the moment their rateless decoder is satisfied, and each stream
stops the moment its last recipient finishes (instant completion feedback).

Every per-SF constant of the channel (overlap windows, capture ratios,
detection scale, listen energies and duty slots) comes from the
experiment's :class:`~fuotacast.channel.ChannelLaw`, which the closed
forms read too. ``_SfTables`` derives from it only what is the
simulator's own: each SF's overlap rate per interferer, sum_j pi_j w_j
over the interferer SF mix ``pi`` and the whole-frame windows ``w``, the
SF law of an overlap, the share of an overlap's kills that fall on the
preamble (the preamble window over the frame window), and the near share
below.

Interferer overlaps are generated per desired frame as a Poisson event
stream whose rate matches the per-interferer overlap windows, which
linearizes each interferer's Bernoulli overlap. The quadratic correction
is of order the window itself (~1e-4 at the default load), far below the
simulation's statistical resolution; the law rejects a window above 1.

The sampler simulates only the frames whose outcome is not already known.
A recipient's interferers are fixed for the session, so at one SF its
frames are i.i.d.: a frame clears the detection threshold ``c`` with
probability ``exp(-c)``. An undetected frame is a preamble-only listen
whatever overlaps it, so only a detected frame's overlaps matter, and of
those only the ones that can kill it. A recipient's interferers are split
into a near zone, the centre of the interference disc holding a share
``q`` of its area, and the far zone around it. Every overlap with a near
interferer is judged. A far interferer lies beyond the zone edge and a
detected frame clears the detection threshold, which bounds the chance
``b`` that a far overlap kills; so far overlaps are thinned (Lewis &
Shedler, Naval Res. Logist. Q. 1979) to candidates at ``b`` times their
rate, and each candidate kills with the rest of its chance. Every
interferer's kill rate, and with it the law, is unchanged. ``q`` minimises
the judged overlaps summed over the SFs, a rule on the config alone: at
the stock density it leaves about 2 of some 490 interferers near, and
``b`` runs from 0.05 (SF7) to 0.20 (SF12).

A detected frame holds at least one candidate ("dirty") with probability
``1 - exp(-lambda)``, where ``lambda`` is the recipient's mean candidate
count per frame; a detected clean frame is a reception. So each pass
draws a recipient's detected count and the dirty count within it
binomially, and simulates only the detected dirty frames: fading
conditioned above the threshold, a first candidate at a time conditioned
into the frame plus a Poisson remainder (zero, at the stock density, for
nearly every frame, which one uniform decides), and each candidate's zone, SF, source
interferer and capture verdict, with a preamble share drawn only for the
candidates that kill. The detected dirty frames of a pass are judged in
blocks of at most ``VERDICT_BLOCK`` frames, each finding its owners from
the cumulative dirty counts, so a pass's temporaries stay bounded however
many recipients it serves.

Each recipient's pass has its own length: the frames it is expected to
need to complete, with a margin, capped at ``sim.chunk_frames`` and at its
budget left. The length rests on the recipient's own past draws only, so
it is a stopping rule and the law is exact; a recipient that completes
early in a pass leaves few of its frames unjudged. The frames of a pass are
exchangeable, so a recipient still ``r`` receptions short completes at the
``r``-th of its receptions placed uniformly over the pass (a
negative-hypergeometric draw), and its full listens before that point are
a draw without replacement. The cost grows with the candidates of the
detected dirty frames plus recipients times passes. Thinning judges about a
fifth of the overlaps: at 2e-3 /m2 a detected SF12 frame holds about 2.2
candidates against about 10.7 overlaps, though 89 % of those frames still
hold one and are simulated.

Sessions are simulated in batches that share one state. Recipients are
independent given their session's timeline, so a batch stacks the
recipients of all its sessions, each tagged with its session index, and
keeps only the timeline per session: every session starts each segment at
its own time and ends it at the budget or at its own last member's
completing frame. A batch holds ``max(1, BATCH_RECIPIENTS // recipients)``
sessions, a rule on the config alone, so reruns with one seed repeat
bit for bit. At 16,384 recipients, all runs of a stock experiment share
one batch per scheme, so each pass's fixed numpy cost is paid once for
all of them.

The state keeps three totals per recipient (full listens, preamble-only
listens and energy), each added to on every pass, and no per-SF matrix.
A segment forms its recipients' detection thresholds once, as distance to
the path-loss exponent times the SF's detection scale, and shrinks them
with the active set after each pass.

An interferer's distance is a counter-based draw: SplitMix64 (Steele, Lea
& Flood, OOPSLA 2014) of the batch's key plus the interferer's slot, made
uniform in area over the slot's zone. A batch numbers the near interferers
of all its recipients first, then the far ones, so a slot names its zone.
The same interferer named twice has the same distance, and nothing is
stored per interferer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import analysis
from .channel import ChannelLaw
from .config import ExperimentSpec
from .fec import RatelessModel
from .phy import SF_MIN
from .schemes import Scheme, session_plan

# recipients simulated together in one batch state
BATCH_RECIPIENTS = 16384
# detected overlapped frames judged together in one block of a pass
VERDICT_BLOCK = 4096
# a recipient's pass covers its expected frames to completion plus this many
# standard deviations of its reception count, so that it rarely falls short
PASS_MARGIN = 3.0

# SplitMix64's state increment and output-mixing multipliers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


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
    """A batch of sessions: per-recipient arrays, each recipient tagged
    with its ``session`` index, plus the per-session timelines.

    ``assigned_sf`` is nan for recipients without a group SF (every
    recipient of a non-group scheme). ``outcomes`` gives the same data as
    one :class:`RecipientOutcome` per recipient. ``transmissions`` is the
    frames sent summed over the batch's sessions; ``duration_s`` and
    ``incomplete`` hold one entry per session.
    """

    session: np.ndarray
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
    duration_s: np.ndarray
    incomplete: np.ndarray

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
    """The simulator's own per-SF constants, derived from the channel law
    that the closed forms read too: each row's overlap rate per interferer
    and the SF law of an overlap, the share of an overlap's kills that fall
    in the preamble, and the near share of the interference disc."""

    def __init__(self, law: ChannelLaw):
        self.law = law
        # an interferer overlaps a frame of SF row r at SF column j with
        # probability sf_mix[j] * frame_window[r, j]
        windows = law.sf_mix * law.frame_window
        self.event_rate_per_interferer = windows.sum(axis=1)
        busy = self.event_rate_per_interferer > 0.0
        self.sf_event_cdf = np.ones(windows.shape)
        self.sf_event_cdf[busy] = np.cumsum(
            windows[busy] / self.event_rate_per_interferer[busy, None], axis=1
        )
        # an overlap's SF law per row, the increments of its CDF
        self.overlap_mix = np.diff(self.sf_event_cdf, axis=1, prepend=0.0)
        # an overlap of the whole frame falls on the preamble with this chance
        self.preamble_share = law.preamble_window / np.where(
            law.frame_window > 0.0, law.frame_window, 1.0
        )
        self.near_share = self._near_share()

    def _near_share(self) -> float:
        """The share q of the interference disc's area, from its centre, whose
        interferers are judged one by one; see :func:`_far_law` for the rest.

        Per frame, the judged overlaps are proportional to q + (1 - q) * b_r,
        where b_r is the far bound of SF row r at the zone edge
        distance**alpha = radius**alpha * q**(alpha / 2). The q from 1e-6 to 1,
        twenty per decade, with the least sum over the rows is taken, a rule
        on the config alone.
        """
        law = self.law
        alpha = law.path_loss_exponent
        q = 10.0 ** (np.arange(-120, 1) / 20.0)
        # the far law's gap per row (rows) and share (columns)
        gap = (law.detect_scale * law.radius_m**alpha)[:, None] * q ** (alpha / 2.0)
        bound = (
            self.overlap_mix[:, None, :] * np.exp(-gap[:, :, None] / law.capture[:, None, :])
        ).sum(axis=2)
        return float(q[np.argmin((q + (1.0 - q) * bound).sum(axis=0))])


def _counter_uniform(key: np.uint64, slots: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) value of each slot: the ``slot + 1``-th output of a
    SplitMix64 generator seeded with ``key``, top 53 bits."""
    z = key + (slots.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


class _SessionState:
    """Mutable per-recipient bookkeeping for a batch of sessions; recipient
    ``i`` belongs to session ``session[i]``.

    Recipient ``i`` has ``int_counts[i]`` interferers, of which
    ``near_counts[i]`` lie in the near zone, the centre ``near_share`` of the
    interference disc's area. The batch lays out the near interferers of
    every recipient first, then the far ones, so a slot's zone is whether it
    is below ``near_total``.
    """

    def __init__(self, sessions: int, session: np.ndarray, d_alpha: np.ndarray,
                 thresholds: np.ndarray, int_counts: np.ndarray, radius_m: float,
                 path_loss_exponent: float, key: np.uint64,
                 near_counts: Optional[np.ndarray] = None, near_share: float = 0.0):
        n = d_alpha.size
        self.sessions = sessions
        self.session = session
        self.d_alpha = d_alpha
        self.thresholds = thresholds
        self.int_counts = int_counts
        near = np.zeros(n, dtype=np.int64) if near_counts is None else near_counts
        far = int_counts - near
        self.near_counts = near
        self.near_total = int(near.sum())
        # recipient i's near interferers hold slots near_offsets[i] + 0 ..
        # near_counts[i] - 1, its far ones far_offsets[i] + 0 .. far count - 1
        self.near_offsets = np.cumsum(near) - near
        self.far_offsets = self.near_total + np.cumsum(far) - far
        self.key = np.uint64(key)
        self.near_share = near_share
        self.radius_alpha = radius_m**path_loss_exponent
        self.half_alpha = path_loss_exponent / 2.0
        # distance**alpha of the zone edge, the least a far interferer has
        self.far_edge_alpha = self.radius_alpha * near_share**self.half_alpha
        self.received = np.zeros(n, dtype=np.int64)
        self.completed = np.zeros(n, dtype=bool)
        self.completion_time = np.full(n, np.nan)
        self.full_listens = np.zeros(n, dtype=np.int64)
        self.preamble_listens = np.zeros(n, dtype=np.int64)
        self.energy = np.zeros(n)

    def candidate_weight(self, recipients: np.ndarray, bound: float) -> np.ndarray:
        """Each recipient's near count plus its far count times the far
        ``bound`` (see :func:`_far_law`): its mean candidate overlaps per frame
        over the overlap rate per interferer."""
        near = self.near_counts[recipients]
        return near + (self.int_counts[recipients] - near) * bound

    def interferer_slots(self, recipients: np.ndarray, nth: np.ndarray) -> np.ndarray:
        """Slot of interferer ``nth`` (0 .. count - 1) of each of
        ``recipients``, numbering its near interferers first."""
        near = self.near_counts[recipients]
        return np.where(
            nth < near,
            self.near_offsets[recipients] + nth,
            self.far_offsets[recipients] + (nth - near),
        )

    def interferer_u_alpha(self, slots: np.ndarray) -> np.ndarray:
        """distance**alpha of the interferers at ``slots``, from the in-disc
        radial law restricted to each slot's zone; a slot always gives the
        same value."""
        v = _counter_uniform(self.key, slots)
        q = self.near_share
        # the area share inside the interferer's distance, uniform on the zone
        u = np.where(slots < self.near_total, q * v, q + (1.0 - q) * v)
        return self.radius_alpha * u**self.half_alpha


def _draw_interferers(
    rng: np.random.Generator, mean_count: float, near_share: float, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interferer counts of ``size`` recipients, Poisson(``mean_count``), and
    how many of each lie in the near zone, Binomial(count, ``near_share``).
    With their distances uniform in area over each zone, as
    :meth:`_SessionState.interferer_u_alpha` draws them, this is the Poisson
    field of the interference disc."""
    counts = rng.poisson(mean_count, size=size)
    return counts, rng.binomial(counts, near_share)


def _overlap_frames(rng: np.random.Generator, rate: np.ndarray, p_dirty: np.ndarray) -> np.ndarray:
    """The frame of each interferer overlap, for frames known to overlap at
    least one: every frame's first overlap in frame order, then the further
    ones. Frame ``i`` holds a Poisson(``rate[i]``) number of overlaps
    conditioned on at least one; ``p_dirty`` is ``1 - exp(-rate)``.

    Overlaps arrive as a Poisson process, so the count is the number of
    uniforms whose running product stays above exp(-rate) (Knuth, TAOCP
    vol. 2, 3.4.1). Conditioning on at least one makes the first factor y
    uniform on (exp(-rate), 1]. A second factor v with v * y below exp(-rate)
    ends the frame at one overlap, the case of nearly every frame at the
    stock density; otherwise a second overlap and Poisson(rate + log(v * y))
    more follow.
    """
    n = rate.size
    w = rng.random(n) * (1.0 - rng.random(n) * p_dirty)
    more = np.flatnonzero(w >= 1.0 - p_dirty)
    rest = np.maximum(rate[more] + np.log(w[more]), 0.0)
    return np.concatenate((np.arange(n), np.repeat(more, 1 + rng.poisson(rest))))


def _interferer_sf_rows(sf_cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row of the interferer SF drawn by each uniform ``u`` from the SF
    event CDF: the number of its first five entries at or below ``u``, which
    is ``searchsorted(sf_cdf, u, "right")`` capped at the last SF."""
    j = (u >= sf_cdf[0]).astype(np.intp)
    for edge in sf_cdf[1:-1]:
        j += u >= edge
    return j


def _far_law(
    state: _SessionState, tables: _SfTables, row: int
) -> tuple[float, float, np.ndarray]:
    """The thinned law of far-zone overlaps at SF row ``row``.

    A detected frame's level (fading over path loss) is at least
    ``detect_scale[row]`` and a far interferer's distance**alpha at least
    ``far_edge_alpha``, so their product is at least ``gap``, and an SF-j
    overlap from a far interferer kills with chance at most
    ``exp(-gap / c_j)``. Far overlaps are replaced by candidates at
    ``bound`` = sum_j pi_j exp(-gap / c_j) times their rate, each with an SF
    drawn from the returned CDF of pi_j exp(-gap / c_j) / bound; a candidate
    kills when an exponential exceeds (level * distance**alpha - gap) / c_j.
    That keeps every (interferer, SF) pair's kill rate, so the law is exact
    (Poisson thinning; Lewis & Shedler, Naval Res. Logist. Q. 1979). With
    ``near_share`` 0, ``gap`` is 0 and the candidates are the overlaps.
    """
    gap = tables.law.detect_scale[row] * state.far_edge_alpha
    tilt = tables.overlap_mix[row] * np.exp(-gap / tables.law.capture[row])
    # at least the least normal float, so that a bound lost to underflow
    # leaves no far candidate rather than a division by zero
    bound = max(float(tilt.sum()), np.finfo(float).tiny)
    return gap, bound, np.cumsum(tilt / bound)


def _dirty_frame_verdicts(
    rng: np.random.Generator,
    state: _SessionState,
    tables: _SfTables,
    row: int,
    active: np.ndarray,
    threshold: np.ndarray,
    weight: np.ndarray,
    p_dirty: np.ndarray,
    far_law: tuple[float, float, np.ndarray],
    dirty: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Receptions and full listens without a reception among the ``dirty[i]``
    detected frames of recipient ``active[i]`` that hold at least one
    candidate overlap; ``threshold`` is each active recipient's detection
    threshold, ``weight`` its :meth:`_SessionState.candidate_weight` at the
    bound of ``far_law``, so that its mean candidate count per frame is the
    overlap rate per interferer times ``weight``, and ``p_dirty`` its chance
    of at least one.

    A candidate is a near overlap with chance near count over ``weight``,
    from a uniform near interferer and an SF of the overlap law, and
    otherwise a far candidate, from a uniform far interferer and an SF of the
    tilted law.

    The frames are judged in blocks of at most ``VERDICT_BLOCK``, recipient
    after recipient, and each block finds its owners from the cumulative
    dirty counts, so no array grows with the overlapped frames of a pass.
    """
    a = active.size
    lost = np.zeros(a, dtype=np.int64)
    lost_heard = np.zeros(a, dtype=np.int64)
    ends = np.cumsum(dirty)
    starts = ends - dirty
    frames = int(ends[-1])
    path_loss = state.d_alpha[active]
    rho = tables.event_rate_per_interferer[row]
    gap, bound, far_cdf = far_law
    sf_cdf, capture = tables.sf_event_cdf[row], tables.law.capture[row]
    for lo in range(0, frames, VERDICT_BLOCK):
        hi = min(lo + VERDICT_BLOCK, frames)
        n = hi - lo
        # recipients first .. last - 1 own the block's frames
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        span = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        local = np.repeat(np.arange(last - first), span)
        mine = first + local
        # exponential fading conditioned on clearing the detection threshold,
        # over the path loss
        level = (threshold[mine] + rng.exponential(1.0, size=n)) / path_loss[mine]
        cell = _overlap_frames(rng, rho * weight[mine], p_dirty[mine])
        total = cell.size
        src = mine[cell]
        owner = active[src]
        # x is uniform over the weight: below the near count it names a near
        # interferer, and above it a far one, each spanning ``bound`` of it
        x = rng.random(total) * weight[src]
        near = state.near_counts[owner]
        far = x >= near
        nth = np.where(far, np.minimum(near + (x - near) / bound, state.int_counts[owner] - 1), x)
        slots = state.interferer_slots(owner, nth.astype(np.int64))
        u = rng.random(total)
        j = _interferer_sf_rows(far_cdf, u)
        close = np.flatnonzero(~far)
        j[close] = _interferer_sf_rows(sf_cdf, u[close])
        # the overlap kills when the interferer's fading pushes its power past
        # the desired power over the capture threshold; a far candidate, kept
        # with chance exp(-gap / c_j), needs only the margin beyond the gap
        limit = (level[cell] * state.interferer_u_alpha(slots) - gap * far) / capture[j]
        kill = np.flatnonzero(rng.exponential(1.0, size=total) > limit)
        in_pre = rng.random(kill.size) < tables.preamble_share[row, j[kill]]
        killed = np.zeros(n, dtype=bool)
        killed[cell[kill]] = True
        pre_killed = np.zeros(n, dtype=bool)
        pre_killed[cell[kill[in_pre]]] = True
        lost[first:last] += np.bincount(local[killed], minlength=last - first)
        lost_heard[first:last] += np.bincount(
            local[killed & ~pre_killed], minlength=last - first
        )
    return dirty - lost, lost_heard


def _place_completion(
    rng: np.random.Generator,
    r: np.ndarray,
    got: np.ndarray,
    heard_lost: np.ndarray,
    frames: np.ndarray,
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
            heard_lost[lost], frames[lost] - got[lost] - heard_lost[lost], at[lost] - r[lost]
        )
    return at, full


def _pass_lengths(
    need: np.ndarray, p: np.ndarray, chunk_frames: int, budget_left: np.ndarray
) -> np.ndarray:
    """Each recipient's next pass: the frames it is expected to need to
    receive ``need`` more at detection probability ``p``, plus
    ``PASS_MARGIN`` standard deviations, ``(need + PASS_MARGIN * sqrt(need))
    / p``, capped at ``chunk_frames`` and at its budget left."""
    with np.errstate(divide="ignore"):
        want = np.ceil((need + PASS_MARGIN * np.sqrt(need)) / p)
    return np.minimum(want, np.minimum(chunk_frames, budget_left)).astype(np.int64)


def _serve_segment(
    rng: np.random.Generator,
    state: _SessionState,
    tables: _SfTables,
    sf: int,
    max_frames: int,
    active: np.ndarray,
    t_start: np.ndarray,
    chunk_frames: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Send up to ``max_frames`` frames at one SF to the active recipients
    of every session of the batch, session ``s`` starting at ``t_start[s]``.

    Each recipient listens in passes of its own length (see
    :func:`_pass_lengths`). The length rests on the recipient's own past
    only, so it is a stopping rule and the law stays exact, and a recipient
    that completes early leaves few frames of its pass unjudged. A session's
    segment ends at the budget or at its own last active member's completing
    frame. Returns the frames each session transmitted and the recipients
    still unfinished at the budget. Mutates the state in place.
    """
    row = sf - SF_MIN
    law = tables.law
    sent = np.zeros(state.sessions, dtype=np.int64)
    if max_frames <= 0:
        return sent, active
    members = active
    passed = np.zeros(active.size, dtype=np.int64)  # frames each has heard so far
    # the segment's per-recipient constants, shrunk with ``active`` each pass;
    # a frame is detected when its fading exceeds the threshold
    threshold = state.d_alpha[active] * law.detect_scale[row]
    p = np.exp(-threshold)
    far_law = _far_law(state, tables, row)
    weight = state.candidate_weight(active, far_law[1])
    p_dirty = -np.expm1(-tables.event_rate_per_interferer[row] * weight)
    e_full, e_preamble = law.e_frame[row], law.e_preamble[row]
    while active.size > 0:
        need = state.thresholds[active] - state.received[active]
        f = _pass_lengths(need, p, chunk_frames, max_frames - passed)
        # an undetected frame is a preamble-only listen whatever overlaps
        # it, and a detected one that holds no candidate overlap is received;
        # only detected frames with a candidate need simulating
        detected = rng.binomial(f, p)
        dirty = rng.binomial(detected, p_dirty)
        ok, heard_lost = _dirty_frame_verdicts(
            rng, state, tables, row, active, threshold, weight, p_dirty, far_law, dirty
        )
        got = detected - dirty + ok

        done = got >= need
        fin = np.flatnonzero(done)
        listened = f.copy()
        full = got + heard_lost
        if fin.size > 0:
            listened[fin], full[fin] = _place_completion(
                rng, need[fin], got[fin], heard_lost[fin], f[fin]
            )

        state.full_listens[active] += full
        state.preamble_listens[active] += listened - full
        state.energy[active] += full * e_full + (listened - full) * e_preamble
        state.received[active] += np.minimum(got, need)
        passed += listened
        finishers = active[fin]
        state.completed[finishers] = True
        state.completion_time[finishers] = (
            t_start[state.session[finishers]] + passed[fin] * law.slot_s[row]
        )
        # a session sends until its last member leaves: at that member's
        # completing frame, or at the budget
        leave = done | (passed >= max_frames)
        np.maximum.at(sent, state.session[active[leave]], passed[leave])
        stay = ~leave
        active, passed = active[stay], passed[stay]
        threshold, p, weight, p_dirty = threshold[stay], p[stay], weight[stay], p_dirty[stay]
    return sent, members[~state.completed[members]]


def _place_recipients(spec: ExperimentSpec, rng: np.random.Generator, sessions: int) -> np.ndarray:
    """The recipients' distances, session after session."""
    lay = spec.layout
    if lay.kind == "grid":
        bins = np.array(spec.grid_distances())
        base, rem = divmod(lay.recipients, bins.size)
        counts = np.full(bins.size, base, dtype=np.int64)
        counts[:rem] += 1
        return np.tile(np.repeat(bins, counts), sessions)
    radius = spec.network.cell_radius_m
    return radius * np.sqrt(rng.random(sessions * lay.recipients))


def attempts_cap(spec: ExperimentSpec, code: RatelessModel) -> int:
    """Frame budget per stream; a stream that exhausts it is abandoned."""
    return math.ceil(spec.sim.transmission_cap_factor * code.expected_fragments())


def run_session(
    spec: ExperimentSpec,
    scheme: Scheme,
    rng: np.random.Generator,
    *,
    sessions: int = 1,
    group_assignment: Optional[dict[float, Optional[int]]] = None,
    distances: Optional[np.ndarray] = None,
    code: Optional[RatelessModel] = None,
    tables: Optional[_SfTables] = None,
) -> SessionResult:
    """Simulate a batch of ``sessions`` independent firmware sessions in
    one state, each serving the segments of the scheme's
    :func:`~fuotacast.schemes.session_plan` in order.

    ``distances`` pins the cohort of every session; by default each
    session places ``spec.layout`` afresh. A group-based scheme needs
    ``group_assignment``, the serving SF per distance (``None`` where
    unreachable); each recipient joins the group of its nearest key.
    ``tables`` may carry the simulator's per-SF constants of ``spec`` when
    many batches share them, as in :func:`session_batches`.
    """
    if sessions < 1:
        raise ValueError("a batch needs at least one session")
    phy, net, law = spec.phy, spec.network, spec.law
    code = code or spec.firmware.code
    if tables is None:
        tables = _SfTables(law)

    if distances is None:
        distances = _place_recipients(spec, rng, sessions)
    else:
        distances = np.tile(np.asarray(distances, dtype=float), sessions)
    n = distances.size
    session = np.repeat(np.arange(sessions), n // sessions)

    counts, near = _draw_interferers(rng, law.mean_count, tables.near_share, n)
    thresholds = code.sample_completion_threshold(rng, size=n)

    state = _SessionState(
        sessions=sessions,
        session=session,
        d_alpha=distances**law.path_loss_exponent,
        thresholds=np.asarray(thresholds, dtype=np.int64),
        int_counts=counts,
        radius_m=law.radius_m,
        path_loss_exponent=law.path_loss_exponent,
        key=rng.integers(2**64, dtype=np.uint64),
        near_counts=near,
        near_share=tables.near_share,
    )

    cap = attempts_cap(spec, code)
    chunk = spec.sim.chunk_frames
    transmissions = 0
    elapsed = np.zeros(sessions)
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
            transmissions += int(sent.sum())
            elapsed += sent * law.slot_s[sf - SF_MIN]

    return SessionResult(
        session=session,
        distances=distances,
        fragments_needed=state.thresholds,
        fragments_received=state.received,
        completed=state.completed,
        completion_time_s=state.completion_time,
        energy_fragments_j=state.energy,
        control_energy_j=analysis.control_energy_j(
            phy, net.control_listen_s, net.ack_payload_bytes, net.ack_uplink_sf
        ),
        attempts_full=state.full_listens,
        attempts_preamble_only=state.preamble_listens,
        assigned_sf=assigned_sf,
        transmissions=transmissions,
        duration_s=elapsed,
        incomplete=np.bincount(session[~state.completed], minlength=sessions) > 0,
    )


def session_batches(
    spec: ExperimentSpec,
    scheme: Scheme,
    runs: int,
    seed: int,
    **kwargs,
) -> Iterator[SessionResult]:
    """``runs`` sessions in batches of ``max(1, BATCH_RECIPIENTS //
    spec.layout.recipients)``, each batch on its own child of the seed and
    all on one set of per-SF constants. ``kwargs`` go to
    :func:`run_session`."""
    per_batch = max(1, BATCH_RECIPIENTS // spec.layout.recipients)
    tables = _SfTables(spec.law)
    children = np.random.SeedSequence(seed).spawn(-(-runs // per_batch))
    for b, child in enumerate(children):
        yield run_session(
            spec, scheme, np.random.default_rng(child),
            sessions=min(per_batch, runs - b * per_batch), tables=tables, **kwargs,
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
    e_norm = analysis.normalization_energy_j(spec.law, spec.firmware.fragments)

    ee_runs = np.full((runs, bins.size), np.nan)
    dt_runs = np.full((runs, bins.size), np.nan)
    incomplete_sessions = 0
    unfinished = 0
    first = 0
    for batch in session_batches(
        spec, scheme, runs, seed, group_assignment=group_assignment, code=code
    ):
        r = batch.duration_s.size
        incomplete_sessions += int(batch.incomplete.sum())
        ok = batch.completed
        unfinished += int((~ok).sum())
        which = np.clip(np.digitize(batch.distances, edges, right=True) - 1, 0, bins.size - 1)
        # one (session, bin) cell per completed recipient
        cell = (batch.session * bins.size + which)[ok]
        members = np.bincount(cell, minlength=r * bins.size).reshape(r, bins.size)
        seen = members > 0
        for per_run, values in (
            (ee_runs, batch.energy_fragments_j / e_norm),
            (dt_runs, batch.completion_time_s / 3600.0),
        ):
            sums = np.bincount(cell, weights=values[ok], minlength=r * bins.size)
            per_run[first:first + r][seen] = sums.reshape(r, bins.size)[seen] / members[seen]
        first += r

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
