"""Frame-by-frame reference sampler for the session simulator.

This is the simulator's original segment sampler: every frame of every
active recipient gets its own fading draw and Poisson overlap count, in
dense (recipients x chunk) arrays, with the per-session timeline of a
batch. The package does not import it; tests swap it in for
``sim._serve_segment`` and compare the two samplers' laws.
"""

from __future__ import annotations

import numpy as np

from fuotacast.phy import ALL_SFS, SF_MIN


def serve_segment_by_frame(
    rng: np.random.Generator,
    state,
    tables,
    sf: int,
    max_frames: int,
    active: np.ndarray,
    t_start: np.ndarray,
    chunk_frames: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Send up to ``max_frames`` frames at one SF to the active recipients,
    simulating every frame; same contract as ``sim._serve_segment``."""
    row = sf - SF_MIN
    sent = np.zeros(state.sessions, dtype=np.int64)
    passed = 0
    while passed < max_frames and active.size > 0:
        f = min(chunk_frames, max_frames - passed)
        a = active.size
        fading = rng.exponential(1.0, size=(a, f))
        threshold = state.d_alpha[active] * state.detect_scale[row]
        detected = fading > threshold[:, None]

        frame_kill = np.zeros((a, f), dtype=bool)
        pre_kill = np.zeros((a, f), dtype=bool)
        rates = tables.event_rate_per_interferer[row] * state.int_counts[active]
        if rates.max(initial=0.0) > 0.0:
            k = rng.poisson(lam=rates[:, None], size=(a, f))
            total = int(k.sum())
            if total > 0:
                cell = np.repeat(np.arange(a * f), k.ravel())
                r_loc = cell // f
                g = active[r_loc]
                j = np.searchsorted(tables.sf_event_cdf[row], rng.random(total), side="right")
                j = np.minimum(j, len(ALL_SFS) - 1)
                src_local = (rng.random(total) * state.int_counts[g]).astype(np.int64)
                u_alpha = state.interferer_u_alpha(state.interferer_slots(g, src_local))
                a_event = fading.ravel()[cell]
                limit = a_event * u_alpha / (state.d_alpha[g] * tables.capture[row, j])
                kill = rng.exponential(1.0, size=total) > limit
                in_pre = rng.random(total) < tables.preamble_share[row, j]
                fk = np.bincount(cell[kill], minlength=a * f) > 0
                pk = np.bincount(cell[kill & in_pre], minlength=a * f) > 0
                frame_kill = fk.reshape(a, f)
                pre_kill = pk.reshape(a, f)

        success = detected & ~frame_kill
        preamble_ok = detected & ~pre_kill

        need = (state.thresholds[active] - state.received[active])[:, None]
        cum = np.cumsum(success, axis=1)
        hit = cum >= need
        done = hit.any(axis=1)
        first = np.where(done, hit.argmax(axis=1), f)

        listen_mask = np.arange(f)[None, :] <= np.minimum(first, f - 1)[:, None]
        full = (preamble_ok & listen_mask).sum(axis=1)
        preamble_only = listen_mask.sum(axis=1) - full
        state.full_listens[active] += full
        state.preamble_listens[active] += preamble_only
        state.energy[active] += full * tables.e_frame[row] + preamble_only * tables.e_preamble[row]
        state.received[active] += np.where(
            done, need[:, 0], (success & listen_mask).sum(axis=1)
        )

        finishers = active[done]
        state.completed[finishers] = True
        state.completion_time[finishers] = (
            t_start[state.session[finishers]] + (passed + first[done] + 1) * tables.slot_s[row]
        )
        # a session ends the pass at its last member's completing frame when
        # every member completes in it, else after the whole pass
        np.maximum.at(sent, state.session[active], passed + np.where(done, first + 1, f))
        active = active[~done]
        passed += f
    return sent, active
