"""Transmission policy behavior: the session plan of each scheme, labels,
and the group assignment every group-based run uses."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuotacast import benchmarks, sim
from fuotacast.config import load_default_spec
from fuotacast.schemes import (
    FixedSfScheme,
    GroupBasedScheme,
    ProposedScheme,
    session_plan,
)


def _segments(scheme, cap):
    """The segments of a single-stream plan."""
    [(group_sf, segments)] = session_plan(scheme, cap)
    assert group_sf is None
    return segments


class TestProposedRamp:
    def test_round_boundaries(self):
        scheme = ProposedScheme(7, 12, 300)
        assert _segments(scheme, 10099) == [
            (7, 300), (8, 300), (9, 300), (10, 300), (11, 300), (12, 10099 - 1500),
        ]

    def test_narrow_ramp(self):
        assert _segments(ProposedScheme(9, 10, 2), 6) == [(9, 2), (10, 4)]

    @given(
        min_sf=st.integers(min_value=7, max_value=12),
        span=st.integers(min_value=0, max_value=5),
        w=st.integers(min_value=1, max_value=50),
        cap=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=80)
    def test_ramp_is_monotone_and_bounded(self, min_sf, span, w, cap):
        max_sf = min(min_sf + span, 12)
        segments = _segments(ProposedScheme(min_sf, max_sf, w), cap)
        assert [sf for sf, _ in segments] == list(range(min_sf, max_sf + 1))
        assert sum(budget for _, budget in segments) == cap
        # each round takes w frames, or what the cap still leaves
        left = cap
        for _, budget in segments[:-1]:
            assert budget == min(w, left)
            left -= budget
        assert segments[-1][1] == left >= 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProposedScheme(10, 9, 300)
        with pytest.raises(ValueError):
            ProposedScheme(7, 12, 0)
        with pytest.raises(ValueError):
            ProposedScheme(6, 12, 300)
        with pytest.raises(ValueError):
            ProposedScheme(7, 13, 300)

    def test_single_sf_ramp_is_allowed(self):
        assert _segments(ProposedScheme(10, 10, 5), 999) == [(10, 999)]


class TestLabels:
    def test_labels(self):
        assert ProposedScheme().label == "proposed"
        assert FixedSfScheme(11).label == "fsf-11"
        assert GroupBasedScheme("energy").label == "gb-e"
        assert GroupBasedScheme("latency").label == "gb-l"

    def test_fixed_sf_validation(self):
        with pytest.raises(ValueError):
            FixedSfScheme(6)
        with pytest.raises(ValueError):
            FixedSfScheme(13)

    def test_group_criterion_validation(self):
        with pytest.raises(ValueError):
            GroupBasedScheme("both")


class TestSessionSchedule:
    """:func:`session_plan`: the streams of a session and their segments."""

    def test_single_stream_stops_on_feedback(self, spec):
        # a fixed SF is one stream holding the whole cap; the simulator ends
        # it at the last completion, well before the cap
        assert session_plan(FixedSfScheme(9), 100) == [(None, [(9, 100)])]
        clean = load_default_spec({
            "phy": {"sensitivity_dbm": {7: -995.0, 8: -996.0, 9: -997.0,
                                        10: -998.0, 11: -999.0, 12: -1000.0}},
            "interferers": {"intensity_per_m2": 0.0},
        })
        code = dataclasses.replace(clean.firmware.code, mode="ideal")
        res = sim.run_session(
            clean, FixedSfScheme(9), np.random.default_rng(4),
            distances=np.full(5, 300.0), code=code,
        )
        assert res.transmissions == clean.firmware.fragments
        assert res.transmissions < sim.attempts_cap(clean, code)

    def test_ramp_stream_follows_policy(self):
        assert _segments(ProposedScheme(7, 12, 2), 100) == [
            (7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 90),
        ]

    def test_ramp_budgets_stop_at_the_cap(self):
        # a cap short of the five nominal rounds leaves the later SFs zero
        # frames, on which the simulator draws nothing
        assert _segments(ProposedScheme(7, 12, 300), 700) == [
            (7, 300), (8, 300), (9, 100), (10, 0), (11, 0), (12, 0),
        ]

    def test_group_streams_serve_ascending_sfs(self):
        plan = session_plan(GroupBasedScheme("energy"), 100, [10, 8, 12, 8])
        assert plan == [(8, [(8, 100)]), (10, [(10, 100)]), (12, [(12, 100)])]

    def test_group_scheme_requires_groups(self):
        with pytest.raises(ValueError):
            session_plan(GroupBasedScheme(), 100)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            session_plan(FixedSfScheme(7), 0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(TypeError):
            session_plan(object(), 100)


class TestGroupAssignmentHelpers:
    def test_wrappers_match_direct_assignment(self, spec):
        # every group-based run, lifetime --mode sim's single distance
        # included, takes its SFs from benchmarks._group_assignment, which
        # assigns each distance on its own table alone
        grid = benchmarks._costs(spec, benchmarks.build_tables(spec))
        single = benchmarks._costs(spec, benchmarks.build_tables(spec, [500.0]))
        for criterion in ("energy", "latency"):
            scheme = GroupBasedScheme(criterion)
            want = benchmarks._group_assignment(grid, spec, scheme)[500.0]
            assert 7 <= want <= 12
            assert benchmarks._group_assignment(single, spec, scheme) == {500.0: want}
        assert benchmarks._group_assignment(grid, spec, ProposedScheme()) is None
