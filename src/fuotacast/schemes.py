"""Transmission policies.

The sequential-SF ramp policy, the fixed-SF baselines and the group-based
baseline, and :func:`session_plan`, the one place that turns a scheme into
frames: the ordered streams of a session, each a list of (SF, frame
budget) segments. The simulator serves that plan segment by segment, and
the closed forms evaluate the same plan stream by stream
(:func:`fuotacast.analysis.evaluate_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .phy import check_sf


@dataclass(frozen=True)
class ProposedScheme:
    """Sequential ramp: ``frames_per_round`` frames at each SF from
    ``min_sf`` upward, then stay at ``max_sf`` until everyone is done."""

    min_sf: int = 7
    max_sf: int = 12
    frames_per_round: int = 300

    def __post_init__(self) -> None:
        check_sf(self.min_sf)
        check_sf(self.max_sf)
        if self.min_sf > self.max_sf:
            raise ValueError("min_sf must not exceed max_sf")
        if self.frames_per_round < 1:
            raise ValueError("frames_per_round must be at least 1")

    @property
    def label(self) -> str:
        return "proposed"


@dataclass(frozen=True)
class FixedSfScheme:
    """Every frame at one spreading factor."""

    sf: int

    def __post_init__(self) -> None:
        check_sf(self.sf)

    @property
    def label(self) -> str:
        return f"fsf-{self.sf}"


@dataclass(frozen=True)
class GroupBasedScheme:
    """Each recipient is pinned to the SF that minimizes its own expected
    cost; groups are then served one SF at a time, fastest SF first."""

    criterion: str = "energy"

    def __post_init__(self) -> None:
        if self.criterion not in ("energy", "latency"):
            raise ValueError("criterion must be 'energy' or 'latency'")

    @property
    def label(self) -> str:
        return "gb-e" if self.criterion == "energy" else "gb-l"


Scheme = Union[ProposedScheme, FixedSfScheme, GroupBasedScheme]

# (sf, frame budget) of one segment, and (serving group SF or None, segments)
# of one stream
Segment = tuple[int, int]
Stream = tuple[Optional[int], list[Segment]]


def session_plan(
    scheme: Scheme, cap: int, group_sfs: Optional[Iterable[int]] = None
) -> list[Stream]:
    """The ordered streams of one session.

    The ramp is one stream: ``frames_per_round`` frames at each SF from
    ``min_sf`` up, then what is left of ``cap`` at ``max_sf``. The budgets
    are cut at the cap, so when ``cap`` is short of the nominal rounds the
    later SFs get zero frames. A fixed SF is one stream of ``cap`` frames.
    The group-based scheme serves one stream per group SF in ascending
    order, each with its own ``cap``; a group that exhausts its cap does
    not stop the later groups. A segment ends at its budget or when every
    recipient of its stream has completed (instant completion feedback),
    and the next segment starts there.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if isinstance(scheme, ProposedScheme):
        segments, left = [], cap
        for sf in range(scheme.min_sf, scheme.max_sf):
            budget = min(scheme.frames_per_round, left)
            segments.append((sf, budget))
            left -= budget
        return [(None, segments + [(scheme.max_sf, left)])]
    if isinstance(scheme, FixedSfScheme):
        return [(None, [(scheme.sf, cap)])]
    if isinstance(scheme, GroupBasedScheme):
        if group_sfs is None:
            raise ValueError("a group-based plan needs the SFs of its groups")
        return [(sf, [(sf, cap)]) for sf in sorted({check_sf(sf) for sf in group_sfs})]
    raise TypeError(f"unknown scheme {scheme!r}")
