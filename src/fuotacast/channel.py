"""Link geometry and randomness.

Deterministic path loss with unit-mean Rayleigh block fading, the
interference radius that truncates the interferer field, and exact count
statistics for the Poisson field inside that radius. The simulator draws
fading and the field itself (``sim._draw_interferers``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import specfun
from .phy import ALL_SFS, PhyProfile, check_sf


@dataclass(frozen=True)
class LinkModel:
    """Received power is ``link_gain * tx_rf_power_w * fading * d**-alpha``."""

    path_loss_exponent: float
    link_gain: float
    tx_rf_power_w: float

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 2.0:
            raise ValueError(
                "path_loss_exponent must exceed 2 for the interference integrals to converge"
            )
        if self.link_gain <= 0.0:
            raise ValueError("link_gain must be positive")
        if self.tx_rf_power_w <= 0.0:
            raise ValueError("tx_rf_power_w must be positive")

    def outage_threshold(self, sensitivity_w: float, distance_m: float) -> float:
        """Fading level below which the received power misses the sensitivity floor."""
        if sensitivity_w <= 0.0:
            raise ValueError("sensitivity must be positive")
        if distance_m <= 0.0:
            raise ValueError("distance must be positive")
        return (
            sensitivity_w
            * distance_m ** self.path_loss_exponent
            / (self.link_gain * self.tx_rf_power_w)
        )

    def detection_probability(self, sensitivity_w: float, distance_m: float) -> float:
        """Chance that one frame clears the sensitivity floor, interference aside."""
        return math.exp(-self.outage_threshold(sensitivity_w, distance_m))


@dataclass(frozen=True)
class InterfererField:
    """Homogeneous Poisson field of uplink transmitters around each recipient.

    ``sf_probabilities`` is the spreading-factor mix of interferer traffic and
    must sum to one. ``mean_frame_duration_s`` holds the airtime of a typical
    interferer frame per SF; build the field with :meth:`from_phy` to derive
    it from a payload size.
    """

    intensity_per_m2: float
    frame_rate_hz: float
    channel_count: int
    sf_probabilities: Mapping[int, float]
    payload_bytes: int
    mean_frame_duration_s: Mapping[int, float]
    detection_epsilon: float = 0.01

    def __post_init__(self) -> None:
        if self.intensity_per_m2 < 0.0:
            raise ValueError("intensity_per_m2 must be nonnegative")
        if self.frame_rate_hz < 0.0:
            raise ValueError("frame_rate_hz must be nonnegative")
        if self.channel_count < 1:
            raise ValueError("channel_count must be at least 1")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be nonnegative")
        if not 0.0 < self.detection_epsilon < 1.0:
            raise ValueError("detection_epsilon must be strictly between 0 and 1")

        probs = {check_sf(s): float(v) for s, v in self.sf_probabilities.items()}
        if sorted(probs) != list(ALL_SFS):
            raise ValueError("sf_probabilities must cover every spreading factor 7..12")
        if any(v < 0.0 for v in probs.values()):
            raise ValueError("sf_probabilities must be nonnegative")
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            raise ValueError("sf_probabilities must sum to 1 within 1e-9")
        object.__setattr__(self, "sf_probabilities", probs)

        durations = {check_sf(s): float(v) for s, v in self.mean_frame_duration_s.items()}
        if sorted(durations) != list(ALL_SFS):
            raise ValueError("mean_frame_duration_s must cover every spreading factor 7..12")
        if any(v <= 0.0 for v in durations.values()):
            raise ValueError("mean_frame_duration_s must be positive")
        object.__setattr__(self, "mean_frame_duration_s", durations)

    @classmethod
    def from_phy(
        cls,
        phy: PhyProfile,
        *,
        intensity_per_m2: float,
        frame_rate_hz: float,
        channel_count: int,
        sf_probabilities: Mapping[int, float],
        payload_bytes: int,
        detection_epsilon: float = 0.01,
    ) -> "InterfererField":
        durations = {sf: phy.frame_airtime(sf, payload_bytes) for sf in ALL_SFS}
        return cls(
            intensity_per_m2=intensity_per_m2,
            frame_rate_hz=frame_rate_hz,
            channel_count=channel_count,
            sf_probabilities=sf_probabilities,
            payload_bytes=payload_bytes,
            mean_frame_duration_s=durations,
            detection_epsilon=detection_epsilon,
        )


def interference_radius(
    link: LinkModel, field: InterfererField, sensitivity12_w: float
) -> float:
    """Distance beyond which an interferer clears the most forgiving
    sensitivity floor with probability below ``detection_epsilon``."""
    if sensitivity12_w <= 0.0:
        raise ValueError("sensitivity must be positive")
    budget = link.link_gain * link.tx_rf_power_w * math.log(1.0 / field.detection_epsilon)
    return (budget / sensitivity12_w) ** (1.0 / link.path_loss_exponent)


def mean_interferer_count(field: InterfererField, radius_m: float) -> float:
    if radius_m < 0.0:
        raise ValueError("radius must be nonnegative")
    return field.intensity_per_m2 * math.pi * radius_m**2


@functools.lru_cache(maxsize=8)
def _count_window(mean_count: float, tail_mass: float) -> tuple[np.ndarray, np.ndarray]:
    # every distance of a run shares the field, hence the window
    return specfun.poisson_window(mean_count, tail_mass)


def interferer_count_weights(
    mean_count: float, tail_mass: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Interferer counts covering all but ``tail_mass`` probability, with
    renormalized Poisson weights for deconditioning. The window runs from
    the tail_mass/2 quantile to the 1 - tail_mass/2 quantile, the same
    edges as ``scipy.stats.poisson.ppf`` and ``isf`` at tail_mass/2."""
    if mean_count < 0.0:
        raise ValueError("mean count must be nonnegative")
    if not 0.0 < tail_mass < 0.5:
        raise ValueError("tail_mass must be in (0, 0.5)")
    if mean_count == 0.0:
        return np.array([0], dtype=np.int64), np.array([1.0])
    counts, pmf = _count_window(float(mean_count), float(tail_mass))
    return counts.copy(), pmf / pmf.sum()
