"""The channel both engines share.

Deterministic path loss with unit-mean Rayleigh block fading, a Poisson
field of interferers truncated at the interference radius, and
:class:`ChannelLaw`, the per-SF constants that the closed forms and the
simulator both read, derived once per experiment. Exact count statistics
for the field. The simulator draws fading and the field itself
(``sim._draw_interferers``).
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


@dataclass(frozen=True, eq=False)
class ChannelLaw:
    """Every per-SF channel constant that the closed forms and the simulator
    use, derived once per experiment. Rows are the desired SF 7..12; a
    second axis, where there is one, is the interferer SF 7..12.

    - ``radius_m``: the interference radius, beyond which an SF12 interferer
      clears the most forgiving sensitivity floor with probability below
      ``detection_epsilon``; ``mean_count`` interferers lie inside it.
    - ``sf_mix``: the interferer SF law.
    - ``preamble_window``, ``frame_window``: the probability that one
      interferer's frame overlaps the desired preamble, or the whole desired
      frame, on its channel: frame_rate_hz * (span + interferer airtime) /
      channel_count.
    - ``capture``: linear capture ratios; an overlap kills when the
      interferer's received power times the ratio exceeds the desired power.
    - ``detect_scale``: sensitivity over link gain times transmit power; a
      frame at distance d clears the floor when its fading exceeds
      d**alpha * detect_scale.
    - ``e_frame``, ``e_preamble``: the energy of listening to a whole frame
      and to a preamble.
    - ``slot_s``: the spacing of consecutive frames under the duty cycle.
    """

    path_loss_exponent: float
    radius_m: float
    mean_count: float
    sf_mix: np.ndarray
    preamble_window: np.ndarray
    frame_window: np.ndarray
    capture: np.ndarray
    detect_scale: np.ndarray
    e_frame: np.ndarray
    e_preamble: np.ndarray
    slot_s: np.ndarray

    @classmethod
    def build(
        cls,
        phy: PhyProfile,
        link: LinkModel,
        field: InterfererField,
        payload_bytes: int,
        duty_cycle_max_percent: float,
    ) -> "ChannelLaw":
        """The law of frames of ``payload_bytes`` sent at the duty cycle.
        Both engines count at most one overlap per interferer and frame on
        average, so a window above 1 is rejected."""
        airtime = np.array([phy.frame_airtime(s, payload_bytes) for s in ALL_SFS])
        preamble = np.array([phy.preamble_duration(s) for s in ALL_SFS])
        l_bar = np.array([field.mean_frame_duration_s[j] for j in ALL_SFS])

        def window(span: np.ndarray) -> np.ndarray:
            return field.frame_rate_hz * (span[:, None] + l_bar) / field.channel_count

        frame_window = window(airtime)
        if frame_window.max() > 1.0:
            i, j = np.unravel_index(np.argmax(frame_window), frame_window.shape)
            raise ValueError(
                f"interferers.frame_rate_hz {field.frame_rate_hz:g} makes one SF{ALL_SFS[j]}"
                f" interferer overlap an SF{ALL_SFS[i]} frame {frame_window[i, j]:.3g} times"
                " on average; the channel model holds up to once per frame"
            )
        sensitivity = np.array([phy.sensitivity_w(s) for s in ALL_SFS])
        budget = link.link_gain * link.tx_rf_power_w * math.log(1.0 / field.detection_epsilon)
        radius = (budget / float(sensitivity[-1])) ** (1.0 / link.path_loss_exponent)
        return cls(
            path_loss_exponent=link.path_loss_exponent,
            radius_m=radius,
            mean_count=field.intensity_per_m2 * math.pi * radius**2,
            sf_mix=np.array([field.sf_probabilities[j] for j in ALL_SFS]),
            preamble_window=window(preamble),
            frame_window=frame_window,
            capture=np.array([[phy.capture_ratio(i, j) for j in ALL_SFS] for i in ALL_SFS]),
            detect_scale=sensitivity / (link.link_gain * link.tx_rf_power_w),
            e_frame=np.array([phy.rx_energy_frame(s, payload_bytes) for s in ALL_SFS]),
            e_preamble=np.array([phy.rx_energy_preamble(s) for s in ALL_SFS]),
            slot_s=(100.0 / duty_cycle_max_percent) * airtime,
        )


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
