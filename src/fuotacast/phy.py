"""LoRa physical-layer arithmetic.

Frame airtime per spreading factor, receiver sensitivities, inter-SF
capture thresholds, and the receive-side energy cost of listening to a
preamble or to a whole frame.

Spreading factors run from 7 to 12: each step doubles the symbol time,
which roughly doubles airtime and buys 2.5 to 3 dB of sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

SF_MIN = 7
SF_MAX = 12
ALL_SFS: tuple[int, ...] = tuple(range(SF_MIN, SF_MAX + 1))


def check_sf(sf: int) -> int:
    """Validate a spreading-factor index and return it as a plain int."""
    if sf not in ALL_SFS:
        raise ValueError(
            f"spreading factor must be an integer in [{SF_MIN}, {SF_MAX}], got {sf!r}"
        )
    return int(sf)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class PhyProfile:
    """Radio parameters shared by every link in an experiment.

    The sensitivity table and the capture matrix are transceiver data, not
    derivable constants, so they arrive from the experiment config.
    ``header_flag`` follows the usual airtime convention: 0 means the
    optional PHY header is present, 1 means it is omitted. ``ldro_sfs``
    lists the spreading factors that run with low-data-rate optimization
    enabled (SF11 and SF12 at 125 kHz).
    """

    sensitivity_dbm: Mapping[int, float]
    capture_threshold_db: Mapping[int, Mapping[int, float]]
    bandwidth_hz: float = 125_000.0
    preamble_symbols: int = 8
    header_flag: int = 0
    coding_rate_index: int = 1
    ldro_sfs: tuple[int, ...] = (11, 12)
    rx_power_w: float = 0.1254
    tx_power_w: float = 0.2739
    tx_rf_power_dbm: float = 14.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.preamble_symbols <= 0:
            raise ValueError("preamble_symbols must be positive")
        if self.header_flag not in (0, 1):
            raise ValueError("header_flag must be 0 (header present) or 1 (header omitted)")
        if self.coding_rate_index not in (1, 2, 3, 4):
            raise ValueError("coding_rate_index must be in 1..4")
        if self.rx_power_w < 0.0 or self.tx_power_w < 0.0:
            raise ValueError("receive and transmit power draws must be nonnegative")
        object.__setattr__(self, "ldro_sfs", tuple(sorted(check_sf(s) for s in self.ldro_sfs)))

        sens = {check_sf(s): float(v) for s, v in self.sensitivity_dbm.items()}
        if sorted(sens) != list(ALL_SFS):
            raise ValueError("sensitivity_dbm must cover every spreading factor 7..12")
        if not all(sens[i] > sens[j] for i, j in zip(ALL_SFS, ALL_SFS[1:])):
            raise ValueError("sensitivity must strictly improve as the spreading factor grows")
        object.__setattr__(self, "sensitivity_dbm", sens)

        capture: dict[int, dict[int, float]] = {}
        for i, row in self.capture_threshold_db.items():
            capture[check_sf(i)] = {check_sf(j): float(v) for j, v in row.items()}
        if sorted(capture) != list(ALL_SFS) or any(
            sorted(row) != list(ALL_SFS) for row in capture.values()
        ):
            raise ValueError(
                "capture_threshold_db must be a full 6x6 matrix over spreading factors 7..12"
            )
        object.__setattr__(self, "capture_threshold_db", capture)

    @property
    def tx_rf_power_w(self) -> float:
        """Radiated transmit power in watts (distinct from the DC draw)."""
        return dbm_to_watts(self.tx_rf_power_dbm)

    def low_rate_flag(self, sf: int) -> int:
        return 1 if check_sf(sf) in self.ldro_sfs else 0

    def symbol_duration(self, sf: int) -> float:
        return 2.0 ** check_sf(sf) / self.bandwidth_hz

    def preamble_duration(self, sf: int) -> float:
        return (self.preamble_symbols + 4.25) * self.symbol_duration(sf)

    def payload_symbol_count(self, sf: int, payload_bytes: int) -> int:
        """Symbol count of the payload part, including the mandatory 8."""
        sf = check_sf(sf)
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be nonnegative")
        denom = sf - 2 * self.low_rate_flag(sf)
        if denom <= 0:
            # cannot happen for SF >= 7, but the formula divides by it
            raise ValueError(f"low data rate optimization leaves no symbol capacity at SF{sf}")
        numer = 2 * payload_bytes - sf - 5 * self.header_flag + 11
        ceil_q = -(-numer // denom)
        return 8 + max(ceil_q * (self.coding_rate_index + 4), 0)

    def payload_duration(self, sf: int, payload_bytes: int) -> float:
        return self.payload_symbol_count(sf, payload_bytes) * self.symbol_duration(sf)

    def frame_airtime(self, sf: int, payload_bytes: int) -> float:
        return self.preamble_duration(sf) + self.payload_duration(sf, payload_bytes)

    def rx_energy_preamble(self, sf: int) -> float:
        """Energy spent listening to one preamble window."""
        return self.rx_power_w * self.preamble_duration(sf)

    def rx_energy_frame(self, sf: int, payload_bytes: int) -> float:
        """Energy spent listening to one whole frame."""
        return self.rx_power_w * self.frame_airtime(sf, payload_bytes)

    def sensitivity_w(self, sf: int) -> float:
        return dbm_to_watts(self.sensitivity_dbm[check_sf(sf)])

    def capture_ratio(self, desired_sf: int, interferer_sf: int) -> float:
        """Linear power ratio above which the desired frame survives a collision."""
        db = self.capture_threshold_db[check_sf(desired_sf)][check_sf(interferer_sf)]
        return 10.0 ** (db / 10.0)
