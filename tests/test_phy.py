"""Radio timing and energy primitives.

The airtime reference values below were computed by hand from the standard
LoRa timing rules: a (preamble_symbols + 4.25)-symbol preamble plus
8 + max(ceil((2B - SF - 5H + 11) / (SF - 2Y)) * (CR + 4), 0) payload
symbols, each symbol lasting 2^SF / bandwidth seconds, with Y = 1 only for
the low-data-rate SFs. ``_reference_airtime`` re-derives them from scratch
so the frozen table and the formula check each other.
"""

import math

import pytest
from hypothesis import given, strategies as st

from fuotacast.phy import ALL_SFS, PhyProfile, check_sf, dbm_to_watts

# (sf, payload_bytes) -> seconds, hand-computed
AIRTIME_TABLE = {
    (7, 0): 0.025856,
    (7, 10): 0.041216,
    (7, 50): 0.097536,
    (7, 255): 0.399616,
    (8, 5): 0.061952,
    (8, 50): 0.174592,
    (9, 20): 0.185344,
    (9, 50): 0.328704,
    (10, 50): 0.616448,
    (10, 100): 1.026048,
    (11, 5): 0.495616,
    (11, 50): 1.314816,
    (12, 5): 0.827392,
    (12, 50): 2.301952,
}


def _reference_airtime(phy: PhyProfile, sf: int, payload_bytes: int) -> float:
    t_sym = 2.0 ** sf / phy.bandwidth_hz
    ldro = 1 if sf in phy.ldro_sfs else 0
    numer = 2 * payload_bytes - sf + 11 - 5 * phy.header_flag
    n_payload = 8 + max(
        math.ceil(numer / (sf - 2 * ldro)) * (phy.coding_rate_index + 4), 0
    )
    return (phy.preamble_symbols + 4.25) * t_sym + n_payload * t_sym


class TestAirtime:
    def test_frozen_table(self, phy):
        for (sf, nbytes), want in AIRTIME_TABLE.items():
            got = phy.frame_airtime(sf, nbytes)
            sym = phy.symbol_duration(sf)
            assert abs(got - want) < sym, (sf, nbytes, got, want)
            # the numbers are exact float products, so hold much tighter too
            assert got == pytest.approx(want, rel=1e-12)

    def test_against_reference_formula(self, phy):
        for sf in ALL_SFS:
            for nbytes in (0, 1, 5, 12, 50, 100, 255):
                assert phy.frame_airtime(sf, nbytes) == pytest.approx(
                    _reference_airtime(phy, sf, nbytes), rel=1e-12
                )

    def test_documented_symbol_counts(self, phy):
        # 50-byte payload: 83 payload symbols at SF7, 58 at SF12
        assert phy.payload_symbol_count(7, 50) == 83
        assert phy.payload_duration(7, 50) == pytest.approx(0.084992, rel=1e-12)
        assert phy.payload_symbol_count(12, 50) == 58
        assert phy.payload_duration(12, 50) == pytest.approx(1.900544, rel=1e-12)

    def test_symbol_duration_doubles(self, phy):
        for sf in range(7, 12):
            assert phy.symbol_duration(sf + 1) == pytest.approx(
                2.0 * phy.symbol_duration(sf), rel=1e-15
            )

    @given(nbytes=st.integers(min_value=0, max_value=255))
    def test_airtime_growth_per_sf_step(self, phy, nbytes):
        # symbol time doubles per step while the symbol count shrinks a
        # little; the worst case over 0..255 bytes is 1.604 (SF10 to 11 at
        # zero payload, where low-rate mode kicks in)
        for sf in range(7, 12):
            ratio = phy.frame_airtime(sf + 1, nbytes) / phy.frame_airtime(sf, nbytes)
            assert ratio >= 1.6

    def test_airtime_growth_at_default_fragment_size(self, phy):
        for sf in range(7, 12):
            assert phy.frame_airtime(sf + 1, 50) / phy.frame_airtime(sf, 50) >= 1.75

    @given(nbytes=st.integers(min_value=0, max_value=255), sf=st.sampled_from(ALL_SFS))
    def test_airtime_monotone_in_payload(self, phy, nbytes, sf):
        assert phy.frame_airtime(sf, nbytes + 1) >= phy.frame_airtime(sf, nbytes)

    def test_preamble_duration(self, phy):
        for sf in ALL_SFS:
            want = (phy.preamble_symbols + 4.25) * 2.0 ** sf / phy.bandwidth_hz
            assert phy.preamble_duration(sf) == pytest.approx(want, rel=1e-15)

    def test_low_rate_flag(self, phy):
        assert [phy.low_rate_flag(sf) for sf in ALL_SFS] == [0, 0, 0, 0, 1, 1]


class TestEnergyAndPower:
    def test_rx_energy_is_power_times_airtime(self, phy):
        for sf in ALL_SFS:
            assert phy.rx_energy_frame(sf, 50) == phy.rx_power_w * phy.frame_airtime(sf, 50)
            assert phy.rx_energy_preamble(sf) == phy.rx_power_w * phy.preamble_duration(sf)

    def test_sensitivity_conversion(self, phy):
        assert phy.sensitivity_w(7) == pytest.approx(10 ** ((-123.0 - 30.0) / 10.0), rel=1e-12)
        assert phy.sensitivity_w(12) == pytest.approx(10 ** ((-137.0 - 30.0) / 10.0), rel=1e-12)

    def test_tx_rf_power(self, phy):
        assert phy.tx_rf_power_w == pytest.approx(dbm_to_watts(14.0), rel=1e-12)

    def test_capture_ratio_diagonal(self, phy):
        for sf in ALL_SFS:
            assert phy.capture_ratio(sf, sf) == pytest.approx(10 ** 0.6, rel=1e-12)

    def test_capture_ratio_off_diagonal(self, phy):
        # cross-SF rejection: a 7-vs-12 collision needs far less margin
        assert phy.capture_ratio(7, 12) == pytest.approx(10 ** (-20.0 / 10.0), rel=1e-12)
        assert phy.capture_ratio(12, 7) == pytest.approx(10 ** (-36.0 / 10.0), rel=1e-12)


class TestValidation:
    def test_check_sf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_sf(6)
        with pytest.raises(ValueError):
            check_sf(13)
        assert check_sf(9) == 9

    def test_sensitivity_must_improve_with_sf(self, phy):
        bad = dict(phy.sensitivity_dbm)
        bad[12] = bad[11] + 1.0
        with pytest.raises(ValueError):
            PhyProfile(sensitivity_dbm=bad, capture_threshold_db=phy.capture_threshold_db)

    def test_capture_matrix_must_be_complete(self, phy):
        bad = {s: dict(row) for s, row in phy.capture_threshold_db.items()}
        del bad[9][11]
        with pytest.raises(ValueError):
            PhyProfile(sensitivity_dbm=phy.sensitivity_dbm, capture_threshold_db=bad)
