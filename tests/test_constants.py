"""Tests for physical constants and unit helpers."""

import pytest

from repro import constants


class TestConstants:
    def test_thermal_voltage_room_temperature(self):
        assert constants.THERMAL_VOLTAGE == pytest.approx(25.9e-3, rel=0.01)

    def test_kt_room(self):
        assert constants.KT_ROOM == pytest.approx(4.14e-21, rel=0.01)


class TestHelpers:
    def test_db_roundtrip(self):
        assert 10.0 ** (constants.db(42.0) / 20.0) == pytest.approx(42.0)

    def test_db_of_unity_is_zero(self):
        assert constants.db(1.0) == 0.0

    def test_db_power_half(self):
        assert constants.db_power(0.5) == pytest.approx(-3.0103, abs=1e-3)

    def test_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            constants.db(0.0)
        with pytest.raises(ValueError):
            constants.db_power(-1.0)

    def test_parallel_two_equal(self):
        assert constants.parallel(2e3, 2e3) == pytest.approx(1e3)

    def test_parallel_with_short(self):
        assert constants.parallel(1e3, 0.0) == 0.0

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            constants.parallel()
        with pytest.raises(ValueError):
            constants.parallel(-1.0)

    def test_lsb(self):
        assert constants.lsb(2.0, 13) == pytest.approx(2.0 / 8192)
        with pytest.raises(ValueError):
            constants.lsb(2.0, 0)
        with pytest.raises(ValueError):
            constants.lsb(-2.0, 8)
