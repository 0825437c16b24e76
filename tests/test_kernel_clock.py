"""Unit tests for the simulated time base."""

import pytest

from repro.kernel import SimClock, ms, seconds, to_ms, to_s, us


class TestUnits:
    def test_us_is_base_unit(self):
        assert us(1) == 1

    def test_ms_is_thousand_ticks(self):
        assert ms(1) == 1_000

    def test_seconds_is_million_ticks(self):
        assert seconds(1) == 1_000_000

    def test_fractional_ms(self):
        assert ms(1.5) == 1_500

    def test_fractional_us_rounds(self):
        assert us(1.4) == 1
        assert us(1.6) == 2

    def test_roundtrip_ms(self):
        assert to_ms(ms(25)) == 25.0

    def test_roundtrip_seconds(self):
        assert to_s(seconds(3)) == 3.0

    def test_zero(self):
        assert ms(0) == 0
        assert seconds(0) == 0


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_advance_to_same_time_allowed(self):
        clock = SimClock()
        clock.advance_to(50)
        clock.advance_to(50)
        assert clock.now == 50

    def test_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)
