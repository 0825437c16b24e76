"""Tests for the AC/ARC/CCA/CCAR/AS sample history."""

from repro.core import CounterHistory


class TestCounterHistory:
    def test_capture_builds_series(self):
        h = CounterHistory()
        h.capture(10, {"AC": 1})
        h.capture(20, {"AC": 2})
        assert h.times == [10, 20]
        assert h.column("AC") == [1, 2]
        assert len(h) == 2

    def test_new_key_padded_backwards(self):
        h = CounterHistory()
        h.capture(10, {"AC": 1})
        h.capture(20, {"AC": 2, "ARC": 7})
        assert h.column("ARC") == [0, 7]

    def test_missing_key_padded_forwards(self):
        h = CounterHistory()
        h.capture(10, {"AC": 1, "ARC": 5})
        h.capture(20, {"AC": 2})
        assert h.column("ARC") == [5, 5]

    def test_unknown_column_is_zeros(self):
        h = CounterHistory()
        h.capture(10, {"AC": 1})
        assert h.column("nothing") == [0]
