"""Tests for the ControlDesk-style parameter store and capture."""

import pytest

from repro.kernel import Kernel, ms
from repro.validator import Capture, ParameterStore


class Holder:
    def __init__(self):
        self.value = 1.0
        self.other = 5.0


def expose(store, name, obj, attribute):
    """Register ``obj.attribute`` as a parameter."""
    return store.register(name, setter=lambda v: setattr(obj, attribute, v))


class TestParameterStore:
    def test_register_and_set(self, kernel):
        store = ParameterStore(kernel)
        holder = Holder()
        expose(store, "p", holder, "value")
        store.set_now("p", 3.5)
        assert holder.value == 3.5
        assert store.get("p").name == "p"

    def test_duplicate_rejected(self, kernel):
        store = ParameterStore(kernel)
        holder = Holder()
        expose(store, "p", holder, "value")
        with pytest.raises(ValueError):
            expose(store, "p", holder, "other")

    def test_unknown_parameter(self, kernel):
        store = ParameterStore(kernel)
        with pytest.raises(KeyError):
            store.get("ghost")

    def test_change_log(self, kernel):
        store = ParameterStore(kernel)
        holder = Holder()
        expose(store, "p", holder, "value")
        store.set_now("p", 2.0)
        kernel.queue.schedule(ms(5), lambda: store.set_now("p", 3.0))
        kernel.run_until(ms(10))
        assert store.change_log == [(0, "p", 2.0), (ms(5), "p", 3.0)]

    def test_custom_getter_setter(self, kernel):
        store = ParameterStore(kernel)
        box = {"v": 0.0}
        store.register("p", lambda x: box.__setitem__("v", x))
        store.set_now("p", 7.0)
        assert box["v"] == 7.0


class TestCapture:
    def test_periodic_sampling(self, kernel):
        capture = Capture(kernel, sample_period=ms(10))
        holder = Holder()
        capture.add_probe("v", lambda: holder.value)
        capture.start()
        kernel.run_until(ms(45))
        series = capture.get("v")
        assert series.times == [ms(10), ms(20), ms(30), ms(40)]
        assert series.values == [1.0] * 4

    def test_samples_track_changes(self, kernel):
        capture = Capture(kernel, sample_period=ms(10))
        holder = Holder()
        capture.add_probe("v", lambda: holder.value)
        capture.start()
        kernel.queue.schedule(ms(15), lambda: setattr(holder, "value", 8.0))
        kernel.run_until(ms(30))
        assert capture.get("v").values == [1.0, 8.0, 8.0]

    def test_duplicate_probe_rejected(self, kernel):
        capture = Capture(kernel)
        holder = Holder()
        capture.add_probe("v", lambda: holder.value)
        with pytest.raises(ValueError):
            capture.add_probe("v", lambda: holder.other)

    def test_bad_sample_period(self, kernel):
        with pytest.raises(ValueError):
            Capture(kernel, sample_period=0)

    def test_unknown_probe(self, kernel):
        capture = Capture(kernel)
        with pytest.raises(KeyError):
            capture.get("ghost")
