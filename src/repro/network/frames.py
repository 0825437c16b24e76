"""Frames and signals for the in-vehicle network simulation.

Automotive buses carry *frames* whose payloads pack *signals* — scaled
physical values occupying bit ranges.  This module implements Intel
(little-endian) bit packing with linear scaling, the common denominator
of CAN DBC-style signal databases, so the validator's nodes exchange
realistic engineering values (vehicle speed in km/h, steering angle in
degrees, ...) rather than opaque blobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class FrameError(ValueError):
    """Raised for invalid frame/signal definitions or values."""


@dataclass(frozen=True)
class SignalSpec:
    """One signal inside a frame payload.

    ``raw = (physical - offset) / scale`` occupies ``bit_length`` bits
    starting at ``start_bit`` (Intel byte order, unsigned raw values).
    """

    name: str
    start_bit: int
    bit_length: int
    scale: float = 1.0
    offset: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    unit: str = ""

    def __post_init__(self) -> None:
        if self.bit_length < 1 or self.bit_length > 64:
            raise FrameError(f"signal {self.name!r}: bit_length out of range")
        if self.start_bit < 0:
            raise FrameError(f"signal {self.name!r}: negative start_bit")
        if self.scale == 0:
            raise FrameError(f"signal {self.name!r}: zero scale")

    @property
    def raw_max(self) -> int:
        return (1 << self.bit_length) - 1

    def encode(self, physical: float) -> int:
        """Physical value → clamped raw integer."""
        low = self.offset
        high = self.offset + self.raw_max * self.scale
        lo, hi = (low, high) if self.scale > 0 else (high, low)
        if self.minimum is not None:
            lo = max(lo, self.minimum)
        if self.maximum is not None:
            hi = min(hi, self.maximum)
        clamped = min(max(physical, lo), hi)
        raw = int(round((clamped - self.offset) / self.scale))
        return min(max(raw, 0), self.raw_max)

    def decode(self, raw: int) -> float:
        """Raw integer → physical value."""
        return raw * self.scale + self.offset


@dataclass
class FrameSpec:
    """A frame layout: identifier, payload size, and packed signals."""

    name: str
    frame_id: int
    length_bytes: int = 8
    signals: List[SignalSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.frame_id < 0:
            raise FrameError(f"frame {self.name!r}: negative id")
        if not 0 < self.length_bytes <= 64:
            raise FrameError(f"frame {self.name!r}: bad length {self.length_bytes}")

    # ------------------------------------------------------------------
    def add_signal(self, spec: SignalSpec) -> SignalSpec:
        """Add a signal, rejecting overlaps and overflow."""
        end = spec.start_bit + spec.bit_length
        if end > self.length_bytes * 8:
            raise FrameError(
                f"frame {self.name!r}: signal {spec.name!r} exceeds payload"
            )
        for existing in self.signals:
            if existing.name == spec.name:
                raise FrameError(f"frame {self.name!r}: duplicate signal {spec.name!r}")
            e_end = existing.start_bit + existing.bit_length
            if spec.start_bit < e_end and existing.start_bit < end:
                raise FrameError(
                    f"frame {self.name!r}: {spec.name!r} overlaps {existing.name!r}"
                )
        self.signals.append(spec)
        return spec

    # ------------------------------------------------------------------
    def pack(self, values: Dict[str, float]) -> bytes:
        """Pack physical values into a payload; missing signals are 0."""
        word = 0
        for spec in self.signals:
            physical = values.get(spec.name, spec.offset)
            raw = spec.encode(physical)
            word |= raw << spec.start_bit
        return word.to_bytes(self.length_bytes, "little")

    def unpack(self, payload: bytes) -> Dict[str, float]:
        """Unpack a payload into physical values."""
        if len(payload) != self.length_bytes:
            raise FrameError(
                f"frame {self.name!r}: payload length {len(payload)} != "
                f"{self.length_bytes}"
            )
        word = int.from_bytes(payload, "little")
        out: Dict[str, float] = {}
        for spec in self.signals:
            raw = (word >> spec.start_bit) & spec.raw_max
            out[spec.name] = spec.decode(raw)
        return out


@dataclass(frozen=True)
class Message:
    """One frame instance in flight on a bus."""

    spec: FrameSpec
    payload: bytes
    timestamp: int
    source: str = ""

    @property
    def frame_id(self) -> int:
        return self.spec.frame_id

    def values(self) -> Dict[str, float]:
        """Decoded signal values."""
        return self.spec.unpack(self.payload)


class FrameCatalog:
    """The signal database of one network (DBC-file equivalent)."""

    def __init__(self) -> None:
        self._by_name: Dict[str, FrameSpec] = {}
        self._ids: Set[int] = set()

    def add(self, spec: FrameSpec) -> FrameSpec:
        if spec.name in self._by_name:
            raise FrameError(f"duplicate frame name {spec.name!r}")
        if spec.frame_id in self._ids:
            raise FrameError(f"duplicate frame id {spec.frame_id:#x}")
        self._by_name[spec.name] = spec
        self._ids.add(spec.frame_id)
        return spec

    def define(
        self,
        name: str,
        frame_id: int,
        signals: List[Tuple[str, int, int, float, float]],
        length_bytes: int = 8,
    ) -> FrameSpec:
        """Shorthand: define a frame from (name, start, length, scale,
        offset) tuples."""
        spec = FrameSpec(name, frame_id, length_bytes)
        for sig_name, start, bits, scale, offset in signals:
            spec.add_signal(SignalSpec(sig_name, start, bits, scale, offset))
        return self.add(spec)

    def by_name(self, name: str) -> FrameSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise FrameError(f"unknown frame {name!r}")
        return spec
