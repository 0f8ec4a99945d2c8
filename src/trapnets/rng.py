"""Counter-based splittable random streams.

Every stochastic routine in the package takes an :class:`RngStream` (or a
``numpy`` generator derived from one).  A stream is identified by a
``(seed, stream)`` pair of 64-bit values and is backed by the Philox
counter-based bit generator, so identical pairs reproduce identical draws
bit-exactly and distinct stream ids can be consumed in parallel workers
without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
# SplitMix64 constants, used to derive child stream ids deterministically.
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(value: int) -> int:
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (seed, stream id)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngStream":
        """Derive a sub-stream; distinct index tuples give distinct streams."""
        h = self.stream & _MASK64
        for ix in indices:
            h = _mix64(h + _GOLDEN + (ix & _MASK64))
        return RngStream(self.seed, h)


def as_generator(rng_or_stream):
    """The generator of an :class:`RngStream`; any other object is returned
    unchanged, so numpy generators and objects that draw like one pass through."""
    if isinstance(rng_or_stream, RngStream):
        return rng_or_stream.generator()
    return rng_or_stream
