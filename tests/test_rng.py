import numpy as np
import pytest

from trapnets.rng import RngStream, as_generator


class TestAsGenerator:
    def test_stream_gives_its_generator_draws(self):
        stream = RngStream(3).child(1, 2)
        assert np.array_equal(as_generator(stream).random(8), stream.generator().random(8))

    def test_numpy_generator_passes_through(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_duck_typed_object_passes_through(self):
        class Draws:
            def random(self):
                return 0.5

        obj = Draws()
        assert as_generator(obj) is obj


class TestGenerator:
    @pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**64 - 1, 2**63 + 5), (-1, 0)])
    def test_same_as_philox_with_key(self, seed, stream):
        key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key))
        got = RngStream(seed, stream).generator()
        assert repr(got.bit_generator.state) == repr(expected.bit_generator.state)
        assert np.array_equal(got.random(64), expected.random(64))
        assert np.array_equal(got.standard_exponential(64), expected.standard_exponential(64))
