import numpy as np

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
