import numpy as np

from hexdrop import VariateStream
from hexdrop.rng import GENERATOR_LABEL


def test_same_seed_same_sequence():
    a = VariateStream(123)
    b = VariateStream(123)
    assert np.array_equal(a.uniforms(50), b.uniforms(50))
    assert np.array_equal(a.normals(100), b.normals(100))


def test_different_seeds_differ():
    assert VariateStream(1).uniforms(20).tolist() != VariateStream(2).uniforms(20).tolist()


def test_uniforms_open_interval():
    u = VariateStream(7).uniforms(1_000_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniforms_redraw_exact_zeros():
    # an exact 0.0 has probability 2**-53 per draw, so a stub generator
    # returns some on its first call
    stream, reference = VariateStream(5), np.random.Generator(np.random.PCG64(5))
    real, calls = stream._rng, []

    class FirstCallZeros:
        def random(self, n):
            calls.append(n)
            u = real.random(n)
            if len(calls) == 1:
                u[::3] = 0.0
            return u

    stream._rng = FirstCallZeros()
    u = stream.uniforms(10)
    expected = reference.random(10)
    expected[::3] = reference.random(4)
    assert calls == [10, 4]
    assert np.array_equal(u, expected)
    assert u.all()


def test_draws_into_reused_buffers_continue_the_stream():
    # blocks drawn into one reused buffer hold the values of one whole call
    whole, blocks = VariateStream(8), VariateStream(8)
    u, z = whole.uniforms(1000), whole.normals(1000)
    buf = np.empty(400)
    for draw, expected in ((blocks.uniforms, u), (blocks.normals, z)):
        got = []
        for k in (400, 400, 200):
            into = draw(k, out=buf[:k])
            assert np.shares_memory(into, buf) and len(into) == k
            got.append(into.copy())
        assert np.array_equal(np.concatenate(got), expected)


def test_normal_moments():
    z = VariateStream(11).normals(200_000)
    n = len(z)
    assert abs(z.mean()) < 3.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 3.0 / np.sqrt(2 * n)


def test_generator_label():
    assert GENERATOR_LABEL == "numpy-pcg64"
