import math

import numpy as np
import pytest

from strokepred.rng import CounterRng, derive_key, mix64


def test_mix64_is_pure_and_64bit():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(123456789) < 2**64
    assert mix64(1) != mix64(2)


def test_streams_are_independent_and_reproducible():
    a1 = CounterRng(7, "lesion", 3)
    a2 = CounterRng(7, "lesion", 3)
    b = CounterRng(7, "lesion", 4)
    seq1 = [a1.next_u64() for _ in range(10)]
    seq2 = [a2.next_u64() for _ in range(10)]
    seqb = [b.next_u64() for _ in range(10)]
    assert seq1 == seq2
    assert seq1 != seqb


def test_uniform_range_and_mean():
    r = CounterRng(42)
    xs = [r.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.02


def test_randint_bounds_and_coverage():
    r = CounterRng(5)
    draws = {r.randint(2, 5) for _ in range(200)}
    assert draws == {2, 3, 4, 5}


def test_normal_moments():
    r = CounterRng(9)
    xs = [r.normal(3.0, 2.0) for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean - 3.0) < 0.1
    assert abs(math.sqrt(var) - 2.0) < 0.1


def test_log_uniform_bounds():
    r = CounterRng(11)
    xs = [r.log_uniform(10.0, 1000.0) for _ in range(1000)]
    assert all(10.0 <= x <= 1000.0 for x in xs)
    # median of a log-uniform sits near the geometric mean
    xs.sort()
    assert 60 < xs[len(xs) // 2] < 170


def test_shuffle_is_permutation_and_deterministic():
    r1 = CounterRng(3, "shuffle")
    r2 = CounterRng(3, "shuffle")
    xs = list(range(30))
    ys = list(range(30))
    r1.shuffle(xs)
    r2.shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(30))
    assert xs != list(range(30))


def test_derive_key_string_vs_int_distinct():
    assert derive_key(1, "a") != derive_key(1, "b")
    assert derive_key(1, 0) != derive_key(1, "0")


def _scalar_uniforms(rng, n):
    return [rng.uniform() for _ in range(n)]


def test_uniforms_equal_scalar_draws_and_advance_the_counter():
    for n in (0, 1, 5000):
        vec, ref = CounterRng(11, "u", n), CounterRng(11, "u", n)
        got = vec.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == np.array(_scalar_uniforms(ref, n)).tobytes()
        assert vec.counter == ref.counter == n
    with pytest.raises(ValueError):
        vec.uniforms(-1)
    assert vec.counter == 5000


def test_uniforms_continue_an_advanced_stream():
    vec, ref = CounterRng(3, "advanced"), CounterRng(3, "advanced")
    for rng in (vec, ref):
        rng.uniform()
        rng.normal()
        rng.randint(0, 9)
    assert vec.counter == ref.counter
    got = vec.uniforms(257)
    want = _scalar_uniforms(ref, 257)
    assert got.tobytes() == np.array(want).tobytes()
    assert all(0.0 <= x < 1.0 for x in got)
    assert vec.counter == ref.counter
    assert vec.uniform() == ref.uniform()  # the two streams stay in step


def _scalar_normals(rng, n, *params):
    return [rng.normal(*params) for _ in range(n)]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 2500])
@pytest.mark.parametrize("stream", [("init", "lightweight"), ("init", "daft"),
                                    (5,)])
def test_normals_equal_scalar_draws_and_advance_the_counter(n, stream):
    vec, ref = CounterRng(9, *stream), CounterRng(9, *stream)
    vec.uniform()  # start both streams off the first counter
    ref.uniform()
    got = vec.normals(n, 0.25, 1.5)
    assert np.array(got).tobytes() == np.array(
        _scalar_normals(ref, n, 0.25, 1.5)).tobytes()
    assert vec.counter == ref.counter == 1 + 2 * n
    assert vec.uniform() == ref.uniform()


def test_normals_keep_the_rejection_draw_order_on_a_zero_u1():
    # mix64(0) == 0, so this key makes the 3rd draw exactly 0.0: the u1 of
    # the second pair, which ``normal`` rejects and redraws from the 5th
    gamma = 0x9E3779B97F4A7C15
    vec, ref = CounterRng(0), CounterRng(0)
    vec.key = ref.key = (-3 * gamma) % (1 << 64)
    probe = CounterRng(0)
    probe.key = vec.key
    assert [probe.uniform() for _ in range(3)][2] == 0.0
    got = vec.normals(4)
    assert np.array(got).tobytes() == np.array(
        _scalar_normals(ref, 4)).tobytes()
    assert vec.counter == ref.counter == 9
