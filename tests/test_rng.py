import numpy as np

from fpt.rng import seeded_rng


def test_same_seed_identical_streams():
    a = seeded_rng(42)._raw(1000)
    b = seeded_rng(42)._raw(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = seeded_rng(42)._raw(100)
    b = seeded_rng(43)._raw(100)
    assert not np.array_equal(a, b)


def test_stream_position_is_call_shape_independent():
    a = seeded_rng(7)
    b = seeded_rng(7)
    one = np.concatenate([a._raw(3), a._raw(5), a._raw(2)])
    other = b._raw(10)
    assert np.array_equal(one, other)


def test_gaussian_mean_law_of_large_numbers():
    g = seeded_rng(123).normal(1_000_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def test_uniform_range_and_determinism():
    u = seeded_rng(9).uniform(10_000, low=-2.0, high=3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert np.array_equal(u, seeded_rng(9).uniform(10_000, low=-2.0, high=3.0))


def test_permutation_is_a_permutation():
    perm = seeded_rng(5).permutation(500)
    assert sorted(perm.tolist()) == list(range(500))


def test_integers_in_range():
    vals = seeded_rng(8).integers(17, size=5000)
    assert vals.min() >= 0 and vals.max() < 17
    assert len(np.unique(vals)) == 17


def test_child_streams_are_independent():
    parent = seeded_rng(11)
    c0 = parent.child(0)._raw(50)
    c1 = parent.child(1)._raw(50)
    p = seeded_rng(11)._raw(50)
    assert not np.array_equal(c0, c1)
    assert not np.array_equal(c0, p)
    assert np.array_equal(c0, seeded_rng(11).child(0)._raw(50))


def test_normal_shapes():
    assert seeded_rng(1).normal((3, 4)).shape == (3, 4)
    assert isinstance(seeded_rng(1).normal(), float)
