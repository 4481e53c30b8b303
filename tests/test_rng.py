import numpy as np

from qubotree.rng import Rng, derive_seed


def test_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.shuffle_keys(3), b.shuffle_keys(3))
    assert np.array_equal(a.uniform01(100), b.uniform01(100))
    assert np.array_equal(a.normal(0, 1, 51), b.normal(0, 1, 51))


def test_different_seeds_differ():
    assert Rng(1).shuffle_keys(1)[0] != Rng(2).shuffle_keys(1)[0]


def test_block_draws_match_scalar_draws():
    # Counter-based: one block of 5 equals five blocks of 1.
    block = Rng(7).uniform01(5)
    scalar_rng = Rng(7)
    singles = np.array([scalar_rng.uniform01(1)[0] for _ in range(5)])
    assert np.array_equal(block, singles)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(5, 1) == derive_seed(5, 1)
    assert derive_seed(5, 1) != derive_seed(5, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_uniform01_range():
    u = Rng(3).uniform01(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_moments():
    z = Rng(11).normal(2.0, 3.0, 200_000)
    assert abs(z.mean() - 2.0) < 0.05
    assert abs(z.std() - 3.0) < 0.05


def test_gamma_moments():
    # Gamma(2, 30000): mean 60000, variance 2 * 30000^2.
    g = Rng(13).gamma(2.0, 30000.0, 200_000)
    assert g.min() > 0
    assert abs(g.mean() - 60000.0) < 600.0
    assert abs(g.var() / (2 * 30000.0**2) - 1.0) < 0.03


def test_lognormal_median():
    x = Rng(17).lognormal(10.0, 0.5, 200_000)
    assert abs(np.median(x) - np.exp(10.0)) < 250.0


def test_bernoulli_rate():
    p = np.full(100_000, 0.3)
    hits = Rng(19).bernoulli(p)
    assert set(np.unique(hits)) <= {0, 1}
    assert abs(hits.mean() - 0.3) < 0.01


def test_integers_cover_range():
    draws = Rng(23).integers(10, 50_000)
    assert draws.min() == 0 and draws.max() == 9
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 4000


