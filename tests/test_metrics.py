"""Correlation metrics against an independent definition-level oracle."""

import math

import numpy as np
import pytest

from argscore.evaluation import LengthMismatch, pearson, rankdata, spearman


# -- oracle: straight from the definitions, O(n^2) ranks, fsum accumulation --

def oracle_ranks(values):
    ranks = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_ranks(xs), oracle_ranks(ys))


def test_pearson_exact_examples():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)
    assert pearson([1, 2, 3], [2, 2, 2]) is None
    assert pearson([2, 2, 2], [1, 2, 3]) is None


def test_spearman_tie_free_formula():
    # 1 - 6*sum(d^2) / (n(n^2-1)) with d^2 = 4, n = 4
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == 0.6


def test_spearman_with_ties_equals_average_rank_pearson():
    # ranks of (1,1,2) are (1.5,1.5,3); Pearson vs (1,2,3) is sqrt(3)/2
    value = spearman([1, 1, 2], [1, 2, 3])
    assert value == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        base = spearman(x, y)
        fx = np.exp(x)                  # strictly increasing
        gy = 3.0 * y + 1.0
        assert spearman(fx, gy) == pytest.approx(base, abs=1e-12)
        assert spearman(np.sort(x), np.sort(x)) == pytest.approx(1.0, abs=1e-12)


def test_pearson_symmetry_and_affine():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(x, y)
        if r is None:
            continue
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        assert pearson(2.5 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.5 * x + 1.0, y) == pytest.approx(-r, abs=1e-12)


def test_oracle_equivalence_random_vectors():
    rng = np.random.default_rng(123)
    for i in range(1000):
        n = int(rng.integers(2, 51))
        if i % 2:
            # integer-valued vectors force ties
            x = rng.integers(0, 6, n).astype(float)
            y = rng.integers(0, 6, n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        for ours, ref in ((pearson(x, y), oracle_pearson(list(x), list(y))),
                          (spearman(x, y), oracle_spearman(list(x), list(y)))):
            if ref is None:
                assert ours is None
            else:
                assert ours == pytest.approx(ref, abs=1e-12)


def loop_rankdata(x):
    """The per-block loop ``rankdata`` once was, kept as its bitwise reference."""
    a = np.asarray(x, dtype=np.float64).ravel()
    n = a.size
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_rankdata_equals_the_loop_bitwise():
    rng = np.random.default_rng(5)
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, 2.0])
    vectors = [[], [3.0], [np.nan], [-0.0, 0.0, np.nan, 0.0, np.nan], [2.0, 2.0]]
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        ties = rng.integers(-3, 4, n) * 0.5  # few distinct values: long blocks of ties
        vectors.append(np.where(rng.random(n) < 0.2, rng.choice(specials, n),
                                ties if rng.random() < 0.5 else rng.normal(size=n)))
    for v in vectors:
        assert rankdata(v).tobytes() == loop_rankdata(v).tobytes(), v


def test_rankdata_average_ties():
    assert rankdata([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert rankdata([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]
    assert rankdata([3, 1, 2]).tolist() == [3.0, 1.0, 2.0]


def test_length_errors():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        spearman([1], [1])
