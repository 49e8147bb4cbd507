"""Cartan data, positive roots, Weyl combinatorics, flag cohomology targets."""

import hashlib
from itertools import combinations_with_replacement, product

import pytest

from schurq import (
    build_cartan,
    flag_betti,
    flag_ring,
    kostant,
    positive_roots,
    weyl_table,
)
from schurq.rootdata import CartanDatum, RootDataError, kostant_table


ALL_SERIES = [("A", 1), ("A", 2), ("A", 3), ("B", 2)]


# -- Cartan datum invariants ----------------------------------------------


@pytest.mark.parametrize("series,rank", ALL_SERIES)
def test_cartan_symmetrizability(series, rank):
    c = build_cartan(series, rank)
    for i in range(rank):
        assert c.a[i][i] == 2
        assert c.d[i] > 0
        for j in range(rank):
            if i != j:
                assert c.a[i][j] <= 0
            assert c.d[i] * c.a[i][j] == c.d[j] * c.a[j][i]


def test_cartan_b_exponent():
    c = build_cartan("B", 2)
    for i in range(2):
        for j in range(2):
            if i != j:
                assert c.b(i, j) == 1 - c.a[i][j]


def test_bad_series_rejected():
    with pytest.raises(RootDataError):
        build_cartan("Z", 2)
    with pytest.raises(RootDataError):
        build_cartan("A", 0)


@pytest.mark.parametrize(
    "a",
    [
        ((2, -2), (-2, 2)),  # affine A1: singular
        ((2, -3), (-3, 2)),  # hyperbolic: negative second pivot
        ((2, -1, 0), (-1, 2, -2), (0, -2, 2)),  # negative third pivot only
    ],
)
def test_non_finite_type_rejected(a):
    with pytest.raises(RootDataError, match="not positive definite"):
        CartanDatum(len(a), a, (1,) * len(a))


# -- positive roots --------------------------------------------------------


@pytest.mark.parametrize(
    "series,rank,count", [("A", 1, 1), ("A", 2, 3), ("B", 2, 4), ("A", 3, 6)]
)
def test_positive_root_counts(series, rank, count):
    c = build_cartan(series, rank)
    roots = positive_roots(c)
    assert len(roots) == count
    # every simple root appears, all coordinates nonnegative
    for i in range(rank):
        simple = tuple(1 if j == i else 0 for j in range(rank))
        assert simple in roots.roots
    for beta in roots.roots:
        assert all(x >= 0 for x in beta) and any(x > 0 for x in beta)


def test_a2_root_heights():
    c = build_cartan("A", 2)
    assert sorted(positive_roots(c).heights) == [1, 1, 2]


# -- Weyl group ------------------------------------------------------------


@pytest.mark.parametrize(
    "series,rank,order,longest",
    [("A", 1, 2, 1), ("A", 2, 6, 3), ("B", 2, 8, 4), ("A", 3, 24, 6)],
)
def test_weyl_orders(series, rank, order, longest):
    c = build_cartan(series, rank)
    t = weyl_table(c)
    assert t.order == order
    assert t.longest_length == longest
    # longest length = number of positive roots
    assert t.longest_length == len(positive_roots(c))


@pytest.mark.parametrize("series,rank", ALL_SERIES)
def test_flag_betti_palindromic_and_sums_to_weyl_order(series, rank):
    c = build_cartan(series, rank)
    t = weyl_table(c)
    betti = flag_betti(c, t)
    assert betti == tuple(reversed(betti))
    assert sum(betti) == t.order
    assert all(betti[k] == 0 for k in range(1, len(betti), 2))


def test_flag_betti_values():
    assert flag_betti(build_cartan("A", 1)) == (1, 0, 1)
    assert flag_betti(build_cartan("A", 2)) == (1, 0, 2, 0, 2, 0, 1)
    assert flag_betti(build_cartan("B", 2)) == (1, 0, 2, 0, 2, 0, 2, 0, 1)


# -- Kostant partition function -------------------------------------------


def brute_kostant(c, beta):
    """Independent oracle: enumerate multisets of positive roots summing to beta."""
    roots = positive_roots(c).roots
    height = sum(beta)
    count = 0
    for size in range(height + 1):
        for combo in combinations_with_replacement(roots, size):
            total = [0] * c.rank
            for r in combo:
                for i, x in enumerate(r):
                    total[i] += x
            if tuple(total) == tuple(beta):
                count += 1
    return count


def test_kostant_examples():
    a2 = build_cartan("A", 2)
    assert kostant(a2, (1, 0)) == 1
    assert kostant(a2, (1, 1)) == 2
    assert kostant(a2, (0, 0)) == 1
    with pytest.raises(RootDataError):
        kostant(a2, (-1, 0))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_kostant_matches_brute_force(series, rank):
    c = build_cartan(series, rank)
    for beta in product(range(4), repeat=rank):
        if sum(beta) <= 6:
            assert kostant(c, beta) == brute_kostant(c, beta)


def brute_kostant_table(c, cap):
    """Independent oracle: tally every multiset of positive roots of height <= cap."""
    roots = positive_roots(c).roots
    table = {}
    for size in range(cap + 1):
        for combo in combinations_with_replacement(roots, size):
            total = tuple(sum(r[i] for r in combo) for i in range(c.rank))
            if sum(total) <= cap:
                table[total] = table.get(total, 0) + 1
    return table


@pytest.mark.parametrize(
    "series,rank,cap", [("A", 2, 7), ("B", 2, 6), ("G", 2, 6), ("A", 3, 5)]
)
def test_kostant_table_matches_brute_force(series, rank, cap):
    c = build_cartan(series, rank)
    brute = brute_kostant_table(c, cap)
    assert kostant_table(c, cap) == brute
    box = (2,) + (1,) * (rank - 1)
    boxed = {b: n for b, n in brute.items() if all(x <= y for x, y in zip(b, box))}
    assert kostant_table(c, cap, box=box) == boxed


# -- coinvariant ring model ------------------------------------------------


# sha256 of repr(ring.structure), recorded before the coinvariant ideal was
# reduced through linalg.Subspace (it was a private row reduction then)
RING_STRUCTURE_SHA256 = {
    ("A", 1): "87b0f1a0f74e591a06a0dc741f790f8b40354c35d414dc376591c6fa4a757c53",
    ("A", 2): "aeac351d99c9e322ce30f739f2b4550817d6f0d6f6822c0ffa7957b1c83b3960",
    ("B", 2): "59d33e7218de3896b378882cea852a1dcc014da301e1f89e6dc1bbc806385cef",
    ("A", 3): "d0ba6254752260d81f4fb540d96eb567d2495f046e5a1a76fa03c4e80e944e3d",
    ("G", 2): "b2933a57336c0973678b176b4ac8e0ba658711c186d10495f7159e1be921f722",
}


@pytest.mark.parametrize(
    "series,rank", [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("G", 2)]
)
def test_flag_ring_dims_match_betti(series, rank):
    c = build_cartan(series, rank)
    ring = flag_ring(c, rank_cap=rank)
    assert tuple(ring.dims) == flag_betti(c)
    assert ring.total_dim() == weyl_table(c).order
    digest = hashlib.sha256(repr(ring.structure).encode()).hexdigest()
    assert digest == RING_STRUCTURE_SHA256[(series, rank)]


def test_a1_ring_generator_squares_to_zero():
    ring = flag_ring(build_cartan("A", 1))
    assert all(v == 0 for v in ring.product(1, 0, 1, 0))
