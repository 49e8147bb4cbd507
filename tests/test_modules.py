"""Module constructors, exact relation checking, simplicity certification."""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

import pytest

from schurq import (
    build_cartan,
    build_simple,
    check_relations,
    is_simple,
    kostant,
    qint,
    trivial_module,
    truncated_verma,
)
from schurq.linalg import mat_mul, nullspace
from schurq.modules import (
    DepthCapError,
    GradedModule,
    ModuleError,
    SingularParameterError,
    perturb_entry,
)
from schurq.presentation import FSpec
from schurq.qfield import QScalar
from schurq.rootdata import kostant_table, positive_roots, weyl_table


# -- trivial modules -------------------------------------------------------


def test_trivial_module_valid(a1, a2, f_classical, f_qinteger):
    for c, n0 in ((a1, (0,)), (a2, (0, 0))):
        for f in (f_classical, f_qinteger):
            M = trivial_module(c, f, n0)
            assert M.total_dim() == 1
            assert M.dim(n0) == 1
            assert check_relations(c, f, M).passed


def test_trivial_module_rejected_off_kernel(a1, f_classical):
    f_affine = FSpec.affine([[2]], [1])  # f(0) = 1 != 0
    with pytest.raises(ModuleError):
        trivial_module(a1, f_affine, (0,))
    with pytest.raises(ModuleError):
        trivial_module(a1, f_classical, (1,))


# -- simple highest-weight modules ----------------------------------------


def test_a1_classical_three_dimensional_simple(a1, f_classical):
    M = build_simple(a1, f_classical, (1,))
    assert {n: d for n, d in M.dims} == {(1,): 1, (0,): 1, (-1,): 1}
    one = QScalar.one()
    two = QScalar.from_rational(2)
    assert M.matrix(("y", 0), (1,)) == ((one,),)
    assert M.matrix(("y", 0), (0,)) == ((one,),)
    assert M.matrix(("x", 0), (0,)) == ((two,),)
    assert M.matrix(("x", 0), (-1,)) == ((two,),)
    assert check_relations(a1, f_classical, M).passed
    assert is_simple(a1, f_classical, M)


def test_a1_quantum_three_dimensional_simple(a1, f_qinteger):
    M = build_simple(a1, f_qinteger, (1,))
    assert M.total_dim() == 3
    assert M.matrix(("x", 0), (0,)) == ((qint(2),),)
    assert M.matrix(("x", 0), (-1,)) == ((qint(2),),)
    assert check_relations(a1, f_qinteger, M).passed


def test_simple_at_zero_is_trivial(a1, f_classical, f_qinteger):
    for f in (f_classical, f_qinteger):
        M = build_simple(a1, f, (0,))
        assert M.total_dim() == 1


@pytest.mark.parametrize("k", range(5))
def test_a1_simple_dimension_2k_plus_1(a1, f_classical, f_qinteger, k):
    for f in (f_classical, f_qinteger):
        M = build_simple(a1, f, (k,))
        assert M.total_dim() == 2 * k + 1
        # weight symmetry under n -> -n
        for n, d in M.dims:
            assert M.dim(tuple(-x for x in n)) == d


def test_q_one_specialization_matches_classical(a1, f_classical):
    f1 = FSpec.qinteger("one")
    for k in (1, 2, 3):
        Mq = build_simple(a1, f1, (k,))
        Mc = build_simple(a1, f_classical, (k,))
        assert dict(Mq.dims) == dict(Mc.dims)
        assert dict(Mq.xmat) == dict(Mc.xmat)
        assert dict(Mq.ymat) == dict(Mc.ymat)


def test_a2_adjoint_simple(a2, f_classical):
    M = build_simple(a2, f_classical, (1, 1), depth_cap=6)
    assert M.total_dim() == 8
    assert M.dim((0, 0)) == 2
    assert check_relations(a2, f_classical, M).passed
    assert is_simple(a2, f_classical, M)


# sha256 of json.dumps(to_dict(), sort_keys=True) for simples built from a
# Verma truncated at depth 20, before the truncation depth grew by doubling
SIMPLE_SHA256 = {
    ("A", 1, "classical", (1,)): (
        "eb6220591e172399af4a3587daceb98809c9396fbeaa44465d9077f9ef832830"
    ),
    ("A", 1, "classical", (2,)): (
        "3007e86446fbeb82549746fd95b6551cbe0d12c85123c2b8096ca09bbccfa7c0"
    ),
    ("A", 1, "qinteger", (4,)): (
        "459cc95f45a2d845e054f9781b322b28e1483aea566f48e668bda22b3b99e013"
    ),
    ("A", 2, "classical", (1, 1)): (
        "0294795a8addd5fe86d4db1e345171d3f122e9590a34a5bc1875a96bd4c75f5b"
    ),
}


def _deepest(M):
    """The largest depth below the top weight of M's support."""
    return max(M.depth_of(n) for n in M.support())


@pytest.mark.parametrize("key", sorted(SIMPLE_SHA256))
def test_simple_is_the_depth_20_simple(key):
    """The level-by-level build gives the module a depth-20 truncation gives,
    and the adjoint of sl3 reaches down to depth 4."""
    series, rank, family, n0 = key
    M = build_simple(build_cartan(series, rank), getattr(FSpec, family)(), n0)
    text = json.dumps(M.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMPLE_SHA256[key]
    if n0 == (1, 1):
        assert _deepest(M) == 4


def test_depth_cap_error_at_the_last_cap(a1, f_classical):
    with pytest.raises(DepthCapError, match="below depth 5"):
        build_simple(a1, f_classical, (7,), depth_cap=5)
    # L(7) of sl2 reaches depth 14, so its level 14 must lie below the cap
    with pytest.raises(DepthCapError, match="below depth 14"):
        build_simple(a1, f_classical, (7,), depth_cap=14)
    assert _deepest(build_simple(a1, f_classical, (7,), depth_cap=15)) == 14


def test_inconsistent_family_names_the_weight_and_letter(a2):
    """With f_i(n) = 2 n_i + n_j + 2 the commutators break the Serre
    relations, so y_1 on the weight (-1, -1) leaves the span of the
    normal words below it."""
    f = FSpec.affine([[2, 1], [1, 2]], [2, 2])
    with pytest.raises(SingularParameterError, match=r"y_1 on weight \(-1, -1\)"):
        build_simple(a2, f, (0, 0), depth_cap=8)


def test_non_dominant_weight_rejected(a2, f_classical):
    with pytest.raises(ModuleError):
        build_simple(a2, f_classical, (1, 0))


def _weyl_dimension(c, n0):
    """Weyl's dimension formula, prod over positive roots alpha of
    (lambda + rho, alpha) / (rho, alpha), with lambda = sum_i n0_i alpha_i
    and the invariant form (alpha_i, alpha_k) = d_i a_ik."""
    r = c.rank
    roots = positive_roots(c).roots

    def form(u, v):
        return sum(u[i] * v[k] * c.d[i] * c.a[i][k] for i in range(r) for k in range(r))

    rho = [Fraction(sum(a[i] for a in roots), 2) for i in range(r)]
    shifted = [x + y for x, y in zip(n0, rho)]
    return prod(Fraction(form(shifted, a), form(rho, a)) for a in roots)


@pytest.mark.parametrize(
    "series, n0, dim",
    [
        ("B", (1, 1), 5),
        ("C", (1, 1), 5),
        ("G", (1, 2), 7),
        ("B", (1, 2), 10),
        ("C", (2, 1), 10),
        ("A", (1, 1), 8),
        ("G", (2, 3), 14),
    ],
)
def test_rank_two_simples_have_the_weyl_dimension(f_classical, series, n0, dim):
    """The vector representations of so5 and sp4, the 7-dimensional one of
    G2 and the adjoints of so5, sp4, sl3 and G2 have their Weyl dimensions."""
    c = build_cartan(series, 2)
    assert build_simple(c, f_classical, n0).total_dim() == dim == _weyl_dimension(c, n0)


@pytest.mark.parametrize("series", ["B", "C", "G"])
def test_rank_two_simple_roots_are_not_dominant(f_classical, series):
    """Each simple root pairs negatively with the other node's coroot."""
    c = build_cartan(series, 2)
    for n0 in ((1, 0), (0, 1)):
        with pytest.raises(ModuleError, match="not dominant"):
            build_simple(c, f_classical, n0)


def _dominant_weights(c, bound):
    """The dominant n0 with coordinates in 0..bound."""
    r = c.rank
    return [
        n0 for n0 in product(range(bound + 1), repeat=r)
        if all(sum(c.a[j][i] * n0[i] for i in range(r)) >= 0 for j in range(r))
    ]


def _dot_orbit(c, n0):
    """(sign of w, w(lambda + rho) - rho) for each w of the Weyl group, in
    root coordinates, with lambda = n0."""
    r = c.rank
    table = weyl_table(c)
    rho = [Fraction(sum(a[i] for a in positive_roots(c).roots), 2) for i in range(r)]
    shifted = [x + y for x, y in zip(n0, rho)]
    out = []
    for (_word, mat), length in zip(table.elements, table.lengths):
        image = [sum(mat[k][j] * shifted[j] for j in range(r)) - rho[k] for k in range(r)]
        assert all(x.denominator == 1 for x in image)
        out.append(((-1) ** length, tuple(int(x) for x in image)))
    return out


def _w0_image(c, n0):
    """w0 n0 in root coordinates, with w0 the longest element of the Weyl group."""
    table = weyl_table(c)
    _word, w0 = table.elements[table.lengths.index(table.longest_length)]
    return tuple(sum(row[j] * n0[j] for j in range(c.rank)) for row in w0)


def _w0_depth(c, n0):
    """Height of n0 - w0 n0."""
    return sum(n0) - sum(_w0_image(c, n0))


def _kostant_multiplicities(c, n0):
    """{mu: m} for the nonzero m given by Kostant's multiplicity formula
    m(mu) = sum_w eps(w) P(w(lambda + rho) - (mu + rho)), lambda = n0."""
    P = kostant_table(c, _w0_depth(c, n0))
    orbit = _dot_orbit(c, n0)
    out = {}
    for beta in P:
        mu = tuple(x - b for x, b in zip(n0, beta))
        m = sum(sign * P.get(tuple(x - y for x, y in zip(w, mu)), 0) for sign, w in orbit)
        if m:
            out[mu] = m
    return out


ORACLE_TYPES = [("A", 2, 3), ("B", 2, 3), ("C", 2, 3), ("G", 2, 5), ("A", 3, 2)]


@lru_cache(maxsize=None)
def _oracle_simples(series, rank, bound, family):
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    return c, [(n0, build_simple(c, f, n0)) for n0 in _dominant_weights(c, bound)]


@pytest.mark.parametrize("family", ["classical", "qinteger"])
@pytest.mark.parametrize("series, rank, bound", ORACLE_TYPES)
def test_simple_weights_follow_kostant_multiplicity_formula(series, rank, bound, family):
    """Every dominant weight up to the bound: the weight multiplicities are
    Kostant's and the total is Weyl's dimension."""
    c, simples = _oracle_simples(series, rank, bound, family)
    assert len(simples) >= 4
    for n0, M in simples:
        assert dict(M.dims) == _kostant_multiplicities(c, n0)
        assert M.total_dim() == _weyl_dimension(c, n0)


@pytest.mark.parametrize("family", ["classical", "qinteger"])
@pytest.mark.parametrize("series, rank, bound", ORACLE_TYPES)
def test_simple_depth_is_the_height_of_n0_minus_w0_n0(series, rank, bound, family):
    """The lowest weight of L(n0) is w0 n0, so the build ends one level
    below depth ht(n0 - w0 n0)."""
    c, simples = _oracle_simples(series, rank, bound, family)
    for n0, M in simples:
        assert _deepest(M) == _w0_depth(c, n0)
        assert M.dim(_w0_image(c, n0)) == 1
    if series == "G":
        assert _w0_depth(c, (2, 3)) == 10


@pytest.mark.parametrize("family", ["classical", "qinteger"])
def test_b2_simples_are_c2_simples_with_the_nodes_swapped(family):
    """Swapping the two nodes turns the Cartan matrix of B2 into that of C2,
    so a B2 simple read with swapped nodes is the C2 simple at the swapped
    weight: a valid, simple C2 module with the same weight multiplicities."""
    b2, c2 = build_cartan("B", 2), build_cartan("C", 2)
    f = getattr(FSpec, family)()

    def swap(n):
        return tuple(reversed(n))

    for n0 in _dominant_weights(b2, 3):
        B = build_simple(b2, f, n0)
        L = build_simple(c2, f, swap(n0))
        swapped = GradedModule.make(
            2,
            {swap(n): d for n, d in B.dims},
            {(1 - i, swap(n)): m for (i, n), m in B.xmat},
            {(1 - i, swap(n)): m for (i, n), m in B.ymat},
        )
        assert dict(swapped.dims) == dict(L.dims)
        assert check_relations(c2, f, swapped).passed
        assert is_simple(c2, f, swapped)


# -- truncated Verma modules ----------------------------------------------


def test_a1_truncated_verma(a1, f_classical):
    M = truncated_verma(a1, f_classical, (0,), 3)
    assert {n: d for n, d in M.dims} == {(0,): 1, (-1,): 1, (-2,): 1, (-3,): 1}
    assert M.truncated and M.trunc_depth == 3
    assert check_relations(a1, f_classical, M).passed


def test_a2_verma_weight_dims_match_kostant(a2, f_classical, f_qinteger):
    for f in (f_classical, f_qinteger):
        M = truncated_verma(a2, f, (0, 0), 2)
        assert M.dim((-1, -1)) == kostant(a2, (1, 1))  # = 2
        assert M.dim((-2, 0)) == 1
        assert check_relations(a2, f, M).passed


def test_depth_zero_verma(a1, f_classical):
    M = truncated_verma(a1, f_classical, (2,), 0)
    assert M.total_dim() == 1
    assert M.xmat == () and M.ymat == ()


def test_deep_verma_contains_invariant_tail(a1, f_classical):
    M = truncated_verma(a1, f_classical, (1,), 5)
    assert check_relations(a1, f_classical, M).passed
    assert not is_simple(a1, f_classical, M)


# sha256 of json.dumps(to_dict(), sort_keys=True) for truncated Vermas built
# from tuple normal forms and a recursive x-action, before they were built on
# the level walk of the simple
VERMA_SHA256 = {
    ("A", 1, "classical", (0,), 4): (
        "a1d9411ffbb9ac5fd005eb444bac92855b157cd5b541908391f46b5943297829"
    ),
    ("A", 1, "qinteger", (0,), 4): (
        "0484f08fb023a448c309e4429ec4fb1180c446e1c035796d93686265121318c8"
    ),
    ("A", 2, "classical", (1, 1), 3): (
        "25f93df4b062e5b1f6df0ee8d999a561a8c25549215151c5b489e65f3ce3c8c3"
    ),
    ("A", 2, "qinteger", (0, 0), 3): (
        "b65c80153ea2fac71f6e1950461c1bfd2e85e7bddb9a4a91bff83d6d5e98c39f"
    ),
    ("B", 2, "classical", (0, 0), 2): (
        "3f5a078c1c484413991f43d8f6ac2143d10447a5f72ebc32627b1e1a4469e826"
    ),
    ("G", 2, "classical", (1, 2), 3): (
        "6075176839eb7aded70f8460cc34c9a50d03ff32715e1866a930837504bef9e6"
    ),
    # the family of test_is_simple_exact_in_non_monomial_bases
    ("A", 2, "affine", (0, 0), 3): (
        "d45282b7ad738e4319b3719b6269426bced032d873dc9e074cf1ee9a762a24b1"
    ),
}


@pytest.mark.parametrize("key", sorted(VERMA_SHA256))
def test_truncated_verma_is_pinned(key):
    series, rank, family, n0, depth = key
    c = build_cartan(series, rank)
    if family == "affine":
        f = FSpec.affine([list(row) for row in c.a], [Fraction(-1, 2)] * rank)
    else:
        f = getattr(FSpec, family)()
    text = json.dumps(truncated_verma(c, f, n0, depth).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERMA_SHA256[key]


def test_verma_depth_rejection(a1, f_classical):
    with pytest.raises(ModuleError):
        truncated_verma(a1, f_classical, (0,), -1)


# -- relation checking -----------------------------------------------------


def test_constructor_outputs_pass(a1, a2, b2, f_classical, f_qinteger):
    cases = [
        (a1, f_classical, build_simple(a1, f_classical, (2,))),
        (a1, f_qinteger, truncated_verma(a1, f_qinteger, (0,), 4)),
        (a2, f_qinteger, truncated_verma(a2, f_qinteger, (0, 0), 3)),
        (b2, f_classical, truncated_verma(b2, f_classical, (0, 0), 2)),
    ]
    for c, f, M in cases:
        assert check_relations(c, f, M).passed


def test_relation_check_keeps_no_word_products(a2, f_classical):
    """The word products that check_relations computes do not outlive the
    call: a built simple holds none, and a module keeps only its own."""
    M = build_simple(a2, f_classical, (2, 1))
    assert M._word_mats == {}
    word = (("y", 0), ("y", 1))
    mat = M.word_matrix(word, (2, 1))
    before = dict(M._word_mats)
    assert before and check_relations(a2, f_classical, M).passed
    assert M._word_mats == before and M.word_matrix(word, (2, 1)) is mat


def test_perturbed_module_fails_with_witness(a1, f_classical):
    M = build_simple(a1, f_classical, (1,))
    bad = perturb_entry(M, "x", 0, (0,), 0, 0, QScalar.one())  # x v0 = 3 v1
    report = check_relations(a1, f_classical, bad)
    assert not report.passed
    names = {name for name, _n, _res in report.witnesses}
    assert any(name.startswith("comm") for name in names)
    # the residual is the off-by-one scalar
    witness = next(w for w in report.witnesses if w[0].startswith("comm"))
    assert any(any(entry for entry in row) for row in witness[2])


def test_empty_module_passes_vacuously(a1, f_classical):
    M = GradedModule.make(1, {}, {}, {})
    assert check_relations(a1, f_classical, M).passed
    assert not is_simple(a1, f_classical, M)


def test_direct_sum_not_simple(a1, f_classical):
    M = GradedModule.make(1, {(0,): 2}, {}, {})
    assert check_relations(a1, f_classical, M).passed
    assert not is_simple(a1, f_classical, M)


def _conjugated(M):
    """M in the basis given by the columns of P_n at each weight n, where
    P_n[i][j] = 2^(j-i) for j >= i; P_n^-1 is 1 on the diagonal and -2 just
    above it."""
    two = QScalar.from_rational(2)
    zero, one = QScalar.zero(), QScalar.one()

    def p(d):
        return tuple(
            tuple(two ** (j - i) if j >= i else zero for j in range(d)) for i in range(d)
        )

    def p_inv(d):
        return tuple(
            tuple(one if j == i else -two if j == i + 1 else zero for j in range(d))
            for i in range(d)
        )

    def conj(table, step):
        out = {}
        for (i, n), mat in table:
            tgt = tuple(x + step if k == i else x for k, x in enumerate(n))
            out[(i, n)] = mat_mul(p_inv(M.dim(tgt)), mat_mul(mat, p(M.dim(n))))
        return out

    return GradedModule.make(
        M.rank, dict(M.dims), conj(M.xmat, 1), conj(M.ymat, -1), M.provenance,
        M.truncated, M.trunc_top, M.trunc_depth,
    )


def _singular_lines(c, M):
    """(weight, vector) for each basis vector of the kernels of all x_i."""
    out = []
    for n, d in M.dims:
        rows = [row for i in range(c.rank) for row in M.matrix(("x", i), n)]
        out.extend((n, v) for v in nullspace(rows, d))
    return out


def test_is_simple_exact_in_non_monomial_bases(a2, f_classical):
    # simple: the adjoint, whose zero weight space is 2-dimensional
    L = _conjugated(build_simple(a2, f_classical, (1, 1), depth_cap=6))
    assert check_relations(a2, f_classical, L).passed
    assert [n for n, _v in _singular_lines(a2, L)] == [(1, 1)]
    assert is_simple(a2, f_classical, L)
    # not simple: with f_i(0) = -1/2 neither y_i v is singular, and the only
    # singular vector below the top lies in the 2-dimensional weight space
    # (-1, -1).  In both bases no coordinate vector lies in the submodule it
    # generates, so closing coordinate vectors never exposes that submodule.
    f = FSpec.affine([list(row) for row in a2.a], [Fraction(-1, 2)] * 2)
    V = truncated_verma(a2, f, (0, 0), 3)
    for M in (V, _conjugated(V)):
        assert check_relations(a2, f, M).passed
        lines = _singular_lines(a2, M)
        assert [n for n, _v in lines] == [(-1, -1), (0, 0)]
        assert sum(1 for x in lines[0][1] if x) == 2  # not a coordinate vector
        assert not is_simple(a2, f, M)


def test_weight_length_validation(a2, f_classical):
    with pytest.raises(ModuleError):
        trivial_module(a2, f_classical, (0,))
    with pytest.raises(ModuleError):
        build_simple(a2, f_classical, (1, 1, 0))
