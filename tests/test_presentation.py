"""Serre relations, f-parameter families, and window instantiation."""

from fractions import Fraction
from itertools import product

import pytest

from schurq import (
    QScalar,
    build_cartan,
    eval_f,
    qint,
    serre_relation,
    un_presentation,
)
from schurq.presentation import (
    FSpec,
    NCPoly,
    PresentationError,
    WindowError,
    instantiate_window,
    path_vertices,
    word_degree,
    word_target,
)


# -- words -----------------------------------------------------------------


def test_word_degree_and_target():
    w = (("x", 0), ("y", 1), ("x", 0))
    assert word_degree(w, 2) == (2, -1)
    assert word_target(w, (0, 0)) == (2, -1)
    # rightmost letter acts first
    assert path_vertices(w, (0, 0)) == [(0, 0), (1, 0), (1, -1), (2, -1)]


def test_ncpoly_rejects_inhomogeneous():
    with pytest.raises(PresentationError):
        NCPoly.make({(("x", 0),): QScalar.one(), (("y", 0),): QScalar.one()})


def test_ncpoly_anchored_arithmetic():
    p = NCPoly.make({(("x", 0),): QScalar.one()}, source=(0,))
    q = NCPoly.make({(("x", 0),): QScalar.one()}, source=(0,))
    assert (p - q).is_zero()
    assert p.target() == (1,)
    with pytest.raises(PresentationError):
        p + NCPoly.make({(("x", 0),): QScalar.one()}, source=(1,))


# -- Serre relations -------------------------------------------------------


def test_a2_serre_relation_shape(a2):
    rel = serre_relation(a2, 0, 1, "x")
    x1, x2 = ("x", 0), ("x", 1)
    terms = dict(rel.terms)
    assert set(terms) == {(x1, x1, x2), (x1, x2, x1), (x2, x1, x1)}
    assert terms[(x1, x1, x2)].is_one()
    assert terms[(x1, x2, x1)] == -qint(2)  # -(q + q^-1)
    assert terms[(x2, x1, x1)].is_one()
    assert rel.multidegree() == (2, 1)
    assert serre_relation(a2, 1, 0, "x").multidegree() == (1, 2)


def test_b2_serre_multidegrees(b2):
    assert serre_relation(b2, 0, 1, "x").multidegree() == (2, 1)
    assert serre_relation(b2, 1, 0, "x").multidegree() == (1, 3)


def test_serre_relation_rejections(a2):
    with pytest.raises(PresentationError):
        serre_relation(a2, 0, 0, "x")
    with pytest.raises(PresentationError):
        serre_relation(a2, 0, 1, "z")


def test_serre_specializes_to_classical_coefficients(a2, b2):
    """At q = 1 the quantum coefficients are the signed binomials."""
    from math import comb

    for c in (a2, b2):
        for i, j in ((0, 1), (1, 0)):
            rel = serre_relation(c, i, j, "x")
            b = c.b(i, j)
            for word, coeff in rel.terms:
                k = 0
                for letter in word:
                    if letter == ("x", i):
                        k += 1
                    else:
                        break
                assert coeff.specialize("one") == (-1) ** k * comb(b, k)


def test_un_presentation(a1, a2):
    assert un_presentation(a1).relations == ()
    pres = un_presentation(a2)
    assert len(pres.relations) == 2
    assert pres.generators == (("x", 0), ("x", 1))
    # deterministic ordering by multidegree
    assert [p.multidegree() for p in pres.relations] == [(1, 2), (2, 1)]


# -- f families ------------------------------------------------------------


def test_eval_f_classical(a1, a2, f_classical):
    # rank 1: f(n) = 2n
    for n in range(-3, 4):
        assert eval_f(f_classical, a1, 0, (n,)) == QScalar.from_rational(2 * n)
    # additivity and antisymmetry of the linear form
    for j in range(2):
        for n in ((1, 0), (0, 1), (2, -1)):
            m = (-1, 3)
            s = tuple(a + b for a, b in zip(n, m))
            assert eval_f(f_classical, a2, j, s) == eval_f(
                f_classical, a2, j, n
            ) + eval_f(f_classical, a2, j, m)
            neg = tuple(-x for x in n)
            assert eval_f(f_classical, a2, j, neg) == -eval_f(f_classical, a2, j, n)


@pytest.mark.parametrize("series", ["B", "C", "G"])
def test_eval_f_pairs_with_the_coroot(series, f_classical, f_qinteger):
    """The built-in families pair n with row j of the Cartan matrix,
    f_j(alpha_k) = a_jk, as the Serre exponents 1 - a_ij do; the literal
    column pairing differs from it for a non-symmetric matrix."""
    c = build_cartan(series, 2)
    assert c.a[0][1] != c.a[1][0]
    for j in range(2):
        for k in range(2):
            alpha = tuple(int(i == k) for i in range(2))
            assert eval_f(f_classical, c, j, alpha) == QScalar.from_rational(c.a[j][k])
            assert eval_f(f_qinteger, c, j, alpha) == qint(c.a[j][k], c.d[j])


def test_eval_f_qinteger(a1, f_qinteger):
    for n in range(-3, 4):
        assert eval_f(f_qinteger, a1, 0, (n,)) == qint(2 * n)
    # pinned point: scalar values
    f1 = FSpec.qinteger("one")
    assert eval_f(f1, a1, 0, (1,)) == QScalar.from_rational(2)
    f3 = FSpec.qinteger(Fraction(3))
    assert eval_f(f3, a1, 0, (1,)) == QScalar.from_rational(qint(2).specialize(3))


def test_eval_f_affine(a1):
    f = FSpec.affine([[2]], [1])
    assert eval_f(f, a1, 0, (0,)) == QScalar.from_rational(1)
    assert eval_f(f, a1, 0, (1,)) == QScalar.from_rational(3)


def test_spec_point():
    assert FSpec.classical().spec_point() == "one"
    assert FSpec.qinteger().spec_point() is None
    assert FSpec.qinteger("one").spec_point() == "one"
    assert FSpec.affine([[2]], [1]).spec_point() == "one"


# -- window instantiation --------------------------------------------------


def test_a1_window_radius_two(a1, f_classical):
    Q = instantiate_window(a1, f_classical, 2)
    assert Q.vertices == tuple((n,) for n in range(-2, 3))
    xs = [a for a in Q.arrows if a[0][0] == "x"]
    ys = [a for a in Q.arrows if a[0][0] == "y"]
    assert len(xs) == 4 and len(ys) == 4
    # commutator relations survive only where both composites stay in the box
    assert [v for (name, v, _p) in Q.relations] == [(-1,), (0,), (1,)]
    assert all(name == "comm[1,1]" for (name, _v, _p) in Q.relations)


def test_a1_window_radius_zero(a1, f_classical):
    Q = instantiate_window(a1, f_classical, 0)
    assert Q.vertices == ((0,),)
    assert Q.arrows == ()
    assert Q.relations == ()


def test_window_rejections(a1, f_classical):
    with pytest.raises(WindowError):
        instantiate_window(a1, f_classical, -1)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_window_monotonicity(a2, f_classical, radius):
    """The larger box, restricted to relations fully inside the smaller box,
    is exactly the smaller box's relation set."""
    small = instantiate_window(a2, f_classical, radius)
    big = instantiate_window(a2, f_classical, radius + 1)

    def inside(poly, r):
        for w, _c in poly.terms:
            for v in path_vertices(w, poly.source):
                if any(abs(x) > r for x in v):
                    return False
        return True

    restricted = [
        (name, v, p) for (name, v, p) in big.relations if inside(p, radius)
    ]
    assert restricted == list(small.relations)


def test_window_deterministic(a2, f_qinteger):
    Q1 = instantiate_window(a2, f_qinteger, 2)
    Q2 = instantiate_window(a2, f_qinteger, 2)
    assert Q1.relations == Q2.relations
    assert Q1.arrows == Q2.arrows


def test_window_serre_coefficients_follow_the_family(a2):
    """Generic-q family keeps quantum coefficients; scalar families are
    specialized at their parameter point."""
    Qgen = instantiate_window(a2, FSpec.qinteger(), 3)
    Qcls = instantiate_window(a2, FSpec.classical(), 3)
    gen_serre = [p for (n, _v, p) in Qgen.relations if n.startswith("serre_x[1,2]")]
    cls_serre = [p for (n, _v, p) in Qcls.relations if n.startswith("serre_x[1,2]")]
    assert gen_serre and cls_serre
    assert any(
        coeff == -qint(2) for _w, coeff in gen_serre[0].terms
    )
    for p in cls_serre:
        for _w, coeff in p.terms:
            assert coeff.is_rational()
            assert coeff in (QScalar.from_rational(1), QScalar.from_rational(-2))


def _per_vertex_window_relations(c, f, radius):
    """The relations of a window built vertex by vertex: every commutator and
    Serre relation anchored at each box vertex and kept when all the vertices
    its words visit lie in the box."""
    r = c.rank
    box = sorted(product(range(-radius, radius + 1), repeat=r))
    inside = set(box)

    def in_box(words, v):
        return all(set(path_vertices(w, v)) <= inside for w in words)

    at = f.spec_point()
    relations = []
    for v in box:
        for i in range(r):
            for j in range(r):
                words = [(("x", i), ("y", j)), (("y", j), ("x", i))]
                if in_box(words, v):
                    terms = {words[0]: QScalar.one(), words[1]: QScalar.from_rational(-1)}
                    if i == j and eval_f(f, c, j, v):
                        terms[()] = -eval_f(f, c, j, v)
                    relations.append(
                        ("comm[%d,%d]" % (i + 1, j + 1), v, NCPoly.make(terms, v, r))
                    )
        for chirality in ("x", "y"):
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    rel = serre_relation(c, i, j, chirality, source=v)
                    if at is not None:
                        rel = rel.map_coeff(
                            lambda s: QScalar.from_rational(s.specialize(at))
                        )
                    if in_box([w for w, _coeff in rel.terms], v):
                        name = "serre_%s[%d,%d]" % (chirality, i + 1, j + 1)
                        relations.append((name, v, rel))
    kind_rank = {"comm": 0, "serre_x": 1, "serre_y": 2}
    relations.sort(key=lambda t: (t[1], kind_rank[t[0].split("[")[0]], t[0]))
    return tuple(relations)


@pytest.mark.parametrize("family", ["classical", "qinteger"])
@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_window_relations_equal_a_per_vertex_build(series, rank, radius, family):
    """Serre relations built once per window and re-anchored at each vertex
    give the relations of a build that makes each one at its vertex."""
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    quiver = instantiate_window(c, f, radius)
    assert quiver.relations == _per_vertex_window_relations(c, f, radius)
