"""Module constructors, exact relation checking, simplicity certification."""

import hashlib
import json
from fractions import Fraction

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
from schurq import modules as modules_module
from schurq.modules import DepthCapError, GradedModule, ModuleError, perturb_entry
from schurq.presentation import FSpec
from schurq.qfield import QScalar


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


@pytest.fixture
def verma_depths(monkeypatch):
    """The depths build_simple truncates its Vermas at, in call order."""
    depths = []
    real = modules_module.truncated_verma

    def truncated_verma(c, f, top, depth):
        depths.append(depth)
        return real(c, f, top, depth)

    monkeypatch.setattr(modules_module, "truncated_verma", truncated_verma)
    return depths


@pytest.mark.parametrize("key", sorted(SIMPLE_SHA256))
def test_simple_is_the_depth_20_simple(key, verma_depths):
    """The first truncation depth the quotient closes below gives the
    module a depth-20 truncation gives, and the adjoint of sl3 never needs
    a Verma deeper than 8."""
    series, rank, family, n0 = key
    M = build_simple(build_cartan(series, rank), getattr(FSpec, family)(), n0)
    text = json.dumps(M.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMPLE_SHA256[key]
    if n0 == (1, 1):
        assert max(verma_depths) <= 8


def test_depth_cap_error_at_the_last_cap(a1, f_classical, verma_depths):
    with pytest.raises(DepthCapError, match="below depth 5"):
        build_simple(a1, f_classical, (7,), depth_cap=5)
    assert verma_depths == [2, 4, 5]


def test_non_dominant_weight_rejected(a2, f_classical):
    with pytest.raises(ModuleError):
        build_simple(a2, f_classical, (1, 0))


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
