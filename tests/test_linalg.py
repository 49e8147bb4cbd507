"""Fraction-free elimination and spans in linalg against textbook Gauss-Jordan oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.linalg import (
    ModularSpan,
    Subspace,
    mat_rank,
    mat_vec,
    nullspace,
    nullspace_mod,
    solve,
)
from schurq.qfield import (
    MOD_P,
    CoefficientOverflowError,
    QScalar,
    get_bit_ceiling,
    qint,
    set_bit_ceiling,
)

_Z = QScalar.zero()
_O = QScalar.one()
Q = QScalar.q_pow(1)


# -- oracle: Gauss-Jordan over the field, one QScalar operation at a time ---


def _gauss_jordan(rows, ncols):
    out = []
    pivots = []
    for row in rows:
        row = list(row)
        for prow, pcol in zip(out, pivots):
            if row[pcol]:
                f = row[pcol]
                for j in range(ncols):
                    if prow[j]:
                        row[j] = row[j] - f * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        inv = row[lead].inverse()
        row = [x * inv for x in row]
        for prow in out:
            if prow[lead]:
                f = prow[lead]
                for j in range(ncols):
                    if row[j]:
                        prow[j] = prow[j] - f * row[j]
        out.append(row)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda t: pivots[t])
    return [out[t] for t in order], [pivots[t] for t in order]


def oracle_rank(a):
    return len(_gauss_jordan(a, len(a[0]))[1]) if a else 0


def oracle_nullspace(a, ncols):
    if not a:
        return [tuple(_O if j == k else _Z for j in range(ncols)) for k in range(ncols)]
    rows, pivots = _gauss_jordan(a, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [_Z] * ncols
        vec[j] = _O
        for prow, pcol in zip(rows, pivots):
            if prow[j]:
                vec[pcol] = -prow[j]
        basis.append(tuple(vec))
    return basis


def oracle_solve(a, b):
    ncols = len(a[0])
    rows, pivots = _gauss_jordan([list(r) + [bv] for r, bv in zip(a, b)], ncols + 1)
    x = [_Z] * ncols
    for prow, pcol in zip(rows, pivots):
        if pcol == ncols:
            return None
        x[pcol] = prow[ncols]
    return tuple(x)


# -- inputs -----------------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
)
rationals = small_fractions.map(QScalar.from_rational)
laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), small_fractions, min_size=1, max_size=3
).map(QScalar.from_laurent)
quotients = st.builds(lambda n, d: n / d, laurents, laurents.filter(bool))
named = st.sampled_from([qint(2).inverse(), Q / (1 + Q * Q), qint(3) / qint(2), Q.inverse()])
entries = st.one_of(st.just(_Z), st.just(_Z), rationals, laurents, quotients, named)


@st.composite
def matrices(draw, max_rows=3, max_cols=5):
    m = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_cols))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        # a dependent row, so the kernel does not only come from n > m
        c0, c1 = draw(entries), draw(entries)
        rows.append([c0 * x + c1 * y for x, y in zip(rows[0], rows[-1])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [_Z] * n)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        rows = [r[:k] + [_Z] + r[k + 1 :] for r in rows]
    return tuple(tuple(r) for r in rows)


# -- properties ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_nullspace_matches_oracle(a):
    assert nullspace(a) == oracle_nullspace(a, len(a[0]))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_matches_oracle(a):
    assert mat_rank(a) == oracle_rank(a)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(a, data):
    n = len(a[0])
    if data.draw(st.booleans()):
        x = [data.draw(entries) for _ in range(n)]
        b = mat_vec(a, x)
    else:
        b = tuple(data.draw(entries) for _ in a)
    assert solve(a, b) == oracle_solve(a, b)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(min_value=1, max_value=3), st.data())
def test_solve_columns_together_as_one_by_one(a, k, data):
    """A matrix right-hand side is solved column by column in one
    elimination: the solutions are the oracle's, or None when any column is
    inconsistent."""
    n = len(a[0])
    cols = []
    for _ in range(k):
        if data.draw(st.booleans()):
            cols.append(mat_vec(a, [data.draw(entries) for _ in range(n)]))
        else:
            cols.append(tuple(data.draw(entries) for _ in a))
    sols = [oracle_solve(a, col) for col in cols]
    want = None if None in sols else tuple(zip(*sols))
    assert solve(a, tuple(zip(*cols))) == want


@settings(max_examples=40, deadline=None)
@given(matrices(max_cols=4), st.integers(min_value=0, max_value=4))
def test_ncols_override_uses_leading_columns(a, ncols):
    ncols = min(ncols, len(a[0]))
    assert nullspace(a, ncols) == oracle_nullspace([r[:ncols] for r in a], ncols)


# -- frozen examples ------------------------------------------------------------


def test_empty_matrix():
    assert nullspace([]) == []
    assert nullspace([], 2) == [(_O, _Z), (_Z, _O)]
    assert nullspace((), 0) == []
    assert mat_rank(()) == 0
    assert solve((), ()) == ()
    assert solve((), (_Z,)) == ()
    assert solve((), (_O,)) is None


def test_zero_rows_and_columns():
    a = ((_Z, _Z, _Z), (_Z, Q, _Z), (_Z, _Z, _Z))
    assert mat_rank(a) == 1
    assert nullspace(a) == [(_O, _Z, _Z), (_Z, _Z, _O)]
    assert nullspace(((_Z, _Z),)) == [(_O, _Z), (_Z, _O)]


def test_rational_function_entries_clear_to_the_oracle():
    half = qint(2).inverse()
    a = (
        (half, Q / (1 + Q * Q), QScalar.q_pow(-2)),
        (_O, qint(3) / qint(2), 1 + Q),
    )
    assert nullspace(a) == oracle_nullspace(a, 3)
    assert nullspace(a)[0][2] == _O


def test_inconsistent_solve_is_none():
    a = ((_O, Q), (QScalar.from_rational(2), 2 * Q))
    assert solve(a, (_O, QScalar.from_rational(3))) is None
    assert solve(a, (_O, QScalar.from_rational(2))) == (_O, _Z)


def test_laurent_kernel_is_canonical():
    # q^-1 x + [2] y = 0  =>  x = -q [2] y = -(q^2 + 1) y
    (vec,) = nullspace(((Q.inverse(), qint(2)),))
    assert vec == (-(Q * Q + 1), _O)
    assert vec[0].shift == 0 and vec[0].den == (1,)


def test_bit_ceiling_applies_to_elimination():
    r = QScalar.from_rational
    # each input trips exactly one check at a 16-bit ceiling: a 41-bit entry
    # of a cleared row, a 20-bit Bareiss product, a 19-bit back-substitution
    # numerator; the content of a cleared row is divided out first
    cleared = ((r(2**40 + 1), _O),)
    product = ((r(1000), Q, _O), (r(999), r(1000), Q))
    numerator = ((r(512), r(511)),)
    old = set_bit_ceiling(16)
    try:
        with pytest.raises(CoefficientOverflowError):
            mat_rank(cleared)
        with pytest.raises(CoefficientOverflowError):
            mat_rank(product)
        with pytest.raises(CoefficientOverflowError):
            nullspace(numerator)
    finally:
        set_bit_ceiling(old)
    assert get_bit_ceiling() == old
    for a in (cleared, product, numerator):
        assert nullspace(a) == oracle_nullspace(a, len(a[0]))


# -- Subspace against incremental Gauss-Jordan over Fraction ------------------


def _q(vec):
    """A row over Q as QScalar entries, as ``rootdata`` feeds ``Subspace``."""
    return [QScalar.from_rational(x) for x in vec]


def _f(vec):
    """QScalar entries read back as Fractions, as ``rootdata`` reads them."""
    return [x.specialize("one") for x in vec]



class FractionSpan:
    """Oracle: incremental Gauss-Jordan over Fraction, rows kept fully reduced."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = [Fraction(x) for x in vec]
        for prow, pcol in zip(self.rows, self.pivots):
            f = vec[pcol]
            if f:
                vec = [x - f * y for x, y in zip(vec, prow)]
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        vec = self.reduce(vec)
        lead = next((j for j in range(self.ncols) if vec[j]), None)
        if lead is None:
            return False
        vec = [x / vec[lead] for x in vec]
        for k, prow in enumerate(self.rows):
            f = prow[lead]
            if f:
                self.rows[k] = [x - f * y for x, y in zip(prow, vec)]
        self.rows.append(vec)
        self.pivots.append(lead)
        return True


span_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**20), max_value=10**20),
        st.integers(min_value=1, max_value=10**12),
    ),
    small_fractions,
)


@st.composite
def span_vectors(draw, max_cols=6, max_vecs=9):
    """Vectors with zero vectors, scaled copies and combinations of earlier ones."""
    n = draw(st.integers(min_value=1, max_value=max_cols))
    vecs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_vecs))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "scaled", "combination"]))
        if kind == "zero" or (kind != "fresh" and not vecs):
            vec = [0] * n
        elif kind == "scaled":
            c = draw(span_entries.filter(bool))
            vec = [c * x for x in draw(st.sampled_from(vecs))]
        elif kind == "combination":
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            c0, c1 = draw(span_entries), draw(span_entries)
            vec = [c0 * x + c1 * y for x, y in zip(a, b)]
        else:
            vec = [draw(span_entries) for _ in range(n)]
        vecs.append(vec)
    return n, vecs


@settings(max_examples=150, deadline=None)
@given(span_vectors(), st.data())
def test_subspace_matches_fraction_oracle(case, data):
    n, vecs = case
    span, oracle = Subspace(n), FractionSpan(n)
    for vec in vecs:
        probe = data.draw(st.sampled_from(vecs))
        assert span.contains(_q(probe)) == oracle.contains(probe)
        reduced = span.reduce(_q(probe))
        assert all(x.is_rational() for x in reduced)
        assert _f(reduced) == oracle.reduce(probe)
        assert span.add(_q(vec)) == oracle.add(vec)
        assert span.pivots == oracle.pivots
        assert not any(span.reduce(_q(vec)))
    for vec in vecs:
        assert span.contains(_q(vec))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_subspace_dim_is_bareiss_rank(a):
    """Rows of Laurent polynomials and quotients in q: after each row the
    span's dimension is the Bareiss rank of the rows added so far."""
    span = Subspace(len(a[0]))
    for k, row in enumerate(a):
        grew = span.add(row)
        assert span.dim == mat_rank(a[: k + 1])
        assert grew == (span.dim == mat_rank(a[:k]) + 1)
        assert span.contains(row)


def test_subspace_edges():
    span = Subspace(3)
    assert not span.add(_q([0, 0, 0]))
    assert span.pivots == []
    assert _f(span.reduce(_q([Fraction(1, 3), 0, -2]))) == [Fraction(1, 3), 0, -2]
    assert span.add(_q([0, Fraction(-2, 3), 4]))
    assert not span.add(_q([0, 10**50, -6 * 10**50]))  # a scaled copy
    assert span.contains(_q([0, 1, -6])) and not span.contains(_q([1, 1, -6]))
    assert span.add(_q([5, 1, 0]))
    assert span.pivots == [1, 0]
    assert _f(span.reduce(_q([0, 0, 1]))) == [0, 0, 1]
    assert _f(span.reduce(_q([1, 0, 0]))) == [0, 0, Fraction(-6, 5)]


# -- ModularSpan against Subspace on small integer matrices -------------------

small_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n),
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=200, deadline=None)
@given(small_rows, st.data())
def test_modular_span_matches_subspace(rows, data):
    """Entries |x| <= 9 in at most 6 x 6 keep every minor below p in absolute
    value (Hadamard), so the rank mod p of every prefix is the rank over Q."""
    n = len(rows[0])
    mod, exact = ModularSpan(n), Subspace(n)
    seen = []
    for row in rows:
        if seen and data.draw(st.booleans()):
            row = [-x for x in data.draw(st.sampled_from(seen))]  # a repeat
        seen.append(row)
        assert mod.add(row) == exact.add(_q(row))
        assert mod.dim == exact.dim
        assert mod.pivots == exact.pivots


def test_modular_span_edges():
    span = ModularSpan(3)
    assert not span.add([0, 0, 0])
    assert not span.add([MOD_P, 0, -2 * MOD_P])  # zero mod p
    assert span.dim == 0
    assert span.add([0, 2, 4])
    assert span._rows == {1: {1: 1, 2: 2}}  # pivot 1
    assert not span.add([0, -5 + MOD_P, -10])
    assert span.add([3, 1, 0])
    assert span.pivots == [1, 0]
    # fully reduced: zero at the other pivot, entries in [0, p)
    assert span._rows[0] == {0: 1, 2: (-2 * pow(3, -1, MOD_P)) % MOD_P}
    assert span.add([0, 0, 1]) and span.dim == 3
    assert span._rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def test_modular_span_residual():
    """add_residual returns the vector reduced by the rows so far with its
    pivot scaled to 1, as a copy that later insertions leave alone."""
    span = ModularSpan(3)
    assert span.add_residual([0, 0, MOD_P]) is None
    first = span.add_residual([0, 2, 4])
    assert first == {1: 1, 2: 2}
    second = span.add_residual([0, 3, 7])  # minus 3 times the first row
    assert second == {2: 1}
    assert first == {1: 1, 2: 2} and span._rows[1] == {1: 1}
    assert span.add_residual([0, 5, 5]) is None and span.dim == 2


# -- kernels mod p against the image of the exact kernel ----------------------

integer_matrices = small_rows.map(
    lambda rows: tuple(tuple(QScalar.from_rational(x) for x in r) for r in rows)
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_matrices, matrices(max_rows=4, max_cols=6)))
def test_nullspace_mod_is_the_image_of_nullspace(a):
    """On small integer and Laurent-in-q matrices the echelon pivots mod p at
    q0 are those over Q(q), so the two normal-form bases agree mod p."""
    n = len(a[0])
    want = [[x.modp() for x in vec] for vec in nullspace(a, n)]
    assert nullspace_mod([[x.modp() for x in row] for row in a], n) == want


def test_nullspace_mod_edges():
    assert nullspace_mod([], 2) == [[1, 0], [0, 1]]
    assert nullspace_mod([[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # entries are read mod p: the second column is zero, the third is 2
    (vec,) = nullspace_mod([[1, MOD_P, 0], [0, 0, 2 + MOD_P]], 3)
    assert vec == [0, 1, 0]
    # x + 2y - z = 0: y and z free, x = -2y + z
    assert nullspace_mod([[1, 2, -1]], 3) == [[MOD_P - 2, 1, 0], [1, 0, 1]]
