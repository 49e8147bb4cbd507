"""Exact Laurent-fraction scalars, q-integers and Gaussian binomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.qfield import (
    CoefficientOverflowError,
    QPoleError,
    QScalar,
    _padd,
    _pmul,
    get_bit_ceiling,
    parse_qscalar,
    qbinom,
    qint,
    set_bit_ceiling,
    specialize,
)

# small Laurent polynomials as hypothesis inputs
small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)

laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    small_fractions,
    max_size=4,
).map(QScalar.from_laurent)

points = st.builds(
    Fraction,
    st.integers(min_value=-7, max_value=7).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=5),
)


# -- frozen example values -------------------------------------------------


def test_qint_two_is_q_plus_qinv():
    assert qint(2) == QScalar.from_laurent({1: 1, -1: 1})


def test_qint_zero_one_negative():
    assert qint(0).is_zero()
    assert qint(1).is_one()
    assert qint(-3) == -qint(3)


def test_qint_base_exponent():
    # [2] at base q^2 = q^2 + q^-2
    assert qint(2, 2) == QScalar.from_laurent({2: 1, -2: 1})
    with pytest.raises(ValueError):
        qint(2, 0)


def test_qbinom_three_choose_one():
    assert qbinom(3, 1) == qint(3)
    assert qbinom(3, 1) == QScalar.from_laurent({2: 1, 0: 1, -2: 1})


def test_qbinom_edges():
    assert qbinom(5, 0).is_one()
    assert qbinom(5, 5).is_one()
    assert qbinom(5, 6).is_zero()
    assert qbinom(5, -1).is_zero()
    with pytest.raises(ValueError):
        qbinom(-1, 0)


def test_specialize_example():
    assert specialize(qint(2), 2) == Fraction(5, 2)
    assert qint(2).specialize("one") == 2


def test_specialize_pole():
    s = QScalar.one() / (qint(2) - QScalar.from_rational(2))
    with pytest.raises(QPoleError):
        s.specialize("one")
    with pytest.raises(QPoleError):
        QScalar.q_pow(-1).specialize(0)


# -- q-Pascal, symmetry, bar invariance (n <= 8) ---------------------------


def test_q_pascal_identities():
    for n in range(1, 9):
        for k in range(0, n + 1):
            lhs = qbinom(n, k)
            assert lhs == QScalar.q_pow(k) * qbinom(n - 1, k) + QScalar.q_pow(
                k - n
            ) * qbinom(n - 1, k - 1)
            assert lhs == QScalar.q_pow(-k) * qbinom(n - 1, k) + QScalar.q_pow(
                n - k
            ) * qbinom(n - 1, k - 1)


def test_qbinom_symmetry_and_bar_invariance():
    for n in range(0, 9):
        for k in range(0, n + 1):
            b = qbinom(n, k)
            assert b == qbinom(n, n - k)
            assert b.bar() == b  # invariant under q -> q^-1
            assert b.den == (1,)  # a Laurent polynomial


def test_qbinom_specializes_to_binomial():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qbinom(n, k).specialize("one") == math.comb(n, k)


def test_qint_bar_and_specialization():
    for m in range(-8, 9):
        for d in (1, 2, 3):
            v = qint(m, d)
            assert v.bar() == v
            assert v.specialize("one") == m


# -- field axioms and specialization homomorphism (hypothesis) -------------


@given(a=laurents, b=laurents, c=laurents)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QScalar.zero() == a
    assert a * QScalar.one() == a
    assert (a - a).is_zero()


@given(a=laurents)
@settings(max_examples=40, deadline=None)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert (a * a.inverse()).is_one()


@given(a=laurents, b=laurents, x=points)
@settings(max_examples=60, deadline=None)
def test_specialize_is_a_homomorphism(a, b, x):
    assert (a + b).specialize(x) == a.specialize(x) + b.specialize(x)
    assert (a * b).specialize(x) == a.specialize(x) * b.specialize(x)


@given(a=laurents)
@settings(max_examples=40, deadline=None)
def test_bar_is_an_involution(a):
    assert a.bar().bar() == a


# -- rational constants: built without _canonical ---------------------------

rationals = st.one_of(
    small_fractions,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
    ),
).map(QScalar.from_rational)
rational_functions = st.builds(lambda n, d: n / d, laurents, laurents.filter(bool))


def _parts(s):
    assert all(type(c) is Fraction for c in s.num + s.den)
    return (s.shift, s.num, s.den)


def _canonical_product(a, b):
    """a * b through the general path, which puts the result in canonical form."""
    if a.is_zero() or b.is_zero():
        return QScalar.zero()
    return QScalar(a.shift + b.shift, _pmul(a.num, b.num), _pmul(a.den, b.den))


@given(c=rationals, other=st.one_of(rationals, laurents, rational_functions))
@settings(max_examples=120, deadline=None)
def test_rational_products_are_canonical(c, other):
    want = _parts(_canonical_product(c, other))
    assert _parts(c * other) == want
    assert _parts(other * c) == want


@given(a=rationals, b=rationals)
@settings(max_examples=80, deadline=None)
def test_rational_sums_are_canonical(a, b):
    want = QScalar(0, _padd(a.num, b.num), (1,))
    assert _parts(a + b) == _parts(want)
    assert _parts(a - b) == _parts(QScalar(0, _padd(a.num, (-b).num), (1,)))


@given(c=rationals, x=points)
@settings(max_examples=40, deadline=None)
def test_rational_specializes_to_itself(c, x):
    value = c.num[0] if c.num else 0
    assert c.specialize(x) == value
    assert c.specialize("one") == value


def test_rational_fast_path_respects_bit_ceiling():
    r = QScalar.from_rational
    big = r(2**20)  # 21 bits
    old = set_bit_ceiling(16)
    try:
        assert _parts(r(3) * r(5)) == _parts(r(15))
        for make in (
            lambda: big * r(3),
            lambda: r(3) * big,
            lambda: big * (QScalar.one() + QScalar.q_pow(1)),
            lambda: qint(2).inverse() * big,
            lambda: big + r(1),
        ):
            with pytest.raises(CoefficientOverflowError):
                make()
    finally:
        set_bit_ceiling(old)
    assert get_bit_ceiling() == old


# -- text grammar round-trip ----------------------------------------------


@given(a=laurents, b=laurents)
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(a, b):
    s = a
    if not b.is_zero():
        s = a / b
    assert parse_qscalar(s.render()) == s


def test_parse_examples():
    assert parse_qscalar("q + q^-1") == qint(2)
    assert parse_qscalar("0").is_zero()
    assert parse_qscalar("-q^2 + 3/2") == QScalar.from_laurent(
        {2: -1, 0: Fraction(3, 2)}
    )
    with pytest.raises(ValueError):
        parse_qscalar("q + +")
