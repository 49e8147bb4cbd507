"""Exact Laurent-fraction scalars, q-integers and Gaussian binomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.qfield import (
    MOD_P,
    MOD_Q0,
    CoefficientOverflowError,
    ModularPoleError,
    QPoleError,
    QScalar,
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


# -- rational constants: built without the general canonical path ----------

rationals = st.one_of(
    small_fractions,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
    ),
).map(QScalar.from_rational)
rational_functions = st.builds(lambda n, d: n / d, laurents, laurents.filter(bool))


def _zmul(a, b):
    """Product of int coefficient tuples (schoolbook)."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _parts(s):
    """The stored triple, after checking every invariant of the canonical form."""
    shift, num, den = s.shift, s.num, s.den
    assert type(shift) is int and type(num) is tuple and type(den) is tuple
    assert all(type(c) is int for c in num + den)
    if not num:
        assert (shift, den) == (0, (1,))
        return (shift, num, den)
    assert num[0] and num[-1] and den[0] and den[-1] > 0
    assert math.gcd(*num, *den) == 1
    assert len(_ref_pgcd(num, den)) == 1  # coprime in Q[q]
    return (shift, num, den)


def _canonical_product(a, b):
    """a * b through the general path, which puts the result in canonical form."""
    if a.is_zero() or b.is_zero():
        return QScalar.zero()
    return QScalar(a.shift + b.shift, _zmul(a.num, b.num), _zmul(a.den, b.den))


@given(c=rationals, other=st.one_of(rationals, laurents, rational_functions))
@settings(max_examples=120, deadline=None)
def test_rational_products_are_canonical(c, other):
    want = _parts(_canonical_product(c, other))
    assert _parts(c * other) == want
    assert _parts(other * c) == want


@given(a=rationals, b=rationals)
@settings(max_examples=80, deadline=None)
def test_rational_sums_are_canonical(a, b):
    def general(sign):
        n = sum(a.num) * b.den[0] + sign * sum(b.num) * a.den[0]
        return QScalar(0, (n,), (a.den[0] * b.den[0],))

    assert _parts(a + b) == _parts(general(1))
    assert _parts(a - b) == _parts(general(-1))


@given(c=rationals, x=points)
@settings(max_examples=40, deadline=None)
def test_rational_specializes_to_itself(c, x):
    _parts(c)
    value = Fraction(c.num[0], c.den[0]) if c.num else 0
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


def test_every_constructor_respects_bit_ceiling():
    big = QScalar.from_rational(2**40)
    wide = QScalar.from_laurent({0: 1, 3: Fraction(1, 2**40)})
    old = set_bit_ceiling(16)
    try:
        for make in (
            lambda: QScalar.from_rational(2**40),
            lambda: QScalar.from_rational(Fraction(1, 2**40)),
            lambda: QScalar.from_laurent({0: 1, 2: 2**40}),
            lambda: QScalar(0, (1, 2**40), (3, 1)),
            lambda: parse_qscalar("q + 1/%d" % 2**40),
            lambda: -big,
            lambda: big.inverse(),
            lambda: wide.bar(),
        ):
            with pytest.raises(CoefficientOverflowError):
                make()
        assert QScalar.from_rational(Fraction(-(2**15), 3)).num == (-(2**15),)
    finally:
        set_bit_ceiling(old)
    assert get_bit_ceiling() == old


# -- oracle: Fraction coefficients over a monic denominator, Euclid over Q --


def _ref_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for i, x in enumerate(p):
            out[i] += x
    return _ref_strip(out)


def _ref_pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_strip(out)


def _ref_pdivmod(a, b):
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
        a.pop()
        a = list(_ref_strip(a))
    return _ref_strip(q), _ref_strip(a)


def _ref_pgcd(a, b):
    """Monic gcd over Q by Euclid."""
    a, b = _ref_strip(a), _ref_strip(b)
    while b:
        a, b = b, _ref_pdivmod(a, b)[1]
    return tuple(Fraction(x) / a[-1] for x in a)


class RefQ:
    """q**shift * num / den with Fraction coefficients, den monic, gcd 1."""

    def __init__(self, shift, num, den):
        num, den = _ref_strip(map(Fraction, num)), _ref_strip(map(Fraction, den))
        if not num:
            shift, num, den = 0, (), (Fraction(1),)
        else:
            while num[0] == 0:
                shift, num = shift + 1, num[1:]
            while den[0] == 0:
                shift, den = shift - 1, den[1:]
            g = _ref_pgcd(num, den)
            num, den = _ref_pdivmod(num, g)[0], _ref_pdivmod(den, g)[0]
            num = tuple(x / den[-1] for x in num)
            den = tuple(x / den[-1] for x in den)
        self.shift, self.num, self.den = shift, num, den

    @staticmethod
    def from_laurent(terms):
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        if not terms:
            return RefQ(0, (), (1,))
        lo = min(terms)
        num = [Fraction(0)] * (max(terms) - lo + 1)
        for e, c in terms.items():
            num[e - lo] = c
        return RefQ(lo, num, (1,))

    def _aligned(self, other):
        s = min(self.shift, other.shift)
        a = (0,) * (self.shift - s) + self.num
        b = (0,) * (other.shift - s) + other.num
        return s, a, b

    def __add__(self, other):
        s, a, b = self._aligned(other)
        num = _ref_padd(_ref_pmul(a, other.den), _ref_pmul(b, self.den))
        return RefQ(s, num, _ref_pmul(self.den, other.den))

    def __neg__(self):
        return RefQ(self.shift, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        num, den = _ref_pmul(self.num, other.num), _ref_pmul(self.den, other.den)
        return RefQ(self.shift + other.shift, num, den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError
        return RefQ(-self.shift, self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def bar(self):
        if not self.num:
            return self
        shift = -self.shift - (len(self.num) - 1) + (len(self.den) - 1)
        return RefQ(shift, self.num[::-1], self.den[::-1])

    def specialize(self, at):
        x = Fraction(1) if at == "one" else Fraction(at)
        if not self.num:
            return Fraction(0)
        ev = lambda p: sum(c * x**i for i, c in enumerate(p))  # noqa: E731
        d = ev(self.den)
        if d == 0:
            raise QPoleError
        if x == 0:
            if self.shift < 0:
                raise QPoleError
            return (self.num[0] if self.shift == 0 else 0) / d
        return x**self.shift * ev(self.num) / d

    def render(self):
        if not self.num:
            return "0"
        ntext = _ref_text(self.shift, self.num)
        if self.den == (1,):
            return ntext
        return "(%s)/(%s)" % (ntext, _ref_text(0, self.den))


def _ref_text(shift, coeffs):
    out = ""
    for e, c in enumerate(coeffs, shift):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if e == 0 else ("q" if e == 1 else "q^%d" % e)
        if e != 0 and mag != 1:
            body = "%s*%s" % (mag, body)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += " %s %s" % ("-" if c < 0 else "+", body)
    return out


def _ref_qint(m, d=1):
    sign = -1 if m < 0 else 1
    m = abs(m)
    return RefQ.from_laurent({d * (2 * t - m + 1): sign for t in range(m)})


def _ref_qbinom(n, k, d=1):
    acc = RefQ(0, (1,), (1,))
    for t in range(1, k + 1):
        acc = acc * _ref_qint(n - k + t, d) / _ref_qint(t, d)
    return acc


wide_fractions = st.one_of(
    small_fractions,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**12),
    ),
)
laurent_terms = st.dictionaries(
    st.integers(min_value=-3, max_value=3), wide_fractions, max_size=4
)
small_terms = st.dictionaries(
    st.integers(min_value=-2, max_value=2), small_fractions, min_size=1, max_size=3
)


@st.composite
def pairs(draw):
    """The same value built as (QScalar, RefQ) by the same operations.

    Laurent polynomials with rational (up to 40-digit) coefficients, and
    quotients (n * c) / (d * c) whose parts share the factor c and whose
    denominator may lead with a negative coefficient.
    """
    n = draw(laurent_terms)
    x = (QScalar.from_laurent(n), RefQ.from_laurent(n))
    if draw(st.booleans()):
        d = draw(small_terms.filter(lambda t: any(t.values())))
        c = draw(small_terms.filter(lambda t: any(t.values())))
        if draw(st.booleans()):  # a denominator with a negative lead
            top = max(e for e, v in d.items() if v)
            d[top] = -abs(d[top])
        cq, cr = QScalar.from_laurent(c), RefQ.from_laurent(c)
        dq, dr = QScalar.from_laurent(d), RefQ.from_laurent(d)
        x = (x[0] * cq / (dq * cq), x[1] * cr / (dr * cr))
    return x


def _agree(got, ref, points):
    assert got.render() == ref.render()
    for at in points + ["one"]:
        try:
            want = ref.specialize(at)
        except QPoleError:
            with pytest.raises(QPoleError):
                got.specialize(at)
            continue
        value = got.specialize(at)
        assert type(value) is Fraction and value == want
    assert parse_qscalar(got.render()) == got
    _parts(got)


@given(a=pairs(), b=pairs(), pts=st.lists(points, min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_integer_form_matches_fraction_reference(a, b, pts):
    (aq, ar), (bq, br) = a, b
    pts = list(pts) + [Fraction(0)]
    _agree(aq, ar, pts)
    _agree(aq + bq, ar + br, pts)
    _agree(aq - bq, ar - br, pts)
    _agree(aq * bq, ar * br, pts)
    _agree(aq.bar(), ar.bar(), pts)
    if bq:
        _agree(aq / bq, ar / br, pts)
        _agree(bq.inverse(), br.inverse(), pts)
        # equal values built by different operations are equal and hash equal
        again = (aq * bq) / bq
        assert again == aq and hash(again) == hash(aq)
    same = (aq + bq) - bq
    assert same == aq and hash(same) == hash(aq)


def test_qbinom_matches_fraction_reference():
    for d in (1, 2):
        for n in range(0, 7):
            for k in range(0, n + 1):
                _agree(qbinom(n, k, d), _ref_qbinom(n, k, d), [Fraction(2, 3)])


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


# -- the image in Z/p at q0 ------------------------------------------------


def _mod_of(x):
    """A Fraction's image in Z/p."""
    return x.numerator * pow(x.denominator, -1, MOD_P) % MOD_P


def test_mod_point_is_the_image_of_991_over_907():
    assert MOD_Q0 * 907 % MOD_P == 991
    assert QScalar.q_pow(1).modp() == MOD_Q0
    assert QScalar.q_pow(-3).modp() == pow(MOD_Q0, -3, MOD_P)
    assert QScalar.zero().modp() == 0 and QScalar.one().modp() == 1
    assert QScalar.from_rational(-1).modp() == MOD_P - 1
    assert QScalar.from_rational(Fraction(10**40, 3)).modp() == _mod_of(Fraction(10**40, 3))


@given(a=st.one_of(laurents, rational_functions), b=laurents)
@settings(max_examples=80, deadline=None)
def test_modp_is_the_reduction_of_the_value_at_991_over_907(a, b):
    value = a.specialize(Fraction(991, 907))
    assert a.modp() == _mod_of(value)
    assert 0 <= a.modp() < MOD_P
    assert (a + b).modp() == (a.modp() + b.modp()) % MOD_P
    assert (a * b).modp() == a.modp() * b.modp() % MOD_P


def test_modp_denominator_vanishing_mod_p_raises():
    # q - q0 vanishes at q0 in Z/p but is a unit of Q(q)
    for den in ((-MOD_Q0, 1), (MOD_P - MOD_Q0, 1), (-MOD_Q0 - 5 * MOD_P, 1)):
        s = QScalar(2, (1, 1), den)
        assert s.specialize(Fraction(991, 907))  # no pole over Q
        with pytest.raises(ModularPoleError, match="vanishes mod"):
            s.modp()
    with pytest.raises(ModularPoleError):
        QScalar.from_rational(Fraction(3, 7 * MOD_P)).modp()
    assert issubclass(ModularPoleError, QPoleError)
