"""Exact arithmetic in the field Q(q) of rational functions of the quantum parameter.

Scalars are kept in a canonical form over the integers:
value = q**shift * num(q) / den(q), where num and den are tuples of Python
ints (index = exponent) with nonzero constant and leading coefficients,
coprime in Q[q], with joint integer content gcd(*num, *den) = 1 and a
positive leading coefficient den[-1]; zero is (0, (), (1,)).  The form is
unique, so equality of values is equality of the triples and QScalar is
hashable and usable as a dict key.

Each operation picks its path from the structure of its operands.  Integer
Laurent polynomials (den == (1,)) add and multiply with no gcd at all: only
zero ends are stripped.  Constant denominators take one integer content gcd.
Non-constant denominators take polynomial gcds over Z[q] by the primitive
polynomial remainder sequence (Geddes, Czapor and Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 7) and exact divisions.  ``linalg`` runs its
fraction-free elimination on the same Z[q] kernel (``_zmul``, ``_zsub``,
``_zdiv``).

``fractions.Fraction`` appears only at the boundaries: ``from_rational`` and
``from_laurent`` read rationals by numerator and denominator, ``specialize``
returns one, ``render`` prints each coefficient as ``Fraction(c, den[-1])``
(the coefficient of the monic-denominator form, so the text does not depend
on the integer scaling) and ``parse_qscalar`` reads that text back.

``modp`` maps a scalar to its image in Z/p at q = q0 for the fixed word-size
prime ``MOD_P`` and point ``MOD_Q0``: Horner mod p on num and den and one
modular inverse.  Where the denominator vanishes mod p it raises
ModularPoleError instead of returning a value.

``pack`` is the other ring map, Kronecker substitution (Kronecker 1882;
Harvey, *J. Symbolic Comput.* 44, 2009): an integer Laurent polynomial
q**shift * num(q) maps to the int ``num(2**PACK_BITS)``, with an upper
bound on the L1 norm of num, and ``unpack`` reads the polynomial back from
the signed base-2**PACK_BITS digits of that int.  While the bound of a
value is below ``PACK_LIMIT`` every coefficient of num is too, so the
digits are exactly the coefficients and the int is zero exactly when the
value is.  A product of packed values is one int product, with the bounds
multiplied; a sum aligns the shifts by shifting one int left by
PACK_BITS per power of q, with the bounds added.

Values whose denominators are all powers of one integer polynomial D pack
too (``PackedDen``): q**shift * num(q) / D**e is num packed as above, with
the int key shift + e * PACK_EXP in place of the shift.  A product adds
the keys, so the exponents add and no gcd is taken; a sum of two exponents
first multiplies the int of the lower one by the packed power of D, and
its bound by the power of the L1 norm of D.  ``PackedDen.unpack`` divides
by D**e on QScalar once, where the value leaves the packed form.

The bit ceiling (``set_bit_ceiling``) bounds the bit length of every integer
stored in the primitive num and den; every construction path checks it and
raises CoefficientOverflowError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
import re

__all__ = [
    "QScalar",
    "QArithmeticError",
    "QPoleError",
    "ModularPoleError",
    "CoefficientOverflowError",
    "MOD_P",
    "MOD_Q0",
    "PACK_BITS",
    "PACK_LIMIT",
    "PACK_SHIFT",
    "PACK_EXP",
    "PackedDen",
    "pack_over",
    "unpack",
    "qint",
    "qbinom",
    "specialize",
    "parse_qscalar",
    "set_bit_ceiling",
    "get_bit_ceiling",
]


class QArithmeticError(ArithmeticError):
    pass


class QPoleError(QArithmeticError):
    """Raised when a scalar is evaluated at a pole."""


class ModularPoleError(QPoleError):
    """Raised when a scalar's denominator vanishes mod MOD_P at q = MOD_Q0."""


class CoefficientOverflowError(QArithmeticError):
    """Raised when a stored integer coefficient exceeds the configured bit ceiling."""


# The word-size prime and the point of Z/p at which ``QScalar.modp`` evaluates:
# q0 is the image of 991/907.
MOD_P = 2**31 - 1
MOD_Q0 = 991 * pow(907, -1, MOD_P) % MOD_P


# Kronecker substitution: packed values are polynomials evaluated at
# q = 2**PACK_BITS, exact while their L1-norm bound is below PACK_LIMIT.
# A packed value q**k * num / D**e keeps k and e in one int key,
# k + e * PACK_EXP.  Only shifts below PACK_SHIFT = 2**24 in absolute value
# are packed, and a product adds two of them, so the shift of a key stays
# below PACK_EXP / 4 = 2**94 for 2**70 rewrites: two keys of one exponent
# differ by less than PACK_EXP / 2, and two of different exponents by more.
PACK_BITS = 64
PACK_LIMIT = 1 << (PACK_BITS - 1)
PACK_SHIFT = 1 << 24
_MIN_SHIFT = -PACK_SHIFT
_EXP_BITS = 96
PACK_EXP = 1 << _EXP_BITS
_PACK_MASK = (1 << PACK_BITS) - 1
_PACK_BASE = 1 << PACK_BITS


_BIT_CEILING = 1_000_000


def set_bit_ceiling(bits):
    """Set the global guard on coefficient size.  Returns the previous value."""
    global _BIT_CEILING
    old = _BIT_CEILING
    _BIT_CEILING = int(bits)
    return old


def get_bit_ceiling():
    return _BIT_CEILING


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z
# int coefficient sequences, index = exponent; results are lists
# ---------------------------------------------------------------------------


def _zstrip(p):
    """Drop trailing zeros from a list in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b) :])
    return _zstrip(out)


def _zsub(a, b):
    out = [x - y for x, y in zip(a, b)]
    if len(a) < len(b):
        out.extend(-y for y in b[len(a) :])
    else:
        out.extend(a[len(b) :])
    return _zstrip(out)


def _zmul(a, b):
    if len(a) == 1:
        c = a[0]
        return [c * y for y in b]
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _zdiv(a, b):
    """Exact quotient a / b in Z[q]; a nonzero remainder is an internal error."""
    lb = len(b)
    if lb == 1:
        c = b[0]
        if c == 1:
            return list(a)
        out = []
        for x in a:
            t, r = divmod(x, c)
            if r:
                raise ArithmeticError("inexact fraction-free division")
            out.append(t)
        return out
    rem = list(a)
    lead = b[-1]
    body = b[:-1]
    quo = [0] * (len(a) - lb + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + lb - 1]
        if c:
            c, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact fraction-free division")
            quo[k] = c
            for j, y in enumerate(body, k):
                rem[j] -= c * y
    if any(rem[: lb - 1]):
        raise ArithmeticError("inexact fraction-free division")
    return quo


def _zprim(p):
    """The primitive part of a nonzero p, with a positive leading coefficient."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [x // g for x in p] if g != 1 else list(p)


def _zprem(a, b):
    """The remainder of a by b times a nonzero integer (sparse pseudo-division)."""
    r = list(a)
    n = len(b)
    lb = b[-1]
    body = b[:-1]
    while len(r) >= n:
        c = r[-1]
        g = gcd(c, lb)
        m, c = lb // g, c // g
        if m != 1:
            r = [m * x for x in r]
        r.pop()
        for j, y in enumerate(body, len(r) - n + 1):
            r[j] -= c * y
        _zstrip(r)
    return r


def _zgcd(a, b):
    """The primitive gcd of nonzero a and b in Z[q], positive leading coefficient.

    Primitive polynomial remainder sequence: each pseudo-remainder is
    replaced by its primitive part, which keeps the coefficients small.
    """
    if len(a) < len(b):
        a, b = b, a
    b = _zprim(b)
    while len(b) > 1:
        r = _zprem(a, b)
        if not r:
            return b
        a, b = b, _zprim(r)
    return [1]


# ---------------------------------------------------------------------------
# QScalar
# ---------------------------------------------------------------------------

_D1 = (1,)


class QScalar:
    __slots__ = ("shift", "num", "den", "_hash")

    def __new__(cls, shift, num, den):
        """The scalar q**shift * num / den for int coefficient sequences num, den."""
        return _canonical(shift, num, den)

    def __setattr__(self, *a):
        raise AttributeError("QScalar is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero():
        return _QZERO

    @staticmethod
    def one():
        return _QONE

    @staticmethod
    def from_rational(x):
        if type(x) is not int:
            x = Fraction(x)
            n, d = x.numerator, x.denominator
        else:
            n, d = x, 1
        if not n:
            return _QZERO
        return _build(0, (n,), (d,) if d != 1 else _D1)

    @staticmethod
    def q_pow(k):
        return _build(int(k), _D1, _D1)

    @staticmethod
    def from_laurent(terms):
        """Build from a {exponent: int or Fraction coefficient} mapping."""
        terms = {int(e): c for e, c in terms.items() if c}
        if not terms:
            return _QZERO
        d = lcm(*(c.denominator for c in terms.values()))
        lo = min(terms)
        num = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            num[e - lo] = c.numerator * (d // c.denominator)
        if d == 1:
            return _build(lo, tuple(num), _D1)
        return _finish(lo, num, [d])

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.shift == 0 and self.num == _D1 and self.den == _D1

    def is_rational(self):
        return len(self.den) == 1 and (
            not self.num or (self.shift == 0 and len(self.num) == 1)
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        num = self.num
        if not num:
            return self
        if len(num) == 1:
            return _build(self.shift, (-num[0],), self.den)
        return _build(self.shift, tuple([-x for x in num]), self.den)

    def __sub__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, True)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, self, True)

    def __mul__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return _QZERO
        return _mul(
            self.shift, self.num, self.den, other.shift, other.num, other.den
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            raise ZeroDivisionError("QScalar division by zero")
        if not self.num:
            return _QZERO
        num, den = other.den, other.num
        if den[-1] < 0:
            num = tuple([-x for x in num])
            den = tuple([-x for x in den])
        elif den == _D1:
            den = _D1
        return _mul(self.shift, self.num, self.den, -other.shift, num, den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        num, den = self.den, self.num
        if not den:
            raise ZeroDivisionError("QScalar division by zero")
        if den[-1] < 0:
            num = tuple([-x for x in num])
            den = tuple([-x for x in den])
        return _build(-self.shift, num, den)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        acc = _QONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def bar(self):
        """The bar involution q -> q^-1."""
        num, den = self.num, self.den
        if not num:
            return self
        shift = -self.shift - (len(num) - 1) + (len(den) - 1)
        num, den = num[::-1], den[::-1]
        if den[-1] < 0:
            num = tuple([-x for x in num])
            den = tuple([-x for x in den])
        return _build(shift, num, den)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.shift == other.shift
            and self.num == other.num
            and self.den == other.den
        )

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.shift, self.num, self.den))
            _set_hash(self, h)
            return h

    # -- evaluation ----------------------------------------------------

    def specialize(self, at):
        """Exact evaluation at a rational point, or at="one" for q = 1.

        Numerator and denominator are evaluated by homogeneous integer
        Horner at x = p/r; one Fraction is formed at the end.
        """
        if at == "one":
            p, r = 1, 1
        else:
            x = Fraction(at)
            p, r = x.numerator, x.denominator
        num, den, shift = self.num, self.den, self.shift
        if not num:
            return Fraction(0)
        if shift == 0 and len(num) == 1 and len(den) == 1:
            return Fraction(num[0], den[0])
        d = _hom_eval(den, p, r)
        if d == 0:
            raise QPoleError("pole at q = %s" % Fraction(p, r))
        if p == 0:
            if shift < 0:
                raise QPoleError("pole at q = 0")
            return Fraction(num[0] if shift == 0 else 0, den[0])
        n = _hom_eval(num, p, r)
        # (p/r)**shift * (n / r**(len(num)-1)) / (d / r**(len(den)-1))
        if shift > 0:
            n *= p**shift
        elif shift < 0:
            d *= p ** (-shift)
        e = len(den) - len(num) - shift
        if e > 0:
            n *= r**e
        elif e < 0:
            d *= r ** (-e)
        return Fraction(n, d)

    def modp(self):
        """The image of the scalar in Z/p at q = q0 (MOD_P, MOD_Q0), in [0, p).

        Raises ModularPoleError where the denominator vanishes mod p.
        """
        num, den, shift = self.num, self.den, self.shift
        if not num:
            return 0
        if len(den) == 1:
            d = den[0] % MOD_P
            if d == 0:
                raise ModularPoleError("denominator %d vanishes mod %d" % (den[0], MOD_P))
        else:
            d = _mod_eval(den)
            if d == 0:
                raise ModularPoleError(
                    "denominator %s vanishes mod %d at q = %d"
                    % (_laurent_text(0, den, 1), MOD_P, MOD_Q0)
                )
        n = num[0] % MOD_P if len(num) == 1 else _mod_eval(num)
        if shift:
            n = n * pow(MOD_Q0, shift, MOD_P)
        if d != 1:
            n = n * pow(d, -1, MOD_P)
        return n % MOD_P

    def pack(self, den=_D1):
        """The image at q = 2**PACK_BITS of the numerator, as
        ``(num(2**PACK_BITS), key, L1 norm of num)``: the key is the shift
        for an integer Laurent polynomial and the shift plus PACK_EXP for a
        scalar over ``den``.  None where the denominator is neither 1 nor
        den, or the shift is not below PACK_SHIFT in absolute value.
        ``unpack`` and ``PackedDen.unpack`` read it back."""
        shift = self.shift
        if not _MIN_SHIFT < shift < PACK_SHIFT:
            return None
        if self.den is not _D1:
            if self.den != den:
                return None
            shift += PACK_EXP
        num = self.num
        if len(num) == 1:
            x = num[0]
            return x, shift, abs(x)
        packed = 0
        for x in reversed(num):
            packed = (packed << PACK_BITS) + x
        return packed, shift, sum(map(abs, num))

    # -- rendering -----------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        lead = self.den[-1]
        ntext = _laurent_text(self.shift, self.num, lead)
        if len(self.den) == 1:
            return ntext
        dtext = _laurent_text(0, self.den, lead)
        return "(%s)/(%s)" % (ntext, dtext)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "QScalar(%s)" % self.render()


_set_shift = QScalar.shift.__set__
_set_num = QScalar.num.__set__
_set_den = QScalar.den.__set__
_set_hash = QScalar._hash.__set__
_new = object.__new__


def _build(shift, num, den):
    """A QScalar from tuples already in canonical form; checks the bit ceiling."""
    ceiling = _BIT_CEILING
    if len(num) == 1:
        if num[0].bit_length() > ceiling:
            _overflow()
    elif max(num).bit_length() > ceiling or min(num).bit_length() > ceiling:
        _overflow()
    if den is not _D1:
        if den == _D1:
            den = _D1
        elif len(den) == 1:
            if den[0].bit_length() > ceiling:
                _overflow()
        elif max(den).bit_length() > ceiling or min(den).bit_length() > ceiling:
            _overflow()
    x = _new(QScalar)
    _set_shift(x, shift)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _overflow():
    raise CoefficientOverflowError("coefficient exceeds %d-bit ceiling" % _BIT_CEILING)


def _finish(shift, num, den):
    """The QScalar q**shift * num / den for num and den coprime in Q[q] with
    nonzero constant and leading terms: divides out the joint integer content
    and makes den[-1] positive."""
    g = gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num = [x // g for x in num]
        den = [x // g for x in den]
    return _build(shift, tuple(num), tuple(den))


def _canonical(shift, num, den):
    """The QScalar q**shift * num / den for int sequences num and den."""
    num = _zstrip(list(num))
    den = _zstrip(list(den))
    if not den:
        raise ZeroDivisionError("QScalar with zero denominator")
    if not num:
        return _QZERO
    shift = int(shift)
    k = 0
    while not num[k]:
        k += 1
    if k:
        shift += k
        num = num[k:]
    k = 0
    while not den[k]:
        k += 1
    if k:
        shift -= k
        den = den[k:]
    if len(den) > 1 and len(num) > 1:
        g = _zgcd(num, den)
        if len(g) > 1:
            num = _zdiv(num, g)
            den = _zdiv(den, g)
    return _finish(shift, num, den)


def _add(a, b, negate):
    """a + b, or a - b when negate is true."""
    bn = b.num
    if not bn:
        return a
    an = a.num
    if not an:
        return -b if negate else b
    ad, bd = a.den, b.den
    shift, t = a.shift, b.shift
    if shift == t and len(an) == 1 == len(bn) and len(ad) == 1 == len(bd):
        # monomials c q^shift with constant denominators
        n = an[0] * bd[0] - bn[0] * ad[0] if negate else an[0] * bd[0] + bn[0] * ad[0]
        if not n:
            return _QZERO
        if ad is _D1 and bd is _D1:
            return _build(shift, (n,), _D1)
        d = ad[0] * bd[0]
        g = gcd(n, d)
        return _build(shift, (n // g,), (d // g,))
    if shift > t:
        an = (0,) * (shift - t) + an
        shift = t
    elif t > shift:
        bn = (0,) * (t - shift) + bn
    cancel = None  # the only factor of den that num can share
    if ad == bd:
        den = ad
        if len(den) > 1:
            cancel = den
    elif len(ad) == 1 and len(bd) == 1:
        d1, d2 = ad[0], bd[0]
        m = gcd(d1, d2)
        an = [x * (d2 // m) for x in an]
        bn = [x * (d1 // m) for x in bn]
        den = (d1 * (d2 // m),)
    else:
        if len(ad) > 1 and len(bd) > 1:
            g = _zgcd(ad, bd)
            if len(g) > 1:
                ad = _zdiv(ad, g)
                bd = _zdiv(bd, g)
                cancel = g
        # a/b + c/d = (a d' + c b') / (b' d) with b = g b', d = g d'
        an, bn = _zmul(an, bd), _zmul(bn, ad)
        den = _zmul(ad, b.den)
    num = _zsub(an, bn) if negate else _zadd(an, bn)
    if not num:
        return _QZERO
    k = 0
    while not num[k]:
        k += 1
    if k:
        shift += k
        del num[:k]
    if den is _D1:
        return _build(shift, tuple(num), _D1)
    if cancel is not None and len(num) > 1:
        h = _zgcd(num, cancel)
        if len(h) > 1:
            num = _zdiv(num, h)
            den = _zdiv(den, h)
    return _finish(shift, num, den)


def _mul(s, an, ad, t, bn, bd):
    """The product of two nonzero canonical scalars given by their parts."""
    if ad is _D1 and bd is _D1:
        if len(an) == 1 == len(bn):
            return _build(s + t, (an[0] * bn[0],), _D1)
        return _build(s + t, tuple(_zmul(an, bn)), _D1)
    if len(an) == 1 == len(bn) and len(ad) == 1 == len(bd):
        n, d = an[0] * bn[0], ad[0] * bd[0]
        g = gcd(n, d)
        return _build(s + t, (n // g,), (d // g,))
    # num/den stay coprime once each numerator is freed of the other's den
    if len(bd) > 1 and len(an) > 1:
        g = _zgcd(an, bd)
        if len(g) > 1:
            an = _zdiv(an, g)
            bd = _zdiv(bd, g)
    if len(ad) > 1 and len(bn) > 1:
        g = _zgcd(bn, ad)
        if len(g) > 1:
            bn = _zdiv(bn, g)
            ad = _zdiv(ad, g)
    return _finish(s + t, _zmul(an, bn), _zmul(ad, bd))


def _hom_eval(c, p, r):
    """r**(len(c)-1) * c(p/r) as an int: homogeneous Horner."""
    acc = c[-1]
    if r == 1:
        for x in reversed(c[:-1]):
            acc = acc * p + x
        return acc
    rp = r
    for x in reversed(c[:-1]):
        acc = acc * p + x * rp
        rp *= r
    return acc


def _mod_eval(c):
    """c(MOD_Q0) mod MOD_P by Horner."""
    acc = 0
    for x in reversed(c):
        acc = (acc * MOD_Q0 + x) % MOD_P
    return acc


def unpack(packed, shift):
    """The QScalar q**shift * num(q) for the int ``packed = num(2**PACK_BITS)``
    (``QScalar.pack``), where every coefficient of num is below PACK_LIMIT in
    absolute value: num is the signed base-2**PACK_BITS digits of the int."""
    if not packed:
        return _QZERO
    while not packed & _PACK_MASK:
        packed >>= PACK_BITS
        shift += 1
    digits = []
    while packed:
        d = packed & _PACK_MASK
        if d >= PACK_LIMIT:
            d -= _PACK_BASE
        digits.append(d)
        packed = (packed - d) >> PACK_BITS
    return _build(shift, tuple(digits), _D1)


class PackedDen:
    """Packed values over one denominator D, a canonical ``den`` tuple.

    A value q**k * num(q) / D**e is packed as ``(num(2**PACK_BITS),
    k + e * PACK_EXP, bound)`` (``QScalar.pack(den)`` for e = 0 or 1), so a
    product adds the keys and e adds with them.  Two keys of one exponent
    differ by less than PACK_EXP / 2.
    """

    __slots__ = ("den", "_d", "_norm", "_powers")

    def __init__(self, den):
        self.den = den
        self._d = _build(0, tuple(den), _D1)
        packed, _shift, self._norm = self._d.pack()
        self._powers = [1, packed]

    def add(self, p, k, b, op, ok, ob):
        """The sum of the packed values (p, k, b) and (op, ok, ob) of two
        exponents of D: the one of the lower exponent has its int multiplied
        by the packed D**delta and its bound by |D|_1**delta, then the ints
        are aligned on the smaller shift as in a sum of one exponent."""
        if ok < k:
            p, k, b, op, ok, ob = op, ok, ob, p, k, b
        delta = (ok - k + (PACK_EXP >> 1)) >> _EXP_BITS
        powers = self._powers
        while len(powers) <= delta:
            powers.append(powers[-1] * powers[1])
        p *= powers[delta]
        b *= self._norm**delta
        k += delta * PACK_EXP
        if ok < k:
            p, k, op, ok = op, ok, p, k
        return p + (op << PACK_BITS * (ok - k)), k, b + ob

    def unpack(self, packed, key):
        """The QScalar of the packed numerator ``packed`` under ``key``: the
        numerator is read back (``unpack``) and divided by D**e."""
        e = (key + (PACK_EXP >> 1)) >> _EXP_BITS
        x = unpack(packed, key - (e << _EXP_BITS))
        return x / self._d**e if e else x


def pack_over(values, over=None):
    """``(over, [x.pack(D) for x in values])`` for the denominator D of
    ``over``, a PackedDen; where over is None, D is the first denominator
    other than 1 among the values, and over the PackedDen made for it (None
    where every value is integral).  None where a value does not pack."""
    if over is None:
        for x in values:
            if x.den is not _D1:
                over = PackedDen(x.den)
                break
    den = _D1 if over is None else over.den
    packed = [x.pack(den) for x in values]
    if None in packed:
        return None
    return over, packed


def _coerce(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_rational(x)
    return NotImplemented


_QZERO = _new(QScalar)
_set_shift(_QZERO, 0)
_set_num(_QZERO, ())
_set_den(_QZERO, _D1)
_QONE = _build(0, _D1, _D1)


# ---------------------------------------------------------------------------
# q-integers and Gaussian binomials (symmetric convention)
# ---------------------------------------------------------------------------


def qint(m, d=1):
    """Symmetric q-integer [m] at base q**d: (q^(dm) - q^(-dm)) / (q^d - q^(-d))."""
    m = int(m)
    d = int(d)
    if d <= 0:
        raise ValueError("base exponent d must be positive")
    if m == 0:
        return _QZERO
    sign = 1
    if m < 0:
        sign = -1
        m = -m
    terms = {d * (2 * t - m + 1): sign for t in range(m)}
    return QScalar.from_laurent(terms)


def qbinom(n, k, d=1):
    """Gaussian binomial (n choose k) with symmetric q-integers at base q**d."""
    n = int(n)
    k = int(k)
    if n < 0:
        raise ValueError("qbinom requires n >= 0")
    if k < 0 or k > n:
        return _QZERO
    k = min(k, n - k)
    acc = _QONE
    for t in range(1, k + 1):
        acc = acc * qint(n - k + t, d) / qint(t, d)
    return acc


def specialize(s, at):
    """Module-level alias for QScalar.specialize."""
    return s.specialize(at)


# ---------------------------------------------------------------------------
# canonical text grammar:
#   scalar  := laurent | "(" laurent ")/(" laurent ")"
#   laurent := term (("+" | "-") term)*
#   term    := coeff | [coeff "*"] "q" ["^" int]
#   coeff   := int | int "/" int
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(?:(\d+(?:/\d+)?)|q(?:\^(-?\d+))?)"
)


def _laurent_text(shift, coeffs, lead):
    """Text of sum c/lead * q^(shift+i); the coefficients print as Fractions."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if lead != 1:
            c = Fraction(c, lead)
        e = shift + i
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else "q^%d" % e
            body = power if mag == 1 else "%s*%s" % (mag, power)
        parts.append((sign, body))
    out = []
    for idx, (sign, body) in enumerate(parts):
        if idx == 0:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append(" %s %s" % (sign, body))
    return "".join(out)


def _parse_laurent(text):
    pos = 0
    terms = {}
    text = text.strip()
    if not text:
        raise ValueError("empty scalar text")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("bad scalar text at %r" % text[pos:])
        sign, coeff, const, exp = m.groups()
        s = -1 if sign == "-" else 1
        if const is not None:
            c, e = Fraction(const), 0
        else:
            c = Fraction(coeff) if coeff is not None else 1
            e = int(exp) if exp is not None else 1
        terms[e] = terms.get(e, 0) + s * c
        pos = m.end()
    return QScalar.from_laurent(terms)


def parse_qscalar(text):
    """Parse the canonical text rendering back into a QScalar.  Text that is
    not a string, or has no such reading, raises ``ValueError``."""
    if not isinstance(text, str):
        raise ValueError("scalar text must be a string, got %r" % (text,))
    text = text.strip()
    if text == "0":
        return _QZERO
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text)
    if m:
        den = _parse_laurent(m.group(2))
        if not den:
            raise ValueError("zero denominator in scalar text %r" % text)
        return _parse_laurent(m.group(1)) / den
    return _parse_laurent(text)
