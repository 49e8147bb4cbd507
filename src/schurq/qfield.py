"""Exact arithmetic in the field Q(q) of rational functions of the quantum parameter.

Scalars are kept in a canonical form: value = q**shift * num(q) / den(q) with
num, den ordinary polynomials with rational coefficients, nonzero constant
terms, gcd(num, den) = 1 and den monic.  Equality of values is equality of the
canonical triples, so QScalar is hashable and usable as a dict key.
"""

from __future__ import annotations

from fractions import Fraction
import re

__all__ = [
    "QScalar",
    "QArithmeticError",
    "QPoleError",
    "CoefficientOverflowError",
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


class CoefficientOverflowError(QArithmeticError):
    """Raised when rational coefficients exceed the configured bit ceiling."""


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
# dense univariate polynomial helpers over Fraction
# coefficient tuples, index = exponent, no trailing zeros
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pstrip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _pstrip(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pstrip(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    lb = b[-1]
    while len(a) >= len(b):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] / lb
        k = len(a) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
        a.pop()
    return _pstrip(q), _pstrip(a)


def _pgcd(a, b):
    a, b = _pstrip(a), _pstrip(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(x / lead for x in a)
    return a


def _peval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# QScalar
# ---------------------------------------------------------------------------


class QScalar:
    __slots__ = ("shift", "num", "den", "_hash")

    def __init__(self, shift, num, den, _raw=False):
        if not _raw:
            shift, num, den = _canonical(shift, num, den)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

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
        x = Fraction(x)
        if x == 0:
            return _QZERO
        return QScalar(0, (x,), (_ONE,), _raw=True)

    @staticmethod
    def q_pow(k):
        return QScalar(int(k), (_ONE,), (_ONE,), _raw=True)

    @staticmethod
    def from_laurent(terms):
        """Build from a {exponent: coefficient} mapping."""
        terms = {int(e): Fraction(c) for e, c in terms.items() if c != 0}
        if not terms:
            return _QZERO
        lo = min(terms)
        hi = max(terms)
        num = [_ZERO] * (hi - lo + 1)
        for e, c in terms.items():
            num[e - lo] = c
        return QScalar(lo, tuple(num), (_ONE,))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.shift == 0 and self.num == (_ONE,) and self.den == (_ONE,)

    def is_rational(self):
        # den is monic, so a constant den is exactly (1,)
        return len(self.den) == 1 and (
            not self.num or (self.shift == 0 and len(self.num) == 1)
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.is_rational() and other.is_rational():
            c = self.num[0] + other.num[0]
            return _from_canonical(0, (c,), self.den) if c else _QZERO
        s = min(self.shift, other.shift)
        a = _shiftpoly(self.num, self.shift - s)
        b = _shiftpoly(other.num, other.shift - s)
        if self.den == other.den:
            return QScalar(s, _padd(a, b), self.den)
        num = _padd(_pmul(a, other.den), _pmul(b, self.den))
        return QScalar(s, num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QScalar(self.shift, _pneg(self.num), self.den, _raw=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _QZERO
        # c * num over the unchanged monic den is already canonical for c != 0
        if self.is_rational():
            c = self.num[0]
            num = tuple(c * x for x in other.num)
            return _from_canonical(other.shift, num, other.den)
        if other.is_rational():
            c = other.num[0]
            num = tuple(c * x for x in self.num)
            return _from_canonical(self.shift, num, self.den)
        return QScalar(
            self.shift + other.shift,
            _pmul(self.num, other.num),
            _pmul(self.den, other.den),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("QScalar division by zero")
        if not self.num:
            return _QZERO
        return QScalar(
            self.shift - other.shift,
            _pmul(self.num, other.den),
            _pmul(self.den, other.num),
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        return _QONE / self

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
        if not self.num:
            return self
        shift = -self.shift - (len(self.num) - 1) + (len(self.den) - 1)
        return QScalar(shift, tuple(reversed(self.num)), tuple(reversed(self.den)))

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
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
        h = self._hash
        if h is None:
            h = hash((self.shift, self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation ----------------------------------------------------

    def specialize(self, at):
        """Exact evaluation at a rational point, or at="one" for q = 1."""
        if at == "one":
            x = _ONE
        else:
            x = Fraction(at)
        if not self.num:
            return _ZERO
        if self.is_rational():
            return self.num[0]
        d = _peval(self.den, x)
        if d == 0:
            raise QPoleError("pole at q = %s" % x)
        if x == 0:
            if self.shift < 0:
                raise QPoleError("pole at q = 0")
            n = self.num[0] if self.shift == 0 else _ZERO
            return n / d
        return x ** self.shift * _peval(self.num, x) / d

    # -- rendering -----------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        ntext = _laurent_text(self.shift, self.num)
        if self.den == (_ONE,):
            return ntext
        dtext = _laurent_text(0, self.den)
        return "(%s)/(%s)" % (ntext, dtext)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "QScalar(%s)" % self.render()


def _shiftpoly(p, k):
    if k == 0:
        return p
    return (_ZERO,) * k + tuple(p)


def _canonical(shift, num, den):
    num = _pstrip(tuple(Fraction(x) for x in num))
    den = _pstrip(tuple(Fraction(x) for x in den))
    if not den:
        raise ZeroDivisionError("QScalar with zero denominator")
    if not num:
        return 0, (), (_ONE,)
    shift = int(shift)
    k = 0
    while num[k] == 0:
        k += 1
    if k:
        shift += k
        num = num[k:]
    k = 0
    while den[k] == 0:
        k += 1
    if k:
        shift -= k
        den = den[k:]
    if len(den) > 1 and len(num) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num = tuple(x / lead for x in num)
        den = tuple(x / lead for x in den)
    _check_size(num)
    _check_size(den)
    return shift, num, den


def _from_canonical(shift, num, den):
    """A QScalar from parts already in canonical form, size-checked."""
    _check_size(num)
    _check_size(den)
    return QScalar(shift, num, den, _raw=True)


def _check_size(p):
    ceiling = _BIT_CEILING
    for c in p:
        if c.numerator.bit_length() > ceiling or c.denominator.bit_length() > ceiling:
            raise CoefficientOverflowError(
                "coefficient exceeds %d-bit ceiling" % ceiling
            )


def _coerce(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_rational(x)
    return NotImplemented


_QZERO = QScalar(0, (), (_ONE,), _raw=True)
_QONE = QScalar(0, (_ONE,), (_ONE,), _raw=True)


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


def _laurent_text(shift, coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
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
            c = Fraction(coeff) if coeff is not None else _ONE
            e = int(exp) if exp is not None else 1
        terms[e] = terms.get(e, _ZERO) + s * c
        pos = m.end()
    return QScalar.from_laurent(terms)


def parse_qscalar(text):
    """Parse the canonical text rendering back into a QScalar."""
    text = text.strip()
    if text == "0":
        return _QZERO
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text)
    if m:
        return _parse_laurent(m.group(1)) / _parse_laurent(m.group(2))
    return _parse_laurent(text)
