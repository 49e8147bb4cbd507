"""Symbolic presentations: Serre algebras, f-parameter families, weight-window quivers.

Words are tuples of letters ('x', i) / ('y', i) with 0-based generator index,
read as operator composition: the rightmost letter acts first.  A vertex-anchored
word carries the weight its rightmost letter starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .qfield import QScalar, qint, qbinom

__all__ = [
    "FSpec",
    "NCPoly",
    "Presentation",
    "WindowedQuiver",
    "PresentationError",
    "WindowError",
    "word_degree",
    "path_vertices",
    "word_target",
    "serre_relation",
    "eval_f",
    "un_presentation",
    "instantiate_window",
]


class PresentationError(ValueError):
    pass


class WindowError(PresentationError):
    """Lookup or instantiation outside the stored weight window."""


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def word_degree(word, rank):
    deg = [0] * rank
    for kind, i in word:
        deg[i] += 1 if kind == "x" else -1
    return tuple(deg)


def path_vertices(word, source):
    """All weights visited by an anchored word, rightmost letter first."""
    v = list(source)
    out = [tuple(v)]
    for kind, i in reversed(word):
        v[i] += 1 if kind == "x" else -1
        out.append(tuple(v))
    return out


def word_target(word, source):
    v = list(source)
    for kind, i in word:
        v[i] += 1 if kind == "x" else -1
    return tuple(v)


# ---------------------------------------------------------------------------
# noncommutative polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NCPoly:
    """QScalar-linear combination of words sharing one multidegree.

    terms maps word -> QScalar; source is None for free-algebra elements and
    the common starting weight for vertex-anchored path elements.
    """

    terms: tuple  # sorted ((word, QScalar), ...)
    source: tuple = None
    rank: int = 0

    @staticmethod
    def make(terms, source=None, rank=None):
        clean = {}
        for w, cval in dict(terms).items():
            if cval:
                clean[tuple(w)] = clean.get(tuple(w), QScalar.zero()) + cval
        clean = {w: v for w, v in clean.items() if v}
        if rank is None:
            if source is not None:
                rank = len(source)
            elif clean:
                rank = max((i for w in clean for _k, i in w), default=0) + 1
            else:
                rank = 0
        if clean:
            degs = {word_degree(w, rank) for w in clean}
            if len(degs) > 1:
                raise PresentationError("inhomogeneous combination: degrees %s" % degs)
        return NCPoly(tuple(sorted(clean.items())), source, rank)

    def is_zero(self):
        return not self.terms

    def multidegree(self):
        if not self.terms:
            return tuple([0] * self.rank)
        return word_degree(self.terms[0][0], self.rank)

    def target(self):
        if self.source is None:
            raise PresentationError("free-algebra element has no target vertex")
        return tuple(a + b for a, b in zip(self.source, self.multidegree()))

    def map_coeff(self, fn):
        return NCPoly.make({w: fn(v) for w, v in self.terms}, self.source, self.rank)

    def __add__(self, other):
        if self.source != other.source:
            raise PresentationError("cannot add elements with different anchors")
        terms = dict(self.terms)
        for w, v in other.terms:
            terms[w] = terms.get(w, QScalar.zero()) + v
        return NCPoly.make(terms, self.source, max(self.rank, other.rank))

    def __sub__(self, other):
        return self + other.scale(QScalar.from_rational(-1))

    def scale(self, s):
        return NCPoly.make({w: v * s for w, v in self.terms}, self.source, self.rank)

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for w, v in self.terms:
            wtext = "*".join("%s%d" % (k, i + 1) for k, i in w) or "1"
            bits.append("(%s)%s" % (v.render(), "" if wtext == "1" else "*" + wtext))
        text = " + ".join(bits)
        if self.source is not None:
            text += " @%s" % (self.source,)
        return text

    def __str__(self):
        return self.render()


# ---------------------------------------------------------------------------
# f families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FSpec:
    """Parameter family for the commutator scalars f_j(n).

    kind "classical": f_j(n) = sum_i a_ji n_i (exact rationals).
    kind "qinteger":  f_j(n) = [sum_i a_ji n_i] at base q^(d_j).
    kind "affine":    f_j(n) = sum_i m[i][j] n_i + c_j.
    """

    kind: str
    matrix: tuple = None  # affine: rows m[i] of rationals
    offset: tuple = None  # affine: QScalar vector c
    at: object = None  # qinteger: optional evaluation point ("one" or Fraction)

    @staticmethod
    def classical():
        return FSpec("classical")

    @staticmethod
    def qinteger(at=None):
        if at is not None and at != "one":
            at = Fraction(at)
        return FSpec("qinteger", at=at)

    def spec_point(self):
        """Where relation coefficients live: None = generic q, else a point."""
        if self.kind == "qinteger":
            return self.at
        return "one"

    @staticmethod
    def affine(matrix, offset):
        m = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        c = tuple(
            v if isinstance(v, QScalar) else QScalar.from_rational(v) for v in offset
        )
        return FSpec("affine", matrix=m, offset=c)

    def describe(self):
        if self.kind == "classical":
            return "classical"
        if self.kind == "qinteger":
            return "qinteger" if self.at is None else "qinteger@%s" % (self.at,)
        return "affine[%s;%s]" % (
            self.matrix,
            tuple(v.render() for v in self.offset),
        )


def eval_f(f, c, j, n):
    """The scalar f_j(n) of the commutator relation [x_i, y_j] = delta_ij f_j(n).

    The built-in families pair n with the coroot of node j,
    ``sum_i a_ji n_i``: the weight n = sum_i n_i alpha_i pairs with
    alpha_j^vee through row j of the Cartan matrix, in the convention of
    ``rootdata`` and of the Serre exponents ``1 - a_ij``.  This departs from
    the literal ``sum_i a_ij n_i`` of the model description, which agrees
    with it only for a symmetric matrix (types A, D, E); for B2, C2 and G2
    the literal pairing gives an inconsistent algebra (a constant in the
    ideal) and non-dominant highest weights.
    """
    n = tuple(int(x) for x in n)
    if f.kind == "classical":
        val = sum(c.a[j][i] * n[i] for i in range(c.rank))
        return QScalar.from_rational(val)
    if f.kind == "qinteger":
        val = qint(sum(c.a[j][i] * n[i] for i in range(c.rank)), c.d[j])
        if f.at is not None:
            return QScalar.from_rational(val.specialize(f.at))
        return val
    if f.kind == "affine":
        lin = sum(f.matrix[i][j] * n[i] for i in range(c.rank))
        return QScalar.from_rational(lin) + f.offset[j]
    raise PresentationError("unknown f family %r" % f.kind)


# ---------------------------------------------------------------------------
# Serre relations and presentations
# ---------------------------------------------------------------------------


def serre_relation(c, i, j, chirality="x", source=None):
    """Sum_k (-1)^k qbinom(b,k,d_i) z_i^k z_j z_i^(b-k), b = 1 - a_ij, z = x or y."""
    if i == j:
        raise PresentationError("Serre relation requires i != j")
    if chirality not in ("x", "y"):
        raise PresentationError("chirality must be 'x' or 'y'")
    b = c.b(i, j)
    zi = (chirality, i)
    zj = (chirality, j)
    terms = {}
    for k in range(b + 1):
        word = (zi,) * k + (zj,) + (zi,) * (b - k)
        coeff = qbinom(b, k, c.d[i])
        if k % 2:
            coeff = -coeff
        terms[word] = coeff
    return NCPoly.make(terms, source, c.rank)


def _rel_at(rel, f):
    """Serre relation with coefficients at the f family's parameter point.

    Scalar-valued families live at a fixed value of q (q = 1 for the
    classical ones), where the Serre coefficients are ordinary numbers;
    mixing their commutators with generic-q Serre coefficients would be
    inconsistent.
    """
    at = f.spec_point()
    if at is None:
        return rel
    return rel.map_coeff(lambda s: QScalar.from_rational(s.specialize(at)))


@dataclass(frozen=True)
class Presentation:
    """Free or path algebra presentation: generators with multidegrees, relations."""

    rank: int
    generators: tuple  # letters
    relations: tuple  # NCPoly, all with source=None for free presentations
    label: str = ""


def un_presentation(c):
    """The quantum Serre algebra on x_1..x_r (Definition of the x-side algebra)."""
    gens = tuple(("x", i) for i in range(c.rank))
    rels = []
    for i in range(c.rank):
        for j in range(c.rank):
            if i != j:
                rels.append(serre_relation(c, i, j, "x"))
    rels.sort(key=lambda p: p.multidegree())
    return Presentation(c.rank, gens, tuple(rels), "serre[%s]" % (c.series or c.rank))


# ---------------------------------------------------------------------------
# weight-window quiver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowedQuiver:
    cartan: object
    f: FSpec
    radius: int
    vertices: tuple
    arrows: tuple  # (letter, source, target)
    relations: tuple  # (name, vertex, NCPoly)

    @property
    def rank(self):
        return self.cartan.rank

    def describe(self):
        return "window[%s;f=%s;N=%d]" % (
            self.cartan.series or self.cartan.a,
            self.f.describe(),
            self.radius,
        )


def instantiate_window(c, f, radius):
    """Finite box presentation of the category algebra.

    Relations are instantiated only where every weight visited by every word
    stays inside the box; relations touching outside are dropped.
    """
    if radius < 0:
        raise WindowError("need radius >= 0, got %d" % radius)
    r = c.rank
    box = [tuple(v) for v in product(range(-radius, radius + 1), repeat=r)]
    box.sort()
    boxset = set(box)

    arrows = []
    for v in box:
        for i in range(r):
            for kind in ("x", "y"):
                t = word_target(((kind, i),), v)
                if t in boxset:
                    arrows.append(((kind, i), v, t))
    arrows.sort()

    # each Serre relation and its specialization is built once, anchored at
    # the origin; it lies in the box at v when the box of its path offsets,
    # shifted by v, does
    origin = (0,) * r
    serre = []
    for chirality in ("x", "y"):
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                rel = _rel_at(serre_relation(c, i, j, chirality), f)
                offsets = [o for w, _coeff in rel.terms for o in path_vertices(w, origin)]
                lo = tuple(min(o[k] for o in offsets) for k in range(r))
                hi = tuple(max(o[k] for o in offsets) for k in range(r))
                name = "serre_%s[%d,%d]" % (chirality, i + 1, j + 1)
                serre.append((name, rel.terms, lo, hi))

    relations = []
    for v in box:
        for i in range(r):
            for j in range(r):
                words = [(("x", i), ("y", j)), (("y", j), ("x", i))]
                if all(
                    set(path_vertices(w, v)) <= boxset for w in words
                ):
                    terms = {
                        words[0]: QScalar.one(),
                        words[1]: QScalar.from_rational(-1),
                    }
                    if i == j:
                        val = eval_f(f, c, j, v)
                        if val:
                            terms[()] = -val
                    relations.append(("comm[%d,%d]" % (i + 1, j + 1), v, NCPoly.make(terms, v, r)))
        for name, terms, lo, hi in serre:
            if all(
                -radius <= x + a and x + b <= radius for x, a, b in zip(v, lo, hi)
            ):
                relations.append((name, v, NCPoly(terms, v, r)))

    kind_rank = {"comm": 0, "serre_x": 1, "serre_y": 2}
    relations.sort(key=lambda t: (t[1], kind_rank[t[0].split("[")[0]], t[0]))
    return WindowedQuiver(c, f, radius, tuple(box), tuple(arrows), tuple(relations))
