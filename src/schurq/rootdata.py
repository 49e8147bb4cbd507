"""Root systems, Weyl groups and flag-variety cohomology targets.

Everything here is finite-type and exact: Cartan matrices with their
symmetrizers, positive roots, Weyl elements enumerated breadth-first by
length, Betti numbers of the flag variety, the Kostant partition function,
and (for rank <= 2 by default) the coinvariant-algebra model of the
cohomology ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalSpan

__all__ = [
    "CartanDatum",
    "RootList",
    "WeylGroupTable",
    "CohRing",
    "RootDataError",
    "WeylCapError",
    "build_cartan",
    "positive_roots",
    "weyl_table",
    "flag_betti",
    "kostant",
    "kostant_table",
    "flag_ring",
]

DEFAULT_WEYL_CAP = 400_000
DEFAULT_RING_RANK_CAP = 2


class RootDataError(ValueError):
    pass


class WeylCapError(RootDataError):
    """Weyl group enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class CartanDatum:
    rank: int
    a: tuple  # rows of the Cartan matrix, a[i][j]
    d: tuple  # symmetrizers d_i = (alpha_i | alpha_i) / 2
    series: str = ""

    def __post_init__(self):
        r, a, d = self.rank, self.a, self.d
        if r < 1 or len(a) != r or any(len(row) != r for row in a) or len(d) != r:
            raise RootDataError("malformed Cartan data")
        for i in range(r):
            if a[i][i] != 2:
                raise RootDataError("a[%d][%d] must be 2" % (i, i))
            if d[i] < 1:
                raise RootDataError("symmetrizer d[%d] must be positive" % i)
            for j in range(r):
                if i != j:
                    if a[i][j] > 0:
                        raise RootDataError("off-diagonal entry a[%d][%d] > 0" % (i, j))
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise RootDataError("zero pattern not symmetric at (%d,%d)" % (i, j))
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise RootDataError("not symmetrizable at (%d,%d)" % (i, j))
        sym = [[d[i] * a[i][j] for j in range(r)] for i in range(r)]
        if not _positive_definite(sym):
            raise RootDataError("symmetrized matrix not positive definite (not finite type)")

    def b(self, i, j):
        """Serre exponent b(i,j) = 1 - a_ij."""
        return 1 - self.a[i][j]

    def to_dict(self):
        return {
            "rank": self.rank,
            "series": self.series,
            "cartan_matrix": [list(row) for row in self.a],
            "symmetrizers": list(self.d),
        }


def _positive_definite(sym):
    """True iff the symmetric matrix is positive definite.

    Reducing row k modulo the span of rows 0..k-1 leaves the k-th elimination
    pivot (the ratio of consecutive leading principal minors) at column k;
    the matrix is positive definite iff every such pivot is positive.
    """
    space = RationalSpan(len(sym))
    for k, row in enumerate(sym):
        row = [Fraction(x) for x in row]
        if space.reduce(row)[k] <= 0:
            return False
        space.add(row)
    return True


def build_cartan(series, rank):
    """Cartan datum for a finite series A-G.  Short roots have squared length 2."""
    series = str(series).upper()
    r = int(rank)
    valid = {
        "A": r >= 1,
        "B": r >= 2,
        "C": r >= 2,
        "D": r >= 4,
        "E": r in (6, 7, 8),
        "F": r == 4,
        "G": r == 2,
    }
    if series not in valid or not valid[series]:
        raise RootDataError("invalid finite type %s%d" % (series, r))

    def chain(n):
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        return a

    if series == "A":
        a, d = chain(r), [1] * r
    elif series == "B":
        a = chain(r)
        a[r - 1][r - 2] = -2
        d = [2] * (r - 1) + [1]
    elif series == "C":
        a = chain(r)
        a[r - 2][r - 1] = -2
        d = [1] * (r - 1) + [2]
    elif series == "D":
        a = chain(r - 1)
        for row in a:
            row.append(0)
        a.append([0] * r)
        a[r - 1][r - 1] = 2
        a[r - 3][r - 1] = a[r - 1][r - 3] = -1
        d = [1] * r
    elif series == "E":
        # nodes 1..r-1 a chain, node 0 attached to node 3 of the chain
        a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
        for i in range(1, r - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        a[0][3] = a[3][0] = -1
        d = [1] * r
    elif series == "F":
        a = chain(4)
        a[2][1] = -2
        a[1][2] = -1
        d = [2, 2, 1, 1]
    else:  # G2
        a = [[2, -1], [-3, 2]]
        d = [3, 1]
    return CartanDatum(r, tuple(tuple(row) for row in a), tuple(d), "%s%d" % (series, r))


# ---------------------------------------------------------------------------
# roots and Weyl group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootList:
    roots: tuple  # positive roots as coordinate tuples in the simple-root basis

    @property
    def heights(self):
        return tuple(sum(b) for b in self.roots)

    def __len__(self):
        return len(self.roots)


def _reflect(c, i, beta):
    """Simple reflection s_i on a vector in simple-root coordinates."""
    pairing = sum(c.a[i][j] * beta[j] for j in range(c.rank))
    out = list(beta)
    out[i] -= pairing
    return tuple(out)


def positive_roots(c):
    r = c.rank
    simples = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(r):
                g = _reflect(c, i, beta)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    pos = sorted(b for b in seen if all(x >= 0 for x in b))
    pos.sort(key=lambda b: (sum(b), b))
    return RootList(tuple(pos))


@dataclass(frozen=True)
class WeylGroupTable:
    rank: int
    elements: tuple  # (reduced word, matrix rows) ordered by length then word
    lengths: tuple  # ell(w) per element

    @property
    def order(self):
        return len(self.elements)

    @property
    def longest_length(self):
        return max(self.lengths)

    def length_counts(self):
        counts = [0] * (self.longest_length + 1)
        for l in self.lengths:
            counts[l] += 1
        return tuple(counts)


def _gen_matrix(c, i):
    r = c.rank
    rows = []
    for k in range(r):
        if k != i:
            rows.append(tuple(1 if j == k else 0 for j in range(r)))
        else:
            rows.append(tuple((1 if j == i else 0) - c.a[i][j] for j in range(r)))
    return tuple(rows)


def _matmul(m1, m2):
    n = len(m1)
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def weyl_table(c, cap=DEFAULT_WEYL_CAP):
    r = c.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    gens = [_gen_matrix(c, i) for i in range(r)]
    seen = {ident: ()}
    frontier = [((), ident)]
    elements = [((), ident)]
    lengths = [0]
    ell = 0
    while frontier:
        ell += 1
        nxt = {}
        for word, mat in frontier:
            for i in range(r):
                m2 = _matmul(gens[i], mat)
                if m2 not in seen and m2 not in nxt:
                    nxt[m2] = (i,) + word
        if not nxt:
            break
        batch = sorted(((w, m) for m, w in nxt.items()))
        for word, mat in batch:
            seen[mat] = word
            elements.append((word, mat))
            lengths.append(ell)
        if len(elements) > cap:
            raise WeylCapError(
                "Weyl group of %s exceeds cap %d" % (c.series or "custom type", cap)
            )
        frontier = batch
    return WeylGroupTable(r, tuple(elements), tuple(lengths))


def flag_betti(c, table=None):
    """Betti numbers of the flag variety: b_{2k} = #{w : ell(w) = k}, b_odd = 0."""
    if table is None:
        table = weyl_table(c)
    counts = table.length_counts()
    betti = []
    for k, n in enumerate(counts):
        betti.append(n)
        if k < len(counts) - 1:
            betti.append(0)
    return tuple(betti)


# ---------------------------------------------------------------------------
# Kostant partition function
# ---------------------------------------------------------------------------


def _grid(bounds, cap):
    """Vectors 0 <= v <= bounds (coordinatewise) with sum(v) <= cap, by (height, v)."""
    vecs = [()]
    for b in bounds:
        vecs = [v + (k,) for v in vecs for k in range(min(b, cap - sum(v)) + 1)]
    return sorted(vecs, key=lambda v: (sum(v), v))


def kostant_table(c, cap, roots=None, box=None):
    """Kostant partition function on every beta >= 0 of height <= cap.

    One dynamic program over the downward-closed set of such beta (bounded
    coordinatewise by box, if given), adding one positive root at a time.
    Returns {beta: count} with the nonzero counts.
    """
    if roots is None:
        roots = positive_roots(c)
    grid = _grid(box if box is not None else (cap,) * c.rank, cap)
    counts = {tuple([0] * c.rank): 1}
    for root in roots.roots:
        new = {}
        for v in grid:
            total = counts.get(v, 0)
            w = tuple(x - y for x, y in zip(v, root))
            if all(x >= 0 for x in w):
                total += new.get(w, 0)
            if total:
                new[v] = total
        counts = new
    return counts


def kostant(c, beta, roots=None):
    """Number of multisets of positive roots summing to beta."""
    beta = tuple(int(x) for x in beta)
    if any(x < 0 for x in beta):
        raise RootDataError("kostant argument must have nonnegative coordinates")
    return kostant_table(c, sum(beta), roots, box=beta).get(beta, 0)


# ---------------------------------------------------------------------------
# coinvariant algebra model of H^*(G/B)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohRing:
    rank: int
    dims: tuple  # graded dimension per cohomological degree (odd entries zero)
    basis: tuple = ()  # per polynomial degree: tuple of monomial exponent tuples
    structure: tuple = ()  # ((deg1, idx1, deg2, idx2, coeffs...), ...)
    dims_only: bool = False

    def total_dim(self):
        return sum(self.dims)

    def product(self, deg1, idx1, deg2, idx2):
        """Structure constants of basis[deg1][idx1] * basis[deg2][idx2].

        Returns a tuple of Fractions over basis[deg1+deg2] (polynomial degrees).
        """
        if self.dims_only:
            raise RootDataError("ring structure unavailable (dims-only result)")
        if deg1 + deg2 >= len(self.basis):
            return ()
        key = (deg1, idx1, deg2, idx2)
        for entry in self.structure:
            if entry[0] == key:
                return entry[1]
        raise KeyError(key)


def _monomials(r, deg):
    if r == 1:
        return [(deg,)]
    out = []
    for k in range(deg + 1):
        for rest in _monomials(r - 1, deg - k):
            out.append((k,) + rest)
    out.sort()
    return out


def _substitute(poly, M):
    """Linear substitution u_j -> sum_k M[j][k] u_k on a {expts: coeff} polynomial."""
    new = {}
    for expts, coeff in poly.items():
        term = {tuple([0] * len(expts)): coeff}
        for j, e in enumerate(expts):
            for _ in range(e):
                nxt = {}
                for te, tc in term.items():
                    for k, mjk in enumerate(M[j]):
                        if mjk == 0:
                            continue
                        ne = list(te)
                        ne[k] += 1
                        ne = tuple(ne)
                        nxt[ne] = nxt.get(ne, Fraction(0)) + tc * mjk
                term = nxt
        for te, tc in term.items():
            new[te] = new.get(te, Fraction(0)) + tc
    return {e: v for e, v in new.items() if v != 0}


def flag_ring(c, table=None, rank_cap=DEFAULT_RING_RANK_CAP):
    """Coinvariant algebra of the Weyl group (generators in cohomological degree 2).

    Above the rank cap only graded dimensions are returned, flagged dims_only.
    """
    if table is None:
        table = weyl_table(c)
    betti = flag_betti(c, table)
    if c.rank > rank_cap:
        return CohRing(c.rank, betti, dims_only=True)

    r = c.rank
    group = list(table.elements)
    order = len(group)
    top = table.longest_length

    invariants = {}  # per degree: list of {expts: coeff} with no constant term

    def reynolds(mono):
        acc = {}
        for _word, mat in group:
            poly = _substitute({mono: Fraction(1)}, mat)
            for e, v in poly.items():
                acc[e] = acc.get(e, Fraction(0)) + v
        return {e: v / order for e, v in acc.items() if v != 0}

    for deg in range(1, top + 1):
        invs = []
        for mono in _monomials(r, deg):
            p = reynolds(mono)
            if p:
                invs.append(p)
        invariants[deg] = invs

    basis = []
    ideal_spaces = []  # per degree: (RationalSpan of the ideal, monomial index)
    dims = []
    for deg in range(0, top + 1):
        monos = _monomials(r, deg)
        index = {m: i for i, m in enumerate(monos)}
        space = RationalSpan(len(monos))
        for d1 in range(1, deg + 1):
            lows = _monomials(r, deg - d1)
            for inv in invariants[d1]:
                for low in lows:
                    vec = [Fraction(0)] * len(monos)
                    for e, v in inv.items():
                        prod = tuple(a + b for a, b in zip(e, low))
                        vec[index[prod]] += v
                    space.add(vec)
        pivots = set(space.pivots)
        free = tuple(m for i, m in enumerate(monos) if i not in pivots)
        basis.append(free)
        ideal_spaces.append((space, index))
        dims.append(len(free))

    graded = []
    for deg in range(0, top + 1):
        graded.append(dims[deg])
        if deg < top:
            graded.append(0)
    if tuple(graded) != betti:
        raise RootDataError(
            "coinvariant dimensions %s disagree with flag Betti numbers %s"
            % (graded, betti)
        )

    def reduce_poly(deg, poly):
        space, index = ideal_spaces[deg]
        vec = [Fraction(0)] * len(index)
        for e, v in poly.items():
            vec[index[e]] += v
        vec = space.reduce(vec)
        return {m: vec[index[m]] for m in basis[deg] if vec[index[m]] != 0}

    structure = []
    for d1 in range(0, top + 1):
        for d2 in range(0, top + 1 - d1):
            for i1, m1 in enumerate(basis[d1]):
                for i2, m2 in enumerate(basis[d2]):
                    prod = tuple(a + b for a, b in zip(m1, m2))
                    reduced = reduce_poly(d1 + d2, {prod: Fraction(1)})
                    coeffs = tuple(
                        reduced.get(m, Fraction(0)) for m in basis[d1 + d2]
                    )
                    structure.append(((d1, i1, d2, i2), coeffs))
    return CohRing(c.rank, betti, tuple(basis), tuple(structure))
