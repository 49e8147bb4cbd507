"""Dense exact linear algebra over the QScalar field, and row spans over Q.

Matrices are tuples of row tuples; vectors are tuples.  ``nullspace``,
``mat_rank`` and ``solve`` share one eliminator that never does arithmetic
in Q(q): each row is scaled by a nonzero element to integer polynomials in q,
read straight from the integer numerators and denominators that QScalar
stores, Bareiss fraction-free elimination (Bareiss 1968) runs on int
coefficient lists with the Z[q] multiply and exact division of ``qfield``,
one exact division per update, and every reduced-row-echelon entry
is formed once as N / D from integer numerators, so a QScalar is put in
canonical form once per output entry instead of once per operation.  The
reduced row echelon form of a row space is unique, so the results equal
those of Gauss-Jordan elimination over the field.

Three incremental spans keep a row space with membership tests.
``Subspace`` runs Gauss-Jordan over QScalar rows.  ``RationalSpan`` is its
fraction-free counterpart over Q: it takes int or Fraction rows and keeps
each reduced row echelon row as a sparse primitive integer row, so a
membership test is one integer combination and ``reduce`` divides once per
entry.  ``ModularSpan`` keeps rows over Z/p (p = ``qfield.MOD_P``) as sparse
reduced row echelon rows with pivot 1; its rank never exceeds the rank over
Q(q) of rows that reduce to its inputs.  ``nullspace_mod`` reads a kernel
basis off those rows in ``nullspace``'s normal form, so where the echelon
pivots mod p are those over Q(q) it is the image mod p of ``nullspace``'s
basis, and otherwise it has more vectors.

Every elimination in the package goes through this module: the per-weight
kernels of resolutions (mod p, and exact where a generator is chosen), the
Q(q) ranks and solves of Ext and Yoneda lifts, the coinvariant ring and the
finite-type test in ``rootdata``, the dense-rank oracle
``gbasis.dense_rank_dims``, the submodule closures of ``modules`` and
``ext``, and the mod-p span bookkeeping of stage extraction in ``ext``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .qfield import (
    MOD_P,
    CoefficientOverflowError,
    QScalar,
    _zdiv,
    _zmul,
    _zsub,
    get_bit_ceiling,
)

__all__ = [
    "zeros",
    "identity",
    "mat_mul",
    "mat_add",
    "mat_scale",
    "mat_vec",
    "mat_rank",
    "nullspace",
    "solve",
    "Subspace",
    "RationalSpan",
    "ModularSpan",
    "nullspace_mod",
]

_Z = QScalar.zero()
_O = QScalar.one()


def zeros(m, n):
    return tuple((_Z,) * n for _ in range(m))


def identity(n):
    return tuple(tuple(_O if i == j else _Z for j in range(n)) for i in range(n))


def mat_mul(a, b):
    if not a or not b:
        return ()
    n = len(b[0])
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append(
            tuple(
                sum((x * y for x, y in zip(row, col) if x and y), _Z) for col in bt
            )
        )
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def mat_scale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), _Z) for row in a)


# ---------------------------------------------------------------------------
# fraction-free elimination over Z[q], on the Z[q] kernel of qfield
# polynomials are int coefficient lists, index = exponent, [] for zero
# ---------------------------------------------------------------------------


def _check_bits(p, ceiling):
    if p and (max(p).bit_length() > ceiling or min(p).bit_length() > ceiling):
        raise CoefficientOverflowError("coefficient exceeds %d-bit ceiling" % ceiling)


def _clear_row(row, ceiling):
    """The row times a nonzero scalar, as primitive integer polynomials in q.

    Reads each entry's integer num and den: multiplies by q^(-min shift),
    by the product of the distinct non-constant denominators and by the lcm
    of the constant ones, then divides out the integer content.
    """
    live = [x for x in row if x]
    if not live:
        return None
    low = min(x.shift for x in live)
    dens = list(dict.fromkeys(x.den for x in live if len(x.den) > 1))
    scale = lcm(*(x.den[0] for x in live if len(x.den) == 1))
    polys = []
    for x in row:
        if not x:
            polys.append([])
            continue
        p = x.num
        m = scale // x.den[0] if len(x.den) == 1 else scale
        if m != 1:
            p = _zmul(p, (m,))
        for d in dens:
            if d != x.den:
                p = _zmul(p, d)
        polys.append([0] * (x.shift - low) + list(p))
    content = gcd(*(c for p in polys for c in p))
    out = [[c // content for c in p] for p in polys] if content != 1 else polys
    for p in out:
        _check_bits(p, ceiling)
    return out


def _echelon(rows, ncols):
    """Bareiss fraction-free echelon form of the rows' first ncols columns.

    Returns (rows, pivots): row i of the result has its leading entry at
    column pivots[i], and that entry is the determinant of the leading
    i+1 pivot block of the (cleared, permuted) input rows.  Every update
    is an exact division by the previous pivot.
    """
    ceiling = get_bit_ceiling()
    mat = []
    for row in rows:
        z = _clear_row(row[:ncols], ceiling)
        if z is not None:
            mat.append(z)
    pivots = []
    prev = [1]
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        cands = [i for i in range(r, len(mat)) if mat[i][c]]
        if not cands:
            continue
        best = min(cands, key=lambda i: len(mat[i][c]))
        mat[r], mat[best] = mat[best], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            f = row[c]
            for j in range(c + 1, ncols):
                x, y = row[j], prow[j]
                if x:
                    x = _zmul(p, x)
                    if f and y:
                        x = _zsub(x, _zmul(f, y))
                elif f and y:
                    x = [-t for t in _zmul(f, y)]
                else:
                    continue
                _check_bits(x, ceiling)
                row[j] = x = _zdiv(x, prev)
                _check_bits(x, ceiling)
            row[c] = []
        prev = p
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _back_substitute(mat, pivots, j, ceiling):
    """Numerators N with RREF entry (row i, column j) = N[i] / det, where det
    is the last pivot; each N[i] is an integer polynomial (Cramer)."""
    det = mat[-1][pivots[-1]]
    num = [None] * len(mat)
    for i in range(len(mat) - 1, -1, -1):
        row = mat[i]
        acc = _zmul(det, row[j]) if row[j] else []
        for k in range(i + 1, len(mat)):
            if row[pivots[k]] and num[k]:
                acc = _zsub(acc, _zmul(row[pivots[k]], num[k]))
        _check_bits(acc, ceiling)
        num[i] = _zdiv(acc, row[pivots[i]]) if acc else []
        _check_bits(num[i], ceiling)
    return num, det


def mat_rank(a):
    if not a:
        return 0
    return len(_echelon(a, len(a[0]))[1])


def nullspace(a, ncols=None):
    """Basis of the right kernel of a (list of coordinate vectors).

    Vector k has a 1 at the k-th free column, 0 at the other free columns,
    and minus the reduced-row-echelon entries at the pivot columns.
    """
    if ncols is None:
        if not a:
            return []
        ncols = len(a[0])
    if not a:
        return [tuple(_O if j == k else _Z for j in range(ncols)) for k in range(ncols)]
    mat, pivots = _echelon(a, ncols)
    pivot_set = set(pivots)
    ceiling = get_bit_ceiling()
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [_Z] * ncols
        vec[j] = _O
        if mat:
            num, det = _back_substitute(mat, pivots, j, ceiling)
            neg = [-c for c in det]
            for n, pcol in zip(num, pivots):
                vec[pcol] = QScalar(0, n, neg) if n else _Z
        basis.append(tuple(vec))
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent (free variables 0)."""
    if not a:
        return () if not any(b) else None
    ncols = len(a[0])
    aug = [list(r) + [bv] for r, bv in zip(a, b)]
    mat, pivots = _echelon(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [_Z] * ncols
    if mat:
        num, det = _back_substitute(mat, pivots, ncols, get_bit_ceiling())
        for n, pcol in zip(num, pivots):
            x[pcol] = QScalar(0, n, det) if n else _Z
    return tuple(x)


class Subspace:
    """Incrementally built row space of QScalar rows with membership tests."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for prow, pcol in zip(self.rows, self.pivots):
            if vec[pcol]:
                f = vec[pcol]
                for j in range(self.ncols):
                    if prow[j]:
                        vec[j] = vec[j] - f * prow[j]
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        vec = self.reduce(vec)
        lead = next((j for j in range(self.ncols) if vec[j]), None)
        if lead is None:
            return False
        inv = vec[lead].inverse()
        vec = [x * inv for x in vec]
        for prow in self.rows:
            if prow[lead]:
                f = prow[lead]
                for j in range(self.ncols):
                    if vec[j]:
                        prow[j] = prow[j] - f * vec[j]
        self.rows.append(vec)
        self.pivots.append(lead)
        return True

    def basis(self):
        order = sorted(range(len(self.pivots)), key=lambda t: self.pivots[t])
        return [tuple(self.rows[t]) for t in order]


_F0 = Fraction(0)


def _sub_scaled(out, c, row):
    """out -= c * row in place, on sparse {column: int} rows."""
    for j, y in row.items():
        t = out.get(j, 0) - c * y
        if t:
            out[j] = t
        else:
            del out[j]


class RationalSpan:
    """Incrementally built row space over Q, kept fraction-free.

    Rows may hold ints or Fractions.  Each basis row is stored as a sparse
    {column: int} row that is primitive (content 1) with a positive pivot;
    divided by its pivot it is a row of the reduced row echelon form, so it
    is zero at every other pivot column.  Scaling a vector changes neither
    its membership nor whether ``add`` grows the span.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []  # pivot columns in insertion order
        self._rows = {}  # pivot column -> primitive row

    @staticmethod
    def _integral(vec):
        """(m, row): row is m * vec as a sparse integer row, m > 0."""
        live = {j: x for j, x in enumerate(vec) if x}
        m = lcm(*(x.denominator for x in live.values()))
        return m, {j: x.numerator * (m // x.denominator) for j, x in live.items()}

    def _reduce(self, row):
        """(s, out): out is s times the reduction of row modulo the span.

        Every basis row is zero at the other pivots, so the reduction is the
        single combination s * row - sum of row[p] * (s / d_p) * basis row p
        over the pivots p that row touches, with s the lcm of their d_p.
        """
        rows = self._rows
        hits = [(p, f) for p, f in row.items() if p in rows]
        if not hits:
            return 1, row
        s = lcm(*(rows[p][p] for p, _f in hits))
        out = {j: s * x for j, x in row.items()} if s != 1 else dict(row)
        for p, f in hits:
            _sub_scaled(out, f * (s // rows[p][p]), rows[p])
        return s, out

    def reduce(self, vec):
        """The reduction of vec modulo the span, as a list of Fractions."""
        m, row = self._integral(vec)
        s, out = self._reduce(row)
        den = s * m
        return [Fraction(out[j], den) if j in out else _F0 for j in range(self.ncols)]

    def contains(self, vec):
        return not self._reduce(self._integral(vec)[1])[1]

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        out = self._reduce(self._integral(vec)[1])[1]
        if not out:
            return False
        lead = min(out)
        g = gcd(*out.values())
        if out[lead] < 0:
            g = -g
        new = {j: x // g for j, x in out.items()}
        d = new[lead]
        for p, brow in list(self._rows.items()):
            f = brow.get(lead)
            if not f:
                continue
            upd = {j: d * y for j, y in brow.items()}
            _sub_scaled(upd, f, new)
            g = gcd(*upd.values())
            self._rows[p] = {j: x // g for j, x in upd.items()} if g != 1 else upd
        self._rows[lead] = new
        self.pivots.append(lead)
        return True


class ModularSpan:
    """Incrementally built row space over Z/p, p = MOD_P.

    Rows are sequences of ints, read mod p.  Each basis row is a sparse
    {column: int} row of the reduced row echelon form: its pivot entry is 1
    and it is zero at every other pivot column.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []  # pivot columns in insertion order
        self._rows = {}  # pivot column -> row

    @property
    def dim(self):
        return len(self.pivots)

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        return self.add_residual(vec) is not None

    def add_residual(self, vec):
        """Insert a vector; returns its residual, or None if it was spanned.

        The residual is the vector reduced by the rows so far, scaled so its
        pivot entry (the lowest column left) is 1: a sparse {column: int}
        row, a copy of the new basis row as it is inserted.
        """
        out = {j: x % MOD_P for j, x in enumerate(vec) if x % MOD_P}
        rows = self._rows
        for p in [p for p in out if p in rows]:
            f = out[p]
            for j, y in rows[p].items():
                t = (out.get(j, 0) - f * y) % MOD_P
                if t:
                    out[j] = t
                else:
                    del out[j]
        if not out:
            return None
        lead = min(out)
        inv = pow(out[lead], -1, MOD_P)
        if inv != 1:
            out = {j: x * inv % MOD_P for j, x in out.items()}
        for brow in rows.values():
            f = brow.get(lead)
            if f:
                for j, y in out.items():
                    t = (brow.get(j, 0) - f * y) % MOD_P
                    if t:
                        brow[j] = t
                    else:
                        del brow[j]
        rows[lead] = out
        self.pivots.append(lead)
        return dict(out)

    def kernel(self):
        """Basis of the right kernel of the rows added so far, mod p.

        It is read off the reduced row echelon rows in ``nullspace``'s normal
        form: vector k has a 1 at the k-th free column, 0 at the other free
        columns, and minus the echelon entries at the pivot columns.
        """
        rows = self._rows
        free = [j for j in range(self.ncols) if j not in rows]
        basis = {}
        for j in free:
            vec = [0] * self.ncols
            vec[j] = 1
            basis[j] = vec
        for p, row in rows.items():
            for j, x in row.items():
                if j != p:
                    basis[j][p] = MOD_P - x
        return [basis[j] for j in free]


def nullspace_mod(a, ncols):
    """Basis of the right kernel of an int matrix over Z/p (p = MOD_P).

    Entries are read mod p and the basis is in ``nullspace``'s normal form,
    so where the rank mod p equals the rank over Q(q) it is the image mod p
    of ``nullspace``'s basis; otherwise it has more vectors.
    """
    span = ModularSpan(ncols)
    for row in a:
        span.add(row)
    return span.kernel()
