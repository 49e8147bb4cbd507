"""Concrete graded modules: trivial, simple highest-weight, truncated Verma.

A GradedModule stores finite-support weight spaces with exact operator
matrices.  Constructors fix the basis inside each weight space by the
normal-form order of y-monomials, so every matrix is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qfield import QScalar
from .presentation import (
    Presentation,
    eval_f,
    serre_relation,
    word_degree,
)
from .gbasis import groebner, normal_form, NormalWords
from .linalg import (
    Subspace,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    nullspace,
    zeros,
)
from . import presentation as _pres

__all__ = [
    "GradedModule",
    "ModuleError",
    "SingularParameterError",
    "DepthCapError",
    "CheckReport",
    "trivial_module",
    "build_simple",
    "truncated_verma",
    "check_relations",
    "is_simple",
    "perturb_entry",
    "yn_presentation",
]

_Z = QScalar.zero()
_O = QScalar.one()


class ModuleError(ValueError):
    pass


class SingularParameterError(ModuleError):
    """The construction recursion hit a degenerate parameter value."""


class DepthCapError(ModuleError):
    """The highest-weight construction failed to close below the depth cap."""


@dataclass(frozen=True)
class GradedModule:
    rank: int
    dims: tuple  # sorted ((weight, dim), ...)
    xmat: tuple  # sorted (((i, weight), matrix), ...): V(n) -> V(n+e_i)
    ymat: tuple  # sorted (((i, weight), matrix), ...): V(n) -> V(n-e_i)
    provenance: str = "custom"
    truncated: bool = False
    trunc_top: tuple = None
    trunc_depth: int = None
    # lookups derived from dims/xmat/ymat; no part of equality or serialization
    _dim_of: dict = field(init=False, repr=False, compare=False, hash=False)
    _mat_of: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        mats = {}
        for kind, table in (("x", self.xmat), ("y", self.ymat)):
            for (i, n), m in table:
                mats[((kind, i), n)] = m
        object.__setattr__(self, "_dim_of", dict(self.dims))
        object.__setattr__(self, "_mat_of", mats)

    @staticmethod
    def make(rank, dims, xmat, ymat, provenance="custom", truncated=False,
             trunc_top=None, trunc_depth=None):
        dims = tuple(sorted((tuple(n), int(d)) for n, d in dict(dims).items() if d))
        xm = tuple(sorted(((i, tuple(n)), tuple(map(tuple, m)))
                          for (i, n), m in dict(xmat).items()))
        ym = tuple(sorted(((i, tuple(n)), tuple(map(tuple, m)))
                          for (i, n), m in dict(ymat).items()))
        return GradedModule(rank, dims, xm, ym, provenance, truncated,
                            tuple(trunc_top) if trunc_top else None, trunc_depth)

    # -- access ---------------------------------------------------------

    def support(self):
        return tuple(n for n, _d in self.dims)

    def dim(self, n):
        return self._dim_of.get(tuple(n), 0)

    def total_dim(self):
        return sum(d for _n, d in self.dims)

    def operator(self, letter, n):
        """Stored operator matrix V(n) -> V(n +- e_i), or None where the
        operator is absent (a zero map)."""
        return self._mat_of.get((tuple(letter), tuple(n)))

    def matrix(self, letter, n):
        """Operator matrix V(n) -> V(n +- e_i); zero map where absent."""
        m = self.operator(letter, n)
        if m is None:
            return zeros(self.dim(_shift(n, letter)), self.dim(n))
        return m

    def word_matrix(self, word, n):
        """Composite matrix of an operator word acting on V(n) (rightmost first)."""
        n = tuple(n)
        src_dim = self.dim(n)
        mat = identity(src_dim)
        v = n
        for letter in reversed(word):
            step = self.matrix(letter, v)
            mat = mat_mul(step, mat)
            v = _shift(v, letter)
        tgt_dim = self.dim(v)
        # mat_mul drops shape through zero-dimensional layers; restore it
        if len(mat) != tgt_dim or (tgt_dim and len(mat[0]) != src_dim):
            return zeros(tgt_dim, src_dim)
        return mat

    def depth_of(self, n):
        if self.trunc_top is None:
            return None
        return sum(t - x for t, x in zip(self.trunc_top, n))

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        def mat_out(m):
            return [[x.render() for x in row] for row in m]

        return {
            "rank": self.rank,
            "provenance": self.provenance,
            "truncated": self.truncated,
            "trunc_top": list(self.trunc_top) if self.trunc_top else None,
            "trunc_depth": self.trunc_depth,
            "dims": [[list(n), d] for n, d in self.dims],
            "x": [[i, list(n), mat_out(m)] for (i, n), m in self.xmat],
            "y": [[i, list(n), mat_out(m)] for (i, n), m in self.ymat],
        }

    @staticmethod
    def from_dict(data):
        from .qfield import parse_qscalar

        def mat_in(m):
            return tuple(tuple(parse_qscalar(x) for x in row) for row in m)

        return GradedModule.make(
            data["rank"],
            {tuple(n): d for n, d in data["dims"]},
            {(i, tuple(n)): mat_in(m) for i, n, m in data["x"]},
            {(i, tuple(n)): mat_in(m) for i, n, m in data["y"]},
            data.get("provenance", "custom"),
            data.get("truncated", False),
            tuple(data["trunc_top"]) if data.get("trunc_top") else None,
            data.get("trunc_depth"),
        )


def _shift(n, letter):
    kind, i = letter
    step = 1 if kind == "x" else -1
    return tuple(x + step if j == i else x for j, x in enumerate(n))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _check_weight(c, n0):
    n0 = tuple(int(x) for x in n0)
    if len(n0) != c.rank:
        raise ModuleError(
            "weight %s has length %d, expected rank %d" % (n0, len(n0), c.rank)
        )
    return n0


def trivial_module(c, f, n0):
    n0 = _check_weight(c, n0)
    for j in range(c.rank):
        if eval_f(f, c, j, n0):
            raise ModuleError(
                "no one-dimensional module at %s: f_%d(%s) = %s nonzero"
                % (n0, j + 1, n0, eval_f(f, c, j, n0).render())
            )
    return GradedModule.make(c.rank, {n0: 1}, {}, {}, "trivial")


def yn_presentation(c):
    """Free algebra on y_1..y_r with the y-chirality Serre relations."""
    gens = tuple(("y", i) for i in range(c.rank))
    rels = []
    for i in range(c.rank):
        for j in range(c.rank):
            if i != j:
                rels.append(serre_relation(c, i, j, "y"))
    rels.sort(key=lambda p: p.multidegree())
    return Presentation(c.rank, gens, tuple(rels), "yserre[%s]" % (c.series or c.rank))


def _rel_at(rel, f):
    """Serre relation with coefficients at the f family's parameter point.

    Scalar-valued families live at a fixed value of q (q = 1 for the
    classical ones); mixing their commutators with generic-q Serre
    coefficients would be inconsistent.
    """
    at = f.spec_point()
    if at is None:
        return rel
    return rel.map_coeff(lambda s: QScalar.from_rational(s.specialize(at)))


def _pres_at(pres, f):
    return Presentation(
        pres.rank,
        pres.generators,
        tuple(_rel_at(r, f) for r in pres.relations),
        pres.label,
    )


def truncated_verma(c, f, n0, depth):
    """Verma-type module truncated at the given y-depth.

    Basis: normal-form y-monomials applied to the highest vector; x-action
    computed by pushing generators through the commutator relation.
    """
    n0 = _check_weight(c, n0)
    depth = int(depth)
    if depth < 0:
        raise ModuleError("depth must be nonnegative")
    pres = _pres_at(yn_presentation(c), f)
    gb = groebner(pres, cap=depth + 1)
    normal_words = NormalWords(gb)
    levels = normal_words.by_length(None, depth)
    gb_index = normal_words.index
    order = gb.order.index()

    def wkey(w):
        return (len(w), tuple(order[l] for l in w))

    words = sorted((w for level in levels for w in level), key=wkey)
    basis_at = {}
    for w in words:
        n = tuple(a + b for a, b in zip(n0, word_degree(w, c.rank)))
        basis_at.setdefault(n, []).append(w)
    index = {}
    for n, ws in basis_at.items():
        for k, w in enumerate(ws):
            index[w] = (n, k)

    def as_vector(combo, n):
        vec = [_Z] * len(basis_at[n])
        for w, coeff in combo.items():
            wn, k = index[w]
            assert wn == n
            vec[k] = vec[k] + coeff
        return vec

    # y-action on basis words, as normal-form combinations
    ymat = {}
    for n, ws in basis_at.items():
        for i in range(c.rank):
            tgt = _shift(n, ("y", i))
            if tgt not in basis_at:
                continue
            cols = []
            for w in ws:
                nf = normal_form(
                    _pres.NCPoly.make({(("y", i),) + w: _O}, None, c.rank),
                    gb,
                    _index_cache=gb_index,
                )
                cols.append(as_vector(dict(nf.terms), tgt))
            ymat[(i, n)] = tuple(zip(*[tuple(col) for col in cols]))

    # x-action recursively: x_i (y_j u) = y_j (x_i u) + delta_ij f_i(wt(u)) u
    xcache = {}  # (i, word) -> combo dict on basis words

    def x_on_word(i, w):
        key = (i, w)
        if key in xcache:
            return xcache[key]
        if not w:
            xcache[key] = {}
            return {}
        (kind, j) = w[0]
        rest = w[1:]
        out = {}
        sub = x_on_word(i, rest)
        for u, coeff in sub.items():
            nf = normal_form(
                _pres.NCPoly.make({(("y", j),) + u: coeff}, None, c.rank),
                gb,
                _index_cache=gb_index,
            )
            for uu, cc in nf.terms:
                out[uu] = out.get(uu, _Z) + cc
        if i == j:
            wt = tuple(a + b for a, b in zip(n0, word_degree(rest, c.rank)))
            val = eval_f(f, c, i, wt)
            if val:
                out[rest] = out.get(rest, _Z) + val
        out = {u: v for u, v in out.items() if v}
        xcache[key] = out
        return out

    xmat = {}
    for n, ws in basis_at.items():
        for i in range(c.rank):
            tgt = _shift(n, ("x", i))
            if tgt not in basis_at:
                continue
            cols = [as_vector(x_on_word(i, w), tgt) for w in ws]
            xmat[(i, n)] = tuple(zip(*[tuple(col) for col in cols]))

    dims = {n: len(ws) for n, ws in basis_at.items()}
    return GradedModule.make(
        c.rank, dims, xmat, ymat, "verma-truncated",
        truncated=True, trunc_top=n0, trunc_depth=depth,
    )


def build_simple(c, f, n0, depth_cap=20):
    """Finite-dimensional simple with highest weight n0, by quotienting a
    truncated Verma by iterated singular-vector submodules.

    The Verma is truncated at depths 2, 4, 8, 16 and then ``depth_cap``;
    the first quotient that closes below its truncation depth is the simple
    (every singular vector down to that depth is one of the full Verma, so
    a deeper truncation gives the same module), and ``DepthCapError`` is
    raised when the quotient at ``depth_cap`` does not close.
    """
    n0 = _check_weight(c, n0)
    if f.kind in ("classical", "qinteger"):
        for j in range(c.rank):
            val = sum(c.a[i][j] * n0[i] for i in range(c.rank))
            if val < 0:
                raise ModuleError(
                    "weight %s not dominant: pairing %d with root %d negative"
                    % (n0, val, j + 1)
                )
    for cap in [d for d in (2, 4, 8, 16) if d < depth_cap] + [depth_cap]:
        M = _highest_weight_quotient(c, f, n0, cap)
        maxdepth = max(
            (sum(a - b for a, b in zip(n0, n)) for n in M.support()), default=0
        )
        if maxdepth < cap:
            break
    else:
        raise DepthCapError(
            "highest-weight module at %s did not close below depth %d"
            % (n0, depth_cap)
        )
    M = GradedModule.make(
        c.rank,
        dict(M.dims),
        dict(M.xmat),
        dict(M.ymat),
        "simple",
        truncated=False,
        trunc_top=n0,
        trunc_depth=None,
    )
    report = check_relations(c, f, M)
    if not report.passed:
        raise SingularParameterError(
            "simple construction produced an invalid module: %s" % (report.witnesses[:1],)
        )
    return M


def _highest_weight_quotient(c, f, n0, depth):
    """The Verma at n0 truncated at depth, quotiented by singular-vector
    submodules until none is left."""
    M = truncated_verma(c, f, n0, depth)
    while True:
        sing = _singular_vectors(c, M)
        if not sing:
            return M
        M = _quotient(c, M, _generated_submodule(M, sing), provenance="simple")


def _killed_by_x(c, M, n, d):
    """Basis of the vectors in the weight space V(n) killed by every x_i."""
    rows = []
    for i in range(c.rank):
        rows.extend(M.matrix(("x", i), n))
    return nullspace(rows, d)


def _singular_vectors(c, M):
    """Nonzero vectors at depth > 0 killed by every x_i, per weight."""
    top = M.trunc_top
    out = {}
    for n, d in M.dims:
        if top is not None and n == top:
            continue
        basis = _killed_by_x(c, M, n, d)
        if basis:
            out[n] = basis
    return out


def _generated_submodule(M, seeds):
    """Close seed vectors (per weight) under all operators."""
    spaces = {n: Subspace(d) for n, d in M.dims}
    queue = []
    for n, vecs in seeds.items():
        for v in vecs:
            if spaces[n].add(v):
                queue.append((n, v))
    letters = [("x", i) for i in range(M.rank)] + [("y", i) for i in range(M.rank)]
    while queue:
        n, v = queue.pop()
        for letter in letters:
            tgt = _shift(n, letter)
            if M.dim(tgt) == 0:
                continue
            w = mat_vec(M.matrix(letter, n), v)
            if any(w) and spaces[tgt].add(w):
                queue.append((tgt, w))
    return {n: sp for n, sp in spaces.items() if sp.dim}


def _quotient(c, M, sub, provenance):
    """Quotient by a graded submodule given as Subspace per weight."""
    inj = {}
    proj = {}
    newdims = {}
    for n, d in M.dims:
        sp = sub.get(n)
        if sp is None:
            newdims[n] = d
            inj[n] = identity(d)
            proj[n] = identity(d)
            continue
        pivot_set = set(sp.pivots)
        free = [j for j in range(d) if j not in pivot_set]
        if not free:
            continue
        newdims[n] = len(free)
        inj[n] = tuple(
            tuple(_O if j == fj else _Z for fj in free) for j in range(d)
        )
        # projection: reduce each unit vector modulo the subspace (the result
        # is supported on free coordinates), then read those off
        red_units = []
        for j in range(d):
            unit = [_Z] * d
            unit[j] = _O
            red_units.append(sp.reduce(unit))
        proj[n] = tuple(tuple(red_units[j][fj] for j in range(d)) for fj in free)

    def induced(table, kind):
        out = {}
        for (i, n), mat in table:
            tgt = _shift(n, (kind, i))
            if n not in newdims or tgt not in newdims:
                continue
            m = mat_mul(proj[tgt], mat_mul(mat, inj[n]))
            out[(i, n)] = m
        return out

    return GradedModule.make(
        c.rank,
        newdims,
        induced(M.xmat, "x"),
        induced(M.ymat, "y"),
        provenance,
        truncated=M.truncated,
        trunc_top=M.trunc_top,
        trunc_depth=M.trunc_depth,
    )


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witnesses: tuple  # (relation name, weight, residual matrix)

    def __bool__(self):
        return self.passed


def check_relations(c, f, M):
    """Exact verification of grading shifts, commutators and both Serre families."""
    witnesses = []
    support = set(M.support())

    def trusted(n):
        if not M.truncated or M.trunc_depth is None:
            return True
        d = M.depth_of(n)
        return d is not None and d < M.trunc_depth

    # shape sanity for stored matrices
    for table, kind in ((M.xmat, "x"), (M.ymat, "y")):
        for (i, n), mat in table:
            tgt = _shift(n, (kind, i))
            if len(mat) != M.dim(tgt) or (mat and len(mat[0]) != M.dim(n)):
                witnesses.append(("grading[%s%d]" % (kind, i + 1), n, mat))

    for n in sorted(support):
        if not trusted(n):
            continue
        for i in range(c.rank):
            for j in range(c.rank):
                a = mat_mul(M.matrix(("x", i), _shift(n, ("y", j))), M.matrix(("y", j), n))
                b = mat_mul(M.matrix(("y", j), _shift(n, ("x", i))), M.matrix(("x", i), n))
                res = mat_add(a, mat_scale(b, QScalar.from_rational(-1)))
                if i == j:
                    val = eval_f(f, c, j, n)
                    if val:
                        res = mat_add(res, mat_scale(identity(M.dim(n)), -val))
                if any(any(row) for row in res):
                    witnesses.append(("comm[%d,%d]" % (i + 1, j + 1), n, res))

    for n in sorted(support):
        for chirality in ("x", "y"):
            for i in range(c.rank):
                for j in range(c.rank):
                    if i == j:
                        continue
                    rel = _rel_at(serre_relation(c, i, j, chirality), f)
                    tgt = tuple(a + b for a, b in zip(n, rel.multidegree()))
                    acc = zeros(M.dim(tgt), M.dim(n))
                    for w, coeff in rel.terms:
                        acc = mat_add(acc, mat_scale(M.word_matrix(w, n), coeff))
                    if any(any(row) for row in acc):
                        witnesses.append(
                            ("serre_%s[%d,%d]" % (chirality, i + 1, j + 1), n, acc)
                        )

    return CheckReport(not witnesses, tuple(witnesses))


def is_simple(c, f, M):
    """True iff the finite-dimensional weight module M is simple.

    Exact criterion: the vectors killed by every x_i, summed over all weights
    (the top one included), form a 1-dimensional space, and its spanning
    vector generates M.  Every nonzero submodule of a finite-dimensional
    weight module contains such a vector, so the two conditions force every
    nonzero submodule to be M; conversely a simple M is spanned by y-words on
    any of its singular vectors (the commutators are scalar at each weight),
    so two independent singular vectors cannot both generate it.
    """
    singular = {}
    for n, d in M.dims:
        basis = _killed_by_x(c, M, n, d)
        if basis:
            singular[n] = basis
    if sum(len(vecs) for vecs in singular.values()) != 1:
        return False
    closure = _generated_submodule(M, singular)
    return sum(sp.dim for sp in closure.values()) == M.total_dim()


def perturb_entry(M, kind, i, n, row, col, delta):
    """Copy of M with one operator entry shifted by delta (for failure tests)."""
    n = tuple(n)
    xm = dict(M.xmat)
    ym = dict(M.ymat)
    table = xm if kind == "x" else ym
    mat = [list(r) for r in table[(i, n)]]
    mat[row][col] = mat[row][col] + delta
    table[(i, n)] = tuple(map(tuple, mat))
    return GradedModule.make(
        M.rank, dict(M.dims), xm, ym, M.provenance + "+perturbed",
        M.truncated, M.trunc_top, M.trunc_depth,
    )
