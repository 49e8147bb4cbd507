"""Concrete graded modules: trivial, simple highest-weight, truncated Verma.

A GradedModule stores finite-support weight spaces with exact operator
matrices.  Constructors fix the basis inside each weight space by the
normal-form order of y-monomials, so every matrix is reproducible.  Both
highest-weight constructors walk the coded levels of ``NormalWords.levels``
and read the x-images of each level's words off the levels above
(``_walk``).  A truncated Verma keeps every normal y-word, and its y
matrices are normal forms.  The simple keeps the words whose x-images are
independent, since these fix a vector below the top weight, and solves for
its y matrices; the first empty level ends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qfield import QScalar
from .presentation import (
    Presentation,
    eval_f,
    serre_relation,
    _rel_at,
)
from .gbasis import Completion, NormalWords, _reduce_full
from .linalg import (
    Subspace,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    nullspace,
    solve,
    zeros,
)

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
    # lookups derived from dims/xmat/ymat and the word products kept by
    # word_matrix; no part of equality or serialization
    _dim_of: dict = field(init=False, repr=False, compare=False, hash=False)
    _mat_of: dict = field(init=False, repr=False, compare=False, hash=False)
    _word_mats: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        mats = {}
        for kind, table in (("x", self.xmat), ("y", self.ymat)):
            for (i, n), m in table:
                mats[((kind, i), n)] = m
        object.__setattr__(self, "_dim_of", dict(self.dims))
        object.__setattr__(self, "_mat_of", mats)
        object.__setattr__(self, "_word_mats", {})  # (word, n) -> word_matrix

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
        """Composite matrix of an operator word (a tuple of letters) acting
        on V(n), rightmost letter first.

        Products are kept on the module by word and source weight.  A new
        word starts from the product of its longest kept proper suffix, and
        the products of its longer suffixes are kept too, so the words that
        share a suffix share its product.  A word whose path meets a zero
        weight space gives the zero matrix of its shape.
        """
        n = tuple(n)
        mats = self._word_mats
        mat = mats.get((word, n))
        if mat is not None:
            return mat
        src_dim = self.dim(n)
        path = [n]
        for letter in reversed(word):
            path.append(_shift(path[-1], letter))
        if not all(map(self.dim, path)):
            mat = mats[(word, n)] = zeros(self.dim(path[-1]), src_dim)
            return mat
        k, mat = len(word), identity(src_dim)
        for start in range(1, len(word)):
            hit = mats.get((word[start:], n))
            if hit is not None:
                k, mat = start, hit
                break
        for j in reversed(range(k)):
            v = path[len(word) - 1 - j]
            mat = mat_mul(self.matrix(word[j], v), mat)
            tgt_dim = self.dim(_shift(v, word[j]))
            # a stored matrix of the wrong shape; check_relations names it
            if len(mat) != tgt_dim or len(mat[0]) != src_dim:
                mat = zeros(tgt_dim, src_dim)
            mats[(word[j:], n)] = mat
        mats[(word, n)] = mat
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


def _pres_at(pres, f):
    return Presentation(
        pres.rank,
        pres.generators,
        tuple(_rel_at(r, f) for r in pres.relations),
        pres.label,
    )


def truncated_verma(c, f, n0, depth):
    """Verma-type module truncated at the given y-depth.

    Basis: the normal y-words of length at most ``depth`` applied to the
    highest vector, at each weight in code order.  The module is built on
    the level walk of ``build_simple`` (``_walk``), keeping every word: the
    x matrices are the x-images the walk reads off the levels above, and the
    y matrices are the normal forms of ``y_i u``, read as coordinates.
    """
    n0 = _check_weight(c, n0)
    depth = int(depth)
    if depth < 0:
        raise ModuleError("depth must be nonnegative")
    pres = _pres_at(yn_presentation(c), f)
    words = NormalWords(Completion(pres, depth).advance(depth))
    basis_at = {n0: [""]}  # weight -> its words in code order

    def keep(n, cands, _images):
        basis_at[n] = sorted(cands)
        return basis_at[n]

    def y_matrix(n, i, _ys, _basis):
        pos = {w: k for k, w in enumerate(basis_at[n])}
        y = words.code.encode((("y", i),))
        cols = []
        for u in basis_at[_shift(n, ("x", i))]:
            col = [_Z] * len(pos)
            for w, v in _reduce_full({y + u: _O}, None, words.index).items():
                col[pos[w]] = v
            cols.append(col)
        return tuple(zip(*cols))

    dims, xmat, ymat = _walk(c, f, n0, words, depth, keep, y_matrix)
    return GradedModule.make(
        c.rank, dims, xmat, ymat, "verma-truncated",
        truncated=True, trunc_top=n0, trunc_depth=depth,
    )


def build_simple(c, f, n0, depth_cap=20):
    """Finite-dimensional simple L(n0), built one y-level at a time.

    Below the top weight a vector of L(n0) is determined by its x-images
    (a vector every x_j kills would generate a proper submodule), so
    ``L_mu`` is the span of the x-images of the normal y-words of weight mu
    (``_walk``).  At each weight the words are taken from the last one in
    code order back to the first, and a word joins the basis when its image
    is independent of those kept: these are the columns that the quotient
    of the Verma by its radical keeps.  The y matrices solve the images of
    ``y_i`` in the kept ones.  The first empty level ends the module, since
    every deeper vector is a y applied to it; ``DepthCapError`` is raised
    when level ``depth_cap`` is not empty.
    """
    n0 = _check_weight(c, n0)
    if f.kind in ("classical", "qinteger"):
        for j in range(c.rank):
            val = sum(c.a[j][i] * n0[i] for i in range(c.rank))
            if val < 0:
                raise ModuleError(
                    "weight %s not dominant: pairing %d with root %d negative"
                    % (n0, val, j + 1)
                )
    pres = _pres_at(yn_presentation(c), f)
    words = NormalWords(Completion(pres, depth_cap).advance(depth_cap))

    def keep(_n, cands, images):
        span = Subspace(len(images[cands[0]]))
        kept = [w for w in sorted(cands, reverse=True) if span.add(images[w])]
        return kept[::-1]

    def y_matrix(n, i, ys, basis):
        sol = solve(basis, ys)
        if sol is None:
            raise SingularParameterError(
                "y_%d on weight %s leaves the span of the normal words at %s"
                % (i + 1, _shift(n, ("x", i)), n)
            )
        return sol

    dims, xmat, ymat = _walk(c, f, n0, words, depth_cap, keep, y_matrix)
    if max(sum(n0) - sum(n) for n in dims) == depth_cap:
        raise DepthCapError(
            "highest-weight module at %s did not close below depth %d"
            % (n0, depth_cap)
        )
    M = GradedModule.make(
        c.rank, dims, xmat, ymat, "simple", truncated=False, trunc_top=n0,
    )
    report = check_relations(c, f, M)
    if not report.passed:
        raise SingularParameterError(
            "simple construction produced an invalid module: %s" % (report.witnesses[:1],)
        )
    return M


def _walk(c, f, n0, words, maxlen, keep, y_matrix):
    """dims, xmat and ymat of a module with top weight n0, built one level
    of the coded normal y-words ``words`` at a time, up to level ``maxlen``
    or the first level that adds no weight.

    The candidates at a weight n are the words ``y_i u`` of the level whose
    tail u was built.  Their x-images ``x_j y_i u = y_i x_j u + delta_ij
    f_i(n+e_i) u`` are read off the levels above (``_y_images``).
    ``keep(n, cands, images)`` lists the words that form the basis at n, in
    code order, and their images are the columns of the x matrices.
    ``y_matrix(n, i, ys, basis)`` gives the matrix of ``y_i: V(n+e_i) ->
    V(n)``, where ``ys`` maps V(n+e_i) to the x-images and ``basis`` holds
    the kept images as columns.  Each word keeps the coordinates of its class.
    """
    letter_of = {words.code.encode((("y", i),)): i for i in range(c.rank)}
    dims = {n0: 1}
    xmat, ymat = {}, {}
    last = {"": (n0, (_O,))}  # word -> (weight, coordinates of its class)
    levels = words.levels(None, maxlen)
    next(levels)  # level 0 is the top weight
    for level in levels:
        at = {}
        for w in level:
            if w[1:] in last:
                n = _shift(last[w[1:]][0], ("y", letter_of[w[0]]))
                at.setdefault(n, []).append(w)
        out = {}
        for n, cands in sorted(at.items()):
            ups = [j for j in range(c.rank) if _shift(n, ("x", j)) in dims]
            ys = {i: _y_images(c, f, dims, xmat, ymat, n, i, ups) for i in ups}
            images = {w: mat_vec(ys[letter_of[w[0]]], last[w[1:]][1]) for w in cands}
            kept = keep(n, cands, images)
            if not kept:
                continue
            basis = tuple(zip(*(images[w] for w in kept)))
            dims[n] = len(kept)
            row = 0
            for j in ups:
                d = dims[_shift(n, ("x", j))]
                xmat[(j, n)] = basis[row:row + d]
                row += d
            for i in ups:
                ymat[(i, _shift(n, ("x", i)))] = y_matrix(n, i, ys[i], basis)
            for w in cands:
                src, vec = last[w[1:]]
                out[w] = (n, mat_vec(ymat[(letter_of[w[0]], src)], vec))
        if not out:
            break
        last = out
    return dims, xmat, ymat


def _y_images(c, f, dims, xmat, ymat, n, i, ups):
    """Matrix of ``v -> (x_j y_i v)_{j in ups}`` on the built weight n + e_i,
    through ``x_j y_i = y_i x_j + delta_ij f_i`` and the levels above n."""
    src = _shift(n, ("x", i))
    rows = []
    for j in ups:
        up = _shift(src, ("x", j))
        block = zeros(dims[_shift(n, ("x", j))], dims[src])
        if up in dims:
            block = mat_mul(ymat[(i, up)], xmat[(j, src)])
        if i == j:
            block = mat_add(block, mat_scale(identity(dims[src]), eval_f(f, c, i, src)))
        rows.extend(block)
    return tuple(rows)


def _killed_by_x(c, M, n, d):
    """Basis of the vectors in the weight space V(n) killed by every x_i."""
    rows = []
    for i in range(c.rank):
        rows.extend(M.matrix(("x", i), n))
    return nullspace(rows, d)


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
    """Exact verification of grading shifts, commutators and both Serre families.

    The word products of the Serre check are kept on M (``word_matrix``)
    only for the duration of the call; the products M held before are kept.
    """
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

    serre = [
        ("serre_%s[%d,%d]" % (chirality, i + 1, j + 1),
         _rel_at(serre_relation(c, i, j, chirality), f))
        for chirality in ("x", "y")
        for i in range(c.rank)
        for j in range(c.rank)
        if i != j
    ]
    products = M._word_mats
    kept = len(products)
    try:
        for n in sorted(support):
            for name, rel in serre:
                tgt = tuple(a + b for a, b in zip(n, rel.multidegree()))
                acc = zeros(M.dim(tgt), M.dim(n))
                for w, coeff in rel.terms:
                    acc = mat_add(acc, mat_scale(M.word_matrix(w, n), coeff))
                if any(any(row) for row in acc):
                    witnesses.append((name, n, acc))
    finally:
        for key in list(products)[kept:]:
            del products[key]

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
