"""Ext computation over windowed category algebras, with conjecture checks.

The windowed algebra is handled through its normal-path basis, truncated at a
path-length cap.  Projective resolutions are tracked by generator weights and
differential entries (normal-form path combinations).  Kernels are computed
weight by weight over Z/p at q0 (``qfield.MOD_P``, ``MOD_Q0``) from normal
forms mod p, and stage extraction chooses generators and closes their span
there.  Normal forms mod p come from one memoized letter action
(``WindowedAlgebra.letter_mod``: a letter times a normal word, divisible at
position 0 only) on which ``nf_mod`` and the closure are built; exact
normal forms keep the heap reducer of ``gbasis``.  Exact arithmetic is kept
for what is output or checked exactly: each chosen generator is read off
the exact kernel at its weight and must reduce to its mod-p candidate, and
``d o d = 0``, the Ext ranks and the Yoneda lifts are exact.  A per-stage
certificate proves that the generators generate each kernel; a per-stage
length budget records where the truncated computation is faithful; trust for
verdicts additionally requires agreement across two window radii, and
``d o d = 0`` verified on the resolutions of both.

Each window is one ``gbasis.Completion`` (``_window_algebra``), and its
coded lead index is the only form of its basis: the Anick chains
(``gbasis.chains``) are read off it and a ``WindowedAlgebra`` is built on it.
When every module is a vertex simple the length cap is sized from the
chains; otherwise it is ``2 * radius + 4``.  Where the cap holds the
longest chain through stage homcap + 1 and no two consecutive stages hold
chains that end at the same target vertex, the Hom complex of the chain
resolution has zero differential, so ``Ext^p(S_i, S_j)`` is the number of
stage-p chains from s_i that end at s_j (``_chain_ext``).  Such a window
stops there and resolves nothing, unless it is the last one and a Yoneda
check reads its resolutions; then it goes on to the cap that the chains'
bounds on the differential entries give, as every window the chains do not
read does, and the two paths must agree.  ``schur_check`` reads them only
where the flag target lets it square a degree-2 class (Ext^2 = 1,
Ext^4 = 0).

The algebra keeps words coded as ``gbasis`` does (``WindowedAlgebra.code``:
``str`` words, ``int`` vertices).  Its normal paths, normal forms and
letter action, the projective bases, the kernel vectors over them, the
differential entries of ``Stage.diff`` and the Yoneda lifts are on codes.
A word is decoded only where a module matrix acts on it (``word_matrix``,
``_act_mod``) and in error messages.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

from .qfield import MOD_P, QScalar
from .presentation import instantiate_window, word_target
from .gbasis import Completion, NormalWords, chains, _find_divisor, _reduce_full
from .linalg import (
    ModularSpan,
    Subspace,
    mat_add,
    mat_rank,
    mat_scale,
    mat_vec,
    nullspace,
    nullspace_mod,
    solve,
    zeros,
)
from .modules import _generated_submodule
from .rootdata import flag_betti, weyl_table

__all__ = [
    "WindowedAlgebra",
    "Resolution",
    "ExtTable",
    "SchurReport",
    "ExtError",
    "MarginError",
    "InstabilityError",
    "ExtractionError",
    "KernelLiftError",
    "ClosureEscapeError",
    "WindowModuleError",
    "build_algebra",
    "low_degree_ext",
    "minimal_resolution",
    "ext_dims",
    "ext_table",
    "ext_cocycle_basis",
    "yoneda_square",
    "yoneda_product",
    "schur_check",
    "koszul_check",
    "euler_check",
]

_Z = QScalar.zero()
_O = QScalar.one()


class ExtError(RuntimeError):
    pass


class MarginError(ExtError):
    """Module support too close to the window boundary for a trusted answer."""


class InstabilityError(ExtError):
    """A product or verdict was requested from unstable Ext data."""


class ExtractionError(ExtError):
    """The extracted generators of a stage do not generate its kernel at a weight.

    ``rank`` is the rank of the generated span there, ``dim`` the kernel
    dimension mod p; ``stage`` is the stage's index once it is known.
    """

    def __init__(self, weight, rank, dim, stage=None):
        self.weight, self.rank, self.dim, self.stage = weight, rank, dim, stage
        super().__init__(self._message())

    def _where(self):
        return "stage %d" % self.stage if self.stage is not None else "a stage"

    def _message(self):
        return "%s: the generators span %d of the %d kernel dimensions at weight %s" % (
            self._where(), self.rank, self.dim, self.weight
        )

    def set_stage(self, stage):
        self.stage = stage
        self.args = (self._message(),)


class KernelLiftError(ExtractionError):
    """A kernel vector mod p chosen as a generator is not the image of the
    exact kernel vector at its position.

    ``index`` is the vector's position in the kernel basis at ``weight``,
    ``dim`` the exact kernel dimension there.
    """

    def __init__(self, weight, index, dim, stage=None):
        self.weight, self.index, self.dim, self.stage = weight, index, dim, stage
        self.rank = None
        ExtError.__init__(self, self._message())

    def _message(self):
        return (
            "%s: kernel vector %d mod p at weight %s is not the image of the "
            "exact one (exact kernel dimension %d)"
            % (self._where(), self.index, self.weight, self.dim)
        )


class ClosureEscapeError(ExtractionError):
    """The arrow action took a kernel element at ``source`` to a word that is
    not in the domain basis at ``weight``; ``word`` is that word.

    A letter times a normal word of length below the budget reduces to
    normal words of at most its length, so this names a fault in the letter
    action or in the bookkeeping of the bases, never a property of the data.
    """

    def __init__(self, source, weight, word, stage=None):
        self.source, self.weight, self.word, self.stage = source, weight, word, stage
        self.rank = self.dim = None
        ExtError.__init__(self, self._message())

    def _message(self):
        return (
            "%s: the closure of a kernel element at weight %s left the domain "
            "basis at weight %s (word %s)"
            % (self._where(), self.source, self.weight, self.word)
        )


class WindowModuleError(ExtError):
    """The module to resolve is not a module of the window algebra: its
    support leaves the box, or a window relation does not act as zero.

    ``weight`` is where it fails, ``relation`` the relation's name (None
    for a weight outside the box).
    """

    def __init__(self, weight, relation=None):
        self.weight, self.relation = weight, relation
        if relation is None:
            text = "module weight %s lies outside the window box" % (weight,)
        else:
            text = (
                "window relation %s at weight %s does not act as zero on the module"
                % (relation, weight)
            )
        super().__init__(text)


# ---------------------------------------------------------------------------
# windowed algebra with normal-path basis
# ---------------------------------------------------------------------------


class WindowedAlgebra:
    """The window algebra of ``quiver`` on the coded lead index of ``basis``,
    an advanced ``gbasis.Completion`` (``NormalWords``), up to its cap
    ``lencap``."""

    def __init__(self, quiver, basis):
        self.quiver = quiver
        self._words = NormalWords(basis, box_radius=quiver.radius)
        self.lencap = self._words.cap
        self._index = self._words.index
        self.code = self._words.code
        # (letter, code) for each letter of ``letters``, in that order
        self.coded_letters = [(a, self.code.encode((a,))) for a in self.letters()]
        # source code -> levels 0..depth, where depth is the deepest length
        # asked of it so far; deeper requests continue from _pending
        self._levels = {}
        self._pending = {}  # source code -> NormalWords.levels iterator, until lencap
        self._by_target = {}  # source code -> {target code: [word]} in levels order
        self._nf_cache = {}
        self._nf_mod_cache = {}

    @property
    def rank(self):
        return self.quiver.rank

    def letters(self):
        r = self.rank
        return [("x", i) for i in range(r)] + [("y", i) for i in range(r)]

    def encode(self, word):
        """The code of a tuple of letters (``gbasis.WordCode``)."""
        return self.code.encode(word)

    def decode(self, word):
        """The tuple of letters of a coded word."""
        return self.code.decode(word)

    def levels_from(self, source, maxlen=None):
        """Coded normal paths from the vertex source inside the window, per
        length 0..min(maxlen, lencap); all lencap + 1 levels when maxlen is
        None, none when it is negative.

        Levels are enumerated on demand: a source keeps the levels up to the
        deepest length requested so far, and a deeper request continues the
        same ``NormalWords.levels`` iterator, so the words and their order
        do not depend on the order of requests.
        """
        source = self.code.vertex(tuple(source))
        depth = self.lencap if maxlen is None else max(min(maxlen, self.lencap), -1)
        levels = self._levels.get(source)
        if levels is None:
            levels = self._levels[source] = []
            self._by_target[source] = {}
            self._pending[source] = self._words.levels(source, self.lencap, targets=True)
        if len(levels) <= depth:
            by_target = self._by_target[source]
            pending = self._pending[source]
            while len(levels) <= depth:
                level = next(pending)
                levels.append([w for w, _t in level])
                for w, t in level:
                    by_target.setdefault(t, []).append(w)
            if len(levels) > self.lencap:
                del self._pending[source]
        # a copy until the levels are complete: a deeper request extends them
        return levels if depth == self.lencap else levels[: depth + 1]

    def component(self, source, target, maxlen):
        """Ordered basis of coded normal paths source -> target with length
        <= maxlen, for vertices source and target.

        Enumerates the paths from source only to length maxlen (through
        ``levels_from``), not to lencap.
        """
        source = tuple(source)
        self.levels_from(source, maxlen)
        code = self.code
        words = self._by_target[code.vertex(source)].get(code.vertex(tuple(target)), [])
        return words[: bisect_right(words, maxlen, key=len)]

    def nf(self, word, source):
        """Normal form of a coded word from a vertex code: dict {word: QScalar}."""
        self._check_len(word)
        key = (word, source)
        hit = self._nf_cache.get(key)
        if hit is None:
            hit = _reduce_full({word: _O}, source, self._index)
            self._nf_cache[key] = hit
        return hit

    def nf_mod(self, word, source):
        """The image of ``nf`` mod p at q0: dict {word: int in [0, MOD_P)}.

        It is the letter action of ``word[0]`` on ``nf_mod(word[1:])``, so
        words that share a suffix share the cached normal forms below it.
        """
        self._check_len(word)
        key = (word, source)
        hit = self._nf_mod_cache.get(key)
        if hit is None:
            if not word:
                return {word: 1}
            hit = self._letter_on(word[0], self.nf_mod(word[1:], source), source)
            self._nf_mod_cache[key] = hit
        return hit

    def letter_mod(self, letter, word, source):
        """``nf_mod(letter + word)`` for a normal word: the letter action.

        A divisor of ``letter + word`` can only start at position 0, so one
        trie walk finds it (``_find_divisor`` with ``stop=1``).  With none the
        word is normal.  Otherwise write it ``u r`` with ``u`` the lead of the
        element g found and ``r`` normal; the result is ``-sum c_t nf(t r)``
        over the other terms ``c_t t`` of g, and each ``nf(t r)`` is the
        action of the letters of ``t``, right to left, on ``{r: 1}``.  Every
        word acted on there is smaller than ``letter + word`` in the
        admissible order, so the recursion ends; results are memoized in the
        cache ``nf_mod`` uses, under the key ``(letter + word, source)``.

        Soundness: the basis is confluent on words up to ``lencap``
        (Bergman's diamond lemma), so whichever divisor is rewritten first
        the result is the unique normal form; each rewrite maps mod p, since
        the elements are monic and ``QScalar.modp`` is a ring map.  So the
        action returns exactly the image mod p of ``nf``.
        """
        word = letter + word
        key = (word, source)
        hit = self._nf_mod_cache.get(key)
        if hit is not None:
            return hit
        self._check_len(word)
        found = _find_divisor(word, source, self._index, stop=1)
        if found is None:
            hit = {word: 1}
        else:
            g = found[1]
            lead = g.lead
            rest = word[len(lead):]
            acc = {}
            for t, c in g.mod_terms().items():
                if t == lead:
                    continue
                vec = {rest: 1}
                for l in reversed(t):
                    vec = self._letter_on(l, vec, source)
                for w, n in vec.items():
                    acc[w] = acc.get(w, 0) - c * n
            hit = {w: n % MOD_P for w, n in acc.items() if n % MOD_P}
        self._nf_mod_cache[key] = hit
        return hit

    def _letter_on(self, letter, vec, source):
        """The letter action on a combination {normal word: int} mod p."""
        if len(vec) == 1:
            (w, c), = vec.items()
            if c == 1:
                return self.letter_mod(letter, w, source)
        acc = {}
        for w, c in vec.items():
            for w2, n in self.letter_mod(letter, w, source).items():
                acc[w2] = acc.get(w2, 0) + c * n
        return {w: n % MOD_P for w, n in acc.items() if n % MOD_P}

    def _check_len(self, word):
        if len(word) > self.lencap:
            raise ExtError(
                "word length %d beyond certified region %d" % (len(word), self.lencap)
            )

    def describe(self):
        return "%s;lencap=%d" % (self.quiver.describe(), self.lencap)


def build_algebra(c, f, radius, margin, lencap=None):
    if lencap is None:
        lencap = 2 * radius + 4
    quiver = instantiate_window(c, f, radius, margin)
    return WindowedAlgebra(quiver, Completion(quiver, lencap).advance(lencap))


# ---------------------------------------------------------------------------
# resolutions by generator bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    gens: tuple  # generator weights
    diff: tuple  # per gen: ((prev_gen_idx, coded word), QScalar) pairs; stage 0: ()
    aug: tuple  # stage 0 only: per gen a coordinate vector in V(w)
    budget: int  # path lengths for which this stage's components are faithful


@dataclass(frozen=True)
class Resolution:
    algebra: WindowedAlgebra
    module: object
    stages: tuple
    dd_verified: bool


def _module_generators(V):
    """Greedy generating set of V: (weight, vector) pairs, deterministic order."""
    spans = {n: Subspace(d) for n, d in V.dims}
    gens = []
    for n, d in V.dims:
        for k in range(d):
            unit = [_Z] * d
            unit[k] = _O
            unit = tuple(unit)
            if spans[n].contains(unit):
                continue
            gens.append((n, unit))
            for m, space in _generated_submodule(V, {n: [unit]}).items():
                for v in space.basis():
                    spans[m].add(v)
    return gens


def _pbasis(algebra, stage, m):
    """Ordered basis [(gen_idx, coded word)] of the stage's projective at weight m."""
    out = []
    for g, w in enumerate(stage.gens):
        for word in algebra.component(w, m, stage.budget):
            out.append((g, word))
    return out


def _compose(elem, images, sources, nf):
    """An element times the images of its generators, in normal form.

    ``elem`` is a combination ``((g, word), c)`` of coded words on
    generators, ``images[g]`` the image of generator g as pairs
    ``((gp, u), c2)``, and ``sources[gp]`` the vertex code of generator gp.
    Returns ``sum c * c2 * nf(word + u, sources[gp])`` as {(gp, word): coeff}
    with zero coefficients dropped.  With ``nf = algebra.nf`` the
    coefficients are ``QScalar``; with ``algebra.nf_mod`` and int
    coefficients they are ints, read mod p.
    """
    out = {}
    for (g, word), c in elem:
        for (gp, u), c2 in images[g]:
            cc = c * c2
            for w2, c3 in nf(word + u, sources[gp]).items():
                key = (gp, w2)
                out[key] = out[key] + cc * c3 if key in out else cc * c3
    return {key: c for key, c in out.items() if c}


def _diff_matrix(algebra, stages, p, m, diff_mod=None):
    """Matrix of d_p at weight m: P_p(m) -> P_{p-1}(m) in the ordered bases.

    Column b is ``_compose`` of the basis element b with stage p's
    differential entries.  With ``diff_mod`` (those entries mod p,
    ``_mod_data``) the matrix is over Z/p: its entries are ints, read mod p,
    built from ``nf_mod``.
    """
    stage = stages[p]
    prev = stages[p - 1]
    dom = _pbasis(algebra, stage, m)
    cod = _pbasis(algebra, prev, m)
    cindex = {b: i for i, b in enumerate(cod)}
    if diff_mod is None:
        diff, nf, zero, one = stage.diff, algebra.nf, _Z, _O
    else:
        diff, nf, zero, one = diff_mod, algebra.nf_mod, 0, 1
    sources = [algebra.code.vertex(w) for w in prev.gens]
    cols = []
    for b in dom:
        vec = [zero] * len(cod)
        for key, c in _compose(((b, one),), diff, sources, nf).items():
            i = cindex.get(key)
            if i is None:
                raise ExtError(
                    "differential image escaped the budgeted basis at %s" % (m,)
                )
            vec[i] = c
        cols.append(vec)
    rows = tuple(tuple(col[i] for col in cols) for i in range(len(cod)))
    return dom, cod, rows


def _act_mod(V, word, n, vec):
    """The action of an operator word on an int vector of V(n), mod p.

    Once the vector is zero or meets an operator V lacks, the result is the
    zero vector of V at the word's target; no further letter is applied.
    """
    for k in reversed(range(len(word))):
        letter = word[k]
        mat = V.operator(letter, n)
        if mat is None or not any(vec):
            return [0] * V.dim(word_target(word[: k + 1], n))
        vec = [
            sum(x.modp() * y for x, y in zip(row, vec) if x and y) % MOD_P
            for row in mat
        ]
        n = word_target((letter,), n)
    return vec


def _aug_matrix(algebra, stage, V, m, aug_mod=None):
    """Matrix of the augmentation P_0(m) -> V(m); over Z/p with ``aug_mod``
    (the stage's augmentation vectors mod p).

    Where V(m) = 0 the matrix has no rows, so the domain basis is returned
    without acting on any word.
    """
    dom = _pbasis(algebra, stage, m)
    dim = V.dim(m)
    if not dim:
        return dom, ()
    cols = []
    for (g, word) in dom:
        w = stage.gens[g]
        word = algebra.decode(word)
        if aug_mod is None:
            vec = mat_vec(V.word_matrix(word, w), stage.aug[g])
        else:
            vec = _act_mod(V, word, w, aug_mod[g])
        cols.append(vec)
    rows = tuple(tuple(col[i] for col in cols) for i in range(dim))
    return dom, rows


def _map_matrix(algebra, stages, V, k, m, mod=None):
    """Domain basis and matrix at weight m of the map out of stage k: the
    augmentation to V for k = 0, d_k otherwise.  With ``mod`` (stage k's
    augmentation vectors or differential entries mod p) it is over Z/p."""
    if k == 0:
        return _aug_matrix(algebra, stages[0], V, m, mod)
    dom, _cod, rows = _diff_matrix(algebra, stages, k, m, diff_mod=mod)
    return dom, rows


def _exact_kernel(algebra, stages, V, k, m):
    """Exact kernel basis at weight m of the map out of stage k."""
    dom, rows = _map_matrix(algebra, stages, V, k, m)
    return nullspace(rows, len(dom))


def _mod_data(stage):
    """A stage's augmentation vectors (stage 0) or differential entries,
    mod p."""
    if stage.aug:
        return tuple(tuple(x.modp() for x in v) for v in stage.aug)
    return tuple(tuple((b, c.modp()) for b, c in entry) for entry in stage.diff)


def _check_window_module(quiver, V):
    """Raise WindowModuleError unless V is a module of the window algebra:
    supp(V) lies in the box and every window relation anchored at a weight
    of supp(V) acts as zero on V, exactly."""
    box = set(quiver.vertices)
    support = set(V.support())
    for n in sorted(support):
        if n not in box:
            raise WindowModuleError(n)
    for name, v, poly in quiver.relations:
        if v not in support:
            continue
        acc = zeros(V.dim(poly.target()), V.dim(v))
        for w, c in poly.terms:
            acc = mat_add(acc, mat_scale(V.word_matrix(w, v), c))
        if any(any(row) for row in acc):
            raise WindowModuleError(v, name)


def minimal_resolution(algebra, V, homcap):
    """Projective resolution of V over the windowed algebra through homcap stages.

    V must be a module of the window algebra (``WindowModuleError``
    otherwise).  Each stage's kernels are computed weight by weight over Z/p
    at q0, from ``nf_mod``; generators are extracted greedily (short path entries first),
    taken exact from the exact kernel at their weight, and closed under the
    arrow action to confirm they generate within the length budget.
    Differentials are checked to compose to zero exactly.
    """
    _check_window_module(algebra.quiver, V)
    gens0 = _module_generators(V)
    stage0 = Stage(
        gens=tuple(g for g, _v in gens0),
        diff=tuple(() for _ in gens0),
        aug=tuple(v for _g, v in gens0),
        budget=algebra.lencap,
    )
    stages = [stage0]

    box = list(algebra.quiver.vertices)
    for p in range(1, homcap + 1):
        prev = stages[-1]
        mod = _mod_data(prev)
        kernels = {}
        for m in box:
            dom, rows = _map_matrix(algebra, stages, V, p - 1, m, mod)
            if not dom:
                continue
            null = nullspace_mod(rows, len(dom))
            if null:
                exact = partial(_exact_kernel, algebra, stages, V, p - 1, m)
                kernels[m] = (dom, null, exact)
        try:
            stage = _extract_stage(algebra, prev, kernels)
        except ExtractionError as exc:
            exc.set_stage(p)
            raise
        stages.append(stage)
        if not stage.gens:
            break

    dd_ok = _check_dd(algebra, stages, V)
    return Resolution(algebra, V, tuple(stages), dd_ok)


def _vec_maxlen(dom, vec):
    return max((len(w) for (g, w), c in zip(dom, vec) if c), default=0)


def _extract_stage(algebra, prev, kernels):
    """Choose a generating set of the kernel submodule from per-weight bases.

    ``kernels[m]`` is ``(dom, null, exact)``: the coded domain basis at weight m,
    the kernel basis there over Z/p at q0 (``qfield.MOD_P``, ``MOD_Q0``) in
    ``nullspace``'s normal form, and a function that computes the exact
    kernel basis.  Candidates are the mod-p kernel vectors, shortest path
    entries first; one that falls outside the span of the generators chosen
    so far becomes a generator, and the span is closed under the arrows
    within the budget.  The span and the closure run in Z/p: closure images
    come from the letter action ``algebra.letter_mod`` (the words of a
    domain basis are normal) and are accumulated in a ``ModularSpan``.

    Closure by word length: the span's columns are the domain basis longest
    word first, so each echelon row pivots on its longest word, and the
    closure acts on the residual that ``ModularSpan.add_residual`` returns,
    not on the raw image.  Each residual enlarged the span and its images
    are offered in turn, so the span of the residuals is closed under every
    arrow whose images stay within the budget; a vector counts as spanned
    only by rows whose own images were offered.  An image with a word
    outside the target's domain basis raises ``ClosureEscapeError``.

    Exact only where chosen: a candidate that becomes a generator takes
    vector k of the exact kernel at its weight (computed at most once per
    weight), where k is the candidate's position in the mod-p basis.  Its
    image mod p must equal the candidate, else ``KernelLiftError`` names the
    weight.  So every generator and differential entry is exact.

    Certificate: at every weight m the span rank must equal the dimension
    of the kernel mod p, else ExtractionError.  Every span row is the image
    mod p of an exact element of the generated submodule G, and reduction
    mod p neither raises the rank of a set of vectors nor lowers the
    dimension of a kernel, so

        span rank <= dim G(m) <= dim ker(m) <= dim ker_p(m),

    and equality of the two ends proves that the generators generate the
    whole exact kernel at m, within the budget.  Every kernel basis vector
    is offered to the span and they are independent (unit vectors at the
    free columns), so the check also guards the bookkeeping itself: a
    membership test that wrongly answers "spanned" and keeps answering so
    for every vector that would restore the rank.
    """
    spans = {}
    sdom = {}  # weight -> the domain basis in span column order
    tindex = {}  # weight -> {(gen, word): span column}
    perm = {}  # weight -> the domain index of each span column
    for m, (dom, _null, _exact) in kernels.items():
        order = sorted(range(len(dom)), key=lambda i: -len(dom[i][1]))
        spans[m] = ModularSpan(len(dom))
        perm[m] = order
        sdom[m] = [dom[i] for i in order]
        tindex[m] = {b: j for j, b in enumerate(sdom[m])}
    candidates = []
    for m in sorted(kernels):
        dom, null, _exact = kernels[m]
        for k, vec in enumerate(null):
            candidates.append((_vec_maxlen(dom, vec), m, k, vec))
    candidates.sort(key=lambda t: (t[0], t[1]))

    gens = []
    diffs = []
    code = algebra.code
    sources = [code.vertex(w) for w in prev.gens]
    exact_kernels = {}

    def close(m, row):
        """Add the closure of a residual row of spans[m] under the arrows."""
        queue = [(m, row)]
        while queue:
            mm, v = queue.pop()
            basis = sdom[mm]
            elem = [(basis[j], c) for j, c in v.items()]
            if max(len(w) for (_g, w), _c in elem) + 1 > prev.budget:
                continue
            for letter, char in algebra.coded_letters:
                tgt = word_target((letter,), mm)
                index = tindex.get(tgt)
                if index is None:
                    continue
                out = {}
                for (g, word), c in elem:
                    for w2, n in algebra.letter_mod(char, word, sources[g]).items():
                        key = (g, w2)
                        out[key] = out.get(key, 0) + c * n
                tv = [0] * len(index)
                for key, c in out.items():
                    c %= MOD_P
                    if c:
                        i = index.get(key)
                        if i is None:
                            raise ClosureEscapeError(mm, tgt, code.decode(key[1]))
                        tv[i] = c
                residual = spans[tgt].add_residual(tv)
                if residual is not None:
                    queue.append((tgt, residual))

    for _len, m, k, vec in candidates:
        residual = spans[m].add_residual([vec[i] for i in perm[m]])
        if residual is None:
            continue
        dom, _null, exact = kernels[m]
        if m not in exact_kernels:
            exact_kernels[m] = exact()
        basis = exact_kernels[m]
        if k >= len(basis) or [c.modp() for c in basis[k]] != vec:
            raise KernelLiftError(m, k, len(basis))
        gens.append(m)
        diffs.append(tuple((b, c) for b, c in zip(dom, basis[k]) if c))
        close(m, residual)

    for m in sorted(kernels):
        if spans[m].dim != len(kernels[m][1]):
            raise ExtractionError(m, spans[m].dim, len(kernels[m][1]))

    entry_len = max(
        (len(w) for entry in diffs for (_g, w), _c in entry), default=0
    )
    return Stage(
        gens=tuple(gens), diff=tuple(diffs), aug=(), budget=prev.budget - entry_len
    )


def _check_dd(algebra, stages, V):
    """Verify d o d = 0 (and eps o d_1 = 0) on every generator, exactly."""
    for p in range(1, len(stages)):
        stage = stages[p]
        prev = stages[p - 1]
        if p >= 2:
            sources = [algebra.code.vertex(w) for w in stages[p - 2].gens]
        for entry in stage.diff:
            if p == 1:
                acc = None
                for (gp, u), c in entry:
                    w = prev.gens[gp]
                    vec = mat_vec(V.word_matrix(algebra.decode(u), w), prev.aug[gp])
                    vec = tuple(x * c for x in vec)
                    acc = vec if acc is None else tuple(a + b for a, b in zip(acc, vec))
                if acc is not None and any(acc):
                    return False
            elif _compose(entry, prev.diff, sources, algebra.nf):
                return False
    return True


# ---------------------------------------------------------------------------
# Ext dimensions from a resolution
# ---------------------------------------------------------------------------


def _stage_at(res, p):
    """Stage p, extending a terminated resolution by empty stages."""
    if p < len(res.stages):
        return res.stages[p]
    last = res.stages[-1]
    if last.gens:
        raise ExtError(
            "resolution has %d stages, requested stage %d" % (len(res.stages) - 1, p)
        )
    return Stage(gens=(), diff=(), aug=(), budget=last.budget)


def _hom_layout(res, p, W):
    """Index layout of Hom(P_p, W) = direct sum of W(w_g)."""
    offsets = []
    total = 0
    for w in _stage_at(res, p).gens:
        offsets.append(total)
        total += W.dim(w)
    return offsets, total


def _pullback(res, p, W, elems):
    """Rows on Hom(P_p, W) that evaluate homomorphisms at elements of P_p.

    ``elems`` holds pairs ``(m, elem)``: an element of P_p(m) as a
    combination ``((g, word), c)`` of coded words on the generators.  Each
    gives one block of W(m) rows, in order, whose product with phi is
    ``sum c * W(word) phi_g``.
    """
    gens = _stage_at(res, p).gens
    off, dim = _hom_layout(res, p, W)
    rows = []
    for m, elem in elems:
        block = [[_Z] * dim for _ in range(W.dim(m))]
        if not block:
            continue
        for (g, word), c in elem:
            w = gens[g]
            if not W.dim(w):
                continue
            mat = W.word_matrix(res.algebra.decode(word), w)
            for row, mrow in zip(block, mat):
                for col, v in enumerate(mrow, off[g]):
                    if v:
                        row[col] = row[col] + c * v
        rows.extend(tuple(r) for r in block)
    return tuple(rows)


def _delta_matrix(res, p, W):
    """Matrix of Hom(P_p, W) -> Hom(P_{p+1}, W) composing with d_{p+1}: the
    pullback on the next stage's differentials."""
    stage = res.stages[p + 1]
    return _pullback(res, p, W, zip(stage.gens, stage.diff))


def _top_constraints(res, W):
    """Constraint rows on Hom(P_top, W): the pullback on the exact kernel
    vectors of d_top at the weights of supp(W)."""
    p = len(res.stages) - 1
    elems = []
    for m, _d in W.dims:
        dom, rows = _map_matrix(res.algebra, res.stages, res.module, p, m)
        if dom:
            for vec in nullspace(rows, len(dom)):
                elems.append((m, [(b, c) for b, c in zip(dom, vec) if c]))
    return _pullback(res, p, W, elems)


def ext_dims(res, W, upto=None):
    """Ext^p(V, W) dimensions for p = 0..upto from the stored resolution."""
    top = len(res.stages) - 1
    if upto is None:
        upto = top
    pad = 0
    if upto > top:
        if res.stages[-1].gens:
            raise ExtError(
                "resolution has %d stages, requested degree %d" % (top, upto)
            )
        # resolution terminated: higher Ext groups vanish
        pad = upto - top
        upto = top
    deltas = {}
    for p in range(0, min(upto + 1, top)):
        deltas[p] = _delta_matrix(res, p, W)
    ranks = {p: mat_rank(d) for p, d in deltas.items()}
    dims = []
    for p in range(0, upto + 1):
        _off, dim_p = _hom_layout(res, p, W)
        if p < top:
            kdim = dim_p - ranks.get(p, 0)
        else:
            cons = _top_constraints(res, W)
            kdim = dim_p - (mat_rank(cons) if cons else 0)
        prev_rank = ranks.get(p - 1, 0) if p >= 1 else 0
        dims.append(kdim - prev_rank)
    return tuple(dims) + (0,) * pad


# ---------------------------------------------------------------------------
# three-term presentation complex (exact Ext0/Ext1, upper bound for Ext2)
# ---------------------------------------------------------------------------


def low_degree_ext(Q, V, W):
    """Ext0 and Ext1 (exact) plus an upper bound for Ext2 over the windowed algebra."""
    n = Q.radius
    for M in (V, W):
        for w, _d in M.dims:
            if n - max(abs(x) for x in w) < 2:
                raise MarginError(
                    "support %s within distance 2 of the window boundary" % (w,)
                )
    # C0: graded endomorphism components
    c0 = [(m, W.dim(m), V.dim(m)) for m, _ in V.dims if W.dim(m)]
    c0_index = {}
    c0_dim = 0
    for m, dw, dv in c0:
        c0_index[m] = c0_dim
        c0_dim += dw * dv
    # C1: per arrow
    c1 = []
    c1_index = {}
    c1_dim = 0
    for letter, s, t in Q.arrows:
        dv, dw = V.dim(s), W.dim(t)
        if dv and dw:
            c1_index[(letter, s)] = c1_dim
            c1.append((letter, s, t, dw, dv))
            c1_dim += dw * dv
    # C2: per relation
    c2 = []
    c2_dim = 0
    for name, v, poly in Q.relations:
        tgt = poly.target()
        dv, dw = V.dim(v), W.dim(tgt)
        if dv and dw:
            c2.append((name, v, poly, dw, dv, c2_dim))
            c2_dim += dw * dv

    # d0: C0 -> C1
    d0 = [[_Z] * c0_dim for _ in range(c1_dim)]
    for letter, s, t, dw, dv in c1:
        base = c1_index[(letter, s)]
        Vm = V.matrix(letter, s)  # V(s) -> V(t)
        Wm = W.matrix(letter, s)  # W(s) -> W(t)
        # (d0 phi)_{a} = phi_t o V_a - W_a o phi_s
        if t in c0_index and V.dim(t):
            b0 = c0_index[t]
            dvt = V.dim(t)
            for r in range(dw):
                for cc in range(dv):
                    for k in range(dvt):
                        val = Vm[k][cc]
                        if val:
                            d0[base + r * dv + cc][b0 + r * dvt + k] = (
                                d0[base + r * dv + cc][b0 + r * dvt + k] + val
                            )
        if s in c0_index and W.dim(s):
            b0 = c0_index[s]
            dws = W.dim(s)
            for r in range(dw):
                for cc in range(dv):
                    for k in range(dws):
                        val = Wm[r][k]
                        if val:
                            d0[base + r * dv + cc][b0 + k * dv + cc] = (
                                d0[base + r * dv + cc][b0 + k * dv + cc] - val
                            )

    # d1: C1 -> C2 (derivation substituting psi for one letter at a time)
    d1 = [[_Z] * c1_dim for _ in range(c2_dim)]
    for name, v, poly, dw, dv, base in c2:
        for word, coeff in poly.terms:
            L = len(word)
            for pos in range(L):
                right = word[pos + 1:]
                left = word[:pos]
                letter = word[pos]
                src = word_target(right, v)
                if (letter, src) not in c1_index:
                    continue
                mid_t = word_target((letter,), src)
                Vr = V.word_matrix(right, v)  # V(v) -> V(src)
                Wl = W.word_matrix(left, mid_t)  # W(mid_t) -> W(target)
                dmid_w = W.dim(mid_t)
                dsrc_v = V.dim(src)
                if dmid_w == 0 or dsrc_v == 0:
                    continue
                cbase = c1_index[(letter, src)]
                for r in range(dw):
                    for cc in range(dv):
                        for a in range(dmid_w):
                            wv = Wl[r][a]
                            if not wv:
                                continue
                            for b in range(dsrc_v):
                                vv = Vr[b][cc]
                                if vv:
                                    d1[base + r * dv + cc][cbase + a * dsrc_v + b] = (
                                        d1[base + r * dv + cc][cbase + a * dsrc_v + b]
                                        + coeff * wv * vv
                                    )

    rank0 = mat_rank(tuple(map(tuple, d0)))
    rank1 = mat_rank(tuple(map(tuple, d1)))
    ext0 = c0_dim - rank0
    # ker d1 needs d1 restricted; ext1 = dim ker d1 - rank d0
    ext1 = (c1_dim - rank1) - rank0
    h2_upper = c2_dim - rank1
    return ext0, ext1, h2_upper


# ---------------------------------------------------------------------------
# Ext tables with two-window stabilization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtTable:
    labels: tuple
    dims: tuple  # dims[p][(i, j)] flattened: tuple of dicts p -> {(i,j): dim}
    stable: tuple  # same layout, booleans
    homcap: int
    windows: tuple
    description: str = ""

    def dim(self, p, i, j):
        return self.dims[p][(i, j)]

    def is_stable(self, p, i, j):
        return self.stable[p][(i, j)]

    def diagonal(self, i):
        return tuple(self.dims[p][(i, i)] for p in range(self.homcap + 1))

    def diagonal_stable(self, i):
        return all(self.stable[p][(i, i)] for p in range(self.homcap + 1))

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "homcap": self.homcap,
            "windows": list(self.windows),
            "dims": [
                {"%d,%d" % k: v for k, v in layer.items()} for layer in self.dims
            ],
            "stable": [
                {"%d,%d" % k: v for k, v in layer.items()} for layer in self.stable
            ],
            "description": self.description,
        }


def _materialize(modules, radius):
    """Module list entries may be radius-dependent factories."""
    return [m(radius) if callable(m) else m for m in modules]


def _chain_need(index, sources, homcap, box_radius):
    """The word length that resolving the vertex simples at ``sources``
    reads through stage homcap, with room for stage homcap + 1, the longest
    of their chains through stage homcap + 1, and those chains: ``(need,
    longest, {source: stages})``.

    ``index`` is a coded lead index of the window basis.  Each stage's
    budget is the previous one minus its longest differential entry, and a
    stage-p entry is at most the longest p-chain minus the shortest
    (p-1)-chain (``gbasis.chains``).  The sum of these bounds over
    p = 1..homcap + 1, stopped at the first empty stage, keeps every budget
    through stage homcap nonnegative; the largest sum over the sources is
    the need.  It is at least the longest chain, which is all that a window
    read off the chains needs (``_chain_capped_basis``).
    """
    need = longest = 0
    chains_of = {}
    for v in sources:
        stages = chains_of[v] = chains(index, v, homcap + 1, box_radius)
        total = 0
        for p in range(1, homcap + 2):
            if not stages[p]:
                break
            total += stages[p][-1][0] - stages[p - 1][0][0]
            longest = max(longest, stages[p][-1][0])
        need = max(need, total)
    return need, longest, chains_of


def _chain_capped_basis(quiver, vertices, homcap, resolve):
    """The completion of the window at the cap the chains of the vertex
    simples at ``vertices`` need, and the Ext table read off those chains
    (``_chain_ext``) or None.

    Completes at homcap + 2 and advances the same completion
    (``gbasis.Completion``), never above the top cap ``2 * radius + 4``.
    Unless ``resolve`` asks for the resolutions, it first advances until
    the cap holds the longest chain through stage homcap + 1: a lead found
    later cannot add or remove a chain of length at most the cap, so it
    stops there if ``_chain_ext`` gives the table.  Otherwise it advances
    to the summed need of the resolutions (``_chain_need``), and the table
    is None where that cap is clamped.  Each rung reads the chains off the
    completion's own coded lead index, so no rung decodes the basis or
    hashes the input.
    """
    radius = quiver.radius
    top = 2 * radius + 4
    sources = sorted(set(vertices))
    cap = min(homcap + 2, top)
    state = Completion(quiver, top)
    read = not resolve  # still looking for the longest-chain stop
    while True:
        state.advance(cap)
        need, longest, chains_of = _chain_need(state.index, sources, homcap, radius)
        if read and longest <= cap:
            read = False
            table = _chain_ext(chains_of, vertices, homcap)
            if table is not None or need <= cap:
                return state, table
        if need <= cap:
            return state, _chain_ext(chains_of, vertices, homcap)
        if cap == top:
            return state, None
        cap = min(longest if read else need, top)


def _chain_ext(chains_of, vertices, homcap):
    """Ext^p(S_i, S_j), p = 0..homcap, as counts of Anick chains, or None.

    ``vertices[i]`` is the vertex of module i and ``chains_of[v]`` the
    chains of S_v through stage homcap + 1.  Hom(F, S_t) of the chain
    resolution F has one basis vector per chain that ends at t, and its
    differential keeps only scalar entries between chains of consecutive
    stages that both end at t.  So where no two consecutive stages of
    0..homcap + 1 both hold chains from v_i that end at v_j, it is zero, and
    Ext^p(S_i, S_j) is the number of stage-p chains from v_i that end at
    v_j.  None when some pair fails this.
    """
    table = [{} for _p in range(homcap + 1)]
    for i, s in enumerate(vertices):
        for j, t in enumerate(vertices):
            count = [sum(e == t for _n, e in stage) for stage in chains_of[s]]
            if any(a and b for a, b in zip(count, count[1:])):
                return None
            for p in range(homcap + 1):
                table[p][(i, j)] = count[p]
    return table


def _window_algebra(c, f, modules, homcap, radius, resolve):
    """The window at ``radius``: its ``WindowedAlgebra`` (or None), the
    modules built for it and their Ext table read off the chains (or None).

    When every module is one-dimensional (a vertex simple S_v), each is
    checked to be a module of the window algebra, and the length cap comes
    from the Anick chains of the S_v (``_chain_capped_basis``): their
    longest chain where they give the table (``_chain_ext``) and ``resolve``
    is false, so that no algebra is built, and otherwise the summed need of
    the resolutions, which are then built on the algebra.
    Every other module list is completed at ``2 * radius + 4``, which also
    bounds the chain cap.  The algebra takes over the coded lead index of
    the one ``gbasis.Completion`` of the window, which is dropped on
    return, before anything resolves.
    """
    modules = _materialize(modules, radius)
    quiver = instantiate_window(c, f, radius, homcap)
    if any(V.total_dim() != 1 for V in modules):
        state = Completion(quiver, 2 * radius + 4)
        return WindowedAlgebra(quiver, state.advance(state.top)), modules, None
    for V in modules:
        _check_window_module(quiver, V)
    vertices = [next(n for n, d in V.dims if d) for V in modules]
    state, chain = _chain_capped_basis(quiver, vertices, homcap, resolve)
    algebra = WindowedAlgebra(quiver, state) if resolve or chain is None else None
    return algebra, modules, chain


def _ext_matrix_once(c, f, modules, homcap, radius, resolve=False):
    """Ext dims of every module pair at one radius: (table, verified, modules,
    resolutions).

    Where ``_window_algebra`` builds no ``WindowedAlgebra`` (the chains
    give the table and ``resolve`` is false), nothing is resolved and every
    row is verified.  Otherwise ``verified[i]`` tells whether ``d o d = 0``
    holds on the resolution of module i on that algebra and its Ext dims
    equal the chain counts, where there are any.
    """
    algebra, modules, chain = _window_algebra(c, f, modules, homcap, radius, resolve)
    if algebra is None:
        return chain, [True] * len(modules), modules, None
    resolutions = [minimal_resolution(algebra, V, homcap) for V in modules]
    table = [{} for _p in range(homcap + 1)]
    for i, res in enumerate(resolutions):
        for j, W in enumerate(modules):
            dims = ext_dims(res, W, homcap)
            for p in range(homcap + 1):
                table[p][(i, j)] = dims[p]
    verified = [res.dd_verified for res in resolutions]
    if chain is not None:
        for layer, chain_layer in zip(table, chain):
            for (i, j), d in chain_layer.items():
                verified[i] = verified[i] and layer[(i, j)] == d
    return table, verified, modules, resolutions


def _ext_run(c, f, modules, homcap, windows, labels, resolve=False):
    """Two-window Ext table plus the larger window's modules and resolutions.

    ``windows`` is one pair of radii, smaller first.  The smaller window
    keeps only its dims and which rows it verified (``_ext_matrix_once``):
    its algebra and resolutions are dropped before the larger window is
    built, so at most one window's objects are alive at a time.  Where the
    chains give Ext, the larger window is resolved only when ``resolve``
    asks; else its resolutions are None.  The verdict checks read their
    cocycles and Yoneda products from the returned resolutions (each
    carries its ``.algebra``).  An entry (i, j) is stable when the two
    windows agree on it and both verified row i.  A row read off the chains
    is verified, since its Hom differential is zero; a resolved row needs
    ``d o d = 0`` and, where the chains give Ext too, their dims.
    """
    if len(windows) != 2:
        raise ExtError(
            "stabilization compares two window radii, got %s" % (tuple(windows),)
        )
    small, large = windows
    if small >= large:
        raise ExtError("window radii must strictly increase, got %s" % (tuple(windows),))
    if labels is None:
        if any(callable(m) for m in modules):
            raise ExtError("labels are required for radius-dependent modules")
        labels = tuple(V.provenance + str(k) for k, V in enumerate(modules))
    prev, prev_verified = _ext_matrix_once(c, f, modules, homcap, small)[:2]
    last, verified, modules, resolutions = _ext_matrix_once(
        c, f, modules, homcap, large, resolve
    )
    verified = [a and b for a, b in zip(verified, prev_verified)]
    dims = []
    stable = []
    for p in range(homcap + 1):
        dims.append(dict(last[p]))
        stable.append(
            {k: last[p][k] == prev[p][k] and verified[k[0]] for k in last[p]}
        )
    table = ExtTable(
        labels=tuple(labels),
        dims=tuple(dims),
        stable=tuple(stable),
        homcap=homcap,
        windows=tuple(windows),
        description="%s;f=%s" % (c.series or c.a, f.describe()),
    )
    return table, modules, resolutions


def ext_table(c, f, modules, homcap, windows, labels=None):
    """Ext^p(V_i, V_j) over two window radii with stability flags: an entry
    is stable when the two windows agree on it and both verified row i.  A
    window of vertex simples whose chains give Ext reads its table off them
    and resolves nothing; its rows are verified, since the Hom differential
    is zero.  Other windows need ``d o d = 0`` on their resolutions of V_i
    (``_ext_run``)."""
    return _ext_run(c, f, modules, homcap, windows, labels)[0]


# ---------------------------------------------------------------------------
# cocycles and Yoneda products
# ---------------------------------------------------------------------------


def ext_cocycle_basis(res, W, p):
    """Representative cocycles of Ext^p(V, W): list of coordinate vectors on
    Hom(P_p, W), plus the image subspace for class comparisons."""
    top = len(res.stages) - 1
    if p > top:
        _stage_at(res, p)  # validates termination
        return [], Subspace(0)
    _off, dim_p = _hom_layout(res, p, W)
    if p < top:
        delta = _delta_matrix(res, p, W)
        kernel = nullspace(delta, dim_p)
    else:
        cons = _top_constraints(res, W)
        kernel = nullspace(cons, dim_p)
    image = Subspace(dim_p)
    if p >= 1 and dim_p:
        dprev = _delta_matrix(res, p - 1, W)
        _offp, dim_prev = _hom_layout(res, p - 1, W)
        for k in range(dim_prev):
            image.add(tuple(row[k] for row in dprev))
    reps = []
    probe = Subspace(dim_p)
    for row in image.basis():
        probe.add(row)
    for vec in kernel:
        if probe.add(vec):
            reps.append(tuple(vec))
    return reps, image


def _cocycle_components(res, p, W, vec):
    """Split a flat Hom(P_p, W) vector into per-generator W(w_g) vectors."""
    off, _dim = _hom_layout(res, p, W)
    out = []
    for g, w in enumerate(_stage_at(res, p).gens):
        d = W.dim(w)
        base = off[g]
        out.append(tuple(vec[base + k] for k in range(d)))
    return out


def _lift_chain_map(resV, resW, p, phi_parts, depth):
    """Chain maps f_k: P_{p+k}(V) -> P_k(W), k = 0..depth, over the cocycle.

    ``f_k`` holds per generator of P_{p+k}(V) its image as pairs
    ``((gen, coded word), coeff)``, as ``Stage.diff`` does.
    """
    algebra = resV.algebra
    W = resW.module
    fmaps = []
    # f_0: solve augmentation
    f0 = []
    stage0W = resW.stages[0]
    for g, w in enumerate(_stage_at(resV, p).gens):
        target = phi_parts[g]
        dom, rows = _aug_matrix(algebra, stage0W, W, w)
        if not dom:
            if any(target):
                raise ExtError("cocycle lift failed: empty projective component")
            f0.append(())
            continue
        sol = solve(rows, target)
        if sol is None:
            raise ExtError("cocycle lift failed at stage 0")
        f0.append(tuple((b, c) for b, c in zip(dom, sol) if c))
    fmaps.append(f0)
    for k in range(1, depth + 1):
        fk = []
        prev_f = fmaps[k - 1]
        stageV = _stage_at(resV, p + k)
        if not stageV.gens:
            fmaps.append([])
            continue
        if k >= len(resW.stages):
            raise ExtError("target resolution too short for the lift depth")
        sources = [algebra.code.vertex(w) for w in resW.stages[k - 1].gens]
        for g, w in enumerate(stageV.gens):
            # rhs = f_{k-1}(d(e_g)) in P_{k-1}(W)(w)
            rhs = _compose(stageV.diff[g], prev_f, sources, algebra.nf)
            dom, cod, rows = _diff_matrix(algebra, resW.stages, k, w)
            codex = {b: i for i, b in enumerate(cod)}
            b = [_Z] * len(cod)
            for key, val in rhs.items():
                i = codex.get(key)
                if i is None:
                    raise ExtError("lift right-hand side escaped the basis")
                b[i] = val
            if not dom:
                if any(b):
                    raise ExtError("cocycle lift failed: no preimage basis")
                fk.append(())
                continue
            sol = solve(rows, tuple(b))
            if sol is None:
                raise ExtError("cocycle lift failed at stage %d" % k)
            fk.append(tuple((bb, c) for bb, c in zip(dom, sol) if c))
        fmaps.append(fk)
    return fmaps


def yoneda_product(resV, resW, U, p, phiV_parts, r, psiW_parts):
    """Yoneda product of psi in Ext^r(W, U) with phi in Ext^p(V, W).

    phi is a cocycle on resV with values in W = resW.module; psi a cocycle on
    resW with values in U.  Returns the flat product cocycle on Hom(P_{p+r}(V), U):
    psi evaluated at the images f_r of the chain map over phi (``_pullback``).
    """
    fr = _lift_chain_map(resV, resW, p, phiV_parts, r)[r]
    gens = _stage_at(resV, p + r).gens
    rows = _pullback(resW, r, U, zip(gens, fr))
    return mat_vec(rows, [x for part in psiW_parts for x in part])


def yoneda_square(res, W, p):
    """Square of the (unique, if one-dimensional) Ext^p(V,V) class; V = W."""
    reps, _img = ext_cocycle_basis(res, W, p)
    if len(reps) != 1:
        raise ExtError("expected a one-dimensional Ext^%d; got %d" % (p, len(reps)))
    parts = _cocycle_components(res, p, W, reps[0])
    prod = yoneda_product(res, res, W, p, parts, p, parts)
    _reps2, img2 = ext_cocycle_basis(res, W, 2 * p)
    return img2.contains(prod)  # True iff the square is zero in Ext^{2p}


# ---------------------------------------------------------------------------
# verdict-level checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurReport:
    description: str
    computed_betti: tuple
    target_betti: tuple
    stable: tuple
    verdict: str  # match | mismatch | inconclusive
    ring_comparison: dict
    caps: dict
    assumptions: tuple = ()

    def to_dict(self):
        return {
            "description": self.description,
            "computed_betti": list(self.computed_betti),
            "target_betti": list(self.target_betti),
            "stable": list(self.stable),
            "verdict": self.verdict,
            "ring_comparison": self.ring_comparison,
            "caps": dict(self.caps),
            "assumptions": list(self.assumptions),
        }


def schur_check(c, f, V, homcap=4, windows=(6, 8)):
    """Compare Ext^*(V, V) with the flag variety cohomology target.

    V may be a module or a radius-dependent factory (built per window).  The
    Betti numbers come from the two-window Ext table; the ring check squares
    the degree-2 class on the resolution of V that the table built at the
    last window, and the description names that window's module, so no
    window algebra, module or resolution is built twice.  The square is
    compared only on a match with Ext^2 = 1 and Ext^4 = 0; a match forces
    the computed Betti numbers to equal the target's, so whether it can be
    compared is known from the target before the table is built, and a
    table read off the chains builds that resolution only then.
    """
    table_w = weyl_table(c)
    target = flag_betti(c, table_w)
    padded_target = tuple(
        target[p] if p < len(target) else 0 for p in range(homcap + 1)
    )
    ring_check = homcap >= 4 and c.rank <= 2
    square = ring_check and padded_target[2] == 1 and padded_target[4] == 0
    tab, (V,), resolutions = _ext_run(c, f, [V], homcap, windows, ("V",), square)
    computed = tab.diagonal(0)
    stable = tuple(tab.stable[p][(0, 0)] for p in range(homcap + 1))
    verdict = "match"
    for p in range(homcap + 1):
        if not stable[p]:
            verdict = "inconclusive"
            break
    if verdict == "match" and computed != padded_target:
        if any(
            stable[p] and computed[p] != padded_target[p] for p in range(homcap + 1)
        ):
            verdict = "mismatch"
        else:
            verdict = "inconclusive"

    ring_cmp = {"compared": False}
    if ring_check and verdict == "match":
        # a square is compared only where the target has Ext^4 = 0, so the
        # target's degree-2 class squares to zero
        if square:
            sq_zero = yoneda_square(resolutions[0], V, 2)
            ring_cmp = {
                "compared": True,
                "generator_degree": 2,
                "square_zero_computed": sq_zero,
                "square_zero_target": True,
            }
            if not sq_zero:
                verdict = "mismatch"
        else:
            ring_cmp = {"compared": False, "reason": "nontrivial degree-4 structure"}

    return SchurReport(
        description="%s;f=%s;module=%s" % (c.series or c.a, f.describe(), V.provenance),
        computed_betti=computed,
        target_betti=padded_target,
        stable=stable,
        verdict=verdict,
        ring_comparison=ring_cmp,
        # the v1 schema keeps lencap as null until schema v2 reports the
        # cap used per window, so report bytes do not change
        caps={"homcap": homcap, "windows": list(windows), "lencap": None},
        assumptions=(
            "scalars extended from Q to the rational function field Q(q); "
            "'generic q' means the parameter is transcendental over Q",
            "window truncation: Ext computed on finite weight boxes and "
            "accepted only when consecutive windows agree",
        ),
    )


def euler_check(table, i=0):
    """Alternating sum of a fully stable diagonal whose tail is provably zero."""
    dims = table.diagonal(i)
    if not table.diagonal_stable(i):
        raise InstabilityError("diagonal Ext dims not stable through the cap")
    if len(dims) < 2 or dims[-1] != 0 or dims[-2] != 0:
        raise InstabilityError("tail of the Ext sequence not provably zero")
    return sum((-1) ** p * d for p, d in enumerate(dims))


def koszul_check(c, f, modules, labels, homcap=2, windows=(6, 8)):
    """Degree-1 generation probe: do Ext^2 classes factor through Ext^1 products?

    Cocycles and Yoneda products are taken on the modules and resolutions that
    the two-window Ext table built at the last window; each degree-1 cocycle
    basis Ext^1(X_a, X_b) is computed once per (a, b).
    """
    tab, modules, resolutions = _ext_run(c, f, modules, homcap, windows, labels, True)
    cocycles = {}

    def ext1_reps(a, b):
        reps = cocycles.get((a, b))
        if reps is None:
            reps, _img = ext_cocycle_basis(resolutions[a], modules[b], 1)
            cocycles[(a, b)] = reps
        return reps

    report = {
        "labels": list(labels),
        "windows": list(windows),
        "homcap": homcap,
        "ext1": {},
        "classes": [],
        "list_sufficient": True,
        "verdict": "generated",
    }
    for i in range(len(modules)):
        for j in range(len(modules)):
            report["ext1"]["%s->%s" % (labels[i], labels[j])] = tab.dim(1, i, j)

    for i in range(len(modules)):
        for j in range(len(modules)):
            d2 = tab.dim(2, i, j)
            if d2 == 0:
                continue
            if not tab.is_stable(2, i, j):
                report["classes"].append(
                    {"pair": [labels[i], labels[j]], "status": "unstable"}
                )
                report["verdict"] = "inconclusive"
                continue
            # span of products Ext^1(X_k, V_j) o Ext^1(V_i, X_k)
            resV = resolutions[i]
            _offs, dim2 = _hom_layout(resV, 2, modules[j])
            _reps2, img2 = ext_cocycle_basis(resV, modules[j], 2)
            prodspan = Subspace(dim2)
            for row in img2.basis():
                prodspan.add(row)
            baseline = prodspan.dim
            had_factors = False
            for k in range(len(modules)):
                reps_a = ext1_reps(i, k)
                reps_b = ext1_reps(k, j)
                for va in reps_a:
                    parts_a = _cocycle_components(resV, 1, modules[k], va)
                    for vb in reps_b:
                        parts_b = _cocycle_components(
                            resolutions[k], 1, modules[j], vb
                        )
                        had_factors = True
                        prod = yoneda_product(
                            resV, resolutions[k], modules[j], 1, parts_a, 1, parts_b
                        )
                        prodspan.add(prod)
            generated = prodspan.dim - baseline
            entry = {
                "pair": [labels[i], labels[j]],
                "ext2_dim": d2,
                "generated_by_products": generated,
                "status": "generated" if generated >= d2 else "not-generated",
            }
            if generated < d2:
                if not had_factors or all(
                    tab.dim(1, i, k) == 0 and tab.dim(1, k, j) == 0
                    for k in range(len(modules))
                ):
                    entry["status"] = "list-insufficient"
                    report["list_sufficient"] = False
                    if report["verdict"] == "generated":
                        report["verdict"] = "list-insufficient"
                else:
                    report["verdict"] = "not-generated"
            report["classes"].append(entry)
    return report
