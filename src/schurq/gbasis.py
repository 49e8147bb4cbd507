"""Degree-truncated noncommutative Groebner engine over free and path algebras.

Completion follows Bergman's diamond lemma: all overlap ambiguities whose
overlap word fits under the length cap are resolved, which certifies unique
normal forms for every word of length <= cap.  Monomials are words with an
optional vertex anchor; the order is length-first, then lexicographic by a
fixed generator precedence, then anchor.

Leading words are kept in one trie per basis (``_LeadIndex``).  Each node
where a lead ends maps the lead's anchor, the vertex at its right end inside
an anchored word (``None`` for free presentations), to the element.  Divisor
search during reduction walks the trie from each position of a word, and the
normality test of normal-word enumeration is one walk from the front of the
word; the anchors come from one right-to-left pass over the word, made only
once a walk reaches the end of a lead.  A word whose every proper suffix is
normal (a letter times a normal word) can only be divisible at position 0,
so ``_find_divisor`` takes a bound on the start positions it tries; the
letter action mod p of ``ext.WindowedAlgebra`` searches with bound 1.

Completion pairs each new element only with the elements a partner index
(``_PartnerIndex``) returns: the prefixes, suffixes, inner subwords and
whole leads of the basis so far, keyed by subword and the anchor at its
right end.  No lookup scans the basis.  Completion adds each new element to
both indexes as it is found.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass

from .linalg import mat_rank
from .qfield import QScalar
from .presentation import (
    NCPoly,
    Presentation,
    WindowedQuiver,
    path_vertices,
    word_degree,
    word_target,
)

__all__ = [
    "MonomialOrder",
    "GBResult",
    "GBError",
    "UncertifiedRegionError",
    "default_order",
    "groebner",
    "normal_form",
    "hilbert",
    "dense_rank_dims",
]


class GBError(RuntimeError):
    pass


class UncertifiedRegionError(GBError):
    """A normal form or dimension was requested beyond the certified cap."""


@dataclass(frozen=True)
class MonomialOrder:
    """Length, then lexicographic by generator precedence (highest first)."""

    precedence: tuple

    def index(self):
        return {letter: k for k, letter in enumerate(self.precedence)}

    def describe(self):
        return ">".join("%s%d" % (k, i + 1) for k, i in self.precedence)


def default_order(rank):
    prec = tuple(("x", i) for i in range(rank)) + tuple(("y", i) for i in range(rank))
    return MonomialOrder(prec)


# ---------------------------------------------------------------------------
# engine internals: polys as dict {word: QScalar} plus a common anchor
# ---------------------------------------------------------------------------


def _word_key(word, idx):
    return (len(word), tuple(-idx[l] for l in word))


def _lead(terms, idx):
    return max(terms, key=lambda w: _word_key(w, idx))


class _Elem:
    __slots__ = ("terms", "source", "lead", "_mod_terms")

    def __init__(self, terms, source, idx):
        lead = _lead(terms, idx)
        inv = terms[lead].inverse()
        if not inv.is_one():
            terms = {w: v * inv for w, v in terms.items()}
        self.terms = terms
        self.source = source
        self.lead = lead
        self._mod_terms = None

    def mod_terms(self):
        """The terms with each coefficient mapped once by ``QScalar.modp``."""
        if self._mod_terms is None:
            self._mod_terms = {w: v.modp() for w, v in self.terms.items()}
        return self._mod_terms


def _subword_source(word, pos, sublen, source):
    """Anchor of word[pos:pos+sublen] inside an anchored word."""
    return word_target(word[pos + sublen:], source)


class _LeadIndex:
    """Leading words of a basis in one trie.

    A node is a pair ``(children, ends)``: ``children`` maps a letter to the
    next node, and ``ends`` maps an anchor to ``(rank, elem)`` for the leads
    that end at the node.  The rank is the position at which the element was
    added; the anchor is the element's source, the vertex at the lead's
    right end, or ``None`` for free presentations.  Of several elements with
    the same lead and anchor only the first is kept, which is the one a scan
    in insertion order meets first.
    """

    __slots__ = ("anchored", "elems", "root")

    def __init__(self, anchored):
        self.anchored = anchored
        self.elems = []  # in rank order
        self.root = ({}, {})

    def add(self, e):
        if not e.lead:
            raise GBError("constant element in the ideal at anchor %r" % (e.source,))
        node = self.root
        for letter in e.lead:
            child = node[0].get(letter)
            if child is None:
                child = node[0][letter] = ({}, {})
            node = child
        node[1].setdefault(e.source if self.anchored else None, (len(self.elems), e))
        self.elems.append(e)


def _find_divisor(word, source, index, hint=None, stop=None):
    """Leftmost (pos, g, anchors) with lead(g) dividing word at pos, lowest
    rank first; None if no lead divides the word at a start position tried.

    The start positions tried are those below ``stop`` (all of them when it
    is None): with ``stop=1`` only divisors at position 0 are found, which
    are the only ones a word can have when its suffix after one letter is
    normal.  ``anchors`` is ``path_vertices(word, source)`` if a walk needed
    it, else None.  ``hint = (parent, shared)`` says that the last ``shared``
    letters of word are those of a word whose anchors list is ``parent``, so
    only the anchors left of them are computed.
    """
    n = len(word)
    anchored = index.anchored
    # anchors[j]: the anchor of a subword followed by the last j letters,
    # computed once a walk first reaches the end of a lead
    anchors = None
    top = index.root[0]
    for pos in range(n if stop is None else min(stop, n)):
        best = None
        children = top
        for k in range(pos, n):
            node = children.get(word[k])
            if node is None:
                break
            children, ends = node
            if ends:
                if anchored:
                    if anchors is None:
                        if hint is None:
                            anchors = path_vertices(word, source)
                        else:
                            parent, shared = hint
                            anchors = parent[:shared] + path_vertices(
                                word[: n - shared], parent[shared]
                            )
                    hit = ends.get(anchors[n - k - 1])
                else:
                    hit = ends.get(None)
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
        if best is not None:
            return pos, best[1], anchors
    return None


def _reduce_full(terms, source, index, idx):
    """Totally reduce a {word: coeff} dict; returns a new dict.

    Pending words leave a heap largest first.  Each word is keyed once, when
    it enters ``work``, by ``(-length, letter ranks)``: the reverse of the
    order ``_word_key`` gives, and distinct for distinct words.  A word made
    by rewriting a divisible word keeps that word's right end, so its
    anchors are extended from the parent's (``_find_divisor``'s hint).
    """
    done = {}
    work = dict(terms)
    hints = {}
    rank = idx.__getitem__
    heap = [(-len(w), tuple(map(rank, w)), w) for w in work]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.pop(w)
        if not c:
            continue
        hit = _find_divisor(w, source, index, hints.pop(w, None))
        if hit is None:
            done[w] = done[w] + c if w in done else c
            continue
        pos, g, anchors = hit
        u = g.lead
        left, right = w[:pos], w[pos + len(u):]
        hint = (anchors, len(right)) if anchors is not None else None
        c = -c
        for uw, uc in g.terms.items():
            if uw == u:
                continue
            nw = left + uw + right
            add = c * uc
            if nw in done:
                done[nw] = done[nw] + add
                if not done[nw]:
                    del done[nw]
            elif nw in work:
                work[nw] = work[nw] + add
            else:
                work[nw] = add
                if hint is not None:
                    hints[nw] = hint
                heapq.heappush(heap, (-len(nw), tuple(map(rank, nw)), nw))
    return {w: v for w, v in done.items() if v}


def _ambiguities(g1, g2, anchored):
    """Overlap and inclusion ambiguities between two leading words.

    Yields (word, source, pos1, pos2): the ambiguity word with lead(g1) at
    offset pos1 and lead(g2) at offset pos2.
    """
    u1, u2 = g1.lead, g2.lead
    l1, l2 = len(u1), len(u2)
    # suffix of u1 = prefix of u2 (t = l2 <= l1 is u2 sitting at the right end)
    for t in range(1, min(l1, l2) + 1):
        if g1 is g2 and t == l1:
            continue
        if u1[l1 - t:] == u2[:t]:
            word = u1 + u2[t:]
            if anchored:
                source = g2.source if t < l2 else g1.source
                if _subword_source(word, 0, l1, source) != g1.source:
                    continue
                if _subword_source(word, l1 - t, l2, source) != g2.source:
                    continue
            else:
                source = None
            yield word, source, 0, l1 - t
    # u2 strictly inside u1 away from the right end
    for p in range(0, l1 - l2):
        if u1[p:p + l2] == u2:
            if anchored:
                source = g1.source
                if _subword_source(u1, p, l2, source) != g2.source:
                    continue
            else:
                source = None
            yield u1, source, 0, p


class _PartnerIndex:
    """Subwords of the leads added so far, for pairing each new element.

    Each table maps ``(subword, anchor)`` to ``(rank, elem)`` entries in rank
    order, where the anchor is the vertex at the subword's right end inside
    the element's anchored lead (``None`` for free presentations):

    - ``prefix``: every prefix of a lead, the lead included;
    - ``suffix``: every suffix of a lead, the lead included;
    - ``inner``: every subword that stops before the lead's right end;
    - ``whole``: the lead itself.

    Two leads form an ambiguity only where a suffix of one is a prefix of the
    other or one sits inside the other, with equal anchors on the shared
    subword, so the lookups of ``_candidates`` find every element that
    ``_ambiguities`` can pair with a new one.
    """

    __slots__ = ("anchored", "count", "prefix", "suffix", "inner", "whole")

    def __init__(self, anchored):
        self.anchored = anchored
        self.count = 0
        self.prefix = {}
        self.suffix = {}
        self.inner = {}
        self.whole = {}

    def _subwords(self, e):
        """(start, end, key) for every subword of lead(e)."""
        u = e.lead
        n = len(u)
        anchors = path_vertices(u, e.source) if self.anchored else None
        for j in range(n, 0, -1):
            anchor = anchors[n - j] if anchors is not None else None
            for i in range(j):
                yield i, j, (u[i:j], anchor)

    def add(self, e):
        entry = (self.count, e)
        self.count += 1
        n = len(e.lead)
        for i, j, key in self._subwords(e):
            if i == 0:
                self.prefix.setdefault(key, []).append(entry)
            if j < n:
                self.inner.setdefault(key, []).append(entry)
                continue
            self.suffix.setdefault(key, []).append(entry)
            if i == 0:
                self.whole.setdefault(key, []).append(entry)

    def _candidates(self, e):
        """{rank: elem} holding every added element that may pair with e."""
        found = {}
        n = len(e.lead)
        for i, j, key in self._subwords(e):
            if i == 0:
                # a prefix of lead(e) that ends another lead
                found.update(self.suffix.get(key, ()))
            if j < n:
                # another lead inside lead(e), away from its right end
                found.update(self.whole.get(key, ()))
                continue
            # a suffix of lead(e) that begins another lead
            found.update(self.prefix.get(key, ()))
            if i == 0:
                # lead(e) inside another lead, away from its right end
                found.update(self.inner.get(key, ()))
        return found

    def ambiguities(self, e):
        """Ambiguities of the last added element with itself and each earlier
        one, as (word, source, g1, g2, pos1, pos2).  Partners come in rank
        order, each giving ``_ambiguities(e, other)`` then
        ``_ambiguities(other, e)``: the sequence a scan over all earlier
        elements yields."""
        found = self._candidates(e)
        for rank in sorted(found):
            other = found[rank]
            pairs = ((e, other),) if other is e else ((e, other), (other, e))
            for a, b in pairs:
                for word, source, p1, p2 in _ambiguities(a, b, self.anchored):
                    yield word, source, a, b, p1, p2


@dataclass(frozen=True)
class GBResult:
    rank: int
    anchored: bool
    order: MonomialOrder
    letters: tuple  # generator alphabet of the presented algebra
    elements: tuple  # NCPoly, monic, inter-reduced
    cap: int  # requested length cap
    certified_len: int  # lengths for which normal forms are certified
    complete: bool  # True when no ambiguity was skipped for the cap
    input_label: str = ""
    input_hash: str = ""

    def leads(self):
        idx = self.order.index()
        out = []
        for p in self.elements:
            terms = dict(p.terms)
            out.append((_lead(terms, idx), p.source))
        return tuple(out)

    # -- serialization --------------------------------------------------

    def serialize(self):
        lines = [
            "gbresult v1",
            "input %s" % self.input_label,
            "input_hash %s" % self.input_hash,
            "order %s" % self.order.describe(),
            "anchored %d" % int(self.anchored),
            "cap %d certified %d complete %d"
            % (self.cap, self.certified_len, int(self.complete)),
        ]
        for p in self.elements:
            lines.append("elem %s" % p.render())
        return "\n".join(lines) + "\n"

    def content_hash(self):
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def to_dict(self):
        def poly_out(p):
            return {
                "terms": [
                    [[list(l) for l in w], v.render()] for w, v in p.terms
                ],
                "source": list(p.source) if p.source is not None else None,
            }

        return {
            "rank": self.rank,
            "anchored": self.anchored,
            "precedence": [list(l) for l in self.order.precedence],
            "letters": [list(l) for l in self.letters],
            "elements": [poly_out(p) for p in self.elements],
            "cap": self.cap,
            "certified_len": self.certified_len,
            "complete": self.complete,
            "input_label": self.input_label,
            "input_hash": self.input_hash,
        }

    @staticmethod
    def from_dict(data):
        from .qfield import parse_qscalar

        def poly_in(d):
            terms = {
                tuple((k, int(i)) for k, i in w): parse_qscalar(text)
                for w, text in d["terms"]
            }
            source = tuple(d["source"]) if d["source"] is not None else None
            return NCPoly.make(terms, source, data["rank"])

        return GBResult(
            rank=data["rank"],
            anchored=data["anchored"],
            order=MonomialOrder(tuple((k, int(i)) for k, i in data["precedence"])),
            letters=tuple((k, int(i)) for k, i in data["letters"]),
            elements=tuple(poly_in(d) for d in data["elements"]),
            cap=data["cap"],
            certified_len=data["certified_len"],
            complete=data["complete"],
            input_label=data["input_label"],
            input_hash=data["input_hash"],
        )


def _input_hash(label, relations):
    blob = label + "\n" + "\n".join(p.render() for p in relations)
    return hashlib.sha256(blob.encode()).hexdigest()


def groebner(pres, cap, order=None):
    """Truncated completion of a Presentation or WindowedQuiver up to word length cap."""
    if isinstance(pres, WindowedQuiver):
        anchored = True
        rank = pres.rank
        relations = [p for (_name, _v, p) in pres.relations]
        label = pres.describe()
        letters = tuple(("x", i) for i in range(rank)) + tuple(
            ("y", i) for i in range(rank)
        )
    elif isinstance(pres, Presentation):
        anchored = False
        rank = pres.rank
        relations = list(pres.relations)
        label = pres.label
        letters = tuple(pres.generators)
    else:
        raise GBError("unsupported presentation type %r" % type(pres).__name__)
    if order is None:
        order = default_order(rank)
    idx = order.index()

    index = _LeadIndex(anchored)
    partners = _PartnerIndex(anchored)
    basis = index.elems

    def add_elem(terms, source):
        e = _Elem(terms, source, idx)
        index.add(e)
        return e

    # seed with fully reduced input relations (iterate to inter-reduce)
    pending = [(dict(p.terms), p.source) for p in relations if p.terms]
    pending.sort(key=lambda t: _word_key(_lead(t[0], idx), idx))
    for terms, source in pending:
        red = _reduce_full(terms, source, index, idx)
        if red:
            add_elem(red, source)

    # ambiguity queue ordered by the ambiguity word
    counter = 0
    heap = []

    def push_pairs(e):
        nonlocal counter
        partners.add(e)
        for word, source, a, b, p1, p2 in partners.ambiguities(e):
            if len(word) > cap:
                continue
            counter += 1
            heapq.heappush(
                heap, (_word_key(word, idx), counter, word, source, a, b, p1, p2)
            )

    for e in basis:
        push_pairs(e)

    while heap:
        _key, _n, word, source, g1, g2, p1, p2 = heapq.heappop(heap)
        terms = {}
        left1, right1 = word[:p1], word[p1 + len(g1.lead):]
        left2, right2 = word[:p2], word[p2 + len(g2.lead):]
        for uw, uc in g1.terms.items():
            nw = left1 + uw + right1
            terms[nw] = terms.get(nw, QScalar.zero()) + uc
        for uw, uc in g2.terms.items():
            nw = left2 + uw + right2
            terms[nw] = terms.get(nw, QScalar.zero()) - uc
        terms = {w: v for w, v in terms.items() if v}
        red = _reduce_full(terms, source, index, idx)
        if red:
            e = add_elem(red, source)
            if len(e.lead) > cap:
                # cannot happen under a length-compatible order, guard anyway
                raise GBError("reduction produced an over-cap leading word")
            push_pairs(e)

    polys = tuple(
        NCPoly.make(e.terms, e.source, rank)
        for e in sorted(basis, key=lambda e: (_word_key(e.lead, idx), e.source or ()))
    )
    return GBResult(
        rank=rank,
        anchored=anchored,
        order=order,
        letters=letters,
        elements=polys,
        cap=cap,
        certified_len=cap,
        complete=True,
        input_label=label,
        input_hash=_input_hash(label, relations),
    )


# ---------------------------------------------------------------------------
# normal forms and normal-word enumeration
# ---------------------------------------------------------------------------


def _basis_index(g):
    """The lead index of a completed basis, built once per basis."""
    idx = g.order.index()
    index = _LeadIndex(g.anchored)
    for p in g.elements:
        index.add(_Elem(dict(p.terms), p.source, idx))
    return index


def normal_form(x, g, _index_cache=None):
    """Unique reduced representative of an NCPoly modulo the certified basis.

    Pass ``_index_cache=_basis_index(g)`` when reducing many polynomials
    modulo the same basis.
    """
    maxlen = max((len(w) for w, _v in x.terms), default=0)
    if maxlen > g.certified_len:
        raise UncertifiedRegionError(
            "word length %d beyond certified %d" % (maxlen, g.certified_len)
        )
    index = _index_cache if _index_cache is not None else _basis_index(g)
    red = _reduce_full(dict(x.terms), x.source, index, g.order.index())
    return NCPoly.make(red, x.source, g.rank)


class NormalWords:
    """Enumerator of normal words, optionally anchored and kept in a box.

    ``index`` is the lead index of the basis; ``normal_form`` and
    ``WindowedAlgebra.nf`` reduce against the same one.
    """

    def __init__(self, g, box_radius=None):
        self.g = g
        self.index = _basis_index(g)
        self.box_radius = box_radius
        self._steps = {}  # vertex -> ((letter, target in the box), ...)

    def _is_normal_prefix(self, word, anchors):
        # word was obtained by prepending one letter; only position-0 subwords
        # are new, and they are the nodes of one trie walk from the root
        n = len(word)
        anchored = self.index.anchored
        children = self.index.root[0]
        for k in range(n):
            node = children.get(word[k])
            if node is None:
                return True
            children, ends = node
            if ends and (anchors[n - k - 1] if anchored else None) in ends:
                return False
        return True

    def _steps_from(self, v):
        """(letter, target) for each letter whose step from v stays in the box."""
        steps = self._steps.get(v)
        if steps is None:
            r = self.box_radius
            steps = []
            for letter in self.g.letters:
                t = word_target((letter,), v)
                if r is None or all(-r <= x <= r for x in t):
                    steps.append((letter, t))
            steps = self._steps[v] = tuple(steps)
        return steps

    def by_length(self, source, maxlen, targets=False):
        """Lists of normal words from a given anchor (or None), per length 0..maxlen.

        Each level lists the one-letter left extensions of the previous level's
        words, in that order and then in alphabet order.  With ``targets``
        (anchored only) each entry is ``(word, target vertex)``.
        """
        return list(self.levels(source, maxlen, targets))

    def levels(self, source, maxlen, targets=False):
        """The levels of ``by_length``, one at a time: each level is built
        only when it is asked for, from the last one built."""
        if maxlen > self.g.certified_len:
            raise UncertifiedRegionError(
                "length %d beyond certified %d" % (maxlen, self.g.certified_len)
            )
        anchored = source is not None
        free_steps = tuple((letter, None) for letter in self.g.letters)
        is_normal = self._is_normal_prefix
        # with a source, each word carries the vertices of its path (path_vertices)
        current = [((), (tuple(source),) if anchored else None)]
        yield [((), tuple(source))] if targets else [()]
        for _l in range(maxlen):
            nxt = []
            for word, verts in current:
                steps = self._steps_from(verts[-1]) if anchored else free_steps
                for letter, t2 in steps:
                    nverts = verts + (t2,) if anchored else None
                    nw = (letter,) + word
                    if is_normal(nw, nverts):
                        nxt.append((nw, nverts))
            current = nxt
            if targets:
                yield [(w, v[-1]) for w, v in current]
            else:
                yield [w for w, _v in current]


def hilbert(g, cap):
    """Multigraded dimensions of the quotient algebra, multidegree -> dimension.

    Only meaningful for free presentations on x-generators (heights = lengths);
    the cap is a total-height bound and must sit inside the certified region.
    """
    if g.anchored:
        raise GBError("hilbert expects a free presentation")
    if cap > g.certified_len:
        raise UncertifiedRegionError(
            "cap %d beyond certified length %d" % (cap, g.certified_len)
        )
    words = NormalWords(g).by_length(None, cap)
    dims = {}
    for level in words:
        for w in level:
            beta = word_degree(w, g.rank)
            dims[beta] = dims.get(beta, 0) + 1
    return dims


# ---------------------------------------------------------------------------
# independent dense-rank oracle
# ---------------------------------------------------------------------------


def _all_words(letters, length):
    if length == 0:
        return [()]
    shorter = _all_words(letters, length - 1)
    return [(l,) + w for l in letters for w in shorter]


def dense_rank_dims(pres, beta, order=None):
    """Dimension of the quotient at multidegree beta by dense linear algebra.

    Spans all monomial shifts a*g*b of the relations inside the free component
    and rank-reduces; fully bypasses the completion engine.
    """
    if order is None:
        order = default_order(pres.rank)
    letters = [g for g in pres.generators]
    beta = tuple(beta)
    height = sum(abs(b) for b in beta)
    words = [
        w for w in _all_words(tuple(letters), height) if word_degree(w, pres.rank) == beta
    ]
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for rel in pres.relations:
        gdeg = rel.multidegree()
        glen = sum(abs(x) for x in gdeg)
        rest = height - glen
        if rest < 0:
            continue
        for alen in range(rest + 1):
            for a in _all_words(tuple(letters), alen):
                for b in _all_words(tuple(letters), rest - alen):
                    vec = {}
                    ok = True
                    for w, cval in rel.terms:
                        full = a + w + b
                        if word_degree(full, pres.rank) != beta:
                            ok = False
                            break
                        i = index[full]
                        vec[i] = vec.get(i, QScalar.zero()) + cval
                    if ok and vec:
                        rows.append(vec)
    zero = QScalar.zero()
    dense = tuple(tuple(row.get(j, zero) for j in range(len(words))) for row in rows)
    return len(words) - mat_rank(dense)
