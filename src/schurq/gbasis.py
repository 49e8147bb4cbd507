"""Degree-truncated noncommutative Groebner engine over free and path algebras.

Completion follows Bergman's diamond lemma: all overlap ambiguities whose
overlap word fits under the length cap are resolved, which certifies unique
normal forms for every word of length <= cap.  Monomials are words with an
optional vertex anchor; the order is length-first, then lexicographic by a
fixed generator precedence, then anchor.

Inside the engine a word is a ``str`` with one character per letter and a
vertex is one ``int`` (``WordCode``): letter k of the precedence is
``chr(0x30 + k)``, so on words of one length string order is precedence
order, and a letter step is one int addition.  Tuples of letters and of
coordinates appear only where words enter or leave the engine: the
relations going into a ``Completion``, ``GBResult.elements`` and ``leads``,
``normal_form`` and the endpoints of ``chains``.

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

``chains`` reads the Anick chains of a vertex simple off the coded leads
and anchors of a ``_LeadIndex``: the shape of a free resolution, found with
no linear algebra and no decoding, from which a window sizes its length
cap: the longest chain where the window is read off its chains, the sum of
the stage bounds of a resolution where it is resolved.  ``hilbert`` reads the multigraded dimensions of a free
presentation off its leads too: it counts the words that contain no lead
as paths in the automaton of the lead prefixes, and lists none of them.
``NormalWords.levels`` is the one enumerator of normal words, for the
windows, the simples and the truncated Vermas.

Completion pairs each new element only with the elements a partner index
(``_PartnerIndex``) returns: the prefixes, suffixes, inner subwords and
whole leads of the basis so far, keyed by subword and the anchor at its
right end.  No lookup scans the basis.  Completion adds each new element to
both indexes as it is found.  It skips an overlap ambiguity whose word
holds a third lead that splits it into smaller, resolved ambiguities (the
chain criterion, ``_chain_resolvable``), and builds no S-polynomial for it.
That adds no element, so the basis is the one a completion that reduces
every ambiguity finds.  Reduction rewrites a lead with the element's
``tail``, whose coefficients are negated once per element.  Where the
coefficients are integer Laurent polynomials it carries each one as a
single int, its value at q = 2**64 (``QScalar.pack``), with an L1 bound
that keeps the int exact; it reduces on ``QScalar`` where it meets a
denominator or the bound reaches 2**63.

A completion advances one cap after another (``Completion``): its state
keeps the indexes and the ambiguity heap, with every ambiguity up to a top
cap fixed when the state is made, so ``advance`` to a higher cap continues
the work of the earlier calls.  The pops, and so the basis, are those of a
completion at the higher cap from scratch.  The state's coded lead index is
the one form of a completed basis inside the program, which ``chains`` and
``NormalWords`` read; ``result`` decodes it into a ``GBResult`` and hashes
the input only where a basis leaves the program.  ``groebner`` is one
completion from scratch followed by ``result``.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from itertools import accumulate

from .linalg import mat_rank
from .qfield import PACK_BITS, PACK_LIMIT, QScalar, unpack
from .presentation import NCPoly, Presentation, WindowedQuiver, word_degree

__all__ = [
    "MonomialOrder",
    "WordCode",
    "GBResult",
    "GBError",
    "Completion",
    "UncertifiedRegionError",
    "VertexRangeError",
    "default_order",
    "groebner",
    "normal_form",
    "chains",
    "hilbert",
    "dense_rank_dims",
]


class GBError(RuntimeError):
    pass


class UncertifiedRegionError(GBError):
    """A normal form or dimension was requested beyond the certified cap."""


class VertexRangeError(GBError):
    """A vertex lies outside the range of a vertex code."""


@dataclass(frozen=True)
class MonomialOrder:
    """Length, then lexicographic by generator precedence (highest first)."""

    precedence: tuple

    def describe(self):
        return ">".join("%s%d" % (k, i + 1) for k, i in self.precedence)


def default_order(rank):
    prec = tuple(("x", i) for i in range(rank)) + tuple(("y", i) for i in range(rank))
    return MonomialOrder(prec)


# ---------------------------------------------------------------------------
# coded words: letters as characters, vertices as integers
# ---------------------------------------------------------------------------


class WordCode:
    """Words as ``str`` and vertices as ``int``, for one precedence and rank.

    Letter k of ``precedence`` is the character ``chr(0x30 + k)``; the first
    letter is the highest in the order.  So of two words of one length the
    larger in the order is the smaller string, and ``flip`` (a
    ``str.translate`` table) maps each character to its mirror, which
    reverses that.

    Completion's ambiguity queue pops the shortest word first and, of one
    length, the smallest in the order: ``ascending`` keys it so.

    A vertex is one int by mixed radix: coordinate i plus ``reach`` is digit
    i in base ``2 * reach + 1``.  ``vertex`` refuses a coordinate beyond
    ``reach`` (``VertexRangeError``), so distinct vertices in range get
    distinct codes.  A letter step adds ``step[letter]`` to a code; a path
    whose vertices all stay in range has as vertex codes the running sums.
    Callers take ``reach`` as the box radius plus the longest path walked,
    so no path of that length from the box leaves the range.
    """

    def __init__(self, precedence, rank, reach):
        self.rank = rank
        self.reach = reach
        self.base = base = 2 * reach + 1
        chars = "".join(chr(0x30 + k) for k in range(len(precedence)))
        self._enc = dict(zip(precedence, chars))
        self._dec = dict(zip(chars, precedence))
        self.flip = str.maketrans(chars, chars[::-1])
        self.step = {
            c: (1 if kind == "x" else -1) * base**i for (kind, i), c in self._enc.items()
        }
        self._vertices = {}  # vertex -> code, for the vertices coded so far

    def ascending(self, word):
        """Sort key of coded words: shortest first, then the smallest in the order."""
        return (len(word), word.translate(self.flip))

    def encode(self, word):
        """The code of a tuple of letters."""
        return "".join(map(self._enc.__getitem__, word))

    def decode(self, word):
        """The tuple of letters of a code."""
        return tuple(map(self._dec.__getitem__, word))

    def vertex(self, v):
        """The code of a vertex (a tuple of ``rank`` ints)."""
        code = self._vertices.get(v)
        if code is None:
            reach = self.reach
            if len(v) != self.rank or any(abs(x) > reach for x in v):
                raise VertexRangeError(
                    "vertex %s outside the code range: rank %d, coordinates within %d"
                    % (v, self.rank, reach)
                )
            code = 0
            for x in reversed(v):
                code = code * self.base + x + reach
            self._vertices[v] = code
        return code

    def point(self, code):
        """The vertex of a code."""
        out = []
        for _i in range(self.rank):
            code, digit = divmod(code, self.base)
            out.append(digit - self.reach)
        return tuple(out)

    def target(self, word, source):
        """The vertex code reached by a coded word from ``source``."""
        return source + sum(map(self.step.__getitem__, word))

    def path(self, word, source):
        """The vertex codes a coded word visits, rightmost letter first."""
        steps = map(self.step.__getitem__, reversed(word))
        return list(accumulate(steps, initial=source))


def _descending(word):
    """Sort key that puts the largest word in the order first."""
    return (-len(word), word)


def _lead(words):
    return min(words, key=_descending)


# ---------------------------------------------------------------------------
# engine internals: polys as dict {word: QScalar} plus a common anchor
# ---------------------------------------------------------------------------


class _Elem:
    """A monic element: ``terms`` has lead coefficient 1."""

    __slots__ = ("terms", "source", "lead", "_tail", "_packed_tail", "_mod_terms")

    def __init__(self, terms, source):
        lead = _lead(terms)
        inv = terms[lead].inverse()
        if not inv.is_one():
            terms = {w: v * inv for w, v in terms.items()}
        self.terms = terms
        self.source = source
        self.lead = lead
        self._tail = None
        self._packed_tail = False  # not computed yet
        self._mod_terms = None

    def tail(self):
        """The other terms with their coefficients negated, the rewrite of the
        lead that reduction applies; computed once, when first asked for, as
        most elements of a window never divide a word."""
        if self._tail is None:
            lead = self.lead
            self._tail = tuple((w, -v) for w, v in self.terms.items() if w != lead)
        return self._tail

    def packed_tail(self):
        """``tail`` with each coefficient packed (``QScalar.pack``), as
        ``(word, packed, shift, bound)``; None when a coefficient has a
        denominator.  Computed once, when first asked for."""
        if self._packed_tail is False:
            packed = [(w, v.pack()) for w, v in self.tail()]
            self._packed_tail = (
                None
                if any(p is None for _w, p in packed)
                else tuple((w, *p) for w, p in packed)
            )
        return self._packed_tail

    def mod_terms(self):
        """The terms with each coefficient mapped once by ``QScalar.modp``."""
        if self._mod_terms is None:
            self._mod_terms = {w: v.modp() for w, v in self.terms.items()}
        return self._mod_terms


class _LeadIndex:
    """Leading words of a basis in one trie.

    A node is a pair ``(children, ends)``: ``children`` maps a letter to the
    next node, and ``ends`` maps an anchor to ``(rank, elem)`` for the leads
    that end at the node.  The rank is the position at which the element was
    added; the anchor is the element's source, the vertex at the lead's
    right end, or ``None`` for free presentations.  Of several elements with
    the same lead and anchor only the first is kept, which is the one a scan
    in insertion order meets first.  ``code`` is the basis's ``WordCode``;
    ``shortest`` is the length of the shortest lead, None while there is none.
    """

    __slots__ = ("code", "anchored", "elems", "root", "shortest")

    def __init__(self, code, anchored):
        self.code = code
        self.anchored = anchored
        self.elems = []  # in rank order
        self.root = ({}, {})
        self.shortest = None

    def add(self, e):
        if not e.lead:
            source = self.code.point(e.source) if self.anchored else None
            raise GBError("constant element in the ideal at anchor %r" % (source,))
        node = self.root
        for letter in e.lead:
            child = node[0].get(letter)
            if child is None:
                child = node[0][letter] = ({}, {})
            node = child
        node[1].setdefault(e.source if self.anchored else None, (len(self.elems), e))
        self.elems.append(e)
        if self.shortest is None or len(e.lead) < self.shortest:
            self.shortest = len(e.lead)


def _find_divisor(word, source, index, hint=None, stop=None):
    """Leftmost (pos, g, anchors) with lead(g) dividing word at pos, lowest
    rank first; None if no lead divides the word at a start position tried.

    The start positions tried are those below ``stop`` (all of them when it
    is None): with ``stop=1`` only divisors at position 0 are found, which
    are the only ones a word can have when its suffix after one letter is
    normal.  ``anchors`` is ``index.code.path(word, source)`` if a walk
    needed it, else None.  ``hint = (parent, shared)`` says that the last
    ``shared`` letters of word are those of a word whose anchors list is
    ``parent``, so only the anchors left of them are computed.
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
                            anchors = index.code.path(word, source)
                        else:
                            parent, shared = hint
                            anchors = parent[:shared] + index.code.path(
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


def _reduce_full(terms, source, index):
    """Totally reduce a {word: coeff} dict; returns a new dict.

    Pending words leave a heap largest first, keyed once, when they enter
    ``work``, by ``(-length, word)``.  A word made by rewriting a divisible
    word keeps that word's right end, so its anchors are extended from the
    parent's (``_find_divisor``'s hint).  A divisor g rewrites its lead as
    ``g.tail()``.  A rewrite makes only words below the rewritten one, and
    words pop largest first, so each word pops once and no rewrite reaches a
    word already done.

    The coefficients are reduced packed (``_reduce_packed``) where they are
    integer Laurent polynomials, and exactly (``_reduce_exact``, the
    reference) where that gives up.
    """
    red = _reduce_packed(terms, source, index)
    return red if red is not None else _reduce_exact(terms, source, index)


def _reduce_exact(terms, source, index):
    """``_reduce_full`` with every coefficient a ``QScalar``."""
    done = {}
    work = dict(terms)
    hints = {}
    heap = [(-len(w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[1]
        c = work.pop(w)
        if not c:
            continue
        hit = _find_divisor(w, source, index, hints.pop(w, None))
        if hit is None:
            done[w] = c
            continue
        pos, g, anchors = hit
        left, right = w[:pos], w[pos + len(g.lead):]
        hint = (anchors, len(right)) if anchors is not None else None
        for uw, uc in g.tail():
            nw = left + uw + right
            add = c * uc
            if nw in work:
                work[nw] = work[nw] + add
            else:
                work[nw] = add
                if hint is not None:
                    hints[nw] = hint
                heapq.heappush(heap, (-len(nw), nw))
    return done


def _reduce_packed(terms, source, index):
    """``_reduce_full`` on packed coefficients; None where it gives up.

    A coefficient is packed (``QScalar.pack``: an int, a shift and an L1
    bound) when a rewrite first touches it, and unpacked when its word is
    done; a word never touched keeps its ``QScalar``.  A rewrite is then one
    int product per tail term, and a merge one int sum aligned on the
    smaller shift.  It gives up when a coefficient it touches or a divisor's
    tail has a denominator, or when a bound reaches ``PACK_LIMIT``, beyond
    which the packed int no longer determines the value.
    """
    done = {}
    work = dict(terms)
    hints = {}
    heap = [(-len(w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[1]
        c = work.pop(w)
        if type(c) is tuple:
            if not c[0]:
                continue
        elif not c:
            continue
        hit = _find_divisor(w, source, index, hints.pop(w, None))
        if hit is None:
            done[w] = c
            continue
        pos, g, anchors = hit
        tail = g.packed_tail()
        if tail is None:
            return None
        if type(c) is not tuple:
            c = c.pack()
            if c is None:
                return None
        cp, ck, cb = c
        left, right = w[:pos], w[pos + len(g.lead):]
        hint = (anchors, len(right)) if anchors is not None else None
        for uw, up, uk, ub in tail:
            nw = left + uw + right
            p, k, b = cp * up, ck + uk, cb * ub
            old = work.get(nw)
            if old is None:
                if b >= PACK_LIMIT:
                    return None
                work[nw] = (p, k, b)
                if hint is not None:
                    hints[nw] = hint
                heapq.heappush(heap, (-len(nw), nw))
                continue
            if type(old) is not tuple:
                old = old.pack()
                if old is None:
                    return None
            op, ok, ob = old
            if ok < k:
                p = op + (p << PACK_BITS * (k - ok))
                k = ok
            elif ok > k:
                p += op << PACK_BITS * (ok - k)
            else:
                p += op
            b += ob
            if b >= PACK_LIMIT:
                return None
            # a sum that cancels is exactly zero, so its bound restarts at 0
            work[nw] = (p, k, b) if p else (0, k, 0)
    for w, c in done.items():
        if type(c) is tuple:
            done[w] = unpack(c[0], c[1])
    return done


def _ambiguities(g1, g2, code):
    """Overlap and inclusion ambiguities between two leading words.

    Yields (word, source, pos1, pos2): the ambiguity word with lead(g1) at
    offset pos1 and lead(g2) at offset pos2.  ``code`` is the ``WordCode``
    of anchored leads, None for free presentations.
    """
    u1, u2 = g1.lead, g2.lead
    l1, l2 = len(u1), len(u2)
    # suffix of u1 = prefix of u2 (t = l2 <= l1 is u2 sitting at the right end)
    for t in range(1, min(l1, l2) + 1):
        if g1 is g2 and t == l1:
            continue
        if u1[l1 - t:] == u2[:t]:
            word = u1 + u2[t:]
            if code is not None:
                source = g2.source if t < l2 else g1.source
                if code.target(word[l1:], source) != g1.source:
                    continue
                if code.target(word[l1 - t + l2:], source) != g2.source:
                    continue
            else:
                source = None
            yield word, source, 0, l1 - t
    # u2 strictly inside u1 away from the right end
    for p in range(0, l1 - l2):
        if u1[p:p + l2] == u2:
            if code is not None:
                source = g1.source
                if code.target(u1[p + l2:], source) != g2.source:
                    continue
            else:
                source = None
            yield u1, source, 0, p


def _s_polynomial(word, g1, g2, p1, p2):
    """The two rewrites of the ambiguity word subtracted, zero terms dropped."""
    left1, right1 = word[:p1], word[p1 + len(g1.lead):]
    left2, right2 = word[:p2], word[p2 + len(g2.lead):]
    # the words of one rewrite are distinct, so only the second can merge
    terms = {left1 + uw + right1: uc for uw, uc in g1.terms.items()}
    for uw, uc in g2.terms.items():
        nw = left2 + uw + right2
        old = terms.get(nw)
        terms[nw] = -uc if old is None else old - uc
    return {w: v for w, v in terms.items() if v}


def _chain_resolvable(word, source, g1, g2, p1, p2, index):
    """True when the chain criterion (Mora 1994) proves the ambiguity at
    ``word`` resolvable, so that its S-polynomial would reduce to zero.

    The ambiguity must be a proper overlap: lead(g1) at p1 = 0, lead(g2) at
    p2 > 0 ending the word, and len(lead(g1)) = l1 < len(word); an
    inclusion, where one lead is the whole word, never qualifies.  It is
    resolvable when the word holds an occurrence [s, e) of a lead of
    ``index`` whose anchor is the vertex of the word's path at e (as
    ``_find_divisor`` computes it) and which lies strictly inside the word
    (0 < s, e < len(word)), or is a prefix ending by p2 (s = 0, e <= p2), or
    a suffix starting at l1 or later (e = len(word), s >= l1).

    Why this is exact (Bergman's diamond lemma, 1978): S(word) is the sum of
    the S-polynomials of g1 and g3, and of g3 and g2, at the word, where g3
    is the third occurrence.  Two occurrences that do not overlap are
    resolvable relative to the word.  Two that overlap inside a proper
    subword u give x S(u) y, and u is shorter, so its ambiguity popped
    earlier and was resolved then.  So S(word) lies in the span of the
    a g b with a lead(g) b below the word.  The queue pops by length and
    then in the order, so every ambiguity at a smaller word is resolved
    when this one pops, and S(word) would reduce to zero: skipping it adds
    no element, and leaves the index and the pop sequence as they are.

    The check is kept cheap where it cannot fire: p2 and len(word) - l1 are
    at most len(word) - 2, so nothing qualifies unless the shortest lead
    fits in that, and the walk from position 0 stops at depth p2.
    """
    n = len(word)
    l1 = len(g1.lead)
    if p1 or not 0 < p2 or l1 >= n or p2 + len(g2.lead) != n:
        return False
    shortest = index.shortest
    if shortest is None or shortest > n - 2:
        return False
    anchored = index.anchored
    anchors = None  # index.code.path(word, source), once a walk needs it
    top = index.root[0]
    for s in range(n - shortest + 1):
        children = top
        # the walk from s ends where no occurrence [s, k + 1) can qualify
        for k in range(s, p2 if s == 0 else n if s >= l1 else n - 1):
            node = children.get(word[k])
            if node is None:
                break
            children, ends = node
            if ends:
                if not anchored:
                    return True
                if anchors is None:
                    anchors = index.code.path(word, source)
                if anchors[n - k - 1] in ends:
                    return True
    return False


class _PartnerIndex:
    """Subwords of the leads added so far, for pairing each new element.

    Each table maps ``(subword, anchor)`` to ``(rank, elem)`` entries in rank
    order, where the anchor is the vertex at the subword's right end inside
    the element's anchored lead (``None`` for free presentations, whose
    ``code`` is None):

    - ``prefix``: every prefix of a lead, the lead included;
    - ``suffix``: every suffix of a lead, the lead included;
    - ``inner``: every subword that stops before the lead's right end;
    - ``whole``: the lead itself.

    Two leads form an ambiguity only where a suffix of one is a prefix of the
    other or one sits inside the other, with equal anchors on the shared
    subword, so the lookups of ``_candidates`` find every element that
    ``_ambiguities`` can pair with a new one.
    """

    __slots__ = ("code", "count", "prefix", "suffix", "inner", "whole")

    def __init__(self, code):
        self.code = code
        self.count = 0
        self.prefix = {}
        self.suffix = {}
        self.inner = {}
        self.whole = {}

    def _subwords(self, e):
        """(start, end, key) for every subword of lead(e)."""
        u = e.lead
        n = len(u)
        anchors = self.code.path(u, e.source) if self.code is not None else None
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
                for word, source, p1, p2 in _ambiguities(a, b, self.code):
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
        code = WordCode(self.order.precedence, self.rank, 0)  # words only
        return tuple(
            (code.decode(_lead([code.encode(w) for w, _v in p.terms])), p.source)
            for p in self.elements
        )

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
        """The result ``to_dict`` gave.  Raises ``ValueError`` on a field of
        the wrong type, an element with no terms, a repeated word or a zero
        coefficient, so a broken entry is refused when it is read."""
        from .qfield import parse_qscalar

        def typed(value, kind, what):
            if not isinstance(value, kind) or (kind is int and type(value) is bool):
                raise ValueError(
                    "gbresult %s: expected %s, got %r" % (what, kind.__name__, value)
                )
            return value

        def letter(l):
            if not isinstance(l, list) or len(l) != 2:
                raise ValueError(
                    "gbresult letter: expected [kind, index], got %r" % (l,)
                )
            return typed(l[0], str, "letter kind"), typed(l[1], int, "letter index")

        def poly_in(d):
            typed(d, dict, "element")
            pairs = typed(d["terms"], list, "terms")
            if not pairs:
                raise ValueError("gbresult element with no terms")
            terms = {}
            for pair in pairs:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(
                        "gbresult term: expected [word, text], got %r" % (pair,)
                    )
                w, text = pair
                word = tuple(letter(l) for l in typed(w, list, "word"))
                value = parse_qscalar(text)
                if not value:
                    raise ValueError("gbresult element with a zero coefficient")
                if word in terms:
                    raise ValueError("gbresult element repeats the word %r" % (word,))
                terms[word] = value
            source = d["source"]
            if source is not None:
                source = tuple(
                    typed(x, int, "source") for x in typed(source, list, "source")
                )
            return NCPoly.make(terms, source, rank)

        typed(data, dict, "entry")
        rank = typed(data["rank"], int, "rank")
        return GBResult(
            rank=rank,
            anchored=typed(data["anchored"], bool, "anchored"),
            order=MonomialOrder(
                tuple(letter(l) for l in typed(data["precedence"], list, "precedence"))
            ),
            letters=tuple(letter(l) for l in typed(data["letters"], list, "letters")),
            elements=tuple(
                poly_in(d) for d in typed(data["elements"], list, "elements")
            ),
            cap=typed(data["cap"], int, "cap"),
            certified_len=typed(data["certified_len"], int, "certified_len"),
            complete=typed(data["complete"], bool, "complete"),
            input_label=typed(data["input_label"], str, "input_label"),
            input_hash=typed(data["input_hash"], str, "input_hash"),
        )


def _input_hash(label, relations):
    blob = label + "\n" + "\n".join(p.render() for p in relations)
    return hashlib.sha256(blob.encode()).hexdigest()


def _unpack(pres):
    """(anchored, rank, relations, label, letters, radius) of a presentation:
    ``radius`` is the box radius of a window, 0 for a free presentation."""
    if isinstance(pres, WindowedQuiver):
        rank = pres.rank
        letters = tuple(("x", i) for i in range(rank)) + tuple(
            ("y", i) for i in range(rank)
        )
        relations = [p for (_name, _v, p) in pres.relations]
        return True, rank, relations, pres.describe(), letters, pres.radius
    if isinstance(pres, Presentation):
        relations = list(pres.relations)
        return False, pres.rank, relations, pres.label, tuple(pres.generators), 0
    raise GBError("unsupported presentation type %r" % type(pres).__name__)


class Completion:
    """The state of a truncated completion, taken one cap after another.

    ``top`` is the largest cap the completion may reach; it is fixed when
    the state is made.  The state holds the lead and partner indexes, the
    ambiguity heap with the push counter and a ``WordCode`` of reach
    ``radius + top``.  The heap keeps every ambiguity whose word has length
    at most ``top``, so after ``advance`` to some cap it still holds the
    ones longer than that cap, each with the counter it was pushed with;
    ambiguities longer than ``top`` are dropped when they are pushed.
    Ambiguities with one word pop in counter order, so an advance to a
    higher cap continues exactly as a completion at that cap from scratch
    would, and gives the same basis.  The basis stays coded in ``index``
    until ``result`` decodes it.

    ``advance`` skips each popped ambiguity that ``_chain_resolvable``
    proves resolvable from the leads in ``index`` at that moment, before it
    builds the S-polynomial.  Such an S-polynomial would reduce to zero, so
    the skip changes neither the elements nor the order they are found in,
    and a resumed completion still equals one from scratch.
    """

    def __init__(self, pres, top):
        anchored, rank, relations, label, letters, radius = _unpack(pres)
        self.top = top
        self.cap = None  # the cap completed so far, None before the first advance
        self.anchored = anchored
        self.rank = rank
        self.letters = letters
        self.label = label
        self.order = default_order(rank)
        self.code = code = WordCode(self.order.precedence, rank, radius + top)
        self.index = _LeadIndex(code, anchored)
        self.partners = _PartnerIndex(code if anchored else None)
        self.heap = []
        self.counter = 0
        self._relations = relations  # seeded by the first advance, hashed by result

    def _push_pairs(self, e):
        self.partners.add(e)
        ascending, top, heap = self.code.ascending, self.top, self.heap
        counter = self.counter
        for word, source, a, b, p1, p2 in self.partners.ambiguities(e):
            if len(word) > top:
                continue
            counter += 1
            heapq.heappush(heap, (ascending(word), counter, word, source, a, b, p1, p2))
        self.counter = counter

    def _seed(self):
        """Add the fully reduced input relations (iterated to inter-reduce)
        and push their ambiguities."""
        code, index = self.code, self.index
        pending = [
            (
                {code.encode(w): v for w, v in p.terms},
                code.vertex(p.source) if self.anchored else None,
            )
            for p in self._relations
            if p.terms
        ]
        pending.sort(key=lambda t: code.ascending(_lead(t[0])))
        for terms, source in pending:
            red = _reduce_full(terms, source, index)
            if red:
                index.add(_Elem(red, source))
        for e in index.elems:
            self._push_pairs(e)

    def advance(self, cap):
        """Resolve every ambiguity whose word has length at most cap; returns self."""
        if cap > self.top:
            raise GBError(
                "cap %d above the top cap %d of the completion state" % (cap, self.top)
            )
        if self.cap is not None and cap < self.cap:
            raise GBError(
                "cap %d below the cap %d already completed" % (cap, self.cap)
            )
        if self.cap is None:
            self._seed()
        heap, index = self.heap, self.index
        while heap and heap[0][0][0] <= cap:
            _key, _n, word, source, g1, g2, p1, p2 = heapq.heappop(heap)
            if _chain_resolvable(word, source, g1, g2, p1, p2, index):
                continue
            red = _reduce_full(_s_polynomial(word, g1, g2, p1, p2), source, index)
            if red:
                e = _Elem(red, source)
                index.add(e)
                if len(e.lead) > cap:
                    # cannot happen under a length-compatible order, guard anyway
                    raise GBError("reduction produced an over-cap leading word")
                self._push_pairs(e)
        self.cap = cap
        return self

    def result(self):
        """The basis completed so far, as a ``GBResult`` at the cap reached."""
        code, anchored, rank = self.code, self.anchored, self.rank

        def source_of(e):
            return code.point(e.source) if anchored else None

        polys = tuple(
            NCPoly.make(
                {code.decode(w): v for w, v in e.terms.items()}, source_of(e), rank
            )
            for e in sorted(
                self.index.elems,
                key=lambda e: (code.ascending(e.lead), source_of(e) or ()),
            )
        )
        return GBResult(
            rank=rank,
            anchored=anchored,
            order=self.order,
            letters=self.letters,
            elements=polys,
            cap=self.cap,
            certified_len=self.cap,
            complete=True,
            input_label=self.label,
            input_hash=_input_hash(self.label, self._relations),
        )


def groebner(pres, cap):
    """Truncated completion of a Presentation or WindowedQuiver up to word
    length cap, from scratch (``Completion`` with top cap ``cap``)."""
    return Completion(pres, cap).advance(cap).result()


# ---------------------------------------------------------------------------
# normal forms and normal-word enumeration
# ---------------------------------------------------------------------------


def _basis_index(g, box_radius=None):
    """The lead index of a decoded basis (a ``GBResult``), for ``normal_form``.

    Its ``WordCode`` reaches every path of length up to ``certified_len``
    from the element sources and from the box of ``box_radius``; for a free
    presentation, every multidegree of such a length.
    """
    radius = max(
        (abs(x) for p in g.elements if p.source is not None for x in p.source),
        default=0,
    )
    if box_radius is not None:
        radius = max(radius, box_radius)
    code = WordCode(g.order.precedence, g.rank, radius + g.certified_len)
    index = _LeadIndex(code, g.anchored)
    for p in g.elements:
        terms = {code.encode(w): v for w, v in p.terms}
        index.add(_Elem(terms, code.vertex(p.source) if g.anchored else None))
    return index


def normal_form(x, g):
    """Unique reduced representative of an NCPoly modulo the certified basis."""
    maxlen = max((len(w) for w, _v in x.terms), default=0)
    if maxlen > g.certified_len:
        raise UncertifiedRegionError(
            "word length %d beyond certified %d" % (maxlen, g.certified_len)
        )
    index = _basis_index(g)
    code = index.code
    source = code.vertex(x.source) if index.anchored else None
    red = _reduce_full({code.encode(w): v for w, v in x.terms}, source, index)
    return NCPoly.make({code.decode(w): v for w, v in red.items()}, x.source, g.rank)


class NormalWords:
    """Enumerator of normal words, optionally anchored and kept in a box.

    ``basis`` is an advanced ``Completion``, whose coded lead ``index``,
    ``code``, ``letters`` and ``cap`` are copied; the completion itself is
    not kept, so its heap and partner index can be freed.  ``levels`` works
    on codes.
    """

    def __init__(self, basis, box_radius=None):
        self.index = basis.index
        self.code = basis.code
        self.cap = basis.cap
        self.box_radius = box_radius
        self._letters = tuple(self.code.encode((letter,)) for letter in basis.letters)
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
            step = self.code.step
            steps = []
            for letter in self._letters:
                t = v + step[letter]
                if r is None or all(-r <= x <= r for x in self.code.point(t)):
                    steps.append((letter, t))
            steps = self._steps[v] = tuple(steps)
        return steps

    def levels(self, source, maxlen, targets=False):
        """Lists of normal words from a vertex code ``source`` (or None), per
        length 0..maxlen, one level at a time.

        Each level lists the one-letter left extensions of the previous
        level's words, in that order and then in alphabet order, and is built
        only when it is asked for.  Words are coded.  With ``targets``
        (anchored only) each entry is ``(word, target vertex code)``.
        """
        if maxlen > self.cap:
            raise UncertifiedRegionError(
                "length %d beyond certified %d" % (maxlen, self.cap)
            )
        anchored = source is not None
        free_steps = tuple((letter, None) for letter in self._letters)
        is_normal = self._is_normal_prefix
        # with a source, each word carries the vertices of its path (code.path)
        current = [("", (source,) if anchored else None)]
        yield [("", source)] if targets else [""]
        for _l in range(maxlen):
            nxt = []
            for word, verts in current:
                steps = self._steps_from(verts[-1]) if anchored else free_steps
                for letter, t2 in steps:
                    nverts = verts + (t2,) if anchored else None
                    nw = letter + word
                    if is_normal(nw, nverts):
                        nxt.append((nw, nverts))
            current = nxt
            if targets:
                yield [(w, v[-1]) for w, v in current]
            else:
                yield [w for w, _v in current]


def chains(index, source, depth, box_radius):
    """Anick chains of the vertex simple at ``source``, stages 0..depth.

    ``index`` is the coded lead index (``_LeadIndex``) of an anchored basis
    of the window algebra whose box has radius ``box_radius``: a
    ``Completion``'s own, or a ``WindowedAlgebra``'s.  Its ``WordCode``
    must reach ``box_radius`` plus the longest lead, as both do.  The
    chains are those of Anick (1986) in the form Green, Solberg and
    Zacharia (2001) give for path algebras, read off the leads alone by
    Ufnarovski's graph.  Words grow to the left, since the rightmost letter
    acts first:

    - the nodes are the letters and the proper prefixes of the leads;
    - there is an edge p <- c when the word ``p c`` holds exactly one
      anchored lead occurrence, and it is a prefix of ``p c`` ending inside c;
    - a stage-1 chain is a letter that leaves ``source`` inside the box, and
      a stage-n chain is a path of n nodes from such a letter.

    Anchors come from the chain's own path from ``source``.  Returns a tuple
    indexed by stage: stage n is the sorted tuple of ``(length, endpoint)``
    of its chains, where the length is the chain's total word length and the
    endpoint the vertex it reaches; stage 0 is the empty chain,
    ``((0, source),)``.  For a basis complete up to the chain lengths, stage
    n of the chain resolution of the vertex simple has one generator per
    chain, at its endpoint.
    """
    code = index.code
    leadset = set()
    tails = {}  # (proper suffix of a lead, its right-end anchor) -> [prefix before it]
    for e in index.elems:
        u, a = e.lead, e.source
        leadset.add((u, a))
        for j in range(1, len(u)):
            tails.setdefault((u[-j:], a), []).append(u[:-j])
    lengths = sorted({len(u) for u, _a in leadset})

    def one_occurrence(word, src):
        n = len(word)
        verts = code.path(word, src)
        found = 0
        for i in range(n):
            for length in lengths:
                if i + length > n:
                    break
                if (word[i:i + length], verts[n - i - length]) in leadset:
                    found += 1
                    if found > 1:
                        return False
        return found == 1

    start = code.vertex(tuple(source))
    # a chain: (last node c, vertex at c's right end, endpoint, total length)
    current = []
    for c in code.step:  # the coded letters
        t = code.target(c, start)
        if all(abs(x) <= box_radius for x in code.point(t)):
            current.append((c, start, t, 1))
    out = [((0, tuple(source)),)]
    for _n in range(depth):
        out.append(tuple(sorted((total, code.point(t)) for _c, _s, t, total in current)))
        nxt = []
        for c, src, tgt, total in current:
            verts = code.path(c, src)
            for j in range(1, len(c) + 1):
                for p in tails.get((c[:j], verts[len(c) - j]), ()):
                    if one_occurrence(p + c, src):
                        nxt.append((p, tgt, code.target(p, tgt), total + len(p)))
        current = nxt
    return tuple(out)


def hilbert(g, cap):
    """Multigraded dimensions of the quotient algebra, multidegree -> dimension.

    Only meaningful for free presentations on x-generators (heights = lengths);
    the cap is a total-height bound and must sit inside the certified region.

    The normal words of a free presentation are the words that contain no
    lead, so they are counted, not listed, as paths in the automaton of the
    lead prefixes (Ufnarovski's graph; the automaton of Aho and Corasick).
    A state is a proper prefix of a lead, ``""`` included: the longest
    suffix of the word read so far that is one.  A letter extends a state
    unless some suffix of the extension is a lead, and leads to the longest
    suffix of the extension that is a state.  Each pass of the count takes
    ``{state: {multidegree code: words}}`` one letter further; a
    multidegree is coded as the vertex a word reaches from 0 (``WordCode``).
    """
    if g.anchored:
        raise GBError("hilbert expects a free presentation")
    if cap > g.certified_len:
        raise UncertifiedRegionError(
            "cap %d beyond certified length %d" % (cap, g.certified_len)
        )
    code = WordCode(g.order.precedence, g.rank, max(cap, 0))
    leads = {_lead([code.encode(w) for w, _v in p.terms]) for p in g.elements}
    if "" in leads:
        raise GBError("constant element in the ideal")
    states = {""} | {u[:k] for u in leads for k in range(1, len(u))}
    letters = [(c, code.step[c]) for c in (code.encode((l,)) for l in g.letters)]
    moves = {}  # state -> [(next state, multidegree step), ...]
    for s in states:
        moves[s] = out = []
        for c, step in letters:
            suffixes = [(s + c)[i:] for i in range(len(s) + 1)]  # longest first
            if leads.isdisjoint(suffixes):
                out.append((next((u for u in suffixes if u in states), ""), step))

    zero = code.vertex((0,) * g.rank)
    counts = {zero: 1}
    current = {"": {zero: 1}}
    for _l in range(cap):
        nxt = {}
        for s, degrees in current.items():
            for t, step in moves[s]:
                bucket = nxt.get(t)
                if bucket is None:
                    bucket = nxt[t] = {}
                for beta, n in degrees.items():
                    beta += step
                    bucket[beta] = bucket.get(beta, 0) + n
        for degrees in nxt.values():
            for beta, n in degrees.items():
                counts[beta] = counts.get(beta, 0) + n
        current = nxt
    return {code.point(beta): n for beta, n in counts.items()}


# ---------------------------------------------------------------------------
# independent dense-rank oracle
# ---------------------------------------------------------------------------


def _all_words(letters, length):
    if length == 0:
        return [()]
    shorter = _all_words(letters, length - 1)
    return [(l,) + w for l in letters for w in shorter]


def dense_rank_dims(pres, beta):
    """Dimension of the quotient at multidegree beta by dense linear algebra.

    Spans all monomial shifts a*g*b of the relations inside the free component
    and rank-reduces; fully bypasses the completion engine.
    """
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
