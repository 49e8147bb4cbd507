"""Truncated noncommutative Groebner engine and its independent oracles."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq import (
    GBResult,
    build_algebra,
    build_cartan,
    groebner,
    hilbert,
    kostant,
    normal_form,
)
from schurq import gbasis
from schurq.gbasis import (
    Completion,
    GBError,
    UncertifiedRegionError,
    VertexRangeError,
    _ambiguities,
    _basis_index,
    _descending,
    _Elem,
    _find_divisor,
    _lead,
    _LeadIndex,
    _PartnerIndex,
    _reduce_full,
    WordCode,
    chains,
    NormalWords,
    default_order,
    dense_rank_dims,
)
from schurq.ext import WindowedAlgebra, minimal_resolution
from schurq.modules import trivial_module, yn_presentation
from schurq.presentation import (
    FSpec,
    NCPoly,
    Presentation,
    instantiate_window,
    path_vertices,
    un_presentation,
    word_target,
)
from schurq.qfield import QScalar
from schurq.rootdata import kostant_table


# -- free Serre algebras ---------------------------------------------------


def test_a1_no_relations_all_words_normal(a1):
    g = groebner(un_presentation(a1), cap=6)
    assert g.elements == ()
    assert g.complete
    dims = hilbert(g, 6)
    assert dims == {(k,): 1 for k in range(7)}


def test_a2_hilbert_matches_kostant(a2):
    g = groebner(un_presentation(a2), cap=6)
    dims = hilbert(g, 6)
    for beta in product(range(7), repeat=2):
        if sum(beta) <= 6:
            assert dims.get(beta, 0) == kostant(a2, beta)


def test_a2_total_degree_series(a2):
    """Total-degree dims equal the coefficients of 1/((1-t)^2 (1-t^2)):
    one factor per positive root, graded by height."""
    g = groebner(un_presentation(a2), cap=8)
    dims = hilbert(g, 8)
    totals = {}
    for beta, d in dims.items():
        totals[sum(beta)] = totals.get(sum(beta), 0) + d
    for d in range(9):
        expected = sum(1 for a in range(d + 1) for b in range(d + 1 - a)
                       if (d - a - b) % 2 == 0)
        assert totals.get(d, 0) == expected


def test_dense_rank_oracle_agrees(a2, b2):
    # G2 needs height 6 to see shifts of its degree-5 Serre relation
    for c, cap in ((a2, 5), (b2, 6), (build_cartan("G", 2), 7)):
        pres = un_presentation(c)
        g = groebner(pres, cap=cap)
        dims = hilbert(g, cap)
        for beta in product(range(cap), repeat=2):
            if 0 < sum(beta) < cap:
                assert dims.get(beta, 0) == dense_rank_dims(pres, beta), (c.series, beta)


def test_y_side_matches_x_side(a2):
    gx = groebner(un_presentation(a2), cap=5)
    state = Completion(yn_presentation(a2), 5).advance(5)
    gy = state.result()
    dx = hilbert(gx, 5)
    assert len(gx.elements) == len(gy.elements)
    # same multigraded dims after flipping chirality
    from schurq.presentation import word_degree

    words = NormalWords(state)
    dy = {}
    for level in words.levels(None, 5):
        for w in level:
            beta = tuple(-x for x in word_degree(words.code.decode(w), 2))
            dy[beta] = dy.get(beta, 0) + 1
    assert dx == dy


def _tally_normal_words(state, cap):
    """The enumerate-and-tally count that ``hilbert`` used before it counted
    paths in the lead automaton: list every normal word of a completion,
    then tally."""
    words = NormalWords(state)
    code = words.code
    zero = code.vertex((0,) * code.rank)
    counts = {}
    for level in words.levels(None, cap):
        for w in level:
            beta = code.point(code.target(w, zero))
            counts[beta] = counts.get(beta, 0) + 1
    return counts


@pytest.mark.parametrize(
    "series,rank,cap",
    [
        ("A", 1, 8), ("A", 2, 8), ("A", 3, 7), ("A", 4, 6), ("B", 2, 8), ("B", 3, 7),
        ("C", 2, 8), ("C", 3, 7), ("D", 4, 6), ("E", 6, 5), ("F", 4, 6), ("G", 2, 10),
    ],
)
def test_hilbert_equals_normal_word_tally(series, rank, cap):
    state = Completion(un_presentation(build_cartan(series, rank)), cap).advance(cap)
    g = state.result()
    for k in (0, cap // 2, cap):
        assert hilbert(g, k) == _tally_normal_words(state, k)


_MONOMIAL_LETTERS = (("x", 0), ("x", 1), ("y", 1))


@settings(max_examples=100, deadline=None)
@given(
    words=st.lists(
        st.lists(st.sampled_from(_MONOMIAL_LETTERS), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_hilbert_equals_tally_on_monomial_relations(words):
    """Arbitrary monomial relations: leads that overlap, nest and repeat."""
    rels = tuple(NCPoly.make({tuple(w): QScalar.one()}, rank=2) for w in words)
    state = Completion(Presentation(2, _MONOMIAL_LETTERS, rels, "monomials"), 6)
    state.advance(6)
    assert hilbert(state.result(), 6) == _tally_normal_words(state, 6)


def test_c2_is_b2_with_nodes_swapped(b2):
    c2 = build_cartan("C", 2)

    def swapped(table):
        return {(b, a): n for (a, b), n in table.items()}

    dims_b = hilbert(groebner(un_presentation(b2), cap=8), 8)
    dims_c = hilbert(groebner(un_presentation(c2), cap=8), 8)
    assert dims_c == swapped(dims_b) != dims_b
    assert kostant_table(c2, 8) == swapped(kostant_table(b2, 8)) != kostant_table(b2, 8)


# -- normal forms ----------------------------------------------------------


def test_serre_polynomial_reduces_to_zero(a2):
    pres = un_presentation(a2)
    g = groebner(pres, cap=5)
    for rel in pres.relations:
        assert normal_form(rel, g).is_zero()


def test_normal_form_idempotent(a2):
    g = groebner(un_presentation(a2), cap=5)
    x1, x2 = ("x", 0), ("x", 1)
    p = NCPoly.make({(x1, x1, x2): QScalar.one()})
    nf = normal_form(p, g)
    assert not nf.is_zero()
    assert normal_form(nf, g) == nf


def test_zero_scalar_gives_zero(a2):
    g = groebner(un_presentation(a2), cap=4)
    p = NCPoly.make({(("x", 0),): QScalar.zero()})
    assert normal_form(p, g).is_zero()


def test_uncertified_region_refused(a2):
    g = groebner(un_presentation(a2), cap=3)
    with pytest.raises(UncertifiedRegionError):
        hilbert(g, 10)
    x1, x2 = ("x", 0), ("x", 1)
    deep = NCPoly.make({(x1,) * 5 + (x2,) * 3: QScalar.one()})
    with pytest.raises(UncertifiedRegionError):
        normal_form(deep, g)


# -- windowed (anchored) completion ---------------------------------------


def test_a1_window_leads_are_xy_words(a1, f_classical):
    Q = instantiate_window(a1, f_classical, 2)
    g = groebner(Q, cap=4)
    # interior commutators rewrite x-then-y into y-then-x plus scalars
    for word, source in g.leads():
        assert [k for k, _i in word].count("y") <= 1
        assert word[-1][0] == "x" or (word[0][0] == "x" and word[-1][0] == "y")
    lead_words = {(tuple(k for k, _ in w), s) for w, s in g.leads()}
    assert (("x", "y"), (0,)) in lead_words


# -- determinism and serialization ----------------------------------------


def test_bit_identical_serialization(a2):
    g1 = groebner(un_presentation(a2), cap=5)
    g2 = groebner(un_presentation(a2), cap=5)
    assert g1.serialize() == g2.serialize()
    assert g1.content_hash() == g2.content_hash()


def test_dict_round_trip(a2, f_qinteger):
    for pres in (un_presentation(a2), instantiate_window(a2, f_qinteger, 2)):
        g = groebner(pres, cap=4)
        back = GBResult.from_dict(g.to_dict())
        assert back.serialize() == g.serialize()
        assert back.content_hash() == g.content_hash()


def test_interreduced_leads(a2, b2):
    for c in (a2, b2):
        g = groebner(un_presentation(c), cap=6)
        leads = [w for w, _s in g.leads()]
        for i, w1 in enumerate(leads):
            for j, w2 in enumerate(leads):
                if i != j and len(w1) <= len(w2):
                    assert not any(
                        w2[k : k + len(w1)] == w1
                        for k in range(len(w2) - len(w1) + 1)
                    )


# -- the word code -----------------------------------------------------------


def _codes(rank):
    order = default_order(rank)
    return WordCode(order.precedence, rank, 4), order.precedence


def _tuple_key(word, idx):
    """The tuple-word order the code replaces: length, then the letters'
    negated precedence ranks."""
    return (len(word), tuple(-idx[l] for l in word))


@st.composite
def _word_pairs(draw):
    rank = draw(st.integers(1, 4))
    code, letters = _codes(rank)
    words = st.lists(st.sampled_from(letters), max_size=8).map(tuple)
    return code, letters, draw(words), draw(words)


@settings(max_examples=300, deadline=None)
@given(case=_word_pairs())
def test_word_code_round_trips_and_keeps_the_order(case):
    """Decoding gives the word back; the reduction heap's key and the
    lead reverse the tuple order, the ambiguity queue's key follows it."""
    code, letters, a, b = case
    idx = {letter: k for k, letter in enumerate(letters)}
    ca, cb = code.encode(a), code.encode(b)
    assert code.decode(ca) == a and isinstance(ca, str) and len(ca) == len(a)
    assert (ca == cb) == (a == b)
    before = _tuple_key(a, idx) < _tuple_key(b, idx)
    assert (code.ascending(ca) < code.ascending(cb)) == before
    assert (_descending(ca) > _descending(cb)) == before
    want = max((a, b), key=lambda w: _tuple_key(w, idx))
    assert code.decode(_lead([ca, cb])) == want


@pytest.fixture(scope="module")
def code_windows(a1, f_classical, a2_window_r3):
    """The windows whose vertex codes are checked, by radius and cap."""
    return {
        "A1 r8 cap 20": build_algebra(a1, f_classical, 8),
        "A2 r3 cap 10": a2_window_r3,
    }


@pytest.mark.parametrize("window", ["A1 r8 cap 20", "A2 r3 cap 10"])
def test_vertex_code_is_injective_within_reach(code_windows, window):
    """Every vertex within reach has its own code, decoded back by point,
    and a letter step adds the letter's step wherever both ends are within
    reach: so the running sums along any path that stays within reach are
    the codes of its vertices."""
    algebra = code_windows[window]
    code = algebra.code
    assert code.reach >= algebra.quiver.radius + algebra.lencap
    span = range(-code.reach, code.reach + 1)
    codes = {}
    for v in product(span, repeat=algebra.rank):
        c = code.vertex(v)
        assert code.point(c) == v and c not in codes
        codes[c] = v
    for v in product(span, repeat=algebra.rank):
        for letter in algebra.letters():
            t = word_target((letter,), v)
            if all(abs(x) <= code.reach for x in t):
                step = code.step[code.encode((letter,))]
                assert code.vertex(v) + step == code.vertex(t)


@pytest.mark.parametrize("window", ["A1 r8 cap 20", "A2 r3 cap 10"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vertex_code_follows_paths_from_the_box(code_windows, window, data):
    """A path of length up to the cap from a box vertex: the coded path
    decodes to the vertices it visits."""
    algebra = code_windows[window]
    code = algebra.code
    source = data.draw(st.sampled_from(algebra.quiver.vertices))
    word = tuple(
        data.draw(st.lists(st.sampled_from(algebra.letters()), max_size=algebra.lencap))
    )
    path = code.path(code.encode(word), code.vertex(source))
    assert [code.point(c) for c in path] == path_vertices(word, source)
    assert path == [code.vertex(v) for v in path_vertices(word, source)]
    assert code.target(code.encode(word), code.vertex(source)) == path[-1]


@settings(max_examples=150, deadline=None)
@given(
    rank=st.integers(1, 3),
    reach=st.integers(0, 12),
    data=st.data(),
)
def test_vertex_outside_the_code_range_is_refused(rank, reach, data):
    code = WordCode(default_order(rank).precedence, rank, reach)
    inside = st.integers(-reach, reach)
    outside = st.integers(reach + 1, 4 * reach + 8).flatmap(
        lambda x: st.sampled_from([x, -x])
    )
    v = data.draw(st.lists(inside, min_size=rank, max_size=rank))
    v[data.draw(st.integers(0, rank - 1))] = data.draw(outside)
    with pytest.raises(VertexRangeError, match="outside the code range"):
        code.vertex(tuple(v))
    with pytest.raises(VertexRangeError):
        code.vertex((0,) * (rank + 1))


# -- the lead index against the linear scans it replaced --------------------


def _scan_find_divisor(word, source, by_letter, code, anchored, stop=None):
    """Divisor search by scanning, per position below stop, every element
    whose lead starts with that letter, in the order the elements were
    added; on tuple words, with each lead and anchor decoded."""
    for pos in range(len(word) if stop is None else min(stop, len(word))):
        for g in by_letter.get(word[pos], ()):
            u = code.decode(g.lead)
            end = pos + len(u)
            if end <= len(word) and word[pos:end] == u:
                if anchored and word_target(word[end:], source) != code.point(
                    g.source
                ):
                    continue
                return pos, g
    return None


def _decoded(algebra, levels):
    return [[algebra.decode(w) for w in level] for level in levels]


def _scan_levels_from(algebra, source, maxlen=None):
    """Normal paths per length to maxlen (default lencap), testing each new
    prefix against every lead."""
    n = algebra.quiver.radius
    code = algebra.code
    leads = [(code.decode(e.lead), code.point(e.source)) for e in algebra._index.elems]
    current = [()]
    out = [[()]]
    for _l in range(algebra.lencap if maxlen is None else maxlen):
        nxt = []
        for word in current:
            tgt = word_target(word, source)
            for letter in algebra.letters():
                t2 = word_target((letter,), tgt)
                if not all(-n <= x <= n for x in t2):
                    continue
                nw = (letter,) + word
                ok = True
                for lead, lsrc in leads:
                    if len(lead) <= len(nw) and nw[: len(lead)] == lead:
                        if word_target(nw[len(lead):], source) == lsrc:
                            ok = False
                            break
                if ok:
                    nxt.append(nw)
        current = nxt
        out.append(list(current))
    return out


@pytest.fixture(scope="module")
def a1_window(a1, f_classical):
    return build_algebra(a1, f_classical, 3)


@pytest.fixture(scope="module")
def a2_window(a2, f_classical):
    return build_algebra(a2, f_classical, 2)


def _overlapping_leads():
    """A free index whose later, shorter leads divide earlier ones, as during
    completion: at one position leads of several lengths match and the
    earliest added must win."""
    x, y = ("x", 0), ("x", 1)
    code = WordCode(default_order(2).precedence, 2, 8)
    index = _LeadIndex(code, anchored=False)
    for w in ((x, y, y), (y, x, x, y), (x,), (y, x), (x, y), (y,)):
        index.add(_Elem({code.encode(w): QScalar.one()}, None))
    return index, (x, y)


@pytest.fixture(scope="module")
def lead_cases(a2_window, b2):
    """Per case: lead index, the same elements by first letter, letters,
    lead words, anchors and the longest word to draw; letters, words and
    anchors as tuples."""
    b2_free = groebner(un_presentation(b2), cap=8)
    overlapping, letters = _overlapping_leads()
    cases = {}
    for name, index, letters, anchors, cap in (
        ("A2 window r2", a2_window._index, a2_window.letters(),
         a2_window.quiver.vertices, a2_window.lencap),
        ("B2 free", _basis_index(b2_free), b2_free.letters, (None,), 8),
        ("overlapping", overlapping, letters, (None,), 8),
    ):
        code = index.code
        by_letter = {}
        for e in index.elems:
            by_letter.setdefault(code.decode(e.lead)[0], []).append(e)
        leads = sorted({code.decode(e.lead) for e in index.elems})
        cases[name] = (index, by_letter, letters, leads, anchors, cap)
    return cases


@pytest.mark.parametrize("name", ["A2 window r2", "B2 free", "overlapping"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_find_divisor_matches_linear_scan(lead_cases, name, data):
    index, by_letter, letters, leads, anchors, cap = lead_cases[name]
    pieces = st.one_of(
        st.sampled_from(letters).map(lambda l: (l,)), st.sampled_from(leads)
    )
    parts = data.draw(st.lists(pieces, max_size=cap))
    word = tuple(l for part in parts for l in part)[:cap]
    source = data.draw(st.sampled_from(anchors))
    stop = data.draw(st.sampled_from([None, 1, 2]))
    code = index.code
    coded_source = code.vertex(source) if index.anchored else None
    got = _find_divisor(code.encode(word), coded_source, index, stop=stop)
    want = _scan_find_divisor(word, source, by_letter, code, index.anchored, stop)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0] and got[1] is want[1]


def _scan_ambiguities(elems, code):
    """Per element in rank order, the ambiguities of a scan over all pairs of
    it with itself and every earlier element, in basis order; ``code`` is
    the word code of anchored elements, None for free ones."""
    out = []
    for k, e in enumerate(elems):
        found = []
        for other in elems[: k + 1]:
            pairs = ((e, other),) if other is e else ((e, other), (other, e))
            for a, b in pairs:
                for word, source, p1, p2 in _ambiguities(a, b, code):
                    found.append((word, source, a, b, p1, p2))
        out.append(found)
    return out


def _assert_partners_match_scan(elems, code):
    partners = _PartnerIndex(code)
    want = _scan_ambiguities(elems, code)
    for e, expected in zip(elems, want):
        partners.add(e)
        # _Elem compares by identity, so the partners must be the same objects
        assert list(partners.ambiguities(e)) == expected


@pytest.mark.parametrize("name", ["A2 window r2", "B2 free", "overlapping"])
def test_partner_lookup_matches_all_pairs_scan(lead_cases, name):
    index = lead_cases[name][0]
    _assert_partners_match_scan(index.elems, index.code if index.anchored else None)


@settings(max_examples=200, deadline=None)
@given(
    anchored=st.booleans(),
    leads=st.lists(
        st.tuples(
            st.lists(st.sampled_from([("x", 0), ("y", 0)]), min_size=1, max_size=6),
            st.integers(-2, 2),
        ),
        max_size=12,
    ),
)
def test_partner_lookup_matches_scan_on_random_leads(anchored, leads):
    """Repeated leads, self-overlaps and leads that differ only by anchor."""
    code = WordCode(default_order(1).precedence, 1, 2 + 6)
    elems = [
        _Elem({code.encode(w): QScalar.one()}, code.vertex((v,)) if anchored else None)
        for w, v in leads
    ]
    _assert_partners_match_scan(elems, code if anchored else None)


@pytest.mark.parametrize("window", ["a1_window", "a2_window"])
def test_levels_from_matches_linear_scan(request, window):
    algebra = request.getfixturevalue(window)
    vertices = algebra.quiver.vertices
    for v in vertices:
        want = _scan_levels_from(algebra, v)
        assert _decoded(algebra, algebra.levels_from(v)) == want
        for maxlen in (0, 3, algebra.lencap):
            words = [w for level in want[: maxlen + 1] for w in level]
            for t in vertices:
                expected = [w for w in words if word_target(w, v) == t]
                got = [algebra.decode(w) for w in algebra.component(v, t, maxlen)]
                assert got == expected


@pytest.fixture(scope="module")
def a2_window_r3(a2, f_classical):
    """The larger window of the sl3 probe: radius 3, lencap 10."""
    return build_algebra(a2, f_classical, 3)


def test_levels_enumerated_only_as_deep_as_requested(a2, f_classical, a2_window_r3):
    """Resolving the trivial module on the radius-3 window enumerates each
    source's paths only to the deepest length requested of it; every
    component read equals the slice of a full-depth enumeration, and a
    deeper request afterwards gives the full-depth levels."""
    base = a2_window_r3
    lencap = base.lencap
    state = Completion(base.quiver, lencap).advance(lencap)
    algebra = WindowedAlgebra(base.quiver, state)
    fresh = WindowedAlgebra(base.quiver, state)
    deepest, reads = {}, []
    levels_from, component = algebra.levels_from, algebra.component

    def record_levels(source, maxlen=None):
        depth = lencap if maxlen is None else min(maxlen, lencap)
        deepest[source] = max(deepest.get(source, -1), depth)
        return levels_from(source, maxlen)

    def record_component(source, target, maxlen):
        out = component(source, target, maxlen)
        reads.append((source, target, maxlen, out))
        return out

    algebra.levels_from, algebra.component = record_levels, record_component
    res = minimal_resolution(algebra, trivial_module(a2, f_classical, (0, 0)), 2)
    # the projectives of every stage but the last are read, each to its
    # stage's budget: stage 0 to lencap, the four stage-1 generators'
    # sources only to the smaller stage-1 budget
    budgets = {}
    for stage in res.stages[:-1]:
        for w in stage.gens:
            budgets[w] = max(budgets.get(w, -1), stage.budget)
    assert reads and deepest == budgets
    assert sum(d < lencap for d in deepest.values()) >= 4
    for source, depth in deepest.items():
        assert len(algebra._levels[algebra.code.vertex(source)]) == depth + 1
        full = _decoded(fresh, fresh.levels_from(source))
        assert _scan_levels_from(algebra, source, depth) == full[: depth + 1]
    for source, target, maxlen, out in reads:
        levels = _decoded(fresh, fresh.levels_from(source))
        words = [w for level in levels[: maxlen + 1] for w in level]
        got = [algebra.decode(w) for w in out]
        assert got == [w for w in words if word_target(w, source) == target]
    for source in deepest:
        assert algebra.levels_from(source) == fresh.levels_from(source)
        for target in base.quiver.vertices:
            assert algebra.component(source, target, lencap) == fresh.component(
                source, target, lencap
            )


# -- resumed completion ----------------------------------------------------


# (series+rank, family, radius, homcap, caps): homcap of the runs these
# windows serve, the m<homcap> of the ids; each cap is one rung, the top cap is 2 * radius + 4
_RESUME_CASES = [
    ("A1", "classical", 6, 4, (6, 8, 12, 16)),
    ("A1", "qinteger", 8, 4, (6, 9, 14, 20)),
    ("A2", "classical", 2, 2, (4, 5, 7, 8)),
    ("A2", "classical", 3, 2, (4, 5, 8, 10)),
    ("A2", "qinteger", 3, 2, (4, 5, 7)),
    ("A2", "classical", 5, 4, (6, 9)),
]


def _window(kind, family, radius):
    c = build_cartan(kind[0], int(kind[1:]))
    return instantiate_window(c, getattr(FSpec, family)(), radius)


def _counting_reduce(monkeypatch):
    """Count the calls of gbasis._reduce_full."""
    count = [0]
    real = gbasis._reduce_full

    def reduce_full(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(gbasis, "_reduce_full", reduce_full)
    return count


@pytest.mark.parametrize(
    "kind, family, radius, homcap, caps",
    _RESUME_CASES,
    ids=["%s%s-r%d-m%d" % (k, f[0], r, h) for k, f, r, h, _c in _RESUME_CASES],
)
def test_resumed_completion_equals_scratch(
    monkeypatch, kind, family, radius, homcap, caps
):
    """Each rung of one resumed completion has the basis of a completion at
    that cap from scratch, and the rungs together reduce exactly as many
    polynomials as one scratch completion at the last cap: no work is
    redone."""
    quiver = _window(kind, family, radius)
    count = _counting_reduce(monkeypatch)
    state = Completion(quiver, 2 * radius + 4)
    resumed = []
    for cap in caps:
        state.advance(cap)
        resumed.append(state.result().content_hash())
    resumed_calls = count[0]
    scratch = [groebner(quiver, cap).content_hash() for cap in caps[:-1]]
    count[0] = 0
    scratch.append(groebner(quiver, caps[-1]).content_hash())
    assert resumed == scratch
    assert resumed_calls == count[0]


def test_resumed_completion_refuses_misuse(a2, f_classical):
    """A lower cap and a cap above the top are typed errors that name both
    caps."""
    quiver = instantiate_window(a2, f_classical, 2)
    state = Completion(quiver, 8)
    state.advance(5)
    with pytest.raises(GBError, match=r"cap 4 below the cap 5"):
        state.advance(4)
    with pytest.raises(GBError, match=r"cap 9 above the top cap 8"):
        state.advance(9)
    # the refusals left no trace
    state.advance(6)
    assert state.result().content_hash() == groebner(quiver, 6).content_hash()


@pytest.mark.parametrize(
    "kind, family, radius, homcap, caps",
    _RESUME_CASES,
    ids=["%s%s-r%d-m%d" % (k, f[0], r, h) for k, f, r, h, _c in _RESUME_CASES],
)
def test_chains_read_off_the_completion_index(kind, family, radius, homcap, caps):
    """At every rung, the chains of S_0 read off the completion's own lead
    index, whose code reaches radius + top, equal those read off the lead
    index of the decoded basis, whose code reaches radius + the cap."""
    quiver = _window(kind, family, radius)
    zero = (0,) * quiver.rank
    state = Completion(quiver, 2 * radius + 4)
    for cap in caps:
        state.advance(cap)
        decoded = _basis_index(state.result(), radius)
        assert decoded.code.reach < state.code.reach or cap == state.top
        assert chains(state.index, zero, homcap + 1, radius) == chains(
            decoded, zero, homcap + 1, radius
        )


@pytest.mark.parametrize(
    "kind, family, radius, homcap, caps",
    _RESUME_CASES,
    ids=["%s%s-r%d-m%d" % (k, f[0], r, h) for k, f, r, h, _c in _RESUME_CASES],
)
def test_completion_index_reduces_like_the_decoded_index(
    kind, family, radius, homcap, caps
):
    """At the last rung, the completion's own lead index and the lead index
    of its decoded basis give the same normal words and the same normal
    forms.  ``_find_divisor`` prefers the lowest rank, and the two order
    their elements differently: by discovery on the completion, by sorted
    lead once decoded.  The words reduced are each letter times each normal
    word shorter than the cap, and products a + b of two normal words of
    total length the cap."""
    quiver = _window(kind, family, radius)
    state = Completion(quiver, 2 * radius + 4)
    for cap in caps:
        state.advance(cap)
    decoded = _basis_index(state.result(), radius)
    ranked = [
        [(e.lead, index.code.point(e.source)) for e in index.elems]
        for index in (state.index, decoded)
    ]
    assert sorted(ranked[0]) == sorted(ranked[1])
    assert (ranked[0] != ranked[1]) == (quiver.rank == 2)  # on A1 the orders agree
    ours = NormalWords(state, radius)
    theirs = NormalWords(
        SimpleNamespace(index=decoded, code=decoded.code, letters=state.letters, cap=cap),
        radius,
    )
    one = QScalar.one()
    for v in ((0,) * quiver.rank, max(quiver.vertices)):
        source = state.code.vertex(v)
        levels = list(ours.levels(source, cap, targets=True))
        assert [[w for w, _t in level] for level in levels] == list(
            theirs.levels(decoded.code.vertex(v), cap)
        )
        words = [c + w for level in levels[:-1] for w, _t in level for c in ours._letters]
        for k in range(1, cap):
            for b, t in levels[k][:1] + levels[k][-1:]:
                words.extend(a + b for a in list(ours.levels(t, cap - k))[-1][:2])
        for w in words:
            want = _reduce_full({w: one}, decoded.code.vertex(v), decoded)
            assert _reduce_full({w: one}, source, state.index) == want


# -- chain criterion -------------------------------------------------------


# (id, presentation, cap, whether the criterion must fire): a free Serre
# presentation is (series, rank), a window (series+rank, family, radius)
_CHAIN_CASES = [
    ("A4", ("A", 4), 10, True),
    ("B3", ("B", 3), 10, True),
    ("G2", ("G", 2), 14, True),
    ("C3", ("C", 3), 10, True),
    ("A5", ("A", 5), 10, True),
    ("A2c-r2", ("A2", "classical", 2), 8, False),
    ("A2c-r3", ("A2", "classical", 3), 10, True),
    ("B2c-r3", ("B2", "classical", 3), 8, False),
    ("A3c-r2", ("A3", "classical", 2), 6, True),
    ("A2q-r2", ("A2", "qinteger", 2), 8, False),
]


def _chain_case(spec):
    if len(spec) == 2:
        return un_presentation(build_cartan(*spec))
    return _window(*spec)


def _recording_criterion(monkeypatch):
    """Record, for each ambiguity gbasis._chain_resolvable skips, its
    S-polynomial reduced against the lead index of that moment, and the
    arguments of the call."""
    skipped = []
    real = gbasis._chain_resolvable

    def chain_resolvable(word, source, g1, g2, p1, p2, index):
        found = real(word, source, g1, g2, p1, p2, index)
        if found:
            s = gbasis._s_polynomial(word, g1, g2, p1, p2)
            skipped.append((_reduce_full(s, source, index), word, source, g1, g2, p1, p2))
        return found

    monkeypatch.setattr(gbasis, "_chain_resolvable", chain_resolvable)
    return skipped


@pytest.mark.parametrize(
    "spec, cap, fires", [c[1:] for c in _CHAIN_CASES], ids=[c[0] for c in _CHAIN_CASES]
)
def test_chain_criterion_keeps_the_basis(monkeypatch, spec, cap, fires):
    """A completion that skips the ambiguities the chain criterion proves
    resolvable finds the elements, in the same order, and the basis of a
    completion that reduces every ambiguity.  The criterion fires on every
    free presentation here and on the larger windows, so the comparison is
    not vacuous."""
    pres = _chain_case(spec)
    skipped = _recording_criterion(monkeypatch)
    on = Completion(pres, cap).advance(cap)
    monkeypatch.setattr(gbasis, "_chain_resolvable", lambda *args: False)
    off = Completion(pres, cap).advance(cap)
    assert [(e.lead, e.source) for e in on.index.elems] == [
        (e.lead, e.source) for e in off.index.elems
    ]
    assert on.result().content_hash() == off.result().content_hash()
    assert skipped or not fires


@pytest.mark.parametrize(
    "spec, cap, fires", [c[1:] for c in _CHAIN_CASES], ids=[c[0] for c in _CHAIN_CASES]
)
def test_chain_criterion_skips_only_zero_reductions(monkeypatch, spec, cap, fires):
    """Each skipped S-polynomial reduces to zero against the lead index it
    was skipped at and against the completed basis."""
    skipped = _recording_criterion(monkeypatch)
    state = Completion(_chain_case(spec), cap).advance(cap)
    for then, word, source, g1, g2, p1, p2 in skipped:
        assert then == {}
        s = gbasis._s_polynomial(word, g1, g2, p1, p2)
        assert _reduce_full(s, source, state.index) == {}


_FREE_LETTERS = (("x", 0), ("x", 1), ("x", 2))


_SMALL_INTS = st.sampled_from((-2, -1, 1, 2)).map(QScalar.from_rational)


@st.composite
def _multihomogeneous_presentations(draw, coeffs=_SMALL_INTS):
    """A free presentation on 2 or 3 letters: 1 to 4 relations, each a sum
    of 1 to 3 rearrangements of one word of length 2 to 4, with coefficients
    drawn from ``coeffs``."""
    rank = draw(st.integers(2, 3))
    letters = _FREE_LETTERS[:rank]
    relations = []
    for _r in range(draw(st.integers(1, 4))):
        word = draw(st.lists(st.sampled_from(letters), min_size=2, max_size=4))
        words = draw(
            st.lists(st.permutations(word), min_size=1, max_size=3, unique_by=tuple)
        )
        relations.append(
            NCPoly.make({tuple(w): draw(coeffs) for w in words}, rank=rank)
        )
    return Presentation(rank, letters, tuple(relations), "random")


@settings(max_examples=300, deadline=None)
@given(pres=_multihomogeneous_presentations(), cap=st.integers(5, 7))
def test_chain_criterion_keeps_random_bases(pres, cap):
    """Random multihomogeneous relations complete to the same basis with the
    chain criterion and without it."""
    on = groebner(pres, cap).content_hash()
    with mock.patch.object(gbasis, "_chain_resolvable", lambda *args: False):
        off = groebner(pres, cap).content_hash()
    assert on == off


# -- packed coefficients ---------------------------------------------------


_LAURENT_COEFFS = st.sampled_from(
    tuple(
        QScalar.from_laurent(t)
        for t in (
            {0: 1}, {0: -1}, {0: 2}, {0: -2}, {1: 1}, {1: -1}, {-1: 1}, {-2: -1},
            {3: 1}, {1: 1, -1: 1}, {1: -1, -1: -1},
        )
    )
)


def _reduction_paths(monkeypatch):
    """Count the reductions gbasis._reduce_packed finishes (``packed``) and
    gives up, to be redone exactly (``exact``)."""
    count = {"packed": 0, "exact": 0}
    real = gbasis._reduce_packed

    def reduce_packed(*args):
        red = real(*args)
        count["packed" if red is not None else "exact"] += 1
        return red

    monkeypatch.setattr(gbasis, "_reduce_packed", reduce_packed)
    return count


@settings(max_examples=200, deadline=None)
@given(pres=_multihomogeneous_presentations(_LAURENT_COEFFS), cap=st.integers(5, 7))
def test_packed_reduction_keeps_random_bases(pres, cap):
    """Random multihomogeneous relations with Laurent coefficients (+-q^k,
    q + 1/q, small ints) complete to the same basis with packed reduction
    and with every reduction exact."""
    on = groebner(pres, cap).content_hash()
    with mock.patch.object(gbasis, "_reduce_packed", lambda *args: None):
        off = groebner(pres, cap).content_hash()
    assert on == off


def _q_commuting(c):
    """The basis at cap 4 of x1 x2 = c x2 x1."""
    x1, x2 = _FREE_LETTERS[:2]
    rel = NCPoly.make({(x1, x2): QScalar.one(), (x2, x1): -c}, rank=2)
    return groebner(Presentation(2, (x1, x2), (rel,), "q-commuting"), 4)


@pytest.mark.parametrize(
    "coeff, path",
    [
        ({1: 2**62}, "packed"),
        ({1: -(2**62), 2: 2**61}, "packed"),
        ({1: 2**63}, "exact"),
        ({1: 2**70}, "exact"),
    ],
    ids=["2^62q", "-2^62q+2^61q^2", "2^63q", "2^70q"],
)
def test_packed_reduction_gives_up_at_the_bound(monkeypatch, coeff, path):
    """Modulo x1 x2 = q x2 x1 the normal form of c x1x1x2 + x2x1x1 is
    (c q^2 + 1) x2x1x1.  The bound of c q^2 + 1 is |c|_1 + 1: below 2^63
    the reduction stays packed, from 2^63 on it is redone exactly, and both
    give the exact normal form."""
    x1, x2 = _FREE_LETTERS[:2]
    one, q = QScalar.one(), QScalar.q_pow(1)
    g = _q_commuting(q)
    c = QScalar.from_laurent(coeff)
    x = NCPoly.make({(x1, x1, x2): c, (x2, x1, x1): one}, rank=2)
    count = _reduction_paths(monkeypatch)
    assert normal_form(x, g) == NCPoly.make({(x2, x1, x1): c * q * q + one}, rank=2)
    assert count == {"packed": int(path == "packed"), "exact": int(path == "exact")}


@pytest.mark.parametrize(
    "series, rank, cap, fractions", [("A", 4, 10, 0), ("G", 2, 14, 2)], ids=["A4", "G2"]
)
def test_packed_reduction_falls_back_at_denominators(
    monkeypatch, series, rank, cap, fractions
):
    """The free A4 basis is integral.  Two elements of the free G2 basis
    carry the denominator 1 + q^2, the one denominator the reductions that
    touch them meet, so they stay packed too.  No reduction of either
    completion falls back, and the basis is the one of a completion with
    every reduction exact."""
    pres = un_presentation(build_cartan(series, rank))
    count = _reduction_paths(monkeypatch)
    on = groebner(pres, cap)
    assert count["packed"] > 0
    assert count["exact"] == 0
    dens = [p for p in on.elements if any(v.pack() is None for _w, v in p.terms)]
    assert len(dens) == fractions
    monkeypatch.setattr(gbasis, "_reduce_packed", lambda *args: None)
    assert groebner(pres, cap).content_hash() == on.content_hash()


def test_packed_reduction_falls_back_at_a_second_denominator(monkeypatch):
    """Modulo x1 x2 = c x2 x1 with c = q / (1 + q^2), the normal form of
    a x1x1x2 + x2x1x1 is (a c^2 + 1) x2x1x1.  With a = 1 / (1 + q) the
    reduction meets two denominators and is redone exactly; with
    a = 1 / (1 + q^2) it stays packed over one."""
    x1, x2 = _FREE_LETTERS[:2]
    one = QScalar.one()
    c = QScalar.q_pow(1) / QScalar(0, (1, 0, 1), (1,))
    g = _q_commuting(c)
    for den, path in (((1, 1), "exact"), ((1, 0, 1), "packed")):
        a = one / QScalar(0, den, (1,))
        x = NCPoly.make({(x1, x1, x2): a, (x2, x1, x1): one}, rank=2)
        count = _reduction_paths(monkeypatch)
        assert normal_form(x, g) == NCPoly.make({(x2, x1, x1): a * c * c + one}, rank=2)
        assert count == {"packed": int(path == "packed"), "exact": int(path == "exact")}


def test_packed_reduction_falls_back_at_a_second_tail_denominator(monkeypatch):
    """Modulo x1 x2 = c2 x2 x1 and x1 x3 = c3 x3 x1, whose tails are over
    1 + q^2 and 1 + q, the normal form of x1x2x3 is c2 c3 x2x3x1.  Its
    reduction meets the two denominators in two tails and is redone
    exactly; with c3 = q / (1 + q^2) it stays packed."""
    x1, x2, x3 = _FREE_LETTERS
    one, q = QScalar.one(), QScalar.q_pow(1)
    c2 = q / QScalar(0, (1, 0, 1), (1,))
    for den, path in (((1, 1), "exact"), ((1, 0, 1), "packed")):
        c3 = q / QScalar(0, den, (1,))
        rels = (
            NCPoly.make({(x1, x2): one, (x2, x1): -c2}, rank=3),
            NCPoly.make({(x1, x3): one, (x3, x1): -c3}, rank=3),
        )
        g = groebner(Presentation(3, (x1, x2, x3), rels, "two dens"), 4)
        x = NCPoly.make({(x1, x2, x3): one}, rank=3)
        count = _reduction_paths(monkeypatch)
        assert normal_form(x, g) == NCPoly.make({(x2, x3, x1): c2 * c3}, rank=3)
        assert count == {"packed": int(path == "packed"), "exact": int(path == "exact")}


@pytest.mark.parametrize(
    "a, path",
    [(2**63 - 5, "packed"), (-(2**63) + 5, "packed"), (2**63 - 4, "exact")],
    ids=["2^63-5", "-2^63+5", "2^63-4"],
)
def test_packed_reduction_gives_up_at_the_bound_over_a_denominator(monkeypatch, a, path):
    """Modulo x1 x2 = c x2 x1 with c = q / (1 + q^2), the normal form of
    a x1x1x2 + x2x1x1 is (a q^2 / (1 + q^2)^2 + 1) x2x1x1.  The sum lifts
    1 to (1 + q^2)^2 / (1 + q^2)^2, whose bound is |1 + q^2|_1^2 = 4, so the
    bound of the sum is |a| + 4: below 2^63 the reduction stays packed, at
    2^63 it is redone exactly, and both give the exact normal form."""
    x1, x2 = _FREE_LETTERS[:2]
    one = QScalar.one()
    c = QScalar.q_pow(1) / QScalar(0, (1, 0, 1), (1,))
    g = _q_commuting(c)
    a = QScalar.from_rational(a)
    x = NCPoly.make({(x1, x1, x2): a, (x2, x1, x1): one}, rank=2)
    count = _reduction_paths(monkeypatch)
    assert normal_form(x, g) == NCPoly.make({(x2, x1, x1): a * c * c + one}, rank=2)
    assert count == {"packed": int(path == "packed"), "exact": int(path == "exact")}


_FRACTION_COEFFS = st.sampled_from(
    (
        QScalar.one(),
        -QScalar.one(),
        QScalar.q_pow(1),
        QScalar.from_rational(2),
        QScalar.one() / QScalar(0, (1, 0, 1), (1,)),
        QScalar.from_laurent({1: 1, -1: 1}) / QScalar(0, (1, 0, 1), (1,)),
        QScalar.one() / QScalar(0, (1, 1), (1,)),
        QScalar.from_rational(Fraction(1, 2)),
    )
)


@settings(max_examples=200, deadline=None)
@given(pres=_multihomogeneous_presentations(_FRACTION_COEFFS), cap=st.integers(5, 7))
def test_packed_reduction_over_a_denominator_keeps_random_bases(pres, cap):
    """Random multihomogeneous relations whose coefficients include
    1/(1 + q^2), (q + 1/q)/(1 + q^2), 1/(1 + q) and 1/2 complete to the same
    basis with packed reduction and with every reduction exact."""
    on = groebner(pres, cap).content_hash()
    with mock.patch.object(gbasis, "_reduce_packed", lambda *args: None):
        off = groebner(pres, cap).content_hash()
    assert on == off


# -- Anick chains ----------------------------------------------------------


@pytest.mark.parametrize(
    "rank, family, radius, lencap, counts, longest, at_zero",
    [
        (1, "classical", 6, None, (2, 1, 0), (1, 2, None), (0, 1, 0)),
        (1, "qinteger", 8, None, (2, 1, 0), (1, 2, None), (0, 1, 0)),
        (2, "classical", 3, 8, (4, 8), (1, 3), (0, 2)),
        (2, "qinteger", 4, 8, (4, 8, 10, 8), (1, 3, 4, 6), (0, 2, 0, 2)),
        (
            2, "classical", 6, 10,
            (4, 8, 10, 8, 4, 1, 0), (1, 3, 4, 6, 7, 8, None), (0, 2, 0, 2, 0, 1, 0),
        ),
    ],
)
def test_chains_of_the_trivial_module(
    rank, family, radius, lencap, counts, longest, at_zero
):
    """Chains per stage of S_0: how many, the longest total length, and how
    many end at weight 0 (the flag Betti numbers for A2 radius 6)."""
    c = build_cartan("A", rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius, lencap=lencap)
    zero = (0,) * rank
    stages = chains(algebra._index, zero, len(counts), radius)
    assert stages[0] == ((0, zero),)
    assert tuple(len(s) for s in stages[1:]) == counts
    assert tuple(max((n for n, _e in s), default=None) for s in stages[1:]) == longest
    assert tuple(sum(e == zero for _n, e in s) for s in stages[1:]) == at_zero
    for stage in stages:
        assert list(stage) == sorted(stage)


def test_chains_stay_in_the_box(a2, f_classical):
    """At radius 1 the letters leave the origin inside the box, and every
    chain endpoint lies in the box."""
    algebra = build_algebra(a2, f_classical, 1)
    stages = chains(algebra._index, (0, 0), 3, 1)
    assert len(stages[1]) == 4
    for stage in stages:
        for _n, end in stage:
            assert max(abs(x) for x in end) <= 1
    corner = chains(algebra._index, (1, 1), 1, 1)
    assert sorted(e for _n, e in corner[1]) == [(0, 1), (1, 0)]


# sha256 of GBResult.serialize(); the bodies were recorded from the
# linear-scan engine (a1, a2) and from the all-pairs ambiguity scan (a2
# radius 3)
_WINDOW_HASHES = {
    "a1_window": "c36c5a858a7b06a724dcc30441f3346c5d5c93a51171358ca8c7d876a383bd51",
    "a2_window": "5da8e76b9a384685d2a5fc1fae4e73f63d45e5d8ddc14202ea3433bc9dadd44c",
    "a2_window_r3": "ff876cff2831b9d4d254d6b68295addae72c83148d4f272a68a9713d02a0c67b",
}


@pytest.mark.parametrize("window", sorted(_WINDOW_HASHES))
def test_window_basis_hash_unchanged(request, window):
    algebra = request.getfixturevalue(window)
    digest = groebner(algebra.quiver, algebra.lencap).content_hash()
    assert digest == _WINDOW_HASHES[window]


# sha256 of GBResult.serialize() for windows at generic q (the default
# lencap 2 * radius + 4); the first two bodies are those recorded in
# BENCH_14.json as gb-A1q-r8 and gb-A2q-r2, whose window labels still
# carried a margin; B2 was recorded by the reduction that packed no
# denominator
@pytest.mark.parametrize(
    "series, rank, radius, digest",
    [
        ("A", 1, 8, "527f91706a7c86a5cb316fb4e7550cb03633e94a78fc3f89f788fedec53800a0"),
        ("A", 2, 2, "2ef2ef9737d04d9c5571a8060e71249f0ac8e2e87875f9795695e6f089f4d392"),
        ("B", 2, 2, "d2b5c05e86a794f7d8b9be15b4e8da4b87540c5b980274d69536538a7c050a1a"),
    ],
    ids=["A1q-r8", "A2q-r2", "B2q-r2"],
)
def test_qinteger_window_basis_hash_unchanged(f_qinteger, series, rank, radius, digest):
    quiver = instantiate_window(build_cartan(series, rank), f_qinteger, radius)
    assert groebner(quiver, 2 * radius + 4).content_hash() == digest


# sha256 of GBResult.serialize() for free Serre presentations; A5 to E6
# were recorded by the completion that reduced every ambiguity, before the
# chain criterion, and F4 by the reduction that packed no denominator (one
# F4 element is over 1 + q^2; it divides a word from cap 9 on)
@pytest.mark.parametrize(
    "series, rank, cap, digest",
    [
        ("A", 4, 10, "3c152b87e83bb49cd8dc348d206cf1a3202387f3845156867a57e73915cf54cc"),
        ("B", 2, 8, "b2aee090a41e31746c96013e93560e65366149a02bcbe42937f090553a3eed38"),
        ("B", 3, 10, "0548db3f6eab6ad8fbb52a5edd9e8eed7ceeb8feafefa7a9d1aff69bcdb6edd4"),
        ("C", 3, 8, "a574f33e4f5e80c9149d9bbb86d9c4bb1c531cd89e47994a67c4213abfd609f9"),
        ("G", 2, 14, "677bc0863f11771b9b0021586af4ceaf3de8d1a09e2a33206e3ad426b5252219"),
        ("A", 5, 10, "df04f3b9277f3f30a1d3ffca3b8b630e66d310ad9bb477cb5bfb9ce144cf101b"),
        ("C", 3, 10, "a65a55110cb302f16429bd071061f1be2e06610135c5413e84abc2a45449bae9"),
        ("D", 4, 10, "9a0c467171fe9205c9366101b9cc358c4d4da7b232a8d97d4ad78bdbc0b5e3e5"),
        ("E", 6, 8, "245e0497b535501b1ae4c0c7b527bde1346593b142d9cabed80d316d2ac05971"),
        ("F", 4, 8, "35bb4d21be76fea0b6ecfa0cb7362aa579c8c23c2380acb381874498d8ff5eab"),
        ("F", 4, 9, "afce99b72d83382c9a897c386f1bb9685bc64020d55291273c95f13e569ef546"),
    ],
    ids=["A4", "B2", "B3", "C3", "G2", "A5", "C3-c10", "D4", "E6", "F4", "F4-c9"],
)
def test_free_basis_hash_unchanged(series, rank, cap, digest):
    g = groebner(un_presentation(build_cartan(series, rank)), cap=cap)
    assert g.content_hash() == digest
