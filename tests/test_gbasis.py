"""Truncated noncommutative Groebner engine and its independent oracles."""

from itertools import product

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
from schurq.gbasis import (
    UncertifiedRegionError,
    _ambiguities,
    _basis_index,
    _Elem,
    _find_divisor,
    _LeadIndex,
    _PartnerIndex,
    default_order,
    dense_rank_dims,
)
from schurq.ext import WindowedAlgebra, minimal_resolution
from schurq.modules import trivial_module, yn_presentation
from schurq.presentation import NCPoly, instantiate_window, un_presentation, word_target
from schurq.qfield import QScalar


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
    gy = groebner(yn_presentation(a2), cap=5)
    dx = hilbert(gx, 5)
    assert len(gx.elements) == len(gy.elements)
    # same multigraded dims after flipping chirality
    from schurq.gbasis import NormalWords
    from schurq.presentation import word_degree

    words = NormalWords(gy).by_length(None, 5)
    dy = {}
    for level in words:
        for w in level:
            beta = tuple(-x for x in word_degree(w, 2))
            dy[beta] = dy.get(beta, 0) + 1
    assert dx == dy


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


# -- the lead index against the linear scans it replaced --------------------


def _scan_find_divisor(word, source, by_letter, anchored, stop=None):
    """Divisor search by scanning, per position below stop, every element
    whose lead starts with that letter, in the order the elements were
    added."""
    for pos in range(len(word) if stop is None else min(stop, len(word))):
        for g in by_letter.get(word[pos], ()):
            u = g.lead
            end = pos + len(u)
            if end <= len(word) and word[pos:end] == u:
                if anchored and word_target(word[end:], source) != g.source:
                    continue
                return pos, g
    return None


def _scan_levels_from(algebra, source, maxlen=None):
    """Normal paths per length to maxlen (default lencap), testing each new
    prefix against every lead."""
    n = algebra.quiver.radius
    leads = algebra.gb.leads()
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
    return build_algebra(a1, f_classical, 3, margin=2)


@pytest.fixture(scope="module")
def a2_window(a2, f_classical):
    return build_algebra(a2, f_classical, 2, margin=2)


def _overlapping_leads():
    """A free index whose later, shorter leads divide earlier ones, as during
    completion: at one position leads of several lengths match and the
    earliest added must win."""
    x, y = ("x", 0), ("x", 1)
    idx = default_order(2).index()
    index = _LeadIndex(anchored=False)
    for w in ((x, y, y), (y, x, x, y), (x,), (y, x), (x, y), (y,)):
        index.add(_Elem({w: QScalar.one()}, None, idx))
    return index, (x, y)


@pytest.fixture(scope="module")
def lead_cases(a2_window, b2):
    """Per case: lead index, the same elements by first letter, letters,
    lead words, anchors and the longest word to draw."""
    b2_free = groebner(un_presentation(b2), cap=8)
    overlapping, letters = _overlapping_leads()
    cases = {}
    for name, index, letters, anchors, cap in (
        ("A2 window r2", a2_window._index, a2_window.gb.letters,
         a2_window.quiver.vertices, a2_window.gb.certified_len),
        ("B2 free", _basis_index(b2_free), b2_free.letters, (None,), 8),
        ("overlapping", overlapping, letters, (None,), 8),
    ):
        by_letter = {}
        for e in index.elems:
            by_letter.setdefault(e.lead[0], []).append(e)
        leads = sorted({e.lead for e in index.elems})
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
    got = _find_divisor(word, source, index, stop=stop)
    want = _scan_find_divisor(word, source, by_letter, index.anchored, stop)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0] and got[1] is want[1]


def _scan_ambiguities(elems, anchored):
    """Per element in rank order, the ambiguities of a scan over all pairs of
    it with itself and every earlier element, in basis order."""
    out = []
    for k, e in enumerate(elems):
        found = []
        for other in elems[: k + 1]:
            pairs = ((e, other),) if other is e else ((e, other), (other, e))
            for a, b in pairs:
                for word, source, p1, p2 in _ambiguities(a, b, anchored):
                    found.append((word, source, a, b, p1, p2))
        out.append(found)
    return out


def _assert_partners_match_scan(elems, anchored):
    partners = _PartnerIndex(anchored)
    want = _scan_ambiguities(elems, anchored)
    for e, expected in zip(elems, want):
        partners.add(e)
        # _Elem compares by identity, so the partners must be the same objects
        assert list(partners.ambiguities(e)) == expected


@pytest.mark.parametrize("name", ["A2 window r2", "B2 free", "overlapping"])
def test_partner_lookup_matches_all_pairs_scan(lead_cases, name):
    index = lead_cases[name][0]
    _assert_partners_match_scan(index.elems, index.anchored)


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
    idx = default_order(1).index()
    elems = [
        _Elem({tuple(w): QScalar.one()}, (v,) if anchored else None, idx)
        for w, v in leads
    ]
    _assert_partners_match_scan(elems, anchored)


@pytest.mark.parametrize("window", ["a1_window", "a2_window"])
def test_levels_from_matches_linear_scan(request, window):
    algebra = request.getfixturevalue(window)
    vertices = algebra.quiver.vertices
    for v in vertices:
        want = _scan_levels_from(algebra, v)
        assert algebra.levels_from(v) == want
        for maxlen in (0, 3, algebra.lencap):
            words = [w for level in want[: maxlen + 1] for w in level]
            for t in vertices:
                expected = [w for w in words if word_target(w, v) == t]
                assert algebra.component(v, t, maxlen) == expected


@pytest.fixture(scope="module")
def a2_window_r3(a2, f_classical):
    """The larger window of the sl3 probe: radius 3, lencap 10."""
    return build_algebra(a2, f_classical, 3, margin=2)


def test_levels_enumerated_only_as_deep_as_requested(a2, f_classical, a2_window_r3):
    """Resolving the trivial module on the radius-3 window enumerates each
    source's paths only to the deepest length requested of it; every
    component read equals the slice of a full-depth enumeration, and a
    deeper request afterwards gives the full-depth levels."""
    base = a2_window_r3
    lencap = base.lencap
    algebra = WindowedAlgebra(base.quiver, base.gb, lencap)
    fresh = WindowedAlgebra(base.quiver, base.gb, lencap)
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
    minimal_resolution(algebra, trivial_module(a2, f_classical, (0, 0)), 2)
    # all but the stage-0 generator's source are read to length 1 at most
    assert reads and sum(d <= 1 for d in deepest.values()) >= 20
    for source, depth in deepest.items():
        assert len(algebra._levels[source]) == depth + 1
        full = fresh.levels_from(source)
        assert _scan_levels_from(algebra, source, depth) == full[: depth + 1]
    for source, target, maxlen, out in reads:
        words = [w for level in fresh.levels_from(source)[: maxlen + 1] for w in level]
        assert out == [w for w in words if word_target(w, source) == target]
    for source in deepest:
        assert algebra.levels_from(source) == fresh.levels_from(source)
        for target in base.quiver.vertices:
            assert algebra.component(source, target, lencap) == fresh.component(
                source, target, lencap
            )


# sha256 of GBResult.serialize(), recorded from the linear-scan engine (a1, a2)
# and from the all-pairs ambiguity scan (a2 radius 3)
_WINDOW_HASHES = {
    "a1_window": "3fb9bf7ada96e71a1af60fb1413f8f9dff766acdd1b9d5efb2a0fafe02886383",
    "a2_window": "d5bb07f91b9fa7504b88bf7599657863a7e1288ff03f0b8b2eba4e889df62cf2",
    "a2_window_r3": "e1a2845433e1281c9a0b5ab0cc7cbb81acaae6c72668238cc988b1f198eb94d5",
}


@pytest.mark.parametrize("window", sorted(_WINDOW_HASHES))
def test_window_basis_hash_unchanged(request, window):
    assert request.getfixturevalue(window).gb.content_hash() == _WINDOW_HASHES[window]


@pytest.mark.parametrize(
    "series, rank, cap, digest",
    [
        ("A", 4, 10, "3c152b87e83bb49cd8dc348d206cf1a3202387f3845156867a57e73915cf54cc"),
        ("B", 3, 10, "0548db3f6eab6ad8fbb52a5edd9e8eed7ceeb8feafefa7a9d1aff69bcdb6edd4"),
        ("G", 2, 14, "677bc0863f11771b9b0021586af4ceaf3de8d1a09e2a33206e3ad426b5252219"),
    ],
    ids=["A4", "B3", "G2"],
)
def test_free_basis_hash_unchanged(series, rank, cap, digest):
    g = groebner(un_presentation(build_cartan(series, rank)), cap=cap)
    assert g.content_hash() == digest
