"""Windowed Ext engine: resolutions, stability, Yoneda structure, verdicts."""

import dataclasses
import hashlib
import json
import sys
import weakref
from collections import Counter
from itertools import product

import pytest

from schurq import (
    build_algebra,
    build_cartan,
    build_simple,
    ext_dims,
    ext_table,
    euler_check,
    koszul_check,
    low_degree_ext,
    minimal_resolution,
    schur_check,
    trivial_module,
    truncated_verma,
    yoneda_product,
    yoneda_square,
)
from schurq import ext as ext_module
from schurq import gbasis, rootdata
from schurq.cli import main
from schurq.ext import (
    ClosureEscapeError,
    ExtError,
    ExtractionError,
    ExtTable,
    InstabilityError,
    KernelLiftError,
    MarginError,
    WindowModuleError,
    ext_cocycle_basis,
    _hom_layout,
)
from schurq.linalg import ModularSpan, Subspace
from schurq.qfield import MOD_P
from schurq.gbasis import chains
from schurq.presentation import FSpec, WindowedQuiver, instantiate_window, word_target


@pytest.fixture(scope="module")
def a1_setup(a1, f_classical):
    algebra = build_algebra(a1, f_classical, 6)
    triv = trivial_module(a1, f_classical, (0,))
    simple = build_simple(a1, f_classical, (1,))
    res = minimal_resolution(algebra, triv, 4)
    return algebra, triv, simple, res


# -- resolutions and Ext dimensions ---------------------------------------


def test_resolution_dd_verified(a1_setup):
    _algebra, _triv, _simple, res = a1_setup
    assert res.dd_verified


def _stage_digest(algebra, res):
    """sha256 of repr([(gens, diff, budget) per Stage]), with the coded
    words of each differential entry decoded to tuples of letters."""
    decode = algebra.decode
    text = repr([
        (
            s.gens,
            tuple(tuple(((g, decode(u)), c) for (g, u), c in e) for e in s.diff),
            s.budget,
        )
        for s in res.stages
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# _stage_digest of the trivial module's resolution at the default lencap
# 2 * radius + 4; the A1 entries were recorded when stage
# extraction still kept its spans as Fraction rows, the A2 entries when the
# closure started to queue residuals on spans pivoting on the longest word
STAGE_SHA256 = {
    ("A", 2, "classical", 2, 2): (
        "0d488802649a00f68fdd87f9a7cc669b0cb6c072783ab2e0009ea2aa8ecc2341"
    ),
    ("A", 1, "qinteger", 6, 4): (
        "5cafbd97fd36d44fc660c39d19eb62eb0b1bc426841d7d2b3edc58ae38f15d8c"
    ),
    # the larger windows of the sl3_probe and quantum_sl2 benchmark workloads
    ("A", 2, "classical", 3, 2): (
        "7f47b1d150a1f5a7d03bae0b1f611b272fcced0993133c71b3a9f1477c2dc710"
    ),
    ("A", 1, "qinteger", 8, 4): (
        "311c5d1cc6470a32629d7e4fc1866a5366fe458a7d571ded55e10fecf25704bb"
    ),
}


@pytest.mark.parametrize("key", sorted(STAGE_SHA256))
def test_stage_extraction_is_pinned(key):
    """Extraction picks the same generators, differentials and budgets."""
    series, rank, family, radius, homcap = key
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    res = minimal_resolution(algebra, trivial_module(c, f, (0,) * rank), homcap)
    assert _stage_digest(algebra, res) == STAGE_SHA256[key]


def _window(c, f, modules, homcap, radius):
    """The algebra, modules and chain table (or None) of the window that the
    Ext run builds at ``radius``, with its ``WindowedAlgebra`` built."""
    return ext_module._window_algebra(c, f, modules, homcap, radius, resolve=True)


# the same digest for the trivial module on the chain-sized windows that the
# sl3_probe and quantum_sl2 benchmark workloads resolve (both radii of each)
CHAIN_STAGE_SHA256 = {
    ("A", 2, "classical", 2, 2): (
        5, "f7401a7ff0e1b21748861213064e4a81fd7eae784d35dbf23b4eac71715a8c55"
    ),
    ("A", 2, "classical", 3, 2): (
        5, "f7401a7ff0e1b21748861213064e4a81fd7eae784d35dbf23b4eac71715a8c55"
    ),
    ("A", 1, "qinteger", 6, 4): (
        6, "60176b61c20bfcf6b662674b8c50b66b4313d56d7883223388199f5361acaf9e"
    ),
    ("A", 1, "qinteger", 8, 4): (
        6, "60176b61c20bfcf6b662674b8c50b66b4313d56d7883223388199f5361acaf9e"
    ),
}


@pytest.mark.parametrize("key", sorted(CHAIN_STAGE_SHA256))
def test_chain_sized_stage_extraction_is_pinned(key):
    series, rank, family, radius, homcap = key
    lencap, digest = CHAIN_STAGE_SHA256[key]
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    triv = trivial_module(c, f, (0,) * rank)
    algebra, _mods, _chain = _window(c, f, [triv], homcap, radius)
    assert algebra.lencap == lencap
    res = minimal_resolution(algebra, triv, homcap)
    assert _stage_digest(algebra, res) == digest


class _BlindSpan(ModularSpan):
    """A broken span: it calls every vector that touches the lead column of
    the first vector it was given already spanned.  So it drops that first
    vector, a generator, together with every vector that could restore the
    rank, which a correct span never does; the certificate must catch it.
    ``add`` goes through ``add_residual``, so both are broken."""

    blind = None

    def add_residual(self, vec):
        if self.blind is None:
            self.blind = next(j for j, x in enumerate(vec) if x % MOD_P)
        if vec[self.blind] % MOD_P:
            return None
        return super().add_residual(vec)


def _break_stage(monkeypatch, stage):
    """Run stage extraction with _BlindSpan spans at the given stage only."""
    real = ext_module._extract_stage
    calls = []

    def extract(algebra, prev, kernels):
        calls.append(kernels)
        span = _BlindSpan if len(calls) == stage else ModularSpan
        monkeypatch.setattr(ext_module, "ModularSpan", span)
        return real(algebra, prev, kernels)

    monkeypatch.setattr(ext_module, "_extract_stage", extract)


@pytest.mark.parametrize(
    "series,rank,family,radius,stage",
    [
        ("A", 1, "classical", 4, 1),
        ("A", 1, "classical", 4, 2),
        ("A", 1, "qinteger", 4, 1),
        ("A", 1, "qinteger", 4, 2),
        ("A", 2, "classical", 2, 2),
    ],
)
def test_dropped_generator_fails_the_certificate(
    series, rank, family, radius, stage, monkeypatch
):
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    _break_stage(monkeypatch, stage)
    with pytest.raises(ExtractionError) as info:
        minimal_resolution(algebra, trivial_module(c, f, (0,) * rank), stage)
    err = info.value
    assert err.stage == stage and err.rank < err.dim
    text = str(err)
    assert "stage %d" % stage in text and str(err.weight) in text
    assert "%d of the %d" % (err.rank, err.dim) in text


# a schur-check whose windows both resolve: simple:1 is not a vertex simple
_RESOLVED_SCHUR_ARGV = [
    "schur-check", "--type", "A1", "--module", "simple:1", "--homcap", "4",
    "--window", "6",
]


def test_dropped_generator_never_yields_match(a1, f_classical, monkeypatch, capsys):
    simple = build_simple(a1, f_classical, (1,))
    _break_stage(monkeypatch, 2)
    with pytest.raises(ExtractionError):
        schur_check(a1, f_classical, simple, homcap=4, window=6)
    monkeypatch.undo()
    _break_stage(monkeypatch, 2)
    code = main(_RESOLVED_SCHUR_ARGV)
    captured = capsys.readouterr()
    assert code == 1 and "ExtractionError" in captured.err and not captured.out


def test_failed_dd_check_is_never_stable(a1, f_classical, monkeypatch):
    """An entry is stable only when d o d = 0 was verified on both windows'
    resolutions of its row, so a failed check turns a match inconclusive."""
    simple = build_simple(a1, f_classical, (1,))
    assert schur_check(a1, f_classical, simple, homcap=4, window=6).verdict == "match"
    monkeypatch.setattr(ext_module, "_check_dd", lambda algebra, stages, V: False)
    rep = schur_check(a1, f_classical, simple, homcap=4, window=6)
    assert rep.verdict == "inconclusive" and not any(rep.stable)


def test_closure_escape_names_stage_and_weight(a1, f_classical, monkeypatch):
    """A letter action that returns a word outside the target's domain
    basis stops the closure with a typed error, not a silent skip."""
    algebra = build_algebra(a1, f_classical, 4)

    def letter_mod(letter, word, source):
        return {letter * (algebra.lencap + 1): 1}  # longer than every budget

    monkeypatch.setattr(algebra, "letter_mod", letter_mod)
    with pytest.raises(ClosureEscapeError) as info:
        minimal_resolution(algebra, trivial_module(a1, f_classical, (0,)), 1)
    err = info.value
    assert isinstance(err, ExtError) and err.stage == 1
    assert err.source in {(1,), (-1,)} and err.weight in {(0,), (2,), (-2,)}
    text = str(err)
    assert "stage 1" in text and str(err.weight) in text and str(err.source) in text


# -- a stage's span is closed by word length -------------------------------


@pytest.mark.parametrize("lencap", [4, 6, 10])
def test_a2_window_ext_on_a_lencap_ladder(a2, f_classical, lencap):
    """A2 radius 3: generators (1, 4, 8) and Ext (1, 0, 2) at every cap; the
    budgets fall by the entry lengths 1 and 2."""
    triv = trivial_module(a2, f_classical, (0, 0))
    algebra = build_algebra(a2, f_classical, 3, lencap=lencap)
    res = minimal_resolution(algebra, triv, 2)
    assert tuple(len(s.gens) for s in res.stages) == (1, 4, 8)
    assert tuple(s.budget for s in res.stages) == (lencap, lencap - 1, lencap - 3)
    assert ext_dims(res, triv, 2) == (1, 0, 2)


@pytest.mark.parametrize("rank", [1, 2])
def test_stage_one_has_two_generators_per_rank(rank, f_classical):
    c = build_cartan("A", rank)
    algebra = build_algebra(c, f_classical, 3)
    res = minimal_resolution(algebra, trivial_module(c, f_classical, (0,) * rank), 1)
    assert len(res.stages[1].gens) == 2 * rank


# -- chain-sized length caps -----------------------------------------------


@pytest.mark.parametrize(
    "rank, family, radius, homcap, lencap",
    [
        (1, "classical", 6, 4, 6),
        (1, "qinteger", 8, 4, 6),
        (2, "classical", 2, 2, 5),
        (2, "classical", 3, 2, 5),
        (2, "qinteger", 3, 2, 5),
        (2, "classical", 5, 4, 9),
    ],
)
def test_generators_equal_chains(rank, family, radius, homcap, lencap):
    """On the chain-sized window of the trivial module the cap is pinned,
    and the resolution's generators equal the chains at every stage and
    weight."""
    c = build_cartan("A", rank)
    f = getattr(FSpec, family)()
    triv = trivial_module(c, f, (0,) * rank)
    algebra, _mods, _chain = _window(c, f, [triv], homcap, radius)
    assert algebra.lencap == lencap and algebra._words.cap == lencap
    res = minimal_resolution(algebra, triv, homcap)
    stages = chains(algebra._index, (0,) * rank, homcap, radius)
    for p in range(1, homcap + 1):
        gens = res.stages[p].gens if p < len(res.stages) else ()
        assert Counter(gens) == Counter(e for _n, e in stages[p])


@pytest.mark.parametrize(
    "rank, family, radius, homcap",
    [
        (1, "classical", 6, 4),
        (1, "qinteger", 8, 4),
        (2, "classical", 2, 2),
        (2, "classical", 3, 2),
        (2, "qinteger", 3, 2),
        (2, "classical", 5, 4),
    ],
)
def test_chain_table_equals_the_resolution_table(rank, family, radius, homcap):
    """Where the window reads Ext off the chains, the resolution of the
    trivial module gives the same dims, and the window verifies them."""
    c = build_cartan("A", rank)
    f = getattr(FSpec, family)()
    triv = trivial_module(c, f, (0,) * rank)
    algebra, _mods, chain = _window(c, f, [triv], homcap, radius)
    assert chain is not None
    res = minimal_resolution(algebra, triv, homcap)
    assert tuple(layer[(0, 0)] for layer in chain) == ext_dims(res, triv, homcap)
    table, verified, _mods, resolutions = ext_module._ext_matrix_once(
        c, f, [triv], homcap, radius, resolve=True
    )
    assert table == chain and verified == [True]
    assert resolutions[0].stages == res.stages


def test_chain_and_resolution_disagreement_is_not_verified(a1, f_classical, monkeypatch):
    """Where both paths run, a resolution whose Ext dims differ from the
    chain counts leaves its row unverified, as a failed d o d = 0 does."""
    triv = trivial_module(a1, f_classical, (0,))
    table, verified, _mods, _res = ext_module._ext_matrix_once(
        a1, f_classical, [triv], 4, 6, resolve=True
    )
    assert verified == [True] and table[2][(0, 0)] == 1
    real = ext_module.ext_dims
    monkeypatch.setattr(
        ext_module, "ext_dims", lambda res, W, upto=None: real(res, W, upto)[:2] + (0, 0, 0)
    )
    table, verified, _mods, _res = ext_module._ext_matrix_once(
        a1, f_classical, [triv], 4, 6, resolve=True
    )
    assert verified == [False] and table[2][(0, 0)] == 0
    tab, _mods, _res = ext_module._ext_run(
        a1, f_classical, [triv], 4, 6, ("V",), resolve=True
    )
    assert not any(layer[(0, 0)] for layer in tab.stable)
    rep = koszul_check(a1, f_classical, [triv], labels=("L0",), homcap=2, window=6)
    assert rep["verdict"] == "inconclusive"
    assert rep["classes"] == [{"pair": ["L0", "L0"], "status": "unstable"}]


def _resolved_tables(monkeypatch, run):
    """``run()`` with the chain path off, so that every window resolves."""
    with monkeypatch.context() as m:
        m.setattr(ext_module, "_chain_ext", lambda chains_of, vertices, homcap: None)
        return run()


def test_a2_tables_come_off_the_chains(a2, f_classical, monkeypatch):
    """A2 at homcap 2 and 4 reads both windows off the chains, builds no
    resolution, and gives the tables that resolving both windows gives."""
    triv = trivial_module(a2, f_classical, (0, 0))
    check = lambda: schur_check(a2, f_classical, triv, homcap=2, window=3)
    table = lambda: ext_table(a2, f_classical, [triv], 4, window=5)
    want_check = _resolved_tables(monkeypatch, check)
    want_table = _resolved_tables(monkeypatch, table)
    calls, _resolutions = _count_builds(monkeypatch)
    built = _count_algebras(monkeypatch)
    rep, tab = check(), table()
    assert calls["minimal_resolution"] == [] and built["WindowedAlgebra"] == []
    assert rep == want_check and rep.computed_betti == (1, 0, 2) and all(rep.stable)
    assert tab == want_table and tab.diagonal(0) == (1, 0, 2, 0, 2)
    assert tab.diagonal_stable(0)


def test_clamped_cap_keeps_the_resolutions(monkeypatch):
    """The chains of B2 at homcap 2 and radius 2 need a cap above
    2 * radius + 4, so the cap is clamped and that window is resolved; at
    radius 3 the longest chain settles at cap 8 and the window is read off
    the chains."""
    b2 = build_cartan("B", 2)
    f = FSpec.classical()
    triv = trivial_module(b2, f, (0, 0))
    calls, _resolutions = _count_builds(monkeypatch)
    tab = ext_table(b2, f, [triv], 2, window=3)
    assert calls["minimal_resolution"] == [2]
    assert tab.diagonal(0) == (1, 0, 2) and tab.diagonal_stable(0)


def _window_state(series, rank, radius, homcap, resolve=False):
    """The classical window at ``radius`` and its chain-capped completion
    and table for the trivial module (``ext._chain_capped_basis``)."""
    c = build_cartan(series, rank)
    quiver = instantiate_window(c, FSpec.classical(), radius)
    state, table = ext_module._chain_capped_basis(quiver, [(0,) * rank], homcap, resolve)
    return quiver, state, table


@pytest.mark.parametrize(
    "series, rank, radius, homcap, stop",
    [
        ("A", 1, 6, 4, 6),
        ("A", 1, 8, 4, 6),
        ("A", 2, 2, 2, 4),
        ("A", 2, 3, 2, 4),
        ("A", 2, 4, 4, 7),
        ("B", 2, 3, 2, 8),
        ("C", 2, 3, 2, 8),
        pytest.param(
            "G", 2, 2, 2, 4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="CHANGES.md FOUND: G2 at homcap 2, radius 2 is read off "
                "its chains at a cap that does not hold them",
            ),
        ),
    ],
)
def test_longest_chain_stop_loses_no_chain(series, rank, radius, homcap, stop):
    """A window read off the chains stops once the cap holds its longest
    chain through stage homcap + 1, and the chains of that range, as
    (length, endpoint) multisets, are those at the top cap 2 * radius + 4."""
    _quiver, state, table = _window_state(series, rank, radius, homcap)
    assert table is not None and state.cap == stop
    at_stop = chains(state.index, (0,) * rank, homcap + 1, radius)
    assert max(stage[-1][0] for stage in at_stop[1:] if stage) <= stop
    state.advance(state.top)
    assert chains(state.index, (0,) * rank, homcap + 1, radius) == at_stop


def _summed_need_cap(quiver, rank, homcap):
    """The cap of the summed-need ladder, each rung from scratch: the cap
    a window that resolves the trivial module completes to."""
    top = 2 * quiver.radius + 4
    cap = min(homcap + 2, top)
    while True:
        state = gbasis.Completion(quiver, cap).advance(cap)
        need = ext_module._chain_need(state.index, [(0,) * rank], homcap, quiver.radius)[0]
        if need <= cap or cap == top:
            return cap
        cap = min(need, top)


def test_resolved_windows_complete_to_the_summed_need(a1, f_qinteger, monkeypatch):
    """Every window that resolves keeps the cap of the summed-need ladder:
    a window resolved on request (``resolve=True``), the clamped B2 window
    whose chains give no table, and the last window (radius 8) that
    koszul-check resolves for A1 generic q at homcap 4, windows (6, 8)."""
    for series, rank, radius, homcap in [("A", 2, 3, 2), ("A", 2, 4, 4), ("B", 2, 2, 2)]:
        quiver, state, _table = _window_state(series, rank, radius, homcap, resolve=True)
        assert state.cap == _summed_need_cap(quiver, rank, homcap)
    quiver, state, table = _window_state("B", 2, 2, 2)
    assert table is None and state.cap == _summed_need_cap(quiver, 2, 2) == 8
    resolved = []
    real = ext_module.minimal_resolution

    def minimal_resolution(algebra, V, homcap):
        resolved.append((algebra.quiver, algebra.lencap))
        return real(algebra, V, homcap)

    monkeypatch.setattr(ext_module, "minimal_resolution", minimal_resolution)
    rep = koszul_check(
        a1, f_qinteger, [trivial_module(a1, f_qinteger, (0,))], labels=("L0",),
        homcap=4, window=8,
    )
    assert rep["verdict"] == "list-insufficient"
    assert [q.radius for q, _cap in resolved] == [8]
    assert [cap for _q, cap in resolved] == [
        _summed_need_cap(q, 1, 4) for q, _cap in resolved
    ]


def test_chain_sized_cap_only_for_vertex_simples(a1, f_classical):
    """A module of dimension above 1 keeps 2 * radius + 4; for A1, whose
    chains need 2, the first rung homcap + 2 stands."""
    triv = trivial_module(a1, f_classical, (0,))
    simple = build_simple(a1, f_classical, (1,))
    algebra, _mods, _chain = _window(a1, f_classical, [triv, simple], 2, 4)
    assert algebra.lencap == 12
    algebra, _mods, _chain = _window(a1, f_classical, [triv], 2, 2)
    assert algebra.lencap == 4


def test_a2_homcap_4_matches_the_flag_betti_numbers(a2, f_classical, monkeypatch):
    """The flag Betti numbers at homcap 4; a closure that queues raw images
    on lowest-column pivots reads (1, 0, 16, 0, 0) here, inconclusive.
    Ext^2 = 2, so no square is compared: both windows come off the chains,
    and no algebra, resolution or flag ring is built for the ring check."""
    triv = trivial_module(a2, f_classical, (0, 0))
    calls, _resolutions = _count_builds(monkeypatch)
    built = _count_algebras(monkeypatch)
    rep = schur_check(a2, f_classical, triv, homcap=4, window=5)
    assert rep.verdict == "match"
    assert rep.computed_betti == (1, 0, 2, 0, 2) and all(rep.stable)
    assert rep.caps["lencap"] is None
    assert calls["minimal_resolution"] == []
    assert built == {"WindowedAlgebra": [], "flag_ring": []}
    assert rep.ring_comparison == {
        "compared": False, "reason": "nontrivial degree-4 structure"
    }


def test_a2_adjoint_simple_matches(a2, f_classical):
    """The adjoint simple of A2; a closure that queues raw images on
    lowest-column pivots reads (1, 6, 5) here, inconclusive."""
    V = build_simple(a2, f_classical, (1, 1))
    rep = schur_check(a2, f_classical, V, homcap=2, window=3)
    assert rep.verdict == "match"
    assert rep.computed_betti == (1, 0, 2) and all(rep.stable)


# -- kernels mod p, exact only where a generator is chosen -----------------


@pytest.mark.parametrize(
    "series,rank,family,radius,homcap",
    [("A", 2, "classical", 2, 2), ("A", 1, "qinteger", 6, 4)],
)
def test_nf_mod_is_the_image_of_nf(series, rank, family, radius, homcap):
    """Every letter times a normal word, inside the window: the mod-p
    reducer gives the image mod p of the exact normal form."""
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    decode = algebra.decode
    box = set(algebra.quiver.vertices)
    count = 0
    for v in algebra.quiver.vertices:
        source = algebra.code.vertex(v)
        for level in algebra.levels_from(v)[:-1]:
            for w in level:
                end = word_target(decode(w), v)
                for letter in algebra.letters():
                    if word_target((letter,), end) not in box:
                        continue
                    word = algebra.encode((letter,)) + w
                    exact = {
                        decode(u): x.modp() for u, x in algebra.nf(word, source).items()
                    }
                    got = {decode(u): x for u, x in algebra.nf_mod(word, source).items()}
                    assert got == {u: x for u, x in exact.items() if x}
                    count += 1
    assert count > 1000


def _certified_len_words(algebra, every=7):
    """Words a + b of length lencap: b a normal path of length k
    from an anchor, a one of the first three normal paths from its end.
    Every seventh pair per anchor and k is kept, to keep the exact side
    small.  Each is (coded word, anchor's vertex code)."""
    top = algebra.lencap
    out = []
    for v in algebra.quiver.vertices:
        levels = algebra.levels_from(v)
        source = algebra.code.vertex(v)
        for k in range(1, top):
            pairs = [
                (a, b)
                for b in levels[k]
                for a in algebra.levels_from(word_target(algebra.decode(b), v))[
                    top - k
                ][:3]
            ]
            out.extend((a + b, source) for a, b in pairs[::every])
    return out


@pytest.mark.parametrize(
    "series,rank,family,radius,homcap",
    [("A", 2, "classical", 2, 2), ("A", 1, "qinteger", 6, 4)],
)
def test_nf_mod_on_differential_words_without_the_heap(
    series, rank, family, radius, homcap, monkeypatch
):
    """Every normal word times a differential entry (the words
    ``_diff_matrix`` reduces) and words of length certified_len: nf_mod,
    computed with the heap reducer disabled, is the image mod p of the
    exact normal form."""
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    res = minimal_resolution(algebra, trivial_module(c, f, (0,) * rank), homcap)
    queries = set()
    for p in range(1, len(res.stages)):
        stage, prev = res.stages[p], res.stages[p - 1]
        for m in algebra.quiver.vertices:
            for g, word in ext_module._pbasis(algebra, stage, m):
                for (gp, u), _c in stage.diff[g]:
                    queries.add((word + u, algebra.code.vertex(prev.gens[gp])))
    longest = _certified_len_words(algebra)
    assert {len(w) for w, _v in longest} == {algebra.lencap}
    queries.update(longest)

    def heap(*args):
        raise AssertionError("nf_mod called the heap reducer")

    fresh = build_algebra(c, f, radius)
    monkeypatch.setattr(ext_module, "_reduce_full", heap)
    got = {key: fresh.nf_mod(*key) for key in sorted(queries)}
    with pytest.raises(ExtError, match="beyond certified"):
        fresh.nf_mod(longest[0][0] + longest[0][0][:1], longest[0][1])
    monkeypatch.undo()
    decode = algebra.decode
    for (word, v), value in got.items():
        exact = {decode(u): x.modp() for u, x in algebra.nf(word, v).items()}
        assert {decode(u): x for u, x in value.items()} == {
            u: x for u, x in exact.items() if x
        }
    assert len(got) > 500


def test_letter_action_tries_position_0_only(a2, f_classical, monkeypatch):
    """The letter action searches each word for a divisor at position 0
    only: its suffix is normal, so a divisor cannot start anywhere else."""
    algebra = build_algebra(a2, f_classical, 2)
    bounds = []
    real = ext_module._find_divisor

    def find(word, source, index, hint=None, stop=None):
        bounds.append(stop)
        return real(word, source, index, hint, stop)

    monkeypatch.setattr(ext_module, "_find_divisor", find)
    for word, v in _certified_len_words(algebra, every=50):
        algebra.nf_mod(word, v)
    minimal_resolution(algebra, trivial_module(a2, f_classical, (0, 0)), 2)
    assert bounds and set(bounds) == {1}


@pytest.mark.parametrize(
    "n0,depth,radius,weight,relation",
    [
        ((1,), 1, 5, (0,), "comm[1,1]"),
        ((5,), 2, 5, (3,), "comm[1,1]"),
        ((5,), 2, 4, (5,), None),
    ],
)
def test_module_of_another_algebra_is_rejected(
    a1, f_classical, n0, depth, radius, weight, relation
):
    """A truncated Verma whose bottom weight sits inside the box breaks a
    commutator relation there; one with a weight outside the box is no
    module of the window algebra at all."""
    algebra = build_algebra(a1, f_classical, radius)
    with pytest.raises(WindowModuleError) as info:
        minimal_resolution(algebra, truncated_verma(a1, f_classical, n0, depth), 2)
    assert info.value.weight == weight and info.value.relation == relation
    assert str(weight) in str(info.value)


def test_exact_kernels_only_where_a_generator_is_chosen(a1, f_qinteger, monkeypatch):
    algebra = build_algebra(a1, f_qinteger, 6)
    calls = []
    real = ext_module.nullspace

    def nullspace(a, ncols=None):
        calls.append(ncols)
        return real(a, ncols)

    monkeypatch.setattr(ext_module, "nullspace", nullspace)
    res = minimal_resolution(algebra, trivial_module(a1, f_qinteger, (0,)), 4)
    chosen = sum(len(set(stage.gens)) for stage in res.stages[1:])
    assert chosen and len(calls) == chosen


def _corrupt_kernel(monkeypatch, stage, how):
    """Resolve with a wrong kernel mod p at every weight of one stage.

    ``perturb`` adds 1 to vector 0 at a column the matrix does not kill, so
    the vector leaves the kernel; ``extra`` appends a second copy of vector
    0, so the basis claims one dimension too many.
    """
    real_kernel = ext_module.nullspace_mod
    real_extract = ext_module._extract_stage
    current = [1]  # the stage whose kernels are being computed

    def nullspace_mod(a, ncols):
        null = real_kernel(a, ncols)
        if current[0] != stage or not null:
            return null
        if how == "extra":
            return null + [list(null[0])]
        col = next((j for j in range(ncols) if any(r[j] % MOD_P for r in a)), None)
        if col is not None:
            null[0][col] = (null[0][col] + 1) % MOD_P
        return null

    def extract(algebra, prev, kernels):
        out = real_extract(algebra, prev, kernels)
        current[0] += 1
        return out

    monkeypatch.setattr(ext_module, "nullspace_mod", nullspace_mod)
    monkeypatch.setattr(ext_module, "_extract_stage", extract)


@pytest.mark.parametrize("how", ["perturb", "extra"])
@pytest.mark.parametrize(
    "series,rank,family,radius,stage",
    [
        ("A", 1, "classical", 4, 1),
        ("A", 1, "qinteger", 4, 2),
        ("A", 2, "classical", 2, 2),
    ],
)
def test_wrong_kernel_mod_p_raises(
    series, rank, family, radius, stage, how, monkeypatch
):
    c = build_cartan(series, rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    _corrupt_kernel(monkeypatch, stage, how)
    with pytest.raises(ExtractionError) as info:
        minimal_resolution(algebra, trivial_module(c, f, (0,) * rank), stage)
    err = info.value
    # a vector off the kernel becomes a generator and fails its exact lift;
    # a claimed extra dimension is never reached by the span
    assert isinstance(err, KernelLiftError) == (how == "perturb")
    assert err.stage == stage
    text = str(err)
    assert "stage %d" % stage in text and str(err.weight) in text


@pytest.mark.parametrize("how", ["perturb", "extra"])
def test_wrong_kernel_mod_p_never_yields_match(a1, f_classical, monkeypatch, capsys, how):
    simple = build_simple(a1, f_classical, (1,))
    _corrupt_kernel(monkeypatch, 2, how)
    with pytest.raises(ExtractionError):
        schur_check(a1, f_classical, simple, homcap=4, window=6)
    monkeypatch.undo()
    _corrupt_kernel(monkeypatch, 2, how)
    code = main(_RESOLVED_SCHUR_ARGV)
    captured = capsys.readouterr()
    name = "KernelLiftError" if how == "perturb" else "ExtractionError"
    assert code == 1 and name in captured.err and not captured.out


def test_trivial_module_ext_dims(a1_setup):
    _algebra, triv, _simple, res = a1_setup
    assert ext_dims(res, triv, 4) == (1, 0, 1, 0, 0)


def test_simple_module_ext_dims(a1_setup):
    algebra, _triv, simple, _res = a1_setup
    res = minimal_resolution(algebra, simple, 4)
    assert res.dd_verified
    assert ext_dims(res, simple, 4) == (1, 0, 1, 0, 0)


def test_ext0_schur_lemma(a1_setup):
    """Ext^0 between simples: 1 on the diagonal, 0 across."""
    algebra, triv, simple, res = a1_setup
    res_simple = minimal_resolution(algebra, simple, 2)
    assert ext_dims(res, triv, 0)[0] == 1
    assert ext_dims(res_simple, simple, 0)[0] == 1
    assert ext_dims(res, simple, 0)[0] == 0
    assert ext_dims(res_simple, triv, 0)[0] == 0


def test_terminated_resolution_pads_zeros(a1, f_classical):
    algebra = build_algebra(a1, f_classical, 6)
    triv = trivial_module(a1, f_classical, (0,))
    res = minimal_resolution(algebra, triv, 2)
    dims = ext_dims(res, triv, 2)
    assert dims == (1, 0, 1)


@pytest.mark.parametrize(
    "rank, family, radius, modules, homcaps",
    [
        (1, "classical", 6, ("trivial", "simple"), (1, 2, 3)),
        (1, "qinteger", 6, ("trivial", "simple"), (1, 2, 3)),
        (2, "classical", 3, ("trivial",), (1, 2)),
        (2, "qinteger", 2, ("trivial",), (1, 2)),
    ],
    ids=["A1-classical", "A1-qinteger", "A2-classical", "A2-qinteger"],
)
def test_top_stage_ext_equals_the_longer_resolution(
    rank, family, radius, modules, homcaps
):
    """Ext^h at the top stage of a resolution, whose cocycle rows are the
    pullback on the exact kernel of d_h at supp(W), equals Ext^h of the
    resolution one stage longer, whose cocycle rows are the pullback on the
    differentials of stage h + 1 (``_cocycle_rows``)."""
    c = build_cartan("A", rank)
    f = getattr(FSpec, family)()
    algebra = build_algebra(c, f, radius)
    built = {
        "trivial": lambda: trivial_module(c, f, (0,) * rank),
        "simple": lambda: build_simple(c, f, (1,) * rank),
    }
    modules = [built[name]() for name in modules]
    for V, W in product(modules, repeat=2):
        for h in homcaps:
            top = ext_dims(minimal_resolution(algebra, V, h), W, h)
            longer = ext_dims(minimal_resolution(algebra, V, h + 1), W, h)
            assert top == longer, (V.provenance, W.provenance, h)


def test_window_ext_independent_of_lencap(a2, f_classical):
    """Once lencap is large enough, Ext at a fixed radius must not move."""
    triv = trivial_module(a2, f_classical, (0, 0))
    dims = []
    for lencap in (10, 12):
        algebra = build_algebra(a2, f_classical, 3, lencap=lencap)
        dims.append(ext_dims(minimal_resolution(algebra, triv, 2), triv, 2))
    assert dims[0] == dims[1]


# -- presentation-complex cross-check -------------------------------------


def test_low_degree_matches_resolution(a1, f_classical, a1_setup):
    _algebra, triv, simple, res = a1_setup
    Q = instantiate_window(a1, f_classical, 6)
    e0, e1, h2 = low_degree_ext(Q, triv, triv)
    assert (e0, e1) == ext_dims(res, triv, 4)[:2]
    assert h2 >= ext_dims(res, triv, 4)[2]
    # distinct simples live in different blocks: everything vanishes, and the
    # presentation complex agrees with the resolution on that
    assert low_degree_ext(Q, triv, simple)[:2] == (0, 0)
    assert low_degree_ext(Q, simple, triv)[:2] == (0, 0)
    res_simple = minimal_resolution(_algebra, simple, 4)
    assert ext_dims(res, simple, 4) == (0, 0, 0, 0, 0)
    assert ext_dims(res_simple, triv, 4) == (0, 0, 0, 0, 0)


def test_low_degree_interior_verma(a1, f_classical):
    """Interior truncated Verma against the trivial module: (0, 1) both ways."""
    Q = instantiate_window(a1, f_classical, 6)
    triv = trivial_module(a1, f_classical, (0,))
    M = truncated_verma(a1, f_classical, (-1,), 3)
    assert low_degree_ext(Q, M, triv)[:2] == (0, 1)
    assert low_degree_ext(Q, triv, M)[:2] == (0, 1)


def test_low_degree_margin_error(a1, f_classical):
    Q = instantiate_window(a1, f_classical, 2)
    M = build_simple(a1, f_classical, (1,))
    with pytest.raises(MarginError):
        low_degree_ext(Q, M, M)


# -- Yoneda products -------------------------------------------------------


def test_yoneda_unit_law(a1_setup):
    _algebra, triv, _simple, res = a1_setup
    r0, _ = ext_cocycle_basis(res, triv, 0)
    r2, _ = ext_cocycle_basis(res, triv, 2)
    assert len(r0) == 1 and len(r2) == 1
    assert tuple(yoneda_product(res, res, triv, 0, r0[0], 2, r2[0])) == tuple(r2[0])
    assert tuple(yoneda_product(res, res, triv, 2, r2[0], 0, r0[0])) == tuple(r2[0])


def test_yoneda_square_zero(a1_setup):
    _algebra, triv, _simple, res = a1_setup
    assert yoneda_square(res, triv, 2)


def test_yoneda_square_needs_one_dimensional_class(a1_setup):
    _algebra, triv, _simple, res = a1_setup
    with pytest.raises(ExtError):
        yoneda_square(res, triv, 1)  # Ext^1 vanishes here


# -- tables, stabilization, Euler ------------------------------------------


def test_ext_table_stability(a1, f_classical):
    triv = trivial_module(a1, f_classical, (0,))
    tab = ext_table(a1, f_classical, [triv], 4, window=6)
    assert tab.diagonal(0) == (1, 0, 1, 0, 0)
    assert tab.diagonal_stable(0)
    assert tab.windows == (4, 6)


def test_ext_table_window_leaves_a_smaller_radius(a1, f_classical):
    """The smaller radius is max(window - 2, homcap), so a window below
    homcap + 1 has none; the error names both numbers."""
    triv = trivial_module(a1, f_classical, (0,))
    with pytest.raises(ExtError, match="window 3 .* homcap 4"):
        ext_table(a1, f_classical, [triv], 4, window=3)
    assert ext_table(a1, f_classical, [triv], 4, window=5).windows == (4, 5)


def test_ext_table_labels_required_for_factories(a1, f_classical):
    factory = lambda radius: truncated_verma(a1, f_classical, (-1,), radius - 1)
    with pytest.raises(ExtError):
        ext_table(a1, f_classical, [factory], 2, window=6)


def test_euler_characteristic(a1, f_classical):
    triv = trivial_module(a1, f_classical, (0,))
    tab = ext_table(a1, f_classical, [triv], 4, window=6)
    assert euler_check(tab) == 2


def test_euler_refuses_unstable_or_open_tail():
    unstable = ExtTable(
        labels=("V",),
        dims=({(0, 0): 1}, {(0, 0): 0}, {(0, 0): 1}),
        stable=({(0, 0): True}, {(0, 0): False}, {(0, 0): True}),
        homcap=2,
        windows=(4, 6),
    )
    with pytest.raises(InstabilityError):
        euler_check(unstable)
    open_tail = ExtTable(
        labels=("V",),
        dims=({(0, 0): 1}, {(0, 0): 0}, {(0, 0): 1}),
        stable=({(0, 0): True}, {(0, 0): True}, {(0, 0): True}),
        homcap=2,
        windows=(4, 6),
    )
    with pytest.raises(InstabilityError):
        euler_check(open_tail)


# -- verdict-level checks --------------------------------------------------


def test_schur_check_classical_trivial(a1, f_classical):
    triv = trivial_module(a1, f_classical, (0,))
    rep = schur_check(a1, f_classical, triv, homcap=4, window=6)
    assert rep.verdict == "match"
    assert rep.computed_betti == (1, 0, 1, 0, 0)
    assert rep.target_betti == (1, 0, 1, 0, 0)
    assert all(rep.stable)
    assert rep.ring_comparison["compared"]
    assert rep.ring_comparison["square_zero_computed"]
    assert rep.ring_comparison["square_zero_target"]
    assert rep.assumptions  # change-of-scalars note travels with the report


def test_schur_report_serializes(a1, f_classical):
    triv = trivial_module(a1, f_classical, (0,))
    rep = schur_check(a1, f_classical, triv, homcap=2, window=6)
    d = rep.to_dict()
    assert d["verdict"] in ("match", "mismatch", "inconclusive")
    assert d["computed_betti"] == list(rep.computed_betti)
    assert "assumptions" in d


def test_koszul_pair_generated(a1, f_classical):
    triv = lambda radius: trivial_module(a1, f_classical, (0,))
    verma = lambda radius: truncated_verma(a1, f_classical, (-1,), radius - 1)
    rep = koszul_check(
        a1, f_classical, [triv, verma], labels=("L0", "M"), homcap=2,
        window=6,
    )
    assert rep["verdict"] == "generated"
    assert rep["ext1"]["L0->M"] == 1
    assert rep["ext1"]["M->L0"] == 1
    assert rep["list_sufficient"]


def test_koszul_single_list_insufficient(a1, f_classical):
    triv = lambda radius: trivial_module(a1, f_classical, (0,))
    rep = koszul_check(a1, f_classical, [triv], labels=("L0",), homcap=2,
                       window=6)
    assert rep["verdict"] == "list-insufficient"
    assert not rep["list_sufficient"]
    statuses = {entry["status"] for entry in rep["classes"]}
    assert statuses == {"list-insufficient"}


def test_koszul_check_refuses_unstable_entries(a1, f_classical, monkeypatch, capsys):
    """An unstable Ext^1 or Ext^2 entry makes the probe inconclusive, and an
    unstable Ext^2 entry is listed whatever its value.  A resolution whose
    Ext^2 wrongly reads 0 leaves its row unverified, so the single trivial
    module no longer reads as generated."""
    real_dims = ext_module.ext_dims
    with monkeypatch.context() as m:
        m.setattr(
            ext_module, "ext_dims",
            lambda res, W, upto=None: real_dims(res, W, upto)[:2] + (0,) * (upto - 1),
        )
        code = main(["koszul-check", "--type", "A1", "--window", "6"])
    rep = json.loads(capsys.readouterr().out)["results"]["koszul"]
    assert code == 0 and rep["verdict"] == "inconclusive"
    assert rep["classes"] == [{"pair": ["trivial", "trivial"], "status": "unstable"}]
    # an unstable Ext^1 entry alone: Ext^2 is stable and still probed
    real_run = ext_module._ext_run

    def ext_run(*args):
        tab, modules, resolutions = real_run(*args)
        stable = ({k: False for k in tab.stable[1]},)
        stable = tab.stable[:1] + stable + tab.stable[2:]
        return dataclasses.replace(tab, stable=stable), modules, resolutions

    monkeypatch.setattr(ext_module, "_ext_run", ext_run)
    triv = trivial_module(a1, f_classical, (0,))
    rep = koszul_check(a1, f_classical, [triv], labels=("L0",), homcap=2, window=6)
    assert rep["verdict"] == "inconclusive"
    assert [entry["status"] for entry in rep["classes"]] == ["list-insufficient"]


# -- compute once: verdict checks reuse the last window of the Ext table ---


def _count_builds(monkeypatch, advances=None):
    """Record the radius of every window completion started (by ``groebner``
    or by a chain-capped window) and of every minimal_resolution call.

    With ``advances``, also append to it each completion advanced and the
    cap it had reached before the call."""
    calls = {"completion": [], "minimal_resolution": []}
    resolutions = []
    real_init = gbasis.Completion.__init__
    real_advance = gbasis.Completion.advance
    real_resolution = ext_module.minimal_resolution

    def init(self, pres, top):
        if isinstance(pres, WindowedQuiver):
            calls["completion"].append(pres.radius)
        real_init(self, pres, top)

    def advance(self, cap):
        if advances is not None:
            advances.append((self, self.cap))
        return real_advance(self, cap)

    def minimal_resolution(algebra, V, homcap):
        calls["minimal_resolution"].append(algebra.quiver.radius)
        res = real_resolution(algebra, V, homcap)
        resolutions.append(res)
        return res

    monkeypatch.setattr(gbasis.Completion, "__init__", init)
    monkeypatch.setattr(gbasis.Completion, "advance", advance)
    monkeypatch.setattr(ext_module, "minimal_resolution", minimal_resolution)
    return calls, resolutions


def _count_algebras(monkeypatch):
    """Record the window radius of every ``WindowedAlgebra`` the Ext run
    builds and the rank of every ``flag_ring`` call.  The counter replaces
    ``rootdata.flag_ring`` and every ``schurq`` module's import of it, so a
    call through any of them is recorded."""
    calls = {"WindowedAlgebra": [], "flag_ring": []}
    real_algebra = ext_module.WindowedAlgebra
    real_ring = rootdata.flag_ring

    def algebra(quiver, basis):
        calls["WindowedAlgebra"].append(quiver.radius)
        return real_algebra(quiver, basis)

    def flag_ring(c, *args):
        calls["flag_ring"].append(c.rank)
        return real_ring(c, *args)

    monkeypatch.setattr(ext_module, "WindowedAlgebra", algebra)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schurq" and getattr(module, "flag_ring", None) is real_ring:
            monkeypatch.setattr(module, "flag_ring", flag_ring)
    return calls


def _fresh_last_window(c, f, modules, homcap, window):
    """Last-window algebra, modules and resolutions, rebuilt from scratch
    with the length cap the Ext table chooses for them."""
    algebra, modules, _chain = _window(c, f, modules, homcap, window)
    return modules, [minimal_resolution(algebra, V, homcap) for V in modules]


def _koszul_oracle(c, f, modules, labels, homcap, window):
    """koszul_check's report on fresh last-window resolutions, every degree-1
    cocycle basis recomputed for each pair."""
    tab = ext_table(c, f, modules, homcap, window, labels=labels)
    modules, resolutions = _fresh_last_window(c, f, modules, homcap, window)
    n = len(modules)
    report = {
        "labels": list(labels), "windows": list(tab.windows), "homcap": homcap,
        "ext1": {"%s->%s" % (labels[i], labels[j]): tab.dim(1, i, j)
                 for i in range(n) for j in range(n)},
        "classes": [], "list_sufficient": True, "verdict": "generated",
    }
    for i in range(n):
        for j in range(n):
            d2 = tab.dim(2, i, j)
            if d2 == 0:
                continue
            assert tab.is_stable(2, i, j)
            resV, W = resolutions[i], modules[j]
            _reps, img2 = ext_cocycle_basis(resV, W, 2)
            span = Subspace(_hom_layout(resV, 2, W)[1])
            for row in img2.basis():
                span.add(row)
            baseline = span.dim
            for k in range(n):
                reps_a, _ = ext_cocycle_basis(resV, modules[k], 1)
                reps_b, _ = ext_cocycle_basis(resolutions[k], W, 1)
                for va in reps_a:
                    for vb in reps_b:
                        span.add(yoneda_product(resV, resolutions[k], W, 1, va, 1, vb))
            generated = span.dim - baseline
            assert generated >= d2  # the oracle covers only degree-1 generated pairs
            report["classes"].append({
                "pair": [labels[i], labels[j]], "ext2_dim": d2,
                "generated_by_products": generated, "status": "generated",
            })
    return report


def test_schur_check_builds_each_window_once(a1, f_classical, f_qinteger, monkeypatch):
    """The A1 trivial module reads both windows off the chains and resolves
    neither: the ring comparison follows from the stable Ext table, and it
    agrees with the Yoneda square on a freshly resolved last window."""
    for f, windows in [(f_classical, [4, 6]), (f_qinteger, [6, 8])]:
        triv = trivial_module(a1, f, (0,))
        with monkeypatch.context() as m:
            calls, _resolutions = _count_builds(m)
            built = _count_algebras(m)
            rep = schur_check(a1, f, triv, homcap=4, window=windows[1])
        assert rep.verdict == "match"
        assert calls == {"completion": windows, "minimal_resolution": []}
        assert rep.caps["windows"] == windows
        assert built == {"WindowedAlgebra": [], "flag_ring": []}
        assert rep.ring_comparison == {
            "compared": True,
            "generator_degree": 2,
            "square_zero_computed": True,
            "square_zero_target": True,
        }
        # oracle: the Yoneda square on a last window rebuilt from scratch
        _mods, (fresh,) = _fresh_last_window(a1, f, [triv], 4, windows[1])
        assert yoneda_square(fresh, triv, 2) == rep.ring_comparison["square_zero_computed"]


def test_chain_capped_windows_resume_their_completion(a2, f_classical, monkeypatch):
    """Each A2 window at homcap 4 is completed at homcap + 2 = 6 and
    continued to its longest chain, 7, on one completion state, not
    restarted."""
    triv = trivial_module(a2, f_classical, (0, 0))
    advances = []
    calls, _resolutions = _count_builds(monkeypatch, advances)
    rep = schur_check(a2, f_classical, triv, homcap=4, window=5)
    assert rep.verdict == "match"
    assert calls["completion"] == [4, 5]
    assert [cap for _state, cap in advances] == [None, 6, None, 6]
    (first, _), (second, _), (third, _), (fourth, _) = advances
    assert first is second and third is fourth and first is not third
    assert first.top == 12 and third.top == 14
    assert first.cap == third.cap == 7


def test_no_run_decodes_a_basis(a1, a2, f_classical, f_qinteger, monkeypatch):
    """No Ext run and no module constructor decodes a ``GBResult``, hashes
    an input or builds a second lead index: a window read off the chains, a
    chain-capped window that resolves (koszul-check's last window), a
    window of a module list that is not all vertex simples, a simple and a
    truncated Verma all work on the completion's own coded lead index.  No
    completion is alive when a resolution starts."""
    calls = {"result": 0, "_input_hash": 0, "_basis_index": 0}
    started = []  # a weak reference to every completion
    real_init = gbasis.Completion.__init__
    real_resolution = ext_module.minimal_resolution

    def init(self, pres, top):
        started.append(weakref.ref(self))
        real_init(self, pres, top)

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    def minimal_resolution(algebra, V, homcap):
        assert [ref for ref in started if ref() is not None] == []
        return real_resolution(algebra, V, homcap)

    monkeypatch.setattr(gbasis.Completion, "__init__", init)
    monkeypatch.setattr(
        gbasis.Completion, "result", counted("result", gbasis.Completion.result)
    )
    for name in ("_input_hash", "_basis_index"):
        monkeypatch.setattr(gbasis, name, counted(name, getattr(gbasis, name)))
    monkeypatch.setattr(ext_module, "minimal_resolution", minimal_resolution)
    rep = schur_check(
        a2, f_classical, trivial_module(a2, f_classical, (0, 0)), homcap=2,
        window=3,
    )
    tab = ext_table(a2, f_qinteger, [trivial_module(a2, f_qinteger, (0, 0))], 4, 5)
    assert rep.verdict == "match" and tab.diagonal_stable(0)
    rep = schur_check(
        a1, f_qinteger, trivial_module(a1, f_qinteger, (0,)), homcap=4,
        window=8,
    )
    # both windows are read off the chains, and the rings are compared
    assert rep.ring_comparison["compared"]
    assert len(started) == 6
    # the last window resolves on the chain-capped completion
    report = koszul_check(
        a1, f_qinteger, [trivial_module(a1, f_qinteger, (0,))], ["L0"], homcap=2,
        window=6,
    )
    assert report["verdict"] == "list-insufficient" and len(started) == 8
    simple = build_simple(a1, f_classical, (1,))
    verma = truncated_verma(a1, f_classical, (-1,), 3)
    assert len(started) == 10 and simple.total_dim() == 3 and verma.total_dim() == 4
    triv = trivial_module(a1, f_classical, (0,))
    tab = ext_table(a1, f_classical, [triv, simple], 2, 4)
    assert tab.diagonal(0) == (1, 0, 1) and tab.diagonal_stable(0)
    assert len(started) == 12
    assert calls == {"result": 0, "_input_hash": 0, "_basis_index": 0}


def test_koszul_check_builds_each_window_once(a1, f_classical, monkeypatch):
    triv = lambda radius: trivial_module(a1, f_classical, (0,))
    verma = lambda radius: truncated_verma(a1, f_classical, (-1,), radius - 1)
    modules, labels = [triv, verma], ("L0", "M")
    calls, _resolutions = _count_builds(monkeypatch)
    rep = koszul_check(a1, f_classical, modules, labels=labels, homcap=2,
                       window=6)
    assert calls == {"completion": [4, 6], "minimal_resolution": [4, 4, 6, 6]}
    monkeypatch.undo()
    assert rep["classes"]  # the product loop ran
    assert rep == _koszul_oracle(a1, f_classical, modules, labels, 2, 6)
