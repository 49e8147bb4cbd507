"""Acceptance gate: the known-case matrix plus the invariant suites.

Each criterion is one test whose verbose pytest line is its pass/fail line;
each also prints an explicit `CRITERION n PASS` marker on success. All
comparisons are exact — no tolerances anywhere.
"""

import json
import math
from itertools import product

from schurq import (
    QScalar,
    build_cartan,
    build_simple,
    check_relations,
    ext_dims,
    ext_table,
    euler_check,
    flag_betti,
    groebner,
    hilbert,
    kostant,
    koszul_check,
    qbinom,
    schur_check,
    trivial_module,
    truncated_verma,
    un_presentation,
    yoneda_square,
)
from schurq import build_algebra, minimal_resolution
from schurq.cli import RunConfig, run
from schurq.gbasis import dense_rank_dims
from schurq.modules import perturb_entry
from schurq.presentation import FSpec


def report(n, text):
    print("CRITERION %d PASS: %s" % (n, text))


def last_window_square_is_zero(c, f, V, homcap, radius):
    """The Yoneda square of the degree-2 class of V on a fresh resolution
    at the last window radius, completed at its top cap 2 * radius + 4."""
    res = minimal_resolution(build_algebra(c, f, radius), V, homcap)
    return yoneda_square(res, V, 2)


def test_criterion_1_pbw_hilbert_matches_kostant():
    """A2 multigraded dims at generic q equal the Kostant oracle for height
    <= 8; B2 for height <= 6."""
    for series, rank, cap in (("A", 2, 8), ("B", 2, 6)):
        c = build_cartan(series, rank)
        g = groebner(un_presentation(c), cap=cap)
        assert g.complete
        dims = hilbert(g, cap)
        for beta in product(range(cap + 1), repeat=rank):
            if sum(beta) <= cap:
                assert dims.get(beta, 0) == kostant(c, beta), (series, beta)
    report(1, "PBW dims equal Kostant: A2 height <= 8, B2 height <= 6")


def test_criterion_2_classical_sl2_schur_check():
    """Trivial and 3-dim simple: stable (1,0,1) through degree 4 at windows
    6/8, degree-2 Yoneda generator squares to zero, verdict match."""
    c = build_cartan("A", 1)
    f = FSpec.classical()
    for V in (trivial_module(c, f, (0,)), build_simple(c, f, (1,))):
        rep = schur_check(c, f, V, homcap=4, window=8)
        assert rep.verdict == "match", rep.to_dict()
        assert rep.computed_betti == (1, 0, 1, 0, 0)
        assert all(rep.stable)
        assert rep.ring_comparison["compared"]
        assert rep.ring_comparison["square_zero_computed"]
        assert rep.ring_comparison["square_zero_target"]
        assert last_window_square_is_zero(c, f, V, 4, 8)
    report(2, "classical sl2: (1,0,1,0,0) stable, z^2 = 0, verdict match")


def test_criterion_3_quantum_sl2_schur_check():
    """QInteger family at generic q, trivial module: same table, match."""
    c = build_cartan("A", 1)
    f = FSpec.qinteger()
    V = trivial_module(c, f, (0,))
    rep = schur_check(c, f, V, homcap=4, window=8)
    assert rep.verdict == "match", rep.to_dict()
    assert rep.computed_betti == (1, 0, 1, 0, 0)
    assert all(rep.stable)
    assert rep.ring_comparison["square_zero_computed"]
    assert last_window_square_is_zero(c, f, V, 4, 8)
    report(3, "quantum sl2 at generic q: (1,0,1,0,0) stable, z^2 = 0, match")


def test_criterion_4_q_one_coherence():
    """The QInteger pipeline pinned at q = 1 equals the classical pipeline's
    ExtTable entrywise (trivial and 3-dim simple)."""
    c = build_cartan("A", 1)
    fc = FSpec.classical()
    f1 = FSpec.qinteger("one")
    mods_c = [trivial_module(c, fc, (0,)), build_simple(c, fc, (1,))]
    mods_1 = [trivial_module(c, f1, (0,)), build_simple(c, f1, (1,))]
    tab_c = ext_table(c, fc, mods_c, 4, 8, labels=("L0", "L1"))
    tab_1 = ext_table(c, f1, mods_1, 4, 8, labels=("L0", "L1"))
    assert tab_c.dims == tab_1.dims
    assert tab_c.stable == tab_1.stable
    report(4, "q=1 quantum ExtTable equals the classical table entrywise")


def test_criterion_5_sl3_degree_two_probe():
    """A2 classical trivial: stable Ext^0 = 1, Ext^1 = 0, Ext^2 = 2 against
    the A2 flag Betti numbers. Insufficient caps must yield 'inconclusive',
    never wrong numbers."""
    a2 = build_cartan("A", 2)
    f = FSpec.classical()
    rep = schur_check(a2, f, trivial_module(a2, f, (0, 0)), homcap=2,
                      window=3)
    assert rep.verdict == "match", rep.to_dict()
    assert rep.computed_betti == (1, 0, 2)
    assert rep.computed_betti == flag_betti(a2)[:3]
    assert all(rep.stable)
    # reporting contract for insufficient caps: a window-starved run on a
    # genuinely window-sensitive input reports inconclusive, with the
    # unstable entry flagged — no wrong number is ever presented as stable
    a1 = build_cartan("A", 1)
    fa = FSpec.affine([[2]], [-4])  # vanishes at n = 2, off the box center
    t2 = trivial_module(a1, fa, (2,))
    starved = schur_check(a1, fa, t2, homcap=2, window=3)
    assert starved.verdict == "inconclusive"
    assert not all(starved.stable)
    wide = schur_check(a1, fa, t2, homcap=2, window=6)
    assert wide.verdict == "match" and wide.computed_betti == (1, 0, 1)
    report(5, "sl3 degree-2 probe (1,0,2) stable; starved caps -> inconclusive")


def test_criterion_6_koszul_probe():
    """sl2 classical pair {trivial, floor-truncated Verma}: Ext^1 = 1 both
    ways and the degree-2 diagonal class factors through degree-1 products;
    a single-simple list reports insufficiency, not failure."""
    c = build_cartan("A", 1)
    f = FSpec.classical()
    triv = lambda radius: trivial_module(c, f, (0,))
    verma = lambda radius: truncated_verma(c, f, (-1,), radius - 1)
    rep = koszul_check(c, f, [triv, verma], labels=("L0", "M"), homcap=2,
                       window=8)
    assert rep["verdict"] == "generated", rep
    assert rep["ext1"]["L0->M"] == 1 and rep["ext1"]["M->L0"] == 1
    assert all(e["status"] == "generated" for e in rep["classes"])
    single = koszul_check(c, f, [triv], labels=("L0",), homcap=2,
                          window=8)
    assert single["verdict"] == "list-insufficient"
    assert not single["list_sufficient"]
    report(6, "Koszul pair generated in degree 1; single list -> insufficient")


def test_criterion_7_euler_characteristic():
    """Alternating Ext sum for sl2 classical trivial equals |W| = 2."""
    c = build_cartan("A", 1)
    f = FSpec.classical()
    tab = ext_table(c, f, [trivial_module(c, f, (0,))], 4, 8,
                    labels=("L0",))
    assert euler_check(tab) == 2
    report(7, "Euler characteristic of Ext(L0, L0) equals |W| = 2")


def test_criterion_8_property_suites():
    """Invariant suites with no conjecture content."""
    # q-Pascal and bar invariance, n <= 8
    for n in range(1, 9):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert b == QScalar.q_pow(k) * qbinom(n - 1, k) + QScalar.q_pow(
                k - n
            ) * qbinom(n - 1, k - 1)
            assert b.bar() == b
            assert b.specialize("one") == math.comb(n, k)

    # relation checker: pass on constructed modules, fail with witness on a
    # perturbed one
    a1 = build_cartan("A", 1)
    a2 = build_cartan("A", 2)
    fc, fq = FSpec.classical(), FSpec.qinteger()
    built = [
        (a1, fc, trivial_module(a1, fc, (0,))),
        (a1, fc, build_simple(a1, fc, (1,))),
        (a1, fq, build_simple(a1, fq, (2,))),
        (a1, fc, truncated_verma(a1, fc, (0,), 4)),
        (a2, fq, truncated_verma(a2, fq, (0, 0), 3)),
    ]
    for c, f, M in built:
        assert check_relations(c, f, M).passed
    bad = perturb_entry(built[1][2], "x", 0, (0,), 0, 0, QScalar.one())
    bad_report = check_relations(a1, fc, bad)
    assert not bad_report.passed and bad_report.witnesses

    # Groebner vs dense-rank oracle on all certified A2/B2 multidegrees
    for series in ("A", "B"):
        c = build_cartan(series, 2)
        pres = un_presentation(c)
        g = groebner(pres, cap=4)
        dims = hilbert(g, g.certified_len)
        for beta in product(range(g.certified_len + 1), repeat=2):
            if 0 < sum(beta) <= g.certified_len:
                assert dims.get(beta, 0) == dense_rank_dims(pres, beta)

    # d o d = 0 and Ext^0 Schur-lemma values on all computed pairs
    algebra = build_algebra(a1, fc, 6)
    simples = [trivial_module(a1, fc, (0,)), build_simple(a1, fc, (1,))]
    resolutions = [minimal_resolution(algebra, V, 2) for V in simples]
    for res in resolutions:
        assert res.dd_verified
    for i, res in enumerate(resolutions):
        for j, W in enumerate(simples):
            assert ext_dims(res, W, 0)[0] == (1 if i == j else 0)

    # bit-identical reports across repeated runs
    cfg = RunConfig(series="A", rank=2, cap=5).validated()
    blob1 = json.dumps(run("hilbert", cfg), sort_keys=True)
    blob2 = json.dumps(run("hilbert", cfg), sort_keys=True)
    assert blob1 == blob2

    report(8, "property suites: q-Pascal/bar, checker, GB oracle, d o d, "
              "Schur values, deterministic reports")


def test_criterion_9_non_simply_laced_degree_two_probe():
    """B2, C2 and G2 classical trivial at windows 2/3: stable (1,0,2)
    against the flag Betti numbers of each type, verdict match."""
    f = FSpec.classical()
    for series in ("B", "C", "G"):
        c = build_cartan(series, 2)
        rep = schur_check(c, f, trivial_module(c, f, (0, 0)), homcap=2,
                          window=3)
        assert rep.verdict == "match", (series, rep.to_dict())
        assert rep.computed_betti == (1, 0, 2) == flag_betti(c)[:3]
        assert all(rep.stable)
    report(9, "B2, C2, G2 degree-2 probe (1,0,2) stable, verdict match")
