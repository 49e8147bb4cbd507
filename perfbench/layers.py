"""Which program functions belong to which layer, and the per-layer metrics.

Layers are named after the modules of ``schurq``.  ``install`` wraps the
public entry points of each layer; ``metrics`` turns the tracer's spans and
counters into the ``per_layer`` metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os


def _num_terms(x):
    """Length of the numerator's dense coefficient list (degree span + 1)."""
    return len(x.num)


def install(tracer):
    """Wrap each layer's entry points in the imported ``schurq`` package."""
    from schurq import cli, ext, gbasis, linalg, modules, presentation, qfield, rootdata

    t = tracer
    Q = qfield.QScalar
    for kind, attrs in (
        ("mul", ("__mul__", "__rmul__")),
        ("add", ("__add__", "__radd__", "__sub__", "__rsub__")),
        ("div", ("__truediv__", "__rtruediv__", "inverse")),
    ):
        for attr in attrs:
            t.patch_method(Q, attr, "qfield." + kind, group="qfield")

    def nullspace_hook(args, kwargs, result):
        a = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(a[0]) if a else 0
        t.maxima["linalg.nullspace.max_rows"] = max(
            t.maxima["linalg.nullspace.max_rows"], len(a)
        )
        t.maxima["linalg.nullspace.max_cols"] = max(
            t.maxima["linalg.nullspace.max_cols"], ncols
        )
        terms = max((_num_terms(x) for vec in result for x in vec), default=0)
        t.maxima["linalg.max_num_terms"] = max(t.maxima["linalg.max_num_terms"], terms)

    t.patch_function(linalg, "nullspace", "linalg.nullspace", nullspace_hook)
    t.patch_function(linalg, "mat_rank", "linalg.mat_rank")
    t.patch_function(linalg, "solve", "linalg.solve")
    for attr in ("reduce", "contains", "add", "basis"):
        t.patch_method(linalg.Subspace, attr, "linalg.subspace", group="linalg.subspace")

    t.patch_function(presentation, "instantiate_window", "presentation.instantiate_window")

    def groebner_hook(args, kwargs, result):
        key = (result.input_hash, result.cap, result.order.describe())
        if t.seen("gbasis.groebner", key):
            t.counts["gbasis.groebner.repeat_calls"] += 1
        t.counts["gbasis.groebner.elements"] += len(result.elements)

    t.patch_function(gbasis, "groebner", "gbasis.groebner", groebner_hook)
    t.patch_function(gbasis, "hilbert", "gbasis.hilbert")

    def levels_hook(args, kwargs, result):
        algebra, source = args[0], args[1]
        t.keep(algebra)
        t.seen("ext.levels_from", (id(algebra), tuple(source)))

    def nf_hook(args, kwargs, result):
        algebra, word, source = args[0], args[1], args[2]
        t.keep(algebra)
        t.seen("ext.nf", (id(algebra), word, source))

    def resolution_hook(args, kwargs, result):
        algebra, module = args[0], args[1]
        blob = json.dumps(module.to_dict(), sort_keys=True, default=str)
        key = (algebra.describe(), hashlib.sha256(blob.encode()).hexdigest(), args[2])
        if t.seen("ext.minimal_resolution", key):
            t.counts["ext.minimal_resolution.repeat_calls"] += 1

    A = ext.WindowedAlgebra
    t.patch_method(A, "levels_from", "ext.levels_from", levels_hook)
    t.patch_method(A, "nf", "ext.nf", nf_hook)
    t.patch_function(ext, "minimal_resolution", "ext.minimal_resolution", resolution_hook)
    t.patch_function(ext, "_extract_stage", "ext.extract_stage")
    t.patch_function(ext, "ext_dims", "ext.ext_dims")
    for attr in ("yoneda_square", "yoneda_product", "ext_cocycle_basis"):
        t.patch_function(ext, attr, "ext.yoneda", group="ext.yoneda")
    for attr in ("schur_check", "ext_table"):
        t.patch_function(ext, attr, "ext.verdict", group="ext.verdict")

    for attr in ("trivial_module", "truncated_verma", "build_simple"):
        t.patch_function(modules, attr, "modules.build", group="modules.build")

    t.patch_function(rootdata, "kostant", "rootdata.kostant")
    for attr in ("weyl_table", "flag_betti", "flag_ring"):
        t.patch_function(rootdata, attr, "rootdata.flag", group="rootdata.flag")

    def get_hook(args, kwargs, result):
        hit = "cli.cache.hits" if result is not None else "cli.cache.misses"
        t.counts[hit] += 1

    def put_hook(args, kwargs, result):
        cache, key = args[0], args[1]
        if cache.root:
            t.counts["cli.cache.bytes_written"] += os.path.getsize(cache._path(key))

    t.patch_method(cli.Cache, "get", "cli.cache.get", get_hook)
    t.patch_method(cli.Cache, "put", "cli.cache.put", put_hook)
    t.patch_function(cli, "run", "cli.run")


def _hit_ratio(tracer, name):
    calls = tracer.calls[name]
    return 1.0 - tracer.distinct[name] / calls if calls else 0.0


def metrics(tracer, traced_s, untraced_s):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t = tracer
    s, n = t.self_s, t.calls
    out = {
        "qfield.self_s": (s["qfield.mul"] + s["qfield.add"] + s["qfield.div"], "s"),
        "qfield.mul_calls": (n["qfield.mul"], "count"),
        "qfield.add_calls": (n["qfield.add"], "count"),
        "qfield.div_calls": (n["qfield.div"], "count"),
        "linalg.nullspace.max_rows": (t.maxima["linalg.nullspace.max_rows"], "count"),
        "linalg.nullspace.max_cols": (t.maxima["linalg.nullspace.max_cols"], "count"),
        "linalg.max_num_terms": (t.maxima["linalg.max_num_terms"], "count"),
        "gbasis.groebner.repeat_calls": (t.counts["gbasis.groebner.repeat_calls"], "count"),
        "gbasis.groebner.elements": (t.counts["gbasis.groebner.elements"], "count"),
        "gbasis.hilbert.self_s": (s["gbasis.hilbert"], "s"),
        "ext.levels_from.hit_ratio": (_hit_ratio(t, "ext.levels_from"), "ratio"),
        "ext.nf.hit_ratio": (_hit_ratio(t, "ext.nf"), "ratio"),
        "ext.minimal_resolution.repeat_calls": (
            t.counts["ext.minimal_resolution.repeat_calls"],
            "count",
        ),
        "ext.extract_stage.self_s": (s["ext.extract_stage"], "s"),
        "ext.yoneda.self_s": (s["ext.yoneda"], "s"),
        "ext.verdict.self_s": (s["ext.verdict"], "s"),
        "rootdata.flag.self_s": (s["rootdata.flag"], "s"),
        "cli.cache.get_s": (s["cli.cache.get"], "s"),
        "cli.cache.put_s": (s["cli.cache.put"], "s"),
        "cli.cache.hits": (t.counts["cli.cache.hits"], "count"),
        "cli.cache.misses": (t.counts["cli.cache.misses"], "count"),
        "cli.cache.bytes_written": (t.counts["cli.cache.bytes_written"], "bytes"),
        "cli.run.self_s": (s["cli.run"], "s"),
        "trace.coverage": (sum(s.values()) / traced_s, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for name in (
        "linalg.nullspace",
        "linalg.mat_rank",
        "linalg.solve",
        "linalg.subspace",
        "presentation.instantiate_window",
        "gbasis.groebner",
        "ext.levels_from",
        "ext.nf",
        "ext.minimal_resolution",
        "ext.ext_dims",
        "modules.build",
        "rootdata.kostant",
    ):
        out[name + ".self_s"] = (s[name], "s")
        out[name + ".calls"] = (n[name], "count")
    return out
