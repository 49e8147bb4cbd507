"""The benchmark's workloads: CLI configurations and the correctness gate per op.

Every op goes through the CLI path: argv -> ``config_from_args`` (validated
``RunConfig``) -> ``cli.run`` -> the report serialized as ``cli.main`` does.

- ``quantum_sl2``: A1 ``qinteger`` schur-check, homcap 4, windows 6/8
  (acceptance criterion 3).  Dominated by ``linalg.nullspace`` over Q(q)
  with swelling numerators; also holds the window-8 rebuild of the ring
  check (a repeated ``groebner`` and ``minimal_resolution``).
- ``sl3_probe``: A2 classical schur-check, homcap 2, windows 2/3 (criterion
  5).  Time splits over enumeration, anchored Groebner, normal forms and stage
  extraction; linear algebra is over Q and negligible; nothing is rebuilt.
- ``hilbert_sweep``: ``hilbert`` on A4 cap 10, B3 cap 10 and G2 cap 14, each
  cold into a fresh cache dir and then warm from it.  Free (unanchored)
  Groebner completion, Kostant's partition function and the cache; no
  ``linalg`` at all.
"""

from __future__ import annotations

import json
import os
import random
import shutil


def serialize(report):
    """The report text exactly as ``cli.main`` prints it."""
    return json.dumps(report, sort_keys=True, indent=2, default=str)


class Op:
    def __init__(self, label, command, argv, check):
        self.label = label
        self.command = command
        self.argv = argv
        self.check = check  # check(report, pass_state) -> error text or None
        self.cfg = None


def _schur_check(betti, ring_square_zero):
    def check(report, _state):
        rep = report["results"]["schur"]
        if rep["verdict"] != "match":
            return "verdict %r" % rep["verdict"]
        if tuple(rep["computed_betti"]) != betti:
            return "betti %r" % (rep["computed_betti"],)
        if not all(rep["stable"]):
            return "unstable %r" % (rep["stable"],)
        if ring_square_zero and rep["ring_comparison"].get("square_zero_computed") is not True:
            return "ring comparison %r" % (rep["ring_comparison"],)
        return None

    return check


def _hilbert_check(label, warm):
    want = "hit" if warm else "stored"

    def check(report, state):
        res = report["results"]
        if res["pbw"] != "confirmed" or not all(row["equal"] for row in res["table"]):
            return "pbw %r" % res["pbw"]
        events = [e["event"] for e in report["cache_events"]]
        if events != [want]:
            return "cache events %r, want [%r]" % (events, want)
        text = serialize(res)
        if warm and state.get(label) != text:
            return "warm results differ from cold results"
        state[label] = text
        return None

    return check


class Workload:
    """Fixed list of ops; ``prepare`` runs before each pass, outside the timer."""

    def __init__(self, name, ops, cache_root=None, seeded=False):
        self.name = name
        self.ops = ops
        self.cache_root = cache_root
        self.seeded = seeded  # False: the seed changes nothing

    def prepare(self):
        if self.cache_root:
            shutil.rmtree(self.cache_root, ignore_errors=True)
            os.makedirs(self.cache_root)

    def cleanup(self):
        if self.cache_root:
            shutil.rmtree(self.cache_root, ignore_errors=True)


def quantum_sl2(seed, out_dir):
    argv = ["schur-check", "--type", "A1", "--f", "qinteger", "--homcap", "4", "--window", "8"]
    return Workload("quantum_sl2", [Op("A1-qinteger", "schur-check", argv, _schur_check((1, 0, 1, 0, 0), True))])


def sl3_probe(seed, out_dir):
    argv = ["schur-check", "--type", "A2", "--f", "classical", "--homcap", "2", "--window", "3"]
    return Workload("sl3_probe", [Op("A2-classical", "schur-check", argv, _schur_check((1, 0, 2), False))])


HILBERT_CONFIGS = (("A4", 10), ("B3", 10), ("G2", 14))


def hilbert_sweep(seed, out_dir):
    """The seed permutes the configs; each cold/warm pair stays adjacent."""
    configs = list(HILBERT_CONFIGS)
    random.Random(seed).shuffle(configs)
    cache_root = os.path.join(out_dir, "cache-%d" % os.getpid())
    ops = []
    for typ, cap in configs:
        label = "%s-cap%d" % (typ, cap)
        argv = ["hilbert", "--type", typ, "--cap", str(cap), "--cache", os.path.join(cache_root, label)]
        ops.append(Op(label + "-cold", "hilbert", argv, _hilbert_check(label, False)))
        ops.append(Op(label + "-warm", "hilbert", argv, _hilbert_check(label, True)))
    return Workload("hilbert_sweep", ops, cache_root, seeded=True)


WORKLOADS = {
    "quantum_sl2": quantum_sl2,
    "sl3_probe": sl3_probe,
    "hilbert_sweep": hilbert_sweep,
}
