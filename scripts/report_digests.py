#!/usr/bin/env python3
"""Digests of the standard output of a fixed list of CLI runs and scripts.

Each CLI run goes through ``schurq.cli.main`` in process, and each script of
``scripts/`` runs in process with its default arguments.  The output is one
JSON object, ``{name: {argv, exit, stdout_sha256}}``; a CLI run that exits
0 also records ``results_sha256``, the sha256 of its ``results`` block as
``tests/test_cli.py::_RESULT_DIGESTS`` serializes it, so that a change which
moves only ``config`` bytes can show that no result moved.  The script imports
``schurq`` from the ``src/`` of the checkout it sits in, so running it from
two checkouts and comparing the outputs shows whether a change moves any
report byte:

    python3 scripts/report_digests.py > digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# the names of the report_sha256 list of BENCH_16.json, then later additions
CLI_RUNS = {
    "koszul-A1-w6": ["koszul-check", "--type", "A1", "--window", "6", "--homcap", "2"],
    "ext-A1-w6-triv": ["ext", "--type", "A1", "--window", "6", "--homcap", "3"],
    "ext-A1-w6-pair": [
        "ext", "--type", "A1", "--window", "6", "--homcap", "3",
        "--module", "trivial;simple:1",
    ],
    "ext-A2-w3-cl": ["ext", "--type", "A2", "--window", "3", "--homcap", "2"],
    "ext-A2-w3-q": [
        "ext", "--type", "A2", "--f", "qinteger", "--window", "3", "--homcap", "2",
    ],
    "schur-A1-w8-cl": ["schur-check", "--type", "A1", "--window", "8"],
    "schur-A1-w8-q32": [
        "schur-check", "--type", "A1", "--f", "qinteger", "--q", "3/2", "--window", "8",
    ],
    "schur-A1-w8-qgen": ["schur-check", "--type", "A1", "--f", "qinteger", "--window", "8"],
    "schur-A1-w8-s1": [
        "schur-check", "--type", "A1", "--module", "simple:1", "--window", "8",
    ],
    "schur-A2-w3-q": [
        "schur-check", "--type", "A2", "--f", "qinteger", "--homcap", "2", "--window", "3",
    ],
    "schur-A2-w3-cl": ["schur-check", "--type", "A2", "--homcap", "2", "--window", "3"],
    "schur-B2-w3": ["schur-check", "--type", "B2", "--homcap", "2", "--window", "3"],
    "schur-C2-w3": ["schur-check", "--type", "C2", "--homcap", "2", "--window", "3"],
    "schur-G2-w3": ["schur-check", "--type", "G2", "--homcap", "2", "--window", "3"],
    # modules closed through linalg.Subspace, and Cartan data validated by
    # rootdata's positive-definiteness test
    "build-A2-s11-cl": ["build-module", "--type", "A2", "--module", "simple:1,1"],
    "build-A2-s11-q": [
        "build-module", "--type", "A2", "--f", "qinteger", "--module", "simple:1,1",
    ],
    "build-B2-s11-cl": ["build-module", "--type", "B2", "--module", "simple:1,1"],
    "build-A1-s2-q": [
        "build-module", "--type", "A1", "--f", "qinteger", "--module", "simple:2",
    ],
    "build-G2-s23-cl": ["build-module", "--type", "G2", "--module", "simple:2,3"],
    "build-B2-s11-q": [
        "build-module", "--type", "B2", "--f", "qinteger", "--module", "simple:1,1",
    ],
    "build-A2-v11-d3-cl": ["build-module", "--type", "A2", "--module", "verma:1,1:3"],
    "build-B2-v11-d3-q": [
        "build-module", "--type", "B2", "--f", "qinteger", "--module", "verma:1,1:3",
    ],
    "root-data-G2": ["root-data", "--type", "G2"],
    # the hilbert_sweep configs of the benchmark, without its cache, and C3
    "hilbert-A4-c10": ["hilbert", "--type", "A4", "--cap", "10"],
    "hilbert-B3-c10": ["hilbert", "--type", "B3", "--cap", "10"],
    "hilbert-G2-c14": ["hilbert", "--type", "G2", "--cap", "14"],
    "hilbert-C3-c8": ["hilbert", "--type", "C3", "--cap", "8"],
    # free presentations where the chain criterion of the completion skips
    # the most reductions
    "hilbert-A5-c10": ["hilbert", "--type", "A5", "--cap", "10"],
    "hilbert-E6-c8": ["hilbert", "--type", "E6", "--cap", "8"],
    # an Ext table read off the Anick chains, and one whose clamped cap
    # keeps the resolutions
    "ext-A2-w5-h4": ["ext", "--type", "A2", "--window", "5", "--homcap", "4"],
    "ext-B2-w3-h2": ["ext", "--type", "B2", "--window", "3", "--homcap", "2"],
    # a rank-2 schur-check whose ring check reports degree-4 structure
    "schur-A2-w5-h4": ["schur-check", "--type", "A2", "--homcap", "4", "--window", "5"],
    # a generic-q chain ladder of several cap rungs, and a module list built
    # per radius on the 2 * radius + 4 cap
    "ext-A2-w5-h4-q": [
        "ext", "--type", "A2", "--f", "qinteger", "--window", "5", "--homcap", "4",
    ],
    "koszul-A1-w6-floor": [
        "koszul-check", "--type", "A1", "--module", "trivial;verma:-1:floor",
        "--window", "6",
    ],
    # a rank-2 window of a module that is not a vertex simple, on the
    # 2 * radius + 4 cap
    "schur-A2-w3-s11": [
        "schur-check", "--type", "A2", "--module", "simple:1,1", "--window", "3",
        "--homcap", "2",
    ],
    # rank-1 schur-checks that reach the ring comparison: homcap 6, and a
    # generic-q simple that is not a vertex simple
    "schur-A1-w8-h6": ["schur-check", "--type", "A1", "--homcap", "6", "--window", "8"],
    "schur-A1-w8-s1-q": [
        "schur-check", "--type", "A1", "--f", "qinteger", "--module", "simple:1",
        "--window", "8",
    ],
    # Yoneda lifts at generic q, and Ext^2 read below the top stage of a
    # resolution (homcap 3): the two kinds of cocycle rows
    "koszul-A1-w6-floor-q": [
        "koszul-check", "--type", "A1", "--f", "qinteger", "--module",
        "trivial;verma:-1:floor", "--window", "6",
    ],
    "koszul-A1-w6-floor-h3": [
        "koszul-check", "--type", "A1", "--module", "trivial;verma:-1:floor",
        "--window", "6", "--homcap", "3",
    ],
    # check-module runs: relations and simplicity of a simple module at
    # generic q, and of a truncated Verma module, which is not simple
    "check-A2-s11-q": [
        "check-module", "--type", "A2", "--f", "qinteger", "--module", "simple:1,1",
    ],
    "check-A1-v0-d2": ["check-module", "--type", "A1", "--module", "verma:0:2"],
    # a free completion with an element over 1 + q^2
    "hilbert-F4-c8": ["hilbert", "--type", "F4", "--cap", "8"],
}

SCRIPTS = ("run_koszul_probe", "run_quantum_sl2", "run_schur_sl2", "run_sl3_probe")


def _run_cli(argv):
    from schurq.cli import main

    return main(list(argv))


def _run_script(path):
    saved = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _capture(run, arg):
    """(exit code, standard output) of ``run(arg)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(arg)
    return code, out.getvalue()


def main():
    runs = {}
    for name, argv in CLI_RUNS.items():
        code, out = _capture(_run_cli, argv)
        run = runs[name] = {"argv": ["schurq"] + argv, "exit": code}
        run["stdout_sha256"] = _sha256(out)
        if code == 0:
            results = json.loads(out)["results"]
            text = json.dumps(results, sort_keys=True, indent=2, default=str)
            run["results_sha256"] = _sha256(text)
    for script in SCRIPTS:
        rel = os.path.join("scripts", script + ".py")
        code, out = _capture(_run_script, os.path.join(ROOT, rel))
        runs["script-" + script] = {
            "argv": [rel], "exit": code, "stdout_sha256": _sha256(out),
        }
    print(json.dumps(runs, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
