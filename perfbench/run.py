"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quantum_sl2 --seed 1 --seconds 20 --trace 0

Load is a closed loop in this one process: one op at a time, no threads.  A
pass runs every op of the workload once; passes repeat until ``--seconds``
have gone by (at least one pass).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same untraced passes, then one traced pass,
and reports the per-layer metrics.  The metric names and units must match
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS, serialize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9


def import_program():
    """Import schurq from this checkout's ``src``; exit 2 if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "schurq", "cli.py")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    from schurq import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("perfbench: imported schurq from %s" % cli.__file__, file=sys.stderr)
        sys.exit(2)
    return cli


def set_up(name, seed):
    """Import the program and validate every op's config: what ``setup_s`` times."""
    cli = import_program()
    workload = WORKLOADS[name](seed, OUT_DIR)
    for op in workload.ops:
        op.cfg = cli.config_from_args(cli.build_parser().parse_args(op.argv))
    return cli, workload


def measure_setup(name, seed):
    """Median seconds from spawning a fresh interpreter until it has set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_pass(cli, workload, failures, tracer=None):
    """Run every op once; returns (wall seconds, HostSpeed, ops failed).

    Untraced passes sample the host speed; the traced pass does not, so the
    sampling kernel never lands inside a span.
    """
    workload.prepare()
    state = {}
    failed = 0
    speed = HostSpeed()
    with speed if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in workload.ops:
            if tracer:
                tracer.begin_op()
            try:
                report = cli.run(op.command, op.cfg)
                serialize(report)
                err = op.check(report, state)
            except Exception:  # an op that raises is a failed op, not a crash
                err = traceback.format_exc(limit=3)
            if tracer:
                tracer.end_op()
            if err is not None:
                failed += 1
                failures.append("%s: %s" % (op.label, err))
        wall = time.perf_counter() - t0
    return wall, speed, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error("unknown workload %r" % args.workload)

    cli, workload = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)

    failures = []
    attempted = failed = 0
    passes = []  # (wall, work, reference) seconds per untraced pass
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            wall, speed, nfail = run_pass(cli, workload, failures)
            passes.append((wall, speed.work_s(wall), speed.reference_s(wall)))
            attempted += len(workload.ops)
            failed += nfail
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            for name in tracer.missing:
                print("perfbench: not traced, missing from the program: " + name, file=sys.stderr)
            tracer.enabled = True
            traced_s, _speed, nfail = run_pass(cli, workload, failures, tracer)
            tracer.enabled = False
            tracer.uninstall()
            attempted += len(workload.ops)
            failed += nfail
            values = layers.metrics(
                tracer, traced_s, statistics.median(p[1] for p in passes)
            )
            wanted = spec["per_layer"]
            trace_path = os.path.join(OUT_DIR, "trace-%s.jsonl" % args.workload)
            tracer.write_spans(trace_path, {"workload": args.workload, "seed": args.seed})
        else:
            values = {
                "setup_s": (measure_setup(args.workload, args.seed), "s"),
                "run_ref_s": (statistics.median(p[2] for p in passes), "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
                "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            }
            wanted = spec["end_to_end"]
    finally:
        workload.cleanup()

    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise SystemExit("unit of %s is %s, BENCHMARK.json says %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    extra = sorted(set(values) - set(metrics))
    if extra:
        raise SystemExit("metrics missing from BENCHMARK.json: %s" % extra)

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "order": [op.label for op in workload.ops],
        "pass_wall_s": [p[0] for p in passes],
        "pass_ref_s": [p[2] for p in passes],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
