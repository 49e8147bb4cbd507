#!/usr/bin/env python3
"""Classical sl2 experiment: Ext algebra of the trivial module and of the
3-dimensional simple versus the projective-line cohomology target."""

import argparse
import json

from schurq import build_cartan, build_simple, schur_check, trivial_module
from schurq.presentation import FSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--homcap", type=int, default=4)
    ap.add_argument("--window", type=int, default=8,
                    help="the larger of the two window radii")
    args = ap.parse_args()

    c = build_cartan("A", 1)
    f = FSpec.classical()
    out = {}
    for label, module in (
        ("trivial", trivial_module(c, f, (0,))),
        ("simple_3dim", build_simple(c, f, (1,))),
    ):
        rep = schur_check(c, f, module, homcap=args.homcap, window=args.window)
        out[label] = rep.to_dict()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if all(r["verdict"] == "match" for r in out.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
