#!/usr/bin/env python3
"""Koszulity probe for classical sl2: does every degree-2 Ext class between
the probe objects factor through products of degree-1 classes? The probe
pair is the trivial module and the floor-reaching truncated Verma module."""

import argparse
import json

from schurq import build_cartan, koszul_check, trivial_module, truncated_verma
from schurq.presentation import FSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--homcap", type=int, default=2)
    ap.add_argument("--window", type=int, default=8)
    ap.add_argument("--single", action="store_true",
                    help="run with the trivial module only, demonstrating "
                         "the list-insufficiency verdict")
    args = ap.parse_args()

    c = build_cartan("A", 1)
    f = FSpec.classical()
    triv = lambda radius: trivial_module(c, f, (0,))
    verma = lambda radius: truncated_verma(c, f, (-1,), radius - 1)
    if args.single:
        modules, labels = [triv], ("L0",)
    else:
        modules, labels = [triv, verma], ("L0", "M")
    rep = koszul_check(c, f, modules, labels=labels, homcap=args.homcap,
                       window=args.window)
    print(json.dumps(rep, indent=2, sort_keys=True))
    return 0 if rep["verdict"] in ("generated", "list-insufficient") else 1


if __name__ == "__main__":
    raise SystemExit(main())
