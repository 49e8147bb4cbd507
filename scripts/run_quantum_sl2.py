#!/usr/bin/env python3
"""Quantum sl2 experiment: Ext algebra of the trivial module for the
q-integer commutator family at generic q, plus the q = 1 coherence check
against the classical pipeline."""

import argparse
import json

from schurq import build_cartan, ext_table, schur_check, trivial_module
from schurq.presentation import FSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--homcap", type=int, default=4)
    ap.add_argument("--window", type=int, default=8)
    args = ap.parse_args()

    c = build_cartan("A", 1)
    fq = FSpec.qinteger()
    rep = schur_check(c, fq, trivial_module(c, fq, (0,)),
                      homcap=args.homcap, window=args.window)

    f1 = FSpec.qinteger("one")
    fc = FSpec.classical()
    tab1 = ext_table(c, f1, [trivial_module(c, f1, (0,))], args.homcap,
                     args.window, labels=("L0",))
    tabc = ext_table(c, fc, [trivial_module(c, fc, (0,))], args.homcap,
                     args.window, labels=("L0",))
    coherent = tab1.dims == tabc.dims

    out = {
        "generic_q": rep.to_dict(),
        "q_one_coherence": {
            "quantum_at_one": tab1.to_dict(),
            "classical": tabc.to_dict(),
            "equal": coherent,
        },
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if rep.verdict == "match" and coherent else 1


if __name__ == "__main__":
    raise SystemExit(main())
