#!/usr/bin/env python3
"""sl3 probe: low-degree Ext of the classical trivial module against the
full-flag-variety Betti numbers (1, 0, 2, ...). Degree 2 is the default;
higher caps are a stretch and may report "inconclusive"."""

import argparse
import json

from schurq import build_cartan, flag_betti, schur_check, trivial_module
from schurq.presentation import FSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--homcap", type=int, default=2)
    ap.add_argument("--window", type=int, default=3)
    args = ap.parse_args()

    c = build_cartan("A", 2)
    f = FSpec.classical()
    rep = schur_check(c, f, trivial_module(c, f, (0, 0)),
                      homcap=args.homcap, window=args.window)
    out = {
        "probe": rep.to_dict(),
        "full_target": list(flag_betti(c)),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if rep.verdict in ("match", "inconclusive") else 1


if __name__ == "__main__":
    raise SystemExit(main())
