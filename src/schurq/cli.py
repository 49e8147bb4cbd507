"""Command-line interface: configuration, JSON reports, and on-disk caching.

Every command emits a deterministic JSON report embedding the configuration
hash and all caps, so identical configurations produce byte-identical reports.
Exit status 0 means the tool ran to completion (even when a mathematical
verdict is "mismatch" or "inconclusive"); nonzero means an operational error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, asdict
from fractions import Fraction

from . import __version__
from .rootdata import (
    RootDataError,
    build_cartan,
    positive_roots,
    weyl_table,
    flag_betti,
    kostant_table,
)
from .presentation import FSpec, un_presentation
from .gbasis import groebner, hilbert, GBResult
from .modules import (
    trivial_module,
    truncated_verma,
    build_simple,
    check_relations,
    is_simple,
)
from .ext import schur_check, koszul_check, ext_table

REPORT_SCHEMA = "schurq-report/v1"


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


class CacheError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    series: str = "A"
    rank: int = 1
    f: str = "classical"  # classical | qinteger
    q: str = "generic"  # generic | rational value for specialization
    window: int = 6  # largest window radius; stabilization pairs with window-2
    homcap: int = 4
    cap: int = 8  # degree cap for hilbert
    module: str = "trivial"  # one spec, or a ;-separated list for ext/koszul-check
    out: str = ""
    cache: str = ""

    def validated(self):
        # a --config file can carry any JSON value; type each field before
        # any comparison reads it
        for name in ("rank", "window", "homcap", "cap"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError("%s: expected an integer, got %r" % (name, val))
        for name in ("series", "f", "q", "module", "out", "cache"):
            val = getattr(self, name)
            if not isinstance(val, str):
                raise ConfigError("%s: expected a string, got %r" % (name, val))
        if self.series.upper() not in "ABCDEFG" or len(self.series) != 1:
            raise ConfigError("type: unknown series %r" % self.series)
        if self.rank < 1:
            raise ConfigError("type: rank must be >= 1, got %d" % self.rank)
        if self.f not in ("classical", "qinteger"):
            raise ConfigError("f: expected classical or qinteger, got %r" % self.f)
        if self.window < 2:
            raise ConfigError(
                "window: need window >= 2 so that two radii are compared, got %d"
                % self.window
            )
        if self.cap < 0:
            raise ConfigError("cap: must be >= 0, got %d" % self.cap)
        if self.homcap < 0:
            raise ConfigError("homcap: must be >= 0, got %d" % self.homcap)
        if self.q != "generic":
            _validate_q(self.q)
        return self

    def fspec(self):
        if self.f == "classical":
            if self.q != "generic":
                raise ConfigError("q: classical family has no q parameter")
            return FSpec.classical()
        at = None if self.q == "generic" else Fraction(self.q)
        return FSpec.qinteger(at)

    def cartan(self):
        try:
            return build_cartan(self.series, self.rank)
        except RootDataError as exc:
            raise ConfigError("type: %s" % exc)

    def to_dict(self):
        return asdict(self)

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _validate_q(text):
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("q: not a rational number: %r" % text)
    if val == 0:
        raise ConfigError("q: specialization at 0 is not allowed")
    # the only rational roots of unity are 1 and -1
    if val in (1, -1):
        raise ConfigError(
            "q: %s is a root of unity of order %d" % (text, 1 if val == 1 else 2)
        )


def parse_module_spec(spec, c, f):
    """Parse a module spec; may return a radius-dependent factory for 'floor'."""
    parts = spec.split(":")
    name = parts[0]
    rank = c.rank

    def integer(text):
        try:
            return int(text)
        except ValueError:
            raise ConfigError("module: expected an integer, got %r in %r" % (text, spec))

    def weight(text):
        xs = tuple(integer(t) for t in text.split(","))
        if len(xs) != rank:
            raise ConfigError(
                "module: weight %s has %d entries, expected %d" % (text, len(xs), rank)
            )
        return xs

    if name == "trivial":
        if len(parts) > 2:
            raise ConfigError("module: trivial spec needs trivial or trivial:<n0>")
        n0 = weight(parts[1]) if len(parts) > 1 else (0,) * rank
        return trivial_module(c, f, n0)
    if name == "simple":
        if len(parts) != 2:
            raise ConfigError("module: simple spec needs simple:<n0>")
        return build_simple(c, f, weight(parts[1]))
    if name == "verma":
        if len(parts) != 3:
            raise ConfigError("module: verma spec needs verma:<n0>:<depth|floor>")
        n0 = weight(parts[1])
        if parts[2] == "floor":
            if rank != 1:
                raise ConfigError(
                    "module: verma:<n0>:floor is defined for rank 1 only, got rank %d"
                    % rank
                )

            def floor_verma(radius):
                # the depth whose lowest weight n0 - depth is the floor -radius
                depth = n0[0] + radius
                if depth < 0:
                    raise ConfigError(
                        "module: %r has its highest weight %d below the floor -%d "
                        "of window radius %d" % (spec, n0[0], radius, radius)
                    )
                return truncated_verma(c, f, n0, depth)

            return floor_verma
        depth = integer(parts[2])
        if depth < 0:
            raise ConfigError("module: %r has a negative depth %d" % (spec, depth))
        return truncated_verma(c, f, n0, depth)
    raise ConfigError("module: unknown module spec %r" % spec)


# ---------------------------------------------------------------------------
# content-addressed cache
# ---------------------------------------------------------------------------


def _canonical_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Cache:
    """Content-addressed JSON store with byte verification and quarantine.

    An entry is written as the canonical (compact, key-sorted) JSON of
    ``{"key", "payload", "sha256"}``; ``get`` reads an entry in any JSON
    layout, such as the indented one written before."""

    def __init__(self, root):
        self.root = root
        self.events = []
        if root:
            os.makedirs(root, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.root, key + ".json")

    def get(self, key, decode):
        """``decode`` of the payload stored under key, None on a miss.  An
        entry that does not parse, verify or decode is quarantined and
        counts as a miss."""
        if not self.root:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                wrapper = json.loads(fh.read().decode())
            payload = wrapper["payload"]
            digest = hashlib.sha256(_canonical_bytes(payload)).hexdigest()
            if digest != wrapper.get("sha256") or wrapper.get("key") != key:
                raise CacheError("digest mismatch")
            value = decode(payload)
        except (CacheError, KeyError, TypeError, ValueError, UnicodeDecodeError):
            qpath = path + ".quarantine"
            os.replace(path, qpath)
            self.events.append({"event": "quarantined", "path": qpath})
            return None
        self.events.append({"event": "hit", "key": key})
        return value

    def put(self, key, payload):
        if not self.root:
            return
        wrapper = {
            "key": key,
            "sha256": hashlib.sha256(_canonical_bytes(payload)).hexdigest(),
            "payload": payload,
        }
        path = self._path(key)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as fh:
            fh.write(_canonical_bytes(wrapper))
        os.replace(tmp, path)
        self.events.append({"event": "stored", "key": key})


def cached_groebner(cache, pres, cap):
    """Groebner basis through the cache; recomputes on miss or corruption."""
    probe = groebner.__name__  # stable component of the key
    label = pres.label if hasattr(pres, "label") else pres.describe()
    keysrc = "%s|%s|%s|cap=%d" % (probe, __version__, label, cap)
    key = hashlib.sha256(keysrc.encode()).hexdigest()
    hit = cache.get(key, GBResult.from_dict) if cache else None
    if hit is not None:
        return hit
    g = groebner(pres, cap=cap)
    if cache:
        cache.put(key, g.to_dict())
    return g


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _generic_q_only(cfg, command):
    """Reject a q other than generic for a command that reads no q."""
    if cfg.q != "generic":
        raise ConfigError("q: %s reads no q, got %r" % (command, cfg.q))


def cmd_root_data(cfg):
    _generic_q_only(cfg, "root-data")
    c = cfg.cartan()
    table = weyl_table(c)
    roots = positive_roots(c)
    return {
        "cartan": c.to_dict(),
        "positive_roots": [list(b) for b in roots.roots],
        "weyl_order": table.order,
        "longest_length": table.longest_length,
        "flag_betti": list(flag_betti(c, table)),
    }


def cmd_hilbert(cfg, cache):
    _generic_q_only(cfg, "hilbert")
    c = cfg.cartan()
    pres = un_presentation(c)
    g = cached_groebner(cache, pres, cfg.cap)
    dims = hilbert(g, cfg.cap)
    counts = kostant_table(c, cfg.cap)
    rows = []
    confirmed = True
    for beta in sorted(set(dims) | set(counts)):
        dim = dims.get(beta, 0)
        expected = counts.get(beta, 0)
        ok = dim == expected
        confirmed = confirmed and ok
        rows.append(
            {
                "beta": list(beta),
                "dim": dim,
                "kostant": expected,
                "equal": ok,
            }
        )
    return {
        "gb_elements": len(g.elements),
        "gb_hash": g.content_hash(),
        "cap": cfg.cap,
        "table": rows,
        "pbw": "confirmed" if confirmed else "mismatch",
    }


def _module_specs(cfg, single=False):
    """The specs of ``cfg.module``, a ;-separated list: one where ``single``
    asks for it, at least one otherwise."""
    specs = [s for s in cfg.module.split(";") if s]
    if not specs or single and len(specs) > 1:
        raise ConfigError(
            "module: expected %s, got %r"
            % ("one module spec" if single else "a ;-separated spec list", cfg.module)
        )
    return specs


def _single_module(cfg, c, f):
    (spec,) = _module_specs(cfg, single=True)
    mod = parse_module_spec(spec, c, f)
    if callable(mod):
        mod = mod(cfg.window)
    return mod


def cmd_build_module(cfg):
    c = cfg.cartan()
    f = cfg.fspec()
    mod = _single_module(cfg, c, f)
    return {"module": mod.to_dict()}


def cmd_check_module(cfg):
    c = cfg.cartan()
    f = cfg.fspec()
    mod = _single_module(cfg, c, f)
    report = check_relations(c, f, mod)
    out = {
        "module": cfg.module,
        "relations_pass": report.passed,
        "witnesses": [list(map(str, w)) for w in report.witnesses],
    }
    if report.passed:
        out["simple"] = is_simple(c, f, mod)
    return out


def _window(cfg, homcap):
    """``cfg.window``, checked to leave a smaller radius of at least
    ``homcap`` (the library pairs it with max(window - 2, homcap))."""
    if cfg.window - 1 < homcap:
        raise ConfigError(
            "window: window %d has no smaller radius at least homcap %d; "
            "need window - 1 >= homcap" % (cfg.window, homcap)
        )
    return cfg.window


def cmd_ext(cfg):
    c = cfg.cartan()
    f = cfg.fspec()
    specs = _module_specs(cfg)
    mods = [parse_module_spec(s, c, f) for s in specs]
    window = _window(cfg, cfg.homcap)
    tab = ext_table(c, f, mods, cfg.homcap, window, labels=tuple(specs))
    return {"ext_table": tab.to_dict()}


def cmd_schur_check(cfg):
    c = cfg.cartan()
    f = cfg.fspec()
    (spec,) = _module_specs(cfg, single=True)
    mod = parse_module_spec(spec, c, f)
    rep = schur_check(c, f, mod, homcap=cfg.homcap, window=_window(cfg, cfg.homcap))
    return {"schur": rep.to_dict()}


def cmd_koszul_check(cfg):
    c = cfg.cartan()
    f = cfg.fspec()
    specs = _module_specs(cfg)
    mods = [parse_module_spec(s, c, f) for s in specs]
    # the probe reads Ext^2, so it runs at homcap 2 at least
    homcap = max(2, cfg.homcap)
    rep = koszul_check(
        c, f, mods, labels=list(specs), homcap=homcap, window=_window(cfg, homcap)
    )
    return {"koszul": rep}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = (
    "root-data",
    "hilbert",
    "build-module",
    "check-module",
    "ext",
    "schur-check",
    "koszul-check",
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="schurq",
        description="Weight-graded category algebra workbench: "
        "Ext computations and cohomology-target checks.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--type", dest="type_", metavar="SERIES+RANK", help="e.g. A1, B2")
    p.add_argument("--f", choices=("classical", "qinteger"))
    p.add_argument("--q", help="generic (default) or a rational value")
    p.add_argument("--window", type=int)
    p.add_argument("--homcap", type=int)
    p.add_argument("--cap", type=int, help="degree cap for hilbert")
    p.add_argument(
        "--module",
        help="trivial[:n0] | simple:n0 | verma:n0:depth|floor; ext and "
        "koszul-check take a ;-separated list",
    )
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--cache", help="cache directory")
    return p


def config_from_args(args):
    data = {}
    if args.config:
        with open(args.config) as fh:
            data.update(json.load(fh))
    if args.type_:
        text = args.type_.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ConfigError("type: expected SERIES+RANK like A2, got %r" % text)
        data["series"], data["rank"] = text[0].upper(), int(text[1:])
    for name in ("f", "q", "window", "homcap", "cap", "module", "out", "cache"):
        val = getattr(args, name)
        if val is not None:
            data[name] = val
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError("config: unknown fields %s" % sorted(unknown))
    return RunConfig(**data).validated()


def run(command, cfg):
    cache = Cache(cfg.cache) if cfg.cache else None
    if command == "root-data":
        results = cmd_root_data(cfg)
    elif command == "hilbert":
        results = cmd_hilbert(cfg, cache)
    elif command == "build-module":
        results = cmd_build_module(cfg)
    elif command == "check-module":
        results = cmd_check_module(cfg)
    elif command == "ext":
        results = cmd_ext(cfg)
    elif command == "schur-check":
        results = cmd_schur_check(cfg)
    elif command == "koszul-check":
        results = cmd_koszul_check(cfg)
    else:
        raise ConfigError("command: unknown command %r" % command)
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "config": cfg.to_dict(),
        "config_hash": cfg.digest(),
        "cache_events": cache.events if cache else [],
        "results": results,
    }
    return report


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(args.command, cfg)
    except (ConfigError, CacheError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # operational failure, not a verdict
        print(
            json.dumps({"error": "%s: %s" % (type(exc).__name__, exc)}),
            file=sys.stderr,
        )
        return 1
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
