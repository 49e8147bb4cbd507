"""Command-line interface: reports, caching, configuration validation."""

import hashlib
import json
import os

import pytest

from schurq import cli
from schurq.cli import REPORT_SCHEMA, main, parse_module_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_root_data_report(capsys):
    code, out = run_cli(capsys, "root-data", "--type", "A2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == REPORT_SCHEMA
    assert report["results"]["weyl_order"] == 6
    assert report["results"]["flag_betti"] == [1, 0, 2, 0, 2, 0, 1]
    assert report["config_hash"]


def test_reports_byte_identical(tmp_path, capsys):
    p = tmp_path / "report.json"
    blobs = []
    for _ in range(2):
        code, _ = run_cli(
            capsys, "hilbert", "--type", "A2", "--cap", "5", "--out", str(p)
        )
        assert code == 0
        blobs.append(p.read_bytes())
        p.unlink()
    assert blobs[0] == blobs[1]


def test_hilbert_pbw_confirmed(capsys):
    code, out = run_cli(capsys, "hilbert", "--type", "A2", "--cap", "6")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pbw"] == "confirmed"
    assert all(row["equal"] for row in results["table"])


def test_hilbert_missing_multidegree_is_a_mismatch(capsys, monkeypatch):
    """A multidegree Kostant counts but hilbert lacks still becomes a row."""
    real = cli.hilbert

    def hilbert(g, cap):
        dims = dict(real(g, cap))
        del dims[(1, 1)]
        return dims

    monkeypatch.setattr(cli, "hilbert", hilbert)
    code, out = run_cli(capsys, "hilbert", "--type", "A2", "--cap", "4")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pbw"] == "mismatch"
    (row,) = [row for row in results["table"] if row["beta"] == [1, 1]]
    assert row == {"beta": [1, 1], "dim": 0, "kostant": 2, "equal": False}


def test_cache_store_then_hit(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out1 = run_cli(
        capsys, "hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache)
    )
    assert code == 0
    r1 = json.loads(out1)
    assert [e["event"] for e in r1["cache_events"]] == ["stored"]
    code, out2 = run_cli(
        capsys, "hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache)
    )
    assert code == 0
    r2 = json.loads(out2)
    assert [e["event"] for e in r2["cache_events"]] == ["hit"]
    assert r1["results"] == r2["results"]


def test_corrupted_cache_quarantined_and_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out1 = run_cli(
        capsys, "hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache)
    )
    assert code == 0
    r1 = json.loads(out1)
    (entry,) = [p for p in os.listdir(cache) if p.endswith(".json")]
    path = cache / entry
    path.write_bytes(b'{"payload": {"tampered": true}, "sha256": "0", "key": "x"}')
    code, out2 = run_cli(
        capsys, "hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache)
    )
    assert code == 0
    r2 = json.loads(out2)
    events = [e["event"] for e in r2["cache_events"]]
    assert "quarantined" in events and "stored" in events
    assert r2["results"] == r1["results"]
    assert any(p.endswith(".quarantine") for p in os.listdir(cache))


def _rewrite_entry(capsys, cache, rewrite):
    """Store the A2 cap-5 hilbert run's entry, replace its bytes by
    ``rewrite(key, stored bytes)``, run again; returns both reports."""
    argv = ("hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache))
    code, out1 = run_cli(capsys, *argv)
    assert code == 0
    (entry,) = [p for p in os.listdir(cache) if p.endswith(".json")]
    path = cache / entry
    path.write_bytes(rewrite(entry[: -len(".json")], path.read_bytes()))
    code, out2 = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out1), json.loads(out2)


def _signed(key, payload):
    """An entry for payload whose digest verifies."""
    digest = hashlib.sha256(cli._canonical_bytes(payload)).hexdigest()
    return json.dumps({"key": key, "payload": payload, "sha256": digest}).encode()


def _with_coefficient(stored, text):
    """The stored payload with its first coefficient's text replaced."""
    payload = json.loads(stored)["payload"]
    payload["elements"][0]["terms"][0][1] = text
    return payload


def _with_field(stored, name, value):
    """The stored payload with one field replaced; ``terms`` replaces the
    first element's terms."""
    payload = json.loads(stored)["payload"]
    if name == "terms":
        payload["elements"][0]["terms"] = value
    else:
        payload[name] = value
    return payload


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda key, stored: b"[1, 2]",
        lambda key, stored: b'"text"',
        lambda key, stored: _signed(key, {"rank": 2}),
        lambda key, stored: _signed(key, [1, 2]),
        lambda key, stored: _signed(key, _with_coefficient(stored, 5)),
        lambda key, stored: _signed(key, _with_coefficient(stored, "(1)/(0)")),
        lambda key, stored: _signed(key, _with_field(stored, "terms", [])),
        lambda key, stored: _signed(key, _with_coefficient(stored, "0")),
        lambda key, stored: _signed(key, _with_field(stored, "cap", "5")),
        lambda key, stored: _signed(key, _with_field(stored, "elements", {})),
    ],
    ids=[
        "list", "string", "payload-missing-fields", "payload-list",
        "coefficient-not-text", "coefficient-zero-denominator",
        "element-no-terms", "coefficient-zero", "cap-not-int", "elements-not-list",
    ],
)
def test_malformed_cache_entry_quarantined_and_recomputed(tmp_path, capsys, rewrite):
    """An entry that is not a wrapper object, or whose verified payload is not
    a basis, is quarantined like a tampered one, and the run recomputes."""
    cache = tmp_path / "cache"
    r1, r2 = _rewrite_entry(capsys, cache, rewrite)
    assert [e["event"] for e in r2["cache_events"]] == ["quarantined", "stored"]
    assert r2["results"] == r1["results"]
    assert any(p.endswith(".quarantine") for p in os.listdir(cache))


def test_cache_entry_in_indented_layout_is_a_hit(tmp_path, capsys):
    """Entries are written compact, as the canonical bytes of the wrapper,
    and an entry in the indented layout written before is still a hit."""
    cache = tmp_path / "cache"

    def indent(key, stored):
        wrapper = json.loads(stored)
        assert stored == cli._canonical_bytes(wrapper)
        return json.dumps(wrapper, sort_keys=True, indent=1).encode()

    r1, r2 = _rewrite_entry(capsys, cache, indent)
    assert [e["event"] for e in r2["cache_events"]] == ["hit"]
    assert r2["results"] == r1["results"]


def test_cache_entry_from_other_version_is_a_miss(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ("hilbert", "--type", "A2", "--cap", "5", "--cache", str(cache))
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    code, out1 = run_cli(capsys, *argv)
    assert code == 0
    r1 = json.loads(out1)
    assert [e["event"] for e in r1["cache_events"]] == ["stored"]
    monkeypatch.undo()
    code, out2 = run_cli(capsys, *argv)
    assert code == 0
    r2 = json.loads(out2)
    assert [e["event"] for e in r2["cache_events"]] == ["stored"]
    assert r2["cache_events"][0]["key"] != r1["cache_events"][0]["key"]
    assert r2["results"] == r1["results"]
    assert len([p for p in os.listdir(cache) if p.endswith(".json")]) == 2


def test_check_module_simple(capsys):
    code, out = run_cli(
        capsys, "check-module", "--type", "A1", "--module", "simple:1"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["relations_pass"] is True
    assert results["simple"] is True


def test_schur_check_command(capsys):
    code, out = run_cli(
        capsys,
        "schur-check", "--type", "A1", "--window", "4", "--homcap", "2",
    )
    assert code == 0
    schur = json.loads(out)["results"]["schur"]
    assert schur["verdict"] == "match"
    assert schur["computed_betti"] == [1, 0, 1]


def test_koszul_check_command(capsys):
    code, out = run_cli(
        capsys,
        "koszul-check", "--type", "A1", "--window", "4", "--homcap", "2",
        "--modules", "trivial;verma:-1:floor",
    )
    assert code == 0
    rep = json.loads(out)["results"]["koszul"]
    assert rep["verdict"] == "generated"


def test_koszul_check_windows_keep_the_homcap_it_runs(capsys):
    """koszul-check reads Ext^2, so it runs at homcap 2 even when homcap 1
    is given, and its smaller window keeps that homcap: window 3 compares
    radii 2 and 3 (window 2 is a window error,
    ``test_config_error_names_field``)."""
    code, out = run_cli(
        capsys, "koszul-check", "--type", "A1", "--window", "3", "--homcap", "1"
    )
    assert code == 0
    rep = json.loads(out)["results"]["koszul"]
    assert rep["homcap"] == 2 and rep["windows"] == [2, 3]


def test_verma_floor_rebuilt_per_radius(a1, f_classical, capsys):
    """A rank-1 floor Verma reaches the floor of every window it is built
    for, whatever its highest weight."""
    for n0 in (-1, 1, 3):
        factory = parse_module_spec("verma:%d:floor" % n0, a1, f_classical)
        for radius in (4, 6):
            assert min(n for (n,) in factory(radius).support()) == -radius
    code, out = run_cli(
        capsys,
        "schur-check", "--type", "A1", "--module", "verma:1:floor",
        "--homcap", "2", "--window", "4",
    )
    assert code == 0
    schur = json.loads(out)["results"]["schur"]
    assert schur["computed_betti"] == [1, 0, 0] and all(schur["stable"])


def test_verma_floor_below_the_smaller_window_is_a_config_error(capsys):
    """verma:<n0>:floor with n0 below the floor -2 of the smaller window
    (radius 2 of windows 2/4) names the spec and that radius."""
    code = main([
        "schur-check", "--type", "A1", "--module", "verma:-9:floor",
        "--homcap", "2", "--window", "4",
    ])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    error = json.loads(captured.err)["error"]
    assert error.startswith("module:")
    assert "verma:-9:floor" in error and "radius 2" in error


@pytest.mark.parametrize(
    "argv",
    [
        ("ext", "--module", "verma:1:1"),
        ("ext", "--modules", "trivial;verma:5:2"),
        ("schur-check", "--module", "verma:1:1"),
        ("schur-check", "--module", "verma:5:2"),
        ("koszul-check", "--modules", "trivial;verma:1:1"),
        ("koszul-check", "--modules", "verma:5:2;trivial"),
    ],
)
def test_module_of_another_algebra_is_a_typed_error(capsys, argv):
    """A truncated Verma whose bottom weight sits inside the box is not a
    module of the window algebra: the run stops before stage 0 and names
    the weight and the relation, and gives no verdict."""
    code = main([*argv, "--type", "A1", "--homcap", "2", "--window", "7"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    error = json.loads(captured.err)["error"]
    assert error.startswith("WindowModuleError:") and "comm[1,1]" in error
    assert ("(0,)" if "verma:1:1" in argv[2] else "(3,)") in error


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"series": "A", "rank": 2, "cap": 4}))
    code, out = run_cli(
        capsys, "hilbert", "--config", str(cfgfile), "--cap", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["rank"] == 2
    assert report["config"]["cap"] == 5  # flag wins


def _with_config(argv, tmp_path):
    """argv with a dict in it written to a JSON file passed as --config."""
    out = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg))
            out += ["--config", str(path)]
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ("root-data", "--type", "Z2"),
        ("root-data", "--type", "A"),
        ("schur-check", "--type", "A1", "--f", "qinteger", "--q", "1"),
        ("schur-check", "--type", "A1", "--f", "qinteger", "--q", "0"),
        ("schur-check", "--type", "A1", "--f", "qinteger", "--q", "-1"),
        ("schur-check", "--type", "A1", "--q", "2"),  # classical has no q
        ("ext", "--type", "A1", "--module", "nonsense:1"),
        ("schur-check", "--type", "A1", "--window", "2", "--homcap", "4"),
        ("schur-check", "--type", "A1", "--window", "1", "--homcap", "0"),
        ("schur-check", "--type", "A1", "--window", "0", "--homcap", "0"),
        ("check-module", "--type", "A1", "--module", "simple:"),
        ("check-module", "--type", "A1", "--module", "verma:0:x"),
        ("check-module", "--type", "A1", "--module", "trivial:a"),
        ("hilbert", "--type", "A2", "--cap", "-1"),
        ("root-data", "--type", "E9"),
        ("root-data", "--type", "D1"),
        ("root-data", "--type", "F3"),
        ("schur-check", "--type", "A1", "--window", "4", "--homcap", "4"),
        ("ext", "--type", "A1", "--window", "4"),
        ("koszul-check", "--type", "A1", "--window", "3", "--homcap", "3"),
        ("schur-check", "--type", "A2", "--module", "verma:0,0:floor"),
        ("build-module", "--type", "A1", "--module", "verma:0:-1"),
        ("build-module", "--type", "A1", "--module", "trivial:0:junk"),
        ("schur-check", "--type", "A1", {"window": "6"}),
        ("schur-check", "--type", "A1", {"homcap": 2.5}),
        ("ext", "--type", "A1", {"modules": "trivial"}),
        ("schur-check", "--type", "A1", "--f", "qinteger", {"q": 0.1}),
        ("root-data", {"series": "A", "rank": True}),
        ("schur-check", "--type", "A1", "--homcap", "-1"),
    ],
)
def test_config_errors_exit_two(capsys, tmp_path, argv):
    code = main(_with_config(argv, tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


@pytest.mark.parametrize(
    "argv,field",
    [
        (("schur-check", "--type", "A1", "--window", "1", "--homcap", "0"), "window"),
        (("check-module", "--type", "A1", "--module", "verma:0:x"), "module"),
        (("hilbert", "--type", "A2", "--cap", "-1"), "cap"),
        (("root-data", "--type", "E9"), "type"),
        (("schur-check", "--type", "A1", "--window", "4", "--homcap", "4"), "window"),
        (("ext", "--type", "A1", "--window", "4"), "window"),
        (("ext", "--type", "A2", "--module", "verma:0,0:floor"), "module"),
        (("build-module", "--type", "A1", "--module", "verma:0:-1"), "module"),
        (("koszul-check", "--type", "A1", "--window", "2", "--homcap", "1"), "window"),
        (("build-module", "--type", "A1", "--module", "trivial:0:junk"), "module"),
        (("schur-check", "--type", "A1", {"window": "6"}), "window"),
        (("schur-check", "--type", "A1", {"homcap": 2.5}), "homcap"),
        (("ext", "--type", "A1", {"modules": "trivial"}), "modules"),
        (("schur-check", "--type", "A1", "--f", "qinteger", {"q": 0.1}), "q"),
        (("root-data", {"series": "A", "rank": True}), "rank"),
        (("schur-check", "--type", "A1", "--homcap", "-1"), "homcap"),
    ],
)
def test_config_error_names_field(capsys, tmp_path, argv, field):
    assert main(_with_config(argv, tmp_path)) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(field + ":")


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"series": "A", "rank": 1, "vibes": True}))
    code = main(["root-data", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert code == 2
    assert "vibes" in captured.err


def test_margin_is_not_an_option(tmp_path, capsys):
    """Each window is built by its radius alone: --margin is no flag, and a
    config file that sets a margin names it as an unknown field."""
    with pytest.raises(SystemExit) as info:
        main(["schur-check", "--type", "A1", "--margin", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    argv = _with_config(("schur-check", "--type", "A1", {"margin": 4}), tmp_path)
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "config: unknown fields ['margin']"


# sha256 of the results payload, as main serializes it, recorded in
# BENCH_13.json; ext/koszul/schur configs from its report_sha256 note, the
# last two the benchmark's quantum_sl2 and sl3_probe ops
_RESULT_DIGESTS = {
    "cli-ext-A1": (
        ("ext", "--type", "A1", "--window", "6", "--homcap", "3"),
        "a475c71e18c087ded91e84f40dffdb1d58cca7f465e6f55cff5b138ceb185cac",
    ),
    "cli-ext-A1-q32": (
        ("ext", "--type", "A1", "--f", "qinteger", "--q", "3/2", "--window", "6",
         "--homcap", "3"),
        "f02f3bd92c7ce46f1b6dc1a63738cef6314a5fef391323687600f29434ce0835",
    ),
    "cli-ext-A1-qgeneric": (
        ("ext", "--type", "A1", "--f", "qinteger", "--window", "6", "--homcap", "3"),
        "82a2cff76d62aa3326daf0f330157d922cec61c18c2ed74121e6000915aabdc7",
    ),
    "cli-koszul-A1": (
        ("koszul-check", "--type", "A1", "--window", "8", "--homcap", "2"),
        "9148e06f34b4353d5f24fcfa75c62f94c40892d91233489ddc8b45b4e6e50b6f",
    ),
    "cli-schur-A1": (
        ("schur-check", "--type", "A1", "--window", "8"),
        "57f48810297c59e702154ef520ea8b9da1ab6e2e52b90157b6eef8c16bc5a1b3",
    ),
    "quantum_sl2": (
        ("schur-check", "--type", "A1", "--f", "qinteger", "--homcap", "4",
         "--window", "8"),
        "1d2cf625bb3252376e6ae81041c0b7bf53a07e1f90d239e1430014f787d4ea62",
    ),
    "sl3_probe": (
        ("schur-check", "--type", "A2", "--f", "classical", "--homcap", "2",
         "--window", "3"),
        "c81fc28fa878a081d87b692d1595e79f60b8b85ddd199d0d68f3713153d42a13",
    ),
}


@pytest.mark.parametrize("name", sorted(_RESULT_DIGESTS))
def test_results_digest_pinned(capsys, name):
    argv, digest = _RESULT_DIGESTS[name]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    results = json.loads(out)["results"]
    text = json.dumps(results, sort_keys=True, indent=2, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the results payload of ``hilbert --type T --cap N``, run cold
# into an empty --cache, recorded in BENCH_14.json as hilbert-*
_HILBERT_DIGESTS = {
    ("A2", 5): "fac6ccf0fd4117a228173eef3d0c3377494f6b595699458ddef2d2d78565f473",
    ("A4", 10): "3fedbc73daafe3cb06b6edbd44490f885e377e7971cdc0f99c85d38adf7bbc26",
    ("B3", 10): "f36577138f2c8a4103896bfe7bedd6b57f6196d59d9d13b5ed7af4c73ef2eac7",
    ("C3", 8): "635cbfb9142e2d5d13f9e68e44b94c645c26d6d50ebe7ee0df568ae62d2638c2",
    ("G2", 14): "0541bd65dac2645fdd38038e2b8541ee05a73315c5c9f254a95b3d8017540c5e",
}


@pytest.mark.parametrize("key", sorted(_HILBERT_DIGESTS), ids=lambda key: "%s-%d" % key)
def test_hilbert_digest_pinned(capsys, tmp_path, key):
    cartan, cap = key
    code, out = run_cli(
        capsys, "hilbert", "--type", cartan, "--cap", str(cap), "--cache", str(tmp_path)
    )
    assert code == 0
    results = json.loads(out)["results"]
    text = json.dumps(results, sort_keys=True, indent=2, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == _HILBERT_DIGESTS[key]
