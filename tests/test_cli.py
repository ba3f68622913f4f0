"""Structure files, reports, exit codes and the shipped fixtures."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spanv.cli import SCHEMA_VERSION, cmd_check, cmd_demo, load_structure, main, run_checks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def _normalised(raw):
    return _STAMP.sub(b'"generated_at": null', raw)


def test_fixture_x2_passes():
    assert main(["check", str(FIXTURES / "x2-hopf.json"), "--quiet"]) == 0


def test_fixture_mat_passes():
    assert main(["check", str(FIXTURES / "mat-frobenius.json"), "--quiet"]) == 0


def test_fixture_corrupted_fails_with_named_axiom(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["check", str(FIXTURES / "corrupted-theta0.json"),
                 "--quiet", "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    failed = {r["id"]: r for r in report["results"] if r["status"] == "fail"}
    assert "ax2a" in failed
    # decoded apex pair (unit-side element, copy-side element)
    assert failed["ax2a"]["counterexample"]["element"] == [0, 0]
    assert report["summary"]["failed"] == len(failed)
    assert report["summary"]["ok"] is False


def test_parse_and_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    data = json.loads((FIXTURES / "x2-hopf.json").read_text())
    for mangle in (
        lambda d: d.update(schema_version=99),
        lambda d: d.update(kind="mystery"),
        lambda d: d.pop("mlt"),
        lambda d: d["cells"].update(theta=d["cells"]["theta"][:-1]),
        lambda d: d["backend"].update(kind="unknown"),
        lambda d: d["mlt"]["apex"].update(size=float("inf")),
    ):
        copy = json.loads(json.dumps(data))
        mangle(copy)
        path = tmp_path / "mangled.json"
        path.write_text(json.dumps(copy))
        assert main(["check", str(path)]) == 2


def _spanv_check(path, *python_flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *python_flags, "-m", "spanv.cli", "check", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)


def _with_prime(tmp_path, prime):
    data = json.loads((FIXTURES / "mat-frobenius.json").read_text())
    data["backend"]["prime"] = prime
    path = tmp_path / ("prime-%s.json" % prime)
    path.write_text(json.dumps(data))
    return path


def test_malformed_backend_exits_2_without_traceback(tmp_path):
    # 2**61 - 1 is prime but past the cap, and is refused before any
    # trial division (which would take minutes)
    for prime in (4, "x", 2**61 - 1, float("inf")):
        run = _spanv_check(_with_prime(tmp_path, prime))
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert "prime" in run.stderr


def test_oversized_structure_exits_2_without_traceback(tmp_path):
    data = json.loads((FIXTURES / "x2-hopf.json").read_text())
    data["carrier"]["base"] = [10000000]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    run = _spanv_check(path)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "too large" in run.stderr


def test_exit_codes_hold_under_python_O(tmp_path):
    # python -O strips asserts, so input checks must not rely on them
    paths = [FIXTURES / ("%s.json" % stem)
             for stem in ("x2-hopf", "mat-frobenius", "corrupted-theta0")]
    paths += [_with_prime(tmp_path, prime) for prime in (4, "x")]
    for path, want in zip(paths, (0, 0, 1, 2, 2)):
        run = _spanv_check(path, "-O")
        assert run.returncode == want, (path.name, run.stderr)
        assert "Traceback" not in run.stderr


def test_reports_match_goldens(tmp_path):
    for stem in ("x2-hopf", "mat-frobenius", "corrupted-theta0"):
        report_path = tmp_path / ("%s-report.json" % stem)
        main(["check", str(FIXTURES / ("%s.json" % stem)),
              "--quiet", "--report", str(report_path)])
        fresh = _normalised(report_path.read_bytes())
        golden = _normalised((GOLDEN / ("%s-report.json" % stem)).read_bytes())
        assert fresh == golden, stem


def test_report_digest_and_determinism(tmp_path):
    source = FIXTURES / "x2-hopf.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["check", str(source), "--quiet", "--report", str(r1)])
    main(["check", str(source), "--quiet", "--report", str(r2)])
    assert _normalised(r1.read_bytes()) == _normalised(r2.read_bytes())
    report = json.loads(r1.read_text())
    want = "sha256:%s" % hashlib.sha256(source.read_bytes()).hexdigest()
    assert report["input_digest"] == want
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == "hopf"


def test_demo_writes_structure_and_report(tmp_path):
    for name, stem in (("x2", "x2-hopf"), ("groupoid", "groupoid-hopfcat"),
                       ("group-hopf", "group-hopf"), ("mat", "mat-frobenius")):
        assert main(["demo", name, "--out", str(tmp_path)]) == 0
        structure = tmp_path / ("%s.json" % stem)
        report = tmp_path / ("%s-report.json" % stem)
        assert structure.exists() and report.exists()
        assert json.loads(report.read_text())["summary"]["ok"] is True
        assert cmd_check(str(structure), quiet=True) == 0


def test_demo_bounds(tmp_path):
    assert main(["demo", "x2", "--size", "5", "--out", str(tmp_path)]) == 2
    assert main(["demo", "group-hopf", "--group", "z9", "--out", str(tmp_path)]) == 2
    assert main(["demo", "group-hopf", "--group", "q7", "--out", str(tmp_path)]) == 2
    assert main(["demo", "mat", "--p", "101", "--out", str(tmp_path)]) == 2
    assert main(["demo", "x2", "--size", "3", "--out", str(tmp_path)]) == 0


def test_demo_fixture_files_are_in_sync(tmp_path):
    # the shipped fixtures are exactly what the demos generate today
    cmd_demo("x2", out_dir=str(tmp_path))
    cmd_demo("mat", out_dir=str(tmp_path))
    for stem in ("x2-hopf", "mat-frobenius"):
        assert ((tmp_path / ("%s.json" % stem)).read_bytes()
                == (FIXTURES / ("%s.json" % stem)).read_bytes()), stem


def test_all_kinds_load_and_check(tmp_path):
    # every documented kind has a loadable representation
    built = json.loads((FIXTURES / "x2-hopf.json").read_text())
    kind, structure = load_structure(built)
    assert kind == "hopf" and run_checks(kind, structure).ok
    as_bimonoid = dict(built, kind="bimonoid")
    as_bimonoid.pop("antipode")
    kind, structure = load_structure(as_bimonoid)
    assert kind == "bimonoid" and run_checks(kind, structure).ok
    frob = {k: v for k, v in built.items()
            if k in ("schema_version", "backend", "carrier", "mlt", "uni", "lcm", "lcu")}
    frob["kind"] = "frobenius"
    kind, structure = load_structure(frob)
    assert kind == "frobenius"
    assert not run_checks(kind, structure).ok  # diagonal comonoid is not frobenius here


def test_module_and_morphism_files(tmp_path):
    from spanv.cli import (_backend_to_json, _bimonoid_block_to_json, _fam_to_json,
                           _morphism_boundaries, _span_cell_to_json)
    from spanv.hopfcat import codiscrete_groupoid, groupoid_structures
    from spanv.cells import identity_cell
    from spanv.pasting import canonical_cell_iso
    from spanv.structures import regular_module
    from spanv.vbackend import TrivialBackend

    mon, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(2))
    mod = regular_module(mon)
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "kind": "module",
        "backend": _backend_to_json(TrivialBackend()),
        "monoid": {"carrier": _fam_to_json(mon.carrier),
                   "mlt": _span_cell_to_json(mon.mlt),
                   "uni": _span_cell_to_json(mon.uni)},
        "module": {"carrier": _fam_to_json(mod.carrier),
                   "rho": _span_cell_to_json(mod.rho),
                   "xi": [int(v) for v in mod.xi.u],
                   "xi0": [int(v) for v in mod.xi0.u]}}))
    assert main(["check", str(module_file), "--quiet"]) == 0

    f = identity_cell(bim.monoid.carrier)
    bounds = _morphism_boundaries(bim, bim, f)
    cells = {name: canonical_cell_iso(*pair) for name, pair in bounds.items()}
    morphism_file = tmp_path / "morphism.json"
    morphism_file.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "kind": "morphism",
        "backend": _backend_to_json(TrivialBackend()),
        "source": _bimonoid_block_to_json(bim),
        "target": _bimonoid_block_to_json(bim),
        "f": _span_cell_to_json(f),
        "phi": [int(v) for v in cells["phi"].u],
        "phi0": [int(v) for v in cells["phi0"].u],
        "psi": [int(v) for v in cells["psi"].u],
        "psi0": [int(v) for v in cells["psi0"].u]}))
    assert main(["check", str(morphism_file), "--quiet"]) == 0
    # corrupt one mediating cell: the checker must fail, not crash
    data = json.loads(morphism_file.read_text())
    data["phi"][0] = (data["phi"][0] + 1) % 8
    morphism_file.write_text(json.dumps(data))
    assert main(["check", str(morphism_file), "--quiet"]) == 1
