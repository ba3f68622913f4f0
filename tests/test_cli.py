"""Structure files, reports, exit codes and the shipped fixtures."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanv.cli import SCHEMA_VERSION, cmd_check, cmd_demo, load_structure, main, run_checks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMOS = Path(__file__).resolve().parent.parent / "demos"
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
    for stem, mangle in (
        ("x2-hopf", lambda d: d.update(schema_version=99)),
        ("x2-hopf", lambda d: d.update(kind="mystery")),
        ("x2-hopf", lambda d: d.pop("mlt")),
        ("x2-hopf", lambda d: d["cells"].update(theta=d["cells"]["theta"][:-1])),
        ("x2-hopf", lambda d: d["backend"].update(kind="unknown")),
        ("x2-hopf", lambda d: d["mlt"]["apex"].update(size=float("inf"))),
        # numbers that are not JSON integers are refused, not truncated
        ("mat-frobenius", lambda d: d.update(objects=2.9)),
        ("x2-hopf", lambda d: d["mlt"].update(f=[v + 0.5 for v in d["mlt"]["f"]])),
        ("x2-hopf", lambda d: d["cells"]["theta"].__setitem__(
            d["cells"]["theta"].index(1), True)),
    ):
        data = json.loads((FIXTURES / ("%s.json" % stem)).read_text())
        mangle(data)
        path = tmp_path / "mangled.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2


def test_a_kind_that_is_not_a_name_exits_2_naming_it(tmp_path, capsys):
    data = json.loads((FIXTURES / "x2-hopf.json").read_text())
    for kind, shown in (([1], "[1]"), ({"a": 1}, "{'a': 1}"), (None, "None"), (2, "2")):
        data["kind"] = kind
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "schema error: unknown kind %s\n" % shown


def _env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _spanv_check(path, *python_flags):
    return subprocess.run([sys.executable, *python_flags, "-m", "spanv.cli", "check", str(path)],
                          capture_output=True, text=True, env=_env(), timeout=60)


def _with_backend(tmp_path, field, value):
    data = json.loads((FIXTURES / "mat-frobenius.json").read_text())
    data["backend"][field] = value
    path = tmp_path / ("%s-%s.json" % (field, value))
    path.write_text(json.dumps(data))
    return path


def test_malformed_backend_exits_2_without_traceback(tmp_path):
    # 2**61 - 1 is prime but past the cap, and is refused before any
    # trial division (which would take minutes)
    for field, value in (("prime", 4), ("prime", "x"), ("prime", 2**61 - 1),
                         ("prime", float("inf")), ("boolean", "no"), ("boolean", 1)):
        run = _spanv_check(_with_backend(tmp_path, field, value))
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert field in run.stderr


def test_oversized_structure_exits_2_without_traceback(tmp_path):
    data = json.loads((FIXTURES / "x2-hopf.json").read_text())
    data["carrier"]["base"] = [10000000]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    run = _spanv_check(path)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "too large" in run.stderr


def _x2_with(tmp_path, name, mangle):
    data = json.loads((FIXTURES / "x2-hopf.json").read_text())
    mangle(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _bridged_hopf_file(tmp_path, name, mangle):
    """The FinSet-enriched codiscrete groupoid on 2 objects, bridged to a hopf file."""
    from spanv.cli import _bimonoid_block_to_json, _document
    from spanv.hopfcat import codiscrete_groupoid, groupoid_to_hopfcat, hopfcat_to_spanv

    bim, anti = hopfcat_to_spanv(groupoid_to_hopfcat(codiscrete_groupoid(2)))
    data = _document("hopf", bim.monoid.carrier.backend, _bimonoid_block_to_json(bim, anti))
    mangle(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_exit_codes_hold_under_python_O(tmp_path):
    # python -O strips asserts, so input checks must not rely on them
    paths = [FIXTURES / ("%s.json" % stem)
             for stem in ("x2-hopf", "mat-frobenius", "corrupted-theta0")]
    paths += [_with_backend(tmp_path, "prime", prime) for prime in (4, "x")]
    for path, want in zip(paths, (0, 0, 1, 2, 2)):
        run = _spanv_check(path, "-O")
        assert run.returncode == want, (path.name, run.stderr)
        assert "Traceback" not in run.stderr
    # a leg value outside its codomain and a negative apex size are named
    # by the same message with and without -O
    bad_leg = _x2_with(tmp_path, "bad-leg.json",
                       lambda d: d["mlt"].update(f=[99] + d["mlt"]["f"][1:]))
    bad_size = _x2_with(tmp_path, "bad-size.json", lambda d: d["mlt"]["apex"].update(size=-1))
    short_carrier = _bridged_hopf_file(tmp_path, "short-carrier.json",
                                       lambda d: d["carrier"]["objs"].pop())
    for path, named in ((bad_leg, "99"), (bad_size, "-1"),
                        (short_carrier, "3 objects for a base of 4")):
        plain, optimised = _spanv_check(path), _spanv_check(path, "-O")
        assert plain.returncode == optimised.returncode == 2, (path.name, plain.stderr)
        assert "Traceback" not in optimised.stderr
        assert named in plain.stderr
        assert plain.stderr == optimised.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_unwritable_outputs_exit_2_with_one_line(tmp_path, flags):
    # a demo or report directory that does not exist is named, not a traceback
    missing = tmp_path / "missing"
    for args, path in ((["demo", "x2", "--out", str(missing)], missing / "x2-hopf.json"),
                       (["check", str(FIXTURES / "x2-hopf.json"), "--quiet",
                         "--report", str(missing / "r.json")], missing / "r.json")):
        run = subprocess.run([sys.executable, *flags, "-m", "spanv.cli", *args],
                             capture_output=True, text=True, env=_env(), timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stderr == "error: cannot write %s: No such file or directory\n" % path
    assert not missing.exists()


def test_negative_object_count_is_refused_by_name(tmp_path):
    data = json.loads((FIXTURES / "mat-frobenius.json").read_text())
    data["objects"] = -1
    path = tmp_path / "negative-objects.json"
    path.write_text(json.dumps(data))
    plain, optimised = _spanv_check(path), _spanv_check(path, "-O")
    assert plain.returncode == optimised.returncode == 2, plain.stderr
    assert "Traceback" not in plain.stderr + optimised.stderr
    assert "field 'objects' must be a non-negative integer, got -1" in plain.stderr
    assert plain.stderr == optimised.stderr


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d["homs"].pop(), "field 'homs': expected 2 entries, got 1"),
    (lambda d: d["homs"][-1].pop(), "field 'homs' at [1]: expected 2 entries, got 1"),
    (lambda d: d["comlt"][-1][-1].pop(), "field 'comlt' at [1][1]: expected 2 entries, got 1"),
    (lambda d: d["comlt"].__setitem__(0, {}), "field 'comlt' at [0]: expected 2 entries, got dict"),
], ids=["homs-row", "homs-entry", "comlt-entry", "comlt-type"])
def test_short_grid_is_named_by_field_and_index(tmp_path, mangle, message):
    data = json.loads((FIXTURES / "mat-frobenius.json").read_text())
    mangle(data)
    path = tmp_path / "short-grid.json"
    path.write_text(json.dumps(data))
    plain, optimised = _spanv_check(path), _spanv_check(path, "-O")
    assert plain.returncode == optimised.returncode == 2, plain.stderr
    assert "Traceback" not in plain.stderr + optimised.stderr
    assert message in plain.stderr
    assert plain.stderr == optimised.stderr


def _set_entry(field, index, key, value):
    def mangle(data):
        entry = data[field]
        for i in index:
            entry = entry[i]
        entry[key] = value
    return mangle


@pytest.mark.parametrize("mangle, message", [
    (_set_entry("m", (0, 0, 0), "dom", -1), "field 'dom' must be a non-negative integer, got -1"),
    (_set_entry("m", (1, 0, 1), "dom", -2), "field 'dom' must be a non-negative integer, got -2"),
    (_set_entry("comlt", (1, 1, 0), "cod", -1), "field 'cod' must be a non-negative integer, got -1"),
    (_set_entry("m", (0, 0, 0), "data", []), "field 'data' has 0 entries, expected dom * cod = 1"),
    (_set_entry("u", (1,), "data", [1, 0, 0]), "field 'data' has 3 entries, expected dom * cod = 4"),
], ids=["dom-minus-1", "dom-minus-2", "cod-minus-1", "data-empty", "data-short"])
def test_matrix_shape_is_validated_by_name(tmp_path, mangle, message):
    # numpy's reshape would infer a negative axis, and names no field
    data = json.loads((FIXTURES / "mat-frobenius.json").read_text())
    mangle(data)
    path = tmp_path / "bad-matrix.json"
    path.write_text(json.dumps(data))
    plain, optimised = _spanv_check(path), _spanv_check(path, "-O")
    assert plain.returncode == optimised.returncode == 2, plain.stderr
    assert "Traceback" not in plain.stderr + optimised.stderr
    assert message in plain.stderr
    assert plain.stderr == optimised.stderr


def _json_paths(value, path=()):
    """The path of every value nested in parsed JSON, the root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


# sizes stay small or are 2**62 and up, which no allocation can satisfy, so
# no mangle allocates much memory
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.sampled_from([2**62, 2**63, 2**64, -2**63 - 1]), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(-2, 5), max_size=4), st.just({}))


@functools.lru_cache(maxsize=None)
def _fuzz_sources():
    """The shipped fixtures, plus two demo files, written once: a
    groupoid enriched in finite sets and a group algebra over Z/3."""
    texts = {stem: (FIXTURES / ("%s.json" % stem)).read_text()
             for stem in ("x2-hopf", "mat-frobenius", "corrupted-theta0")}
    with tempfile.TemporaryDirectory() as tmp:
        for name, params in (("groupoid", {"objects": 2}), ("group-hopf", {"group": "z2"})):
            path, _ = cmd_demo(name, out_dir=tmp, **params)
            texts[name] = Path(path).read_text()
    return texts


@st.composite
def _mangled_fixture(draw):
    """A shipped fixture or demo file with one value deleted or replaced."""
    texts = _fuzz_sources()
    data = json.loads(texts[draw(st.sampled_from(sorted(texts)))])
    path = draw(st.sampled_from(list(_json_paths(data))[1:]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON_VALUES)
    return json.dumps(data)


@settings(max_examples=60, deadline=None)
@given(_mangled_fixture())
def test_mangled_fixtures_exit_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mangled.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", path, "--quiet", "--report", os.path.join(tmp, "r.json")])
    assert code in (0, 1, 2)


@settings(max_examples=3, deadline=None)
@given(_mangled_fixture())
def test_mangled_fixtures_behave_the_same_under_python_O(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mangled.json"
        path.write_text(text)
        plain, optimised = _spanv_check(path), _spanv_check(path, "-O")
    assert plain.returncode in (0, 1, 2) and "Traceback" not in plain.stderr
    assert (optimised.returncode, optimised.stdout, optimised.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_reports_match_goldens(tmp_path):
    for stem in ("x2-hopf", "mat-frobenius", "corrupted-theta0", "group-hopf",
                 "groupoid-hopfcat"):
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
    for group in ("z²", "z" + "9" * 5000):
        assert main(["demo", "group-hopf", "--group", group, "--out", str(tmp_path)]) == 2
    assert main(["demo", "x2", "--size", "3", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_bad_demo_values_and_deep_nesting_exit_2_with_one_line(tmp_path, flags):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    for args, line in ((["demo", "group-hopf", "--p", "4"], "error: modulus 4 is not a prime\n"),
                       (["demo", "mat", "--p", "9"], "error: modulus 9 is not a prime\n"),
                       (["check", str(nested)], "parse error: maximum recursion depth")):
        if args[0] == "demo":
            args += ["--out", str(tmp_path)]
        run = subprocess.run([sys.executable, *flags, "-m", "spanv.cli", *args],
                             capture_output=True, text=True, env=_env(), timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(line) and run.stderr.count("\n") == 1, run.stderr
        assert run.stdout == ""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_a_demo_failing_its_own_check_exits_2_with_one_line(tmp_path, flags):
    # the check is an error, not an assert that python -O would strip
    script = ("import sys\n"
              "from spanv import cli\n"
              "cli.cmd_check = lambda *args, **kwargs: 1\n"
              "sys.exit(cli.main(['demo', 'x2', '--out', sys.argv[1]]))\n")
    run = subprocess.run([sys.executable, *flags, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, env=_env(), timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stderr == "error: generated structure %s failed its own checks\n" % (
        tmp_path / "x2-hopf.json")
    assert run.stdout == ""


def test_python_m_spanv_runs_the_command_line(tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text((FIXTURES / "x2-hopf.json").read_text()[:100])
    runs = [subprocess.run([sys.executable, "-m", "spanv", "check", str(path)],
                           capture_output=True, text=True, env=_env(), timeout=60)
            for path in (FIXTURES / "x2-hopf.json", truncated)]
    assert [run.returncode for run in runs] == [0, 2]
    assert runs[1].stderr.startswith("parse error:") and runs[1].stderr.count("\n") == 1
    same = _spanv_check(FIXTURES / "x2-hopf.json")
    assert (runs[0].stdout, runs[0].stderr) == (same.stdout, same.stderr)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["x2", "groupoid", "group-hopf", "mat"]), st.integers(0, 100),
       st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6),
       st.one_of(st.text(max_size=4),
                 st.builds("{}{}".format, st.sampled_from("zZq"), st.integers(-1, 6))))
def test_demo_exits_0_or_2(name, p, size, objects, max_n, group):
    # a traceback would be an exception escaping main, which fails the test
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["demo", name, "--out", tmp, "--p=%d" % p, "--size=%d" % size,
                     "--objects=%d" % objects, "--max-n=%d" % max_n, "--group=%s" % group])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")


def test_check_prints_to_the_current_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(FIXTURES / "mat-frobenius.json")]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 9 and lines[-1] == "all 8 checks passed"


def test_demo_fixture_files_are_in_sync(tmp_path):
    # the shipped fixtures are exactly what the demos generate today
    cmd_demo("x2", out_dir=str(tmp_path))
    cmd_demo("mat", out_dir=str(tmp_path))
    cmd_demo("group-hopf", out_dir=str(tmp_path), p=3, group="z4")
    cmd_demo("groupoid", out_dir=str(tmp_path), objects=3)
    for stem in ("x2-hopf", "mat-frobenius", "group-hopf", "groupoid-hopfcat"):
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


def _pair_module_and_morphism_files(tmp_path):
    """A regular module and an identity bimonoid morphism on pairs of 2."""
    from spanv.cli import _bimonoid_block_to_json, _document, _fam_to_json, _span_cell_to_json
    from spanv.hopfcat import codiscrete_groupoid, groupoid_structures
    from spanv.cells import identity_cell
    from spanv.pasting import canonical_cell_iso
    from spanv.structures import morphism_boundaries, regular_module
    from spanv.vbackend import TrivialBackend

    mon, _, _, bim, _, _ = groupoid_structures(codiscrete_groupoid(2))
    mod = regular_module(mon)
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(_document("module", TrivialBackend(), {
        "monoid": {"carrier": _fam_to_json(mon.carrier),
                   "mlt": _span_cell_to_json(mon.mlt),
                   "uni": _span_cell_to_json(mon.uni)},
        "module": {"carrier": _fam_to_json(mod.carrier),
                   "rho": _span_cell_to_json(mod.rho),
                   "xi": [int(v) for v in mod.xi.u],
                   "xi0": [int(v) for v in mod.xi0.u]}})))

    f = identity_cell(bim.monoid.carrier)
    bounds = morphism_boundaries(bim, bim, f)
    cells = {name: canonical_cell_iso(*pair) for name, pair in bounds.items()}
    morphism_file = tmp_path / "morphism.json"
    morphism_file.write_text(json.dumps(_document("morphism", TrivialBackend(), {
        "source": _bimonoid_block_to_json(bim),
        "target": _bimonoid_block_to_json(bim),
        "f": _span_cell_to_json(f),
        "phi": [int(v) for v in cells["phi"].u],
        "phi0": [int(v) for v in cells["phi0"].u],
        "psi": [int(v) for v in cells["psi"].u],
        "psi0": [int(v) for v in cells["psi0"].u]})))
    return module_file, morphism_file


def test_module_and_morphism_files(tmp_path):
    module_file, morphism_file = _pair_module_and_morphism_files(tmp_path)
    assert main(["check", str(module_file), "--quiet"]) == 0
    assert main(["check", str(morphism_file), "--quiet"]) == 0
    # corrupt one mediating cell: the checker must fail, not crash
    data = json.loads(morphism_file.read_text())
    data["phi"][0] = (data["phi"][0] + 1) % 8
    morphism_file.write_text(json.dumps(data))
    assert main(["check", str(morphism_file), "--quiet"]) == 1


def _failures(tmp_path, path, corrupt):
    """Check a copy of path with one apex map entry moved; failed id -> record."""
    data = json.loads(path.read_text())
    corrupt(data)
    copy, report_path = tmp_path / "corrupted.json", tmp_path / "report.json"
    copy.write_text(json.dumps(data))
    assert main(["check", str(copy), "--quiet", "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    return {r["id"]: r for r in report["results"] if r["status"] == "fail"}


def _move_first(cells, name):
    cells[name][0] = (cells[name][0] + 1) % 8


def test_invalid_cells_fail_exactly_the_axioms_that_use_them(tmp_path):
    module_file, morphism_file = _pair_module_and_morphism_files(tmp_path)
    note = "left leg disagrees at apex element 0"
    failed = _failures(tmp_path, module_file, lambda d: _move_first(d["module"], "xi"))
    assert sorted(failed) == ["module-assoc", "module-unit"]
    for record in failed.values():
        assert record["counterexample"] == {"invalid": "xi", "element": [0, 0, 0, 0]}
        assert record["note"] == note
    failed = _failures(tmp_path, module_file, lambda d: _move_first(d["module"], "xi0"))
    assert list(failed) == ["module-unit"]
    assert failed["module-unit"]["counterexample"] == {"invalid": "xi0", "element": [0, 0, 0, 0]}
    assert failed["module-unit"]["note"] == note
    # psi appears in the comonoid laws and in the two comultiplication squares
    failed = _failures(tmp_path, morphism_file, lambda d: _move_first(d, "psi"))
    assert list(failed) == ["comonoid-coassoc", "comonoid-counit-left",
                            "comonoid-counit-right", "mult-comult", "unit-comult"]
    for record in failed.values():
        assert record["counterexample"] == {"invalid": "psi", "element": [0, 0, 0]}
        assert record["note"] == note


def test_bridged_hopf_structure_survives_the_file_format():
    # the loader and the bridge build each generator on the same boundary
    from spanv.cli import _bimonoid_block_to_json, _document
    from spanv.hopfcat import group_algebra_hopf, hopfcat_to_spanv

    bim, anti = hopfcat_to_spanv(group_algebra_hopf(3, 2))
    data = _document("hopf", bim.monoid.carrier.backend, _bimonoid_block_to_json(bim, anti))
    kind, structure = load_structure(json.loads(json.dumps(data)))
    loaded = run_checks(kind, structure).results
    bridged = run_checks("hopf", (bim, anti)).results
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in bridged]
    assert len(loaded) == 22 and all(r.ok for r in loaded)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    run = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                         capture_output=True, text=True, env=_env(), timeout=120)
    assert run.returncode == 0, run.stderr


def test_null_comultiplication_exits_2_without_traceback(tmp_path):
    path = tmp_path / "null-delta.json"
    cmd_demo("groupoid", out_dir=str(tmp_path))
    data = json.loads((tmp_path / "groupoid-hopfcat.json").read_text())
    data["delta"] = None
    path.write_text(json.dumps(data))
    run = _spanv_check(path)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr


def _finset_frobcat(n):
    """A FinSet-enriched category with a cocomposition on the codiscrete
    groupoid's homs; only its data matters here, not its laws."""
    from spanv.finset import UNIT, FinFn
    from spanv.hopfcat import FrobVCat, codiscrete_groupoid, groupoid_to_hopfcat

    h = groupoid_to_hopfcat(codiscrete_groupoid(n))
    t = h.backend.tensor_obj
    comlt = [[[FinFn(h.homs[x][z], t(h.homs[x][y], h.homs[y][z]), [0]) for z in range(n)]
              for y in range(n)] for x in range(n)]
    couni = [FinFn(h.homs[x][x], UNIT, [0]) for x in range(n)]
    return FrobVCat(h.backend, h.objects, h.homs, h.m, h.u, comlt, couni)


def test_enriched_category_files_round_trip():
    from spanv.cli import _document, _vcat_to_json
    from spanv.finset import FinSet
    from spanv.hopfcat import (FrobVCat, HopfVCat, codiscrete_groupoid, cyclic_group_groupoid,
                               group_algebra_hopf, groupoid_to_hopfcat, hopfcat_data_equal,
                               mat_frobenius_example)
    from spanv.vbackend import MatBackend

    def without_s(h):
        return HopfVCat(h.backend, h.objects, h.homs, h.m, h.u, h.delta, h.eps)

    finset = groupoid_to_hopfcat(codiscrete_groupoid(2))
    cyclic = groupoid_to_hopfcat(cyclic_group_groupoid(3))
    zp = group_algebra_hopf(3, 3)
    for kind, v in (("hopfcat", finset), ("hopfcat", without_s(finset)),
                    ("hopfcat", cyclic), ("hopfcat", zp), ("hopfcat", without_s(zp)),
                    ("frobcat", _finset_frobcat(2)), ("frobcat", mat_frobenius_example(3, 2)),
                    ("frobcat", FrobVCat(MatBackend(prime=3), FinSet((0,)), [], [], [], [], []))):
        data = _document(kind, v.backend, _vcat_to_json(v))
        loaded_kind, loaded = load_structure(json.loads(json.dumps(data)))
        assert loaded_kind == kind
        assert hopfcat_data_equal(loaded, v), (kind, v)
