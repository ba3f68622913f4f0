"""The benchmark's per-layer tracer still fits the library.

perfbench/tracing.py wraps spanv functions by their module paths and the
backend methods in each backend class's own body.  A refactor that moves
one of them breaks the benchmark; this test catches that in the suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import spanv.cli
import spanv.structures
from spanv.vbackend import FinSetBackend, MatBackend, TrivialBackend

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every spanv module and backend class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "spanv" or name.startswith("spanv.")):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (TrivialBackend, FinSetBackend, MatBackend):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_installs_counts_and_restores():
    data = json.loads((ROOT / "fixtures" / "x2-hopf.json").read_text())
    before = _bindings()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert spanv.cells.compose_cells is not before[("spanv.cells", "compose_cells")]
        _, (bim, _) = spanv.cli.load_structure(data)
        report = spanv.structures.check_oplax_bimonoid(bim)
    finally:
        tracer.remove()
    assert report.ok
    functions = tracer.summary()["functions"]
    assert functions["cells.compose_cells"]["calls"] > 0
    assert functions["structures.check_oplax_bimonoid"]["calls"] == 1
    after = _bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_the_tracer_sees_every_checker_that_run_checks_calls():
    # run_checks reaches each checker through the cli module's globals, so
    # the tracer's wrappers count one call per structure checked
    x2 = json.loads((ROOT / "fixtures" / "x2-hopf.json").read_text())
    mat = json.loads((ROOT / "fixtures" / "mat-frobenius.json").read_text())
    _, groupoid = spanv.cli._demo_groupoid(2)
    files = [x2, dict(x2, kind="bimonoid"), dict(x2, kind="frobenius"), groupoid,
             dict(groupoid, s=None), mat]
    structures = [spanv.cli.load_structure(data) for data in files]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        for kind, structure in structures:
            spanv.cli.run_checks(kind, structure)
    finally:
        tracer.remove()
    calls = {key: rec["calls"] for key, rec in tracer.summary()["functions"].items()}
    assert {key: calls[key] for key in (
        "cli.run_checks", "structures.check_oplax_bimonoid", "structures.check_oplax_hopf",
        "structures.check_frobenius", "hopfcat.check_hopf_vcat", "hopfcat.check_semi_hopf_vcat",
        "hopfcat.check_frobenius_vcat")} == {
        "cli.run_checks": 6, "structures.check_oplax_bimonoid": 2,
        "structures.check_oplax_hopf": 1, "structures.check_frobenius": 1,
        "hopfcat.check_hopf_vcat": 1, "hopfcat.check_semi_hopf_vcat": 2,
        "hopfcat.check_frobenius_vcat": 1}
