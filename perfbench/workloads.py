"""The benchmark's workloads: instances, seeded mutants and known answers.

Every instance either follows from a theorem (a groupoid is a Hopf
structure in spans, a group algebra is a Hopf algebra, matrices form a
Frobenius enriched category) and must pass, or is a seeded mutant that
breaks a law by construction and must be rejected.  No answer is taken
from the checker under test.

Library functions are always looked up on the ``spanv`` package at call
time, so that the tracer's wrappers see the calls made from here.
"""

import hashlib
import json
import os
import re

import numpy as np

import spanv

CLI = "cli-files"

TRACEBACK = "Traceback (most recent call last)"


class Verdict:
    """One decision on one instance by one route.

    ``run`` returns the list of axiom results; ``expect`` is a predicate
    on that list that encodes the known answer; ``route`` is "direct"
    (the enriched-category checkers) or "span" (bridge plus span-layer
    checkers).
    """

    def __init__(self, name, route, run, expect):
        self.name = name
        self.route = route
        self.run = run
        self.expect = expect


def passes(results):
    return bool(results) and all(r.ok for r in results)


def _failed(results):
    return {r.name for r in results if not r.ok}


def rejects(*names):
    """Rejected, and each named law is among the failures."""
    def expect(results):
        return not passes(results) and set(names) <= _failed(results)
    return expect


def rejects_exactly(*names):
    """Rejected by exactly the named laws."""
    def expect(results):
        return _failed(results) == set(names)
    return expect


def rejects_invalid(cell):
    """Rejected because the named structure cell is not a valid 2-cell."""
    def expect(results):
        return not passes(results) and any(
            not r.ok and isinstance(r.counterexample, dict)
            and r.counterexample.get("invalid") == cell for r in results)
    return expect


def _bridge_hopf(h):
    bim, anti = spanv.hopfcat_to_spanv(h)
    return (spanv.check_oplax_bimonoid(bim).results
            + spanv.check_oplax_hopf(bim, anti).results)


def _bridge_frobenius(fc):
    return spanv.check_frobenius(spanv.frobcat_to_spanv(fc)).results


def _with(h, **fields):
    """A copy of a HopfVCat with some tables replaced."""
    data = dict(backend=h.backend, objects=h.objects, homs=h.homs, m=h.m, u=h.u,
                delta=h.delta, eps=h.eps, s=h.s)
    data.update(fields)
    return spanv.HopfVCat(**data)


def _injective(table):
    return np.unique(table).size == table.size


# ------------------------------------------------------------- span-trivial

def build_span_trivial(rng, n=7):
    """Codiscrete groupoid on n objects, trivial backend, span layer only.

    The mutant moves one entry of theta's apex map.  theta's target span
    has an injective leg, so its apex map is forced by the legs and any
    other map breaks a leg triangle: the mutant is not a 2-cell and every
    axiom that uses theta must fail.
    """
    _, _, _, bim, anti, frob = spanv.groupoid_structures(spanv.codiscrete_groupoid(n))
    theta = bim.theta
    tgt = theta.tgt.span
    if not (_injective(tgt.f.table) or _injective(tgt.g.table)):
        raise RuntimeError("theta's target has no injective leg; the mutant is not forced")
    u = theta.u.copy()
    s = rng.randrange(u.size)
    u[s] = (u[s] + 1 + rng.randrange(tgt.apex.size - 1)) % tgt.apex.size
    bad_theta = spanv.try_make_2cell(theta.src, theta.tgt, u)
    mutant = spanv.OplaxBimonoidData(bim.monoid, bim.comonoid, bad_theta,
                                     bim.theta0, bim.chi, bim.chi0)
    label = "codiscrete groupoid n=%d" % n
    return [
        Verdict(label + " hopf", "span",
                lambda: (spanv.check_oplax_bimonoid(bim).results
                         + spanv.check_oplax_hopf(bim, anti).results), passes),
        Verdict(label + " frobenius", "span",
                lambda: spanv.check_frobenius(frob).results, passes),
        Verdict(label + " theta mutant", "span",
                lambda: spanv.check_oplax_bimonoid(mutant).results,
                rejects_invalid("theta")),
    ]


# ------------------------------------------------------------- span-finset

def build_span_finset(rng, n=3, order=5):
    """Codiscrete groupoid on n objects enriched in finite sets, by both
    routes, and a cyclic group whose antipode has one entry moved.

    In a group the inverse is unique, so s(g) != g^-1 breaks both
    antipode laws and nothing else; through the bridge the antipode's
    convolution cells stop being 2-cells.
    """
    h = spanv.groupoid_to_hopfcat(spanv.codiscrete_groupoid(n))
    z = spanv.groupoid_to_hopfcat(spanv.cyclic_group_groupoid(order))
    s = z.s[0][0]
    table = s.table.copy()
    g = rng.randrange(order)
    table[g] = (table[g] + 1 + rng.randrange(order - 1)) % order
    mutant = _with(z, s=[[spanv.FinFn(s.dom, s.cod, table)]])
    label = "codiscrete groupoid n=%d in FinSet" % n
    zlabel = "Z/%d antipode mutant" % order
    return [
        Verdict(label, "direct", lambda: spanv.check_hopf_vcat(h).results, passes),
        Verdict(label, "span", lambda: _bridge_hopf(h), passes),
        Verdict(zlabel, "direct", lambda: spanv.check_hopf_vcat(mutant).results,
                rejects_exactly("antipode-left", "antipode-right")),
        Verdict(zlabel, "span", lambda: _bridge_hopf(mutant),
                rejects_exactly("antipode-cells")),
    ]


# ------------------------------------------------------------------ mat-zp

def build_mat_zp(rng, p=3, order=6, max_n=3, mutant_order=4):
    """Matrices over Z/p: a group algebra (a Hopf algebra) and the
    rectangular-matrix Frobenius category, each by both routes, and a
    smaller group algebra whose unit is moved to another basis element,
    which is no unit for the group product."""
    ga = spanv.group_algebra_hopf(p, order)
    fc = spanv.mat_frobenius_example(p, max_n)
    small = spanv.group_algebra_hopf(p, mutant_order)
    unit = np.zeros((1, mutant_order), dtype=np.int64)
    unit[0, 1 + rng.randrange(mutant_order - 1)] = 1
    mutant = _with(small, u=[unit])
    ga_label = "group algebra Z/%d over Z/%d" % (order, p)
    fc_label = "matrix Frobenius category n<=%d over Z/%d" % (max_n, p)
    mu_label = "Z/%d group algebra unit mutant" % mutant_order
    return [
        Verdict(ga_label, "direct", lambda: spanv.check_hopf_vcat(ga).results, passes),
        Verdict(ga_label, "span", lambda: _bridge_hopf(ga), passes),
        Verdict(fc_label, "direct", lambda: spanv.check_frobenius_vcat(fc).results, passes),
        Verdict(fc_label, "span", lambda: _bridge_frobenius(fc), passes),
        Verdict(mu_label, "direct", lambda: spanv.check_hopf_vcat(mutant).results,
                rejects("cat-unit-left", "cat-unit-right")),
        Verdict(mu_label, "span", lambda: _bridge_hopf(mutant),
                rejects("mon-unit-l", "mon-unit-r")),
    ]


BUILDERS = {
    "span-trivial": build_span_trivial,
    "span-finset": build_span_finset,
    "mat-zp": build_mat_zp,
}


def build(name, rng):
    return BUILDERS[name](rng)


# --------------------------------------------------------------- cli-files

class CliCase:
    """One structure file and the documented outcome of checking it."""

    def __init__(self, name, path, exit_code, golden=None):
        self.name = name
        self.path = path
        self.exit_code = exit_code
        self.golden = golden


DEMOS = (
    ("x2", {"size": 4}),
    ("groupoid", {"objects": 4}),
    ("group-hopf", {"group": "z4"}),
    ("mat", {"max_n": 3}),
)
FIXTURES = (("x2-hopf", 0), ("mat-frobenius", 0), ("corrupted-theta0", 1))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def build_cli_files(rng, root, out_dir):
    """Write the demo and malformed files; return the cases in a seeded
    order.  Demo files are built from theorems, so they must pass; the
    malformed files must be refused with exit code 2."""
    from spanv.cli import cmd_demo

    valid = [CliCase("fixture " + stem, os.path.join(root, "fixtures", stem + ".json"),
                     code, os.path.join(root, "tests", "golden", stem + "-report.json"))
             for stem, code in FIXTURES]
    for name, params in DEMOS:
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        path, _ = cmd_demo(name, out_dir=sub, **params)
        valid.append(CliCase("demo %s %s" % (name, params), path, 0))
    malformed = []
    mat_files = [c.path for c in valid if json.loads(_read(c.path))["backend"]["kind"] == "mat"]
    base = mat_files[rng.randrange(len(mat_files))]
    for label, prime in (("prime-4", 4), ("prime-x", "x")):
        data = json.loads(_read(base))
        data["backend"]["prime"] = prime
        path = os.path.join(out_dir, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        malformed.append(CliCase("malformed %s of %s" % (label, os.path.basename(base)), path, 2))
    source = valid[rng.randrange(len(valid))].path
    raw = _read(source)
    # any proper prefix that drops the closing brace is invalid JSON
    cut = 1 + rng.randrange(len(raw.rstrip()) - 1)
    path = os.path.join(out_dir, "truncated.json")
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    malformed.append(CliCase("malformed truncated %s at byte %d" % (os.path.basename(source), cut),
                             path, 2))
    cases = valid + malformed
    rng.shuffle(cases)
    return cases


_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def judge_cli(case, exit_code, stderr, report_path):
    """Classify one CLI run: "ok", "crash" (a traceback or an exit code
    outside 0/1/2) or "wrong" (a clean run with the wrong outcome)."""
    if TRACEBACK in stderr or exit_code not in (0, 1, 2):
        return "crash"
    if exit_code != case.exit_code:
        return "wrong"
    if exit_code == 2:
        return "ok"
    raw = _read(report_path)
    if case.golden is not None:
        return "ok" if _STAMP.sub(b"", raw) == _STAMP.sub(b"", _read(case.golden)) else "wrong"
    report = json.loads(raw)
    digest = "sha256:" + hashlib.sha256(_read(case.path)).hexdigest()
    summary = report["summary"]
    good = (report["input_digest"] == digest and summary["ok"] is True
            and summary["failed"] == 0 and summary["total"] > 0)
    return "ok" if good else "wrong"
