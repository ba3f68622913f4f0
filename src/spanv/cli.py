"""Command line interface: check structure files and generate demos.

A structure file is one JSON object with ``schema_version``, a ``kind``,
a ``backend`` description and row-major integer tables for everything
else.  ``check`` validates the file, runs the axiom suite for its kind
and exits 0 on success, 1 on a failed axiom, 2 on a parse or schema
problem.  ``demo`` writes ready-made structure files.
"""

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cells import VCell1, VFam, tensor_fams, try_make_2cell, unit_fam
from .errors import (
    InvalidBackend,
    OutOfBounds,
    OutputError,
    ParseError,
    SchemaError,
    SpanVError,
)
from .finset import FinFn, FinSet
from .hopfcat import (
    FIELDS,
    FrobVCat,
    HopfVCat,
    _nest,
    check_frobenius_vcat,
    check_hopf_vcat,
    check_semi_hopf_vcat,
    codiscrete_groupoid,
    group_algebra_hopf,
    groupoid_structures,
    groupoid_to_hopfcat,
    mat_frobenius_example,
)
from .span import Span
from .structures import (
    AntipodeData,
    CheckReport,
    ComonoidData,
    FrobeniusData,
    MonoidData,
    OplaxBimonoidData,
    OplaxModuleData,
    OplaxMorphismData,
    antipode_boundaries,
    check_frobenius,
    check_oplax_bimonoid,
    check_oplax_bimonoid_morphism,
    check_oplax_hopf,
    check_oplax_module,
    check_strict_monoid,
    module_boundaries,
    morphism_boundaries,
    structure_cell_boundaries,
)
from .vbackend import FinSetBackend, MatBackend, TrivialBackend

SCHEMA_VERSION = 1
MAX_OBJECTS = 4
MAX_DIM = 4
MAX_PRIME = 97


# ---------------------------------------------------------------- json codec

def _need(data, key):
    if not isinstance(data, dict) or key not in data:
        raise SchemaError("missing field %r" % key)
    return data[key]


def _json_int(value, what):
    """A JSON integer as an int.  int() runs first, so a value it rejects
    keeps int()'s message; a value it would truncate or convert (2.9,
    true, "2") is refused here instead."""
    number = int(value)
    if type(value) is not int:
        raise SchemaError("%s must be a JSON integer, got %s" % (what, json.dumps(value)))
    return number


def _int_list(values):
    if not isinstance(values, list):
        raise SchemaError("expected a list of integers, got %r" % type(values).__name__)
    try:
        table = np.asarray(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("expected a list of integers")
    for value in values:
        _json_int(value, "list entry")
    return table


def _shape(values):
    return FinSet([_json_int(v, "shape entry") for v in values])


def _backend_to_json(backend):
    if isinstance(backend, TrivialBackend):
        return {"kind": "trivial"}
    if isinstance(backend, FinSetBackend):
        return {"kind": "finset"}
    if backend.boolean:
        return {"kind": "mat", "boolean": True}
    return {"kind": "mat", "prime": int(backend.prime)}


def _backend_from_json(data):
    kind = _need(data, "kind")
    if kind == "trivial":
        return TrivialBackend()
    if kind == "finset":
        return FinSetBackend()
    if kind == "mat":
        boolean = data.get("boolean", False)
        if not isinstance(boolean, bool):
            raise SchemaError("backend field 'boolean' must be true or false, got %r"
                              % (boolean,))
        if boolean:
            return MatBackend(boolean=True)
        prime = _need(data, "prime")
        try:
            # the cap comes before MatBackend's trial division, and keeps
            # the int64 sums k * (p - 1)**2 of a matrix product far below 2**63
            if type(prime) is int and prime <= MAX_PRIME:
                return MatBackend(prime=prime)
        except InvalidBackend:
            pass
        raise SchemaError("backend field 'prime' must be a prime at most %d, got %r"
                          % (MAX_PRIME, prime))
    raise SchemaError("unknown backend kind %r" % (kind,))


def _set_to_json(s):
    # apexes are recorded by size only; legs and apex maps use positions,
    # which do not depend on how the apex was presented in memory
    return {"size": int(s.size)}


def _set_from_json(data):
    return FinSet((_json_int(_need(data, "size"), "field 'size'"),))


# the trivial backend's values carry no data: null, read back as the unit
def _obj_to_json(backend, obj):
    if isinstance(backend, MatBackend):
        return int(obj)
    if isinstance(backend, FinSetBackend):
        return list(obj.shape)
    return None


def _obj_from_json(backend, data):
    if isinstance(backend, MatBackend):
        return _json_int(data, "object")
    if isinstance(backend, FinSetBackend):
        return _shape(data)
    return backend.unit


def _mor_to_json(backend, mor):
    if isinstance(backend, MatBackend):
        return {"dom": int(mor.shape[0]), "cod": int(mor.shape[1]),
                "data": [int(v) for v in np.asarray(mor).ravel()]}
    if isinstance(backend, FinSetBackend):
        return {"dom": list(mor.dom.shape), "cod": list(mor.cod.shape),
                "table": [int(v) for v in mor.table]}
    return None


def _mor_from_json(backend, data):
    if isinstance(backend, MatBackend):
        values = _int_list(_need(data, "data"))
        dom, cod = (_json_int(_need(data, key), "field %r" % key) for key in ("dom", "cod"))
        for key, size in (("dom", dom), ("cod", cod)):
            if size < 0:
                raise SchemaError("field %r must be a non-negative integer, got %d" % (key, size))
        if values.size != dom * cod:
            raise SchemaError("field 'data' has %d entries, expected dom * cod = %d"
                              % (values.size, dom * cod))
        return backend.mor(values, dom, cod)
    if isinstance(backend, FinSetBackend):
        return FinFn(_shape(_need(data, "dom")), _shape(_need(data, "cod")),
                     _int_list(_need(data, "table")))
    return backend.id(backend.unit)


def _column_to_json(backend, column, encode):
    """One entry per column entry; null when the backend's values carry no data."""
    if _obj_to_json(backend, backend.unit) is None:
        return None
    return list(column.map(lambda v: encode(backend, v)))


def _fam_to_json(fam):
    return {"base": list(fam.base.shape),
            "objs": _column_to_json(fam.backend, fam.objs, _obj_to_json)}


def _fam_from_json(backend, data):
    objs = _need(data, "objs")
    if objs is not None:
        objs = [_obj_from_json(backend, o) for o in objs]
    return VFam(backend, _shape(_need(data, "base")), objs)


def _span_cell_to_json(cell):
    return {"apex": _set_to_json(cell.span.apex),
            "f": [int(v) for v in cell.span.f.table],
            "g": [int(v) for v in cell.span.g.table],
            "alphas": _column_to_json(cell.backend, cell.alphas, _mor_to_json)}


def _span_cell_from_json(data, dom_fam, cod_fam):
    backend = dom_fam.backend
    apex = _set_from_json(_need(data, "apex"))
    span = Span(dom_fam.base, apex, cod_fam.base,
                FinFn(apex, dom_fam.base, _int_list(_need(data, "f"))),
                FinFn(apex, cod_fam.base, _int_list(_need(data, "g"))))
    raw = _need(data, "alphas")
    if raw is not None:
        if not isinstance(raw, list) or len(raw) != apex.size:
            raise SchemaError("alphas must list one morphism per apex element")
        raw = [_mor_from_json(backend, a) for a in raw]
    return VCell1(dom_fam, cod_fam, span, raw)


def _u_from_json(data, src_cell, tgt_cell):
    u = _int_list(data)
    if u.shape != (src_cell.span.apex.size,):
        raise SchemaError("apex map has length %d, expected %d"
                          % (u.size, src_cell.span.apex.size))
    return try_make_2cell(src_cell, tgt_cell, u)


def _cells_from_json(block, bounds):
    """Read each generator's apex map and validate it against its boundary."""
    return {name: _u_from_json(_need(block, name), *pair) for name, pair in bounds.items()}


def _bimonoid_block_to_json(bim, antipode=None):
    out = {
        "carrier": _fam_to_json(bim.monoid.carrier),
        "mlt": _span_cell_to_json(bim.monoid.mlt),
        "uni": _span_cell_to_json(bim.monoid.uni),
        "lcm": _span_cell_to_json(bim.comonoid.lcm),
        "lcu": _span_cell_to_json(bim.comonoid.lcu),
        "cells": {
            "theta": [int(v) for v in bim.theta.u],
            "theta0": [int(v) for v in bim.theta0.u],
            "chi": [int(v) for v in bim.chi.u],
            "chi0": [int(v) for v in bim.chi0.u],
        },
    }
    if antipode is not None:
        out["antipode"] = {
            "s": _span_cell_to_json(antipode.s),
            "tau1": [int(v) for v in antipode.tau1.u],
            "tau2": [int(v) for v in antipode.tau2.u],
        }
    return out


def _monoid_from_json(backend, data):
    carrier = _fam_from_json(backend, _need(data, "carrier"))
    return MonoidData(carrier,
                      _span_cell_from_json(_need(data, "mlt"),
                                           tensor_fams(carrier, carrier), carrier),
                      _span_cell_from_json(_need(data, "uni"), unit_fam(backend), carrier))


def _monoid_and_comonoid_from_json(backend, data):
    monoid = _monoid_from_json(backend, data)
    carrier = monoid.carrier
    lcm = _span_cell_from_json(_need(data, "lcm"), carrier, tensor_fams(carrier, carrier))
    lcu = _span_cell_from_json(_need(data, "lcu"), carrier, unit_fam(backend))
    return monoid, ComonoidData(carrier, lcm, lcu)


def _bimonoid_block_from_json(backend, data, with_antipode):
    monoid, comonoid = _monoid_and_comonoid_from_json(backend, data)
    bim = OplaxBimonoidData(monoid, comonoid, **_cells_from_json(
        _need(data, "cells"), structure_cell_boundaries(monoid, comonoid)))
    if not with_antipode:
        return bim, None
    anti = _need(data, "antipode")
    s = _span_cell_from_json(_need(anti, "s"), monoid.carrier, monoid.carrier)
    return bim, AntipodeData(s, **_cells_from_json(anti, antipode_boundaries(bim, s)))


def _grid(data, n, depth, loader, field, path=()):
    """A depth-deep nested list with n entries per object axis; an error
    names the field and the index path of the list that is wrong."""
    if not isinstance(data, list) or len(data) != n:
        at = " at " + "".join("[%d]" % i for i in path) if path else ""
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise SchemaError("field %r%s: expected %d entries, got %s" % (field, at, n, got))
    if depth == 1:
        return [loader(v) for v in data]
    return [_grid(v, n, depth - 1, loader, field, path + (i,)) for i, v in enumerate(data)]


def _vcat_to_json(v):
    backend, n, grids = v.backend, v.n, v.columns
    out = {"objects": n, "homs": _nest(grids["H"].map(lambda o: _obj_to_json(backend, o)), n, 2)}
    for name in v.fields:
        out[name] = None if name not in grids else _nest(
            grids[name].map(lambda f: _mor_to_json(backend, f)), n, FIELDS[name][0])
    return out


def _vcat_from_json(cls, backend, data):
    n = _json_int(_need(data, "objects"), "field 'objects'")
    if n < 0:
        raise SchemaError("field 'objects' must be a non-negative integer, got %d" % n)
    homs = _grid(_need(data, "homs"), n, 2, lambda v: _obj_from_json(backend, v), "homs")
    tables = [None if name in cls.optional and data.get(name) is None
              else _grid(_need(data, name), n, FIELDS[name][0],
                         lambda v: _mor_from_json(backend, v), name)
              for name in cls.fields]
    return cls(backend, FinSet((n,)), homs, *tables)


def _module_from_json(backend, data):
    monoid = _monoid_from_json(backend, _need(data, "monoid"))
    modblock = _need(data, "module")
    mod_carrier = _fam_from_json(backend, _need(modblock, "carrier"))
    rho = _span_cell_from_json(_need(modblock, "rho"),
                               tensor_fams(mod_carrier, monoid.carrier), mod_carrier)
    cells = _cells_from_json(modblock, module_boundaries(monoid, mod_carrier, rho))
    return monoid, OplaxModuleData(mod_carrier, rho, **cells)


def _morphism_from_json(backend, data):
    bim_a, _ = _bimonoid_block_from_json(backend, _need(data, "source"), False)
    bim_b, _ = _bimonoid_block_from_json(backend, _need(data, "target"), False)
    f = _span_cell_from_json(_need(data, "f"), bim_a.monoid.carrier, bim_b.monoid.carrier)
    cells = _cells_from_json(data, morphism_boundaries(bim_a, bim_b, f))
    return bim_a, bim_b, OplaxMorphismData(f, **cells)


# kind -> (load from the backend and the JSON object, check); each call looks
# the checkers up as module globals, so wrappers set on this module see them
_KINDS = {
    "bimonoid": (lambda backend, data: _bimonoid_block_from_json(backend, data, False),
                 lambda s: check_oplax_bimonoid(s[0])),
    "hopf": (lambda backend, data: _bimonoid_block_from_json(backend, data, True),
             lambda s: CheckReport(check_oplax_bimonoid(s[0]).results
                                   + check_oplax_hopf(*s).results)),
    "frobenius": (lambda backend, data: FrobeniusData(*_monoid_and_comonoid_from_json(
        backend, data)), lambda s: check_frobenius(s)),
    "hopfcat": (lambda backend, data: _vcat_from_json(HopfVCat, backend, data),
                lambda s: (check_semi_hopf_vcat if s.s is None else check_hopf_vcat)(s)),
    "frobcat": (lambda backend, data: _vcat_from_json(FrobVCat, backend, data),
                lambda s: check_frobenius_vcat(s)),
    "module": (_module_from_json, lambda s: CheckReport(check_strict_monoid(s[0]).results
                                                        + check_oplax_module(*s).results)),
    "morphism": (_morphism_from_json, lambda s: check_oplax_bimonoid_morphism(*s)),
}


def load_structure(data):
    """Parsed JSON -> (kind, checkable structure)."""
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    version = _need(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("unsupported schema_version %r" % (version,))
    kind = _need(data, "kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError("unknown kind %r" % (kind,))
    try:
        return kind, _KINDS[kind][0](_backend_from_json(_need(data, "backend")), data)
    except SchemaError:
        raise
    except (SpanVError, AssertionError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise SchemaError("invalid %s data: %s" % (kind, err))
    except MemoryError:
        raise SchemaError("structure too large to load")


def run_checks(kind, structure):
    return _KINDS[kind][1](structure)


# ------------------------------------------------------------------- reports

def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return str(value) if not isinstance(value, (str, float, type(None))) else value


def build_report(kind, report, raw_bytes):
    failed = sum(1 for r in report.results if not r.ok)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "spanv %s" % __version__,
        "kind": kind,
        "input_digest": "sha256:%s" % hashlib.sha256(raw_bytes).hexdigest(),
        "generated_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "results": [_plain(r.as_dict()) for r in report.results],
        "summary": {"total": len(report.results), "failed": failed,
                    "ok": failed == 0},
    }


def _dump_json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise OutputError("cannot write %s: %s" % (path, err.strerror or err)) from None


def cmd_check(path, report_path=None, quiet=False):
    """Check one structure file; returns the process exit code."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    try:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
            raise ParseError(str(err))
        kind, structure = load_structure(data)
        report = run_checks(kind, structure)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except SchemaError as err:
        print("schema error: %s" % err, file=sys.stderr)
        return 2
    if not quiet:
        for line in report.lines():
            print(line)
        failed = sum(1 for r in report.results if not r.ok)
        if failed:
            print("FAILED %d of %d checks" % (failed, len(report.results)))
        else:
            print("all %d checks passed" % len(report.results))
    if report_path:
        try:
            _write_text(report_path, _dump_json(build_report(kind, report, raw)))
        except OutputError as err:
            print("error: %s" % err, file=sys.stderr)
            return 2
    return 0 if report.ok else 1


# --------------------------------------------------------------------- demos

def _document(kind, backend, body):
    """A structure file of the given kind: the header, then body's fields."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "backend": _backend_to_json(backend), **body}


def _demo_x2(size):
    if not 1 <= size <= MAX_OBJECTS:
        raise OutOfBounds("size must be between 1 and %d" % MAX_OBJECTS)
    _, _, _, bim, anti, _ = groupoid_structures(codiscrete_groupoid(size))
    return "x2-hopf.json", _document("hopf", TrivialBackend(), _bimonoid_block_to_json(bim, anti))


def _demo_groupoid(objects):
    if not 1 <= objects <= MAX_OBJECTS:
        raise OutOfBounds("objects must be between 1 and %d" % MAX_OBJECTS)
    h = groupoid_to_hopfcat(codiscrete_groupoid(objects))
    return "groupoid-hopfcat.json", _document("hopfcat", h.backend, _vcat_to_json(h))


def _demo_group_hopf(p, group):
    if not 2 <= p <= MAX_PRIME:
        raise OutOfBounds("p must be a prime at most %d" % MAX_PRIME)
    if not (isinstance(group, str) and group[:1] in "zZ" and group[1:].isdecimal()):
        raise SchemaError("group must look like z2, z3, ...")
    try:
        order = int(group[1:])
    except ValueError:  # more digits than int() converts: out of range as well
        order = 0
    if not 1 <= order <= MAX_DIM:
        raise OutOfBounds("group order must be between 1 and %d" % MAX_DIM)
    h = group_algebra_hopf(p, order)
    return "group-hopf.json", _document("hopfcat", h.backend, _vcat_to_json(h))


def _demo_mat(p, max_n):
    if not 2 <= p <= MAX_PRIME:
        raise OutOfBounds("p must be a prime at most %d" % MAX_PRIME)
    if not 1 <= max_n <= MAX_DIM:
        raise OutOfBounds("max-n must be between 1 and %d" % MAX_DIM)
    fc = mat_frobenius_example(p, max_n)
    return "mat-frobenius.json", _document("frobcat", fc.backend, _vcat_to_json(fc))


def cmd_demo(name, out_dir=".", **params):
    """Write one demo structure file and its report; returns both paths."""
    builders = {
        "x2": lambda: _demo_x2(params.get("size", 2)),
        "groupoid": lambda: _demo_groupoid(params.get("objects", 2)),
        "group-hopf": lambda: _demo_group_hopf(params.get("p", 3),
                                               params.get("group", "z2")),
        "mat": lambda: _demo_mat(params.get("p", 3), params.get("max_n", 2)),
    }
    if name not in builders:
        raise SchemaError("unknown demo %r" % (name,))
    filename, data = builders[name]()
    path = os.path.join(out_dir, filename)
    _write_text(path, _dump_json(data))
    report_path = os.path.join(out_dir, filename[:-len(".json")] + "-report.json")
    if cmd_check(path, report_path=report_path, quiet=True) != 0:
        raise OutputError("generated structure %s failed its own checks" % path)
    return path, report_path


# ---------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spanv", description="check enriched-span structure files")
    sub = parser.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="run the axiom suite for one file")
    chk.add_argument("file")
    chk.add_argument("--report", default=None, help="write a JSON report here")
    chk.add_argument("--quiet", action="store_true")
    dem = sub.add_parser("demo", help="write a ready-made structure file")
    dem.add_argument("name", choices=("x2", "groupoid", "group-hopf", "mat"))
    dem.add_argument("--out", default=".", help="output directory")
    dem.add_argument("--size", type=int, default=2, help="objects for the x2 demo")
    dem.add_argument("--objects", type=int, default=2, help="objects for the groupoid demo")
    dem.add_argument("--p", type=int, default=3, help="prime modulus")
    dem.add_argument("--group", default="z2", help="cyclic group, e.g. z2 or z3")
    dem.add_argument("--max-n", type=int, default=2, dest="max_n",
                     help="largest matrix size for the mat demo")
    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args.file, report_path=args.report, quiet=args.quiet)
    try:
        path, report_path = cmd_demo(
            args.name, out_dir=args.out, size=args.size, objects=args.objects,
            p=args.p, group=args.group, max_n=args.max_n)
    except SpanVError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    print(path)
    print(report_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
