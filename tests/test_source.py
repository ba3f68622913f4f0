"""Source hygiene of src/spanv: no unused imports, no dead helpers, no
object-dtype arrays, no dense Kronecker products or identities, no
tabulated apex maps in pasting or the structures layer, no loop in the
FinSet codec, no join that loops over values, no division in whole-domain
evaluation, no identity word rebuilt outside FinSet, no enriched grid
read by index arithmetic of hopfcat's own, no groupoid law written
outside hopfcat's law rows, no cell built unchecked outside the
derivations of checked cells and no graph apex built outside pullback."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spanv"


def _modules():
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}


def _used_names(tree):
    """Every name read as a variable or as an attribute anywhere in a tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    unused = []
    for path, tree in _modules().items():
        if path.name == "__init__.py":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append("%s: %s" % (path.relative_to(SRC), bound))
    assert not unused


def test_every_private_helper_is_referenced():
    modules = _modules()
    imported = {alias.name for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # names used by each top-level statement; a helper's uses of itself
    # (recursion) do not count as references
    uses = [(path, node, _used_names(node))
            for path, tree in modules.items() for node in tree.body]
    dead = []
    for path, node, _ in uses:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if node.name in imported or any(node.name in names
                                        for _, other, names in uses if other is not node):
            continue
        dead.append("%s: %s" % (path.relative_to(SRC), node.name))
    assert not dead


def _lines_matching(pattern):
    return ["%s:%d" % (path.relative_to(SRC), number)
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_no_object_dtype_arrays():
    # every code is an int64: a Python-int array path must not come back
    assert not _lines_matching(r"dtype\s*=\s*object|astype\(\s*object\s*\)")


def test_no_dense_kronecker_products_or_identities():
    # a matrix morphism is stored by its nonzeros; a dense tensor power or
    # identity must not come back
    assert not _lines_matching(r"np\.(kron|eye)\b")


def test_pasting_and_structures_never_read_tabulated_apex_maps():
    # they compose and compare VCell2.apex_map, so a word or product map
    # stays lazy; reading VCell2.u would tabulate it
    assert not [line for line in _lines_matching(r"\.u\b")
                if line.startswith(("pasting.py", "structures/"))]


def test_every_public_name_is_referenced():
    # a public function or class that only its definition and the package
    # re-exports mention is code nothing calls
    root = SRC.parent.parent
    modules = {path: tree for path, tree in _modules().items() if path.name != "__init__.py"}
    used = set()
    for directory in ("tests", "demos"):
        for path in sorted((root / directory).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text(), str(path)))
    uses = [(node, _used_names(node)) for tree in modules.values() for node in tree.body]
    unreferenced = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in used or any(node.name in names
                                        for other, names in uses if other is not node):
                continue
            unreferenced.append("%s: %s" % (path.relative_to(SRC), node.name))
    assert not unreferenced


def test_no_direct_checker_loops_over_index_tuples():
    # a direct law runs once, on Columns over every index tuple at once
    # (hopfcat._run_laws), never in a Python loop over the tuples
    tree = ast.parse((SRC / "hopfcat.py").read_text())
    checkers = {node.name: _used_names(node) for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and (node.name.startswith("check_") or node.name.endswith("_laws"))}
    assert sorted(checkers) == ["_category_laws", "_run_laws", "check_frobenius_vcat",
                                "check_frobenius_vfunctor", "check_hopf_vcat",
                                "check_semi_hopf_vcat"]
    assert not [name for name, used in checkers.items()
                if used & {"_indices", "_entries", "_tabulate", "itertools", "product"}]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_depths(function, name=None):
    """How many loops and comprehensions enclose each call of name (of
    anything, without a name) in a function."""
    depths = []

    def walk(node, depth):
        if isinstance(node, ast.Call) and (name is None or isinstance(node.func, ast.Name)
                                           and node.func.id == name):
            depths.append(depth)
        for child in ast.iter_child_nodes(node):
            walk(child, depth + isinstance(node, _LOOPS))

    walk(function, 0)
    return depths


def _functions(path, owner=None):
    tree = ast.parse((SRC / path).read_text())
    if owner is not None:
        tree = next(node for node in tree.body if getattr(node, "name", None) == owner)
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_column_operations_make_one_call_per_operation():
    # zip_with and outer hand every distinct pair of values to fn at once
    # (a backend's batched kernel); only map calls fn once per stored value
    methods = _functions("cells.py", "Column")
    assert set(_loop_depths(methods["_pairs"], "fn")) == {0}
    assert {name for name, node in methods.items() if _loop_depths(node, "fn")} == {
        "_pairs", "map"}


def test_direct_laws_run_once_per_row():
    # each law runs once, on its grids read along words over every index
    # tuple, whose operations call the backend once per distinct pair of
    # values: the only loop around the call is the one over the rows
    assert _loop_depths(_functions("hopfcat.py")["_run_laws"], "law") == [1]


def test_grids_are_read_along_words_and_powers():
    # only finset decides where an index tuple sits in a row-major grid:
    # hopfcat reads an enriched category's grids at rearranged or mapped
    # indices as Column.along a reindexing word or a power of the object
    # map, and names an entry by FinSet.decode
    functions = _functions("hopfcat.py")
    readers = {name: functions[name] for name in (
        "_run_laws", "_functor_components", "check_frobenius_vfunctor", "vfunctor_to_spanv",
        "opposite_vcat")}
    readers["_VCat.__init__"] = _functions("hopfcat.py", "_VCat")["__init__"]
    for name, function in readers.items():
        assert not _used_names(function) & {
            "indices", "ravel_multi_index", "unique", "take", "divmod"}, name
        assert _used_names(function) & {"along", "_grid_at", "_power"}, name


def test_finset_codec_has_no_loop():
    # decode and encode are one broadcast step over the stored strides
    methods = _functions("finset.py", "FinSet")
    for name in ("decode", "encode"):
        assert set(_loop_depths(methods[name])) == {0}, name


def test_joins_loop_over_factors_never_over_values():
    # a word's fibre is read off a value's coordinates block by block, so
    # the joins loop only over factors, never nested, and no loop reads
    # the values or the pairs
    factor_names = {"_runs", "word", "dom", "axes", "zip", "f", "g", "factors", "m"}
    functions = _functions("finset.py")
    for name in ("_join", "_split_join", "_fibres", "_grid"):
        assert set(_loop_depths(functions[name])) <= {0, 1}, name
        iterated = [_used_names(node.iter) for node in ast.walk(functions[name])
                    if isinstance(node, (ast.For, ast.comprehension))]
        assert all(names <= factor_names for names in iterated), name
    assert 1 in _loop_depths(functions["_fibres"])


def _divides(function):
    """Whether a function divides, takes a remainder or calls a numpy
    function that does."""
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, (ast.FloorDiv, ast.Mod)):
            return True
    return bool(_used_names(function) & {"divmod", "remainder", "floor_divide", "fmod", "mod"})


def test_whole_domain_evaluation_never_divides():
    # a word is linear in its coordinates, so its whole table is a grid
    # of coordinate steps, and a product's values are the grid of its
    # factors' values: no point is decoded
    functions = _functions("finset.py")
    table = _functions("finset.py", "FinFn")["table"]
    for name, function in [("FinFn.table", table), ("_values", functions["_values"]),
                           ("_grid", functions["_grid"])]:
        assert not _divides(function), name
    assert _divides(functions["_fibres"]) and _divides(_functions("finset.py", "FinFn")["at"])


def test_identity_words_are_built_only_by_finset():
    # each set builds its identity word once, as FinSet.axes
    tree = ast.parse((SRC / "finset.py").read_text())
    cls = next(node for node in tree.body if getattr(node, "name", None) == "FinSet")
    inside = {"finset.py:%d" % line for line in range(cls.lineno, cls.end_lineno + 1)}
    built = _lines_matching(r"range\(len\([\w.]*shape\)\)")
    assert built and set(built) <= inside


def _names_in_loops(function):
    """Every name read inside a loop body or a comprehension's element or
    condition within a function."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.While)):
            for statement in node.body + node.orelse:
                names |= _used_names(statement)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for part in parts + [cond for gen in node.generators for cond in gen.ifs]:
                names |= _used_names(part)
    return names


def test_ends_are_checked_once_as_columns():
    # a 1-cell's components, an enriched category's field entries and a
    # functor's components meet their ends in one column check, never in a
    # loop over entries
    cells = _functions("cells.py")
    checks = {"VCell1.__init__": _functions("cells.py", "VCell1")["__init__"],
              "_VCat.__init__": _functions("hopfcat.py", "_VCat")["__init__"],
              "_functor_components": _functions("hopfcat.py")["_functor_components"]}
    for name, function in checks.items():
        assert _loop_depths(function, "first_wrong_end"), name
        assert not _names_in_loops(function) & {"eq_obj", "dom", "cod"}, name
    callers = [line for line in _lines_matching(r"\bfirst_wrong_end\(")
               if not line.startswith("cells.py:%d" % cells["first_wrong_end"].lineno)]
    assert len(callers) == len(checks)
    assert {"eq_obj", "dom", "cod"} <= _used_names(cells["first_wrong_end"])


def _called_names(tree):
    """The name of every function or method a tree calls, once per call."""
    return [getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_groupoid_laws_are_written_only_as_law_rows():
    # GroupoidData checks its boundaries and decides the laws with
    # check_hopf_vcat: one pullback, for its composable pairs, and no
    # position lookup, so no composable triple is formed outside hopfcat's
    # law rows
    tree = ast.parse((SRC / "hopfcat.py").read_text())
    groupoid = next(node for node in tree.body if getattr(node, "name", None) == "GroupoidData")
    called = _called_names(groupoid)
    assert called.count("pullback") == 1 and "check_hopf_vcat" in called
    assert "position_of" not in _used_names(groupoid)
    # the unchecked path builds only the library's own groupoids
    callers = {node.name for tree in _modules().values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and "_of_tables" in _called_names(node)}
    assert callers == {"codiscrete_groupoid", "cyclic_group_groupoid", "discrete_groupoid"}


def test_only_derivations_build_cells_unchecked():
    # a cell is checked where it enters, by the public VCell1 or by
    # make_2cell; the private constructors build only what holds by
    # construction from checked cells, and only VCell2._of marks a 2-cell
    builders = {"VCell1": set(), "VCell2": set()}
    marks = []
    for tree in _modules().values():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Attribute) and node.attr == "_of"
                        and getattr(node.value, "id", None) in builders):
                    builders[node.value.id].add(function.name)
                if (isinstance(node, ast.Attribute) and node.attr == "_checked"
                        and isinstance(node.ctx, ast.Store)):
                    marks.append(function.name)
    assert builders == {
        "VCell1": {"identity_cell", "compose_cells", "tensor_cells", "braiding_cell"},
        "VCell2": {"make_2cell", "identity_2cell", "hcompose_2cells", "tensor_2cells",
                   "invert_2cell", "vcompose_2cells", "_canonical_iso_ex", "paste",
                   "find_2cells", "find_unique_2cell"},
    }
    assert marks == ["_of"]


def test_only_pullback_builds_a_graph_apex():
    # a graph apex stores its table and no member codes, so its rows are
    # right only because pullback builds it along a bijection
    builders = {function.name for tree in _modules().values() for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and "_of_graph" in _used_names(function)}
    assert builders == {"pullback"}
