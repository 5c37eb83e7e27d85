"""Static checks on the package sources with the stdlib `ast` module.

Every top-level name a module defines must be read somewhere in the package
beyond its definition; an ``__all__`` entry does not count: a function that
only tests call is a second path that the package no longer needs.  No
module may import a name it does not use (``__init__`` is the package's
export list, so its imports are exempt).  Each kernel with one home is
reached only from that home: the SVD, the eigensolver, the search's stacked
eigenvalue kernel, the QR sampler, the search's Cayley solve, exact
rational arithmetic and the per-element map of scalar functions.  The
noise-floor rule and the eigensolver tolerance have one owner each.  A
function takes each matrix's singular values once.  Files are written
through one function, which only ``cli.main`` calls, after it has checked
the output path and format once; catalog, grid, schedule and
search-argument input errors are configuration errors that no module
catches, and cli catches errors only where it reads a file and in ``main``;
only ``main`` and ``run_verify``, which explain a nonzero exit on stderr,
print.  The two input rules, for reals and for integers, are called only by
the functions that use the values they check, and cli tests no integer
itself.  Every parameter default is overridden by some caller in the
package or the benchmark (an option with one value in use is a constant),
and relied on by some caller there (a default that only tests use should be
a required parameter).  The divergence schedule is built in one place.
Every annotated field of a package class is read by the package or the
benchmark, save the paper's verdict on each catalog function.
"""

import ast
from pathlib import Path

import pytest

from specshift import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "specshift"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
BENCH = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted((ROOT / "perfbench").glob("*.py"))}


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree) -> set:
    """Names read anywhere in ``tree``, as bare names or attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _top_level_definitions(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _imported_names(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


USED_IN_PACKAGE = set().union(*(_used_names(tree) for tree in MODULES.values()))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_top_level_name_is_used_or_exported(module):
    unused = [name for name in _top_level_definitions(MODULES[module])
              if name not in USED_IN_PACKAGE]
    assert unused == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = _used_names(tree) | _exported(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


#: dotted name -> the only functions (module.Class.function) that may use it
ONE_PATH = {
    "np.linalg.svd": {"hermitian.singular_values"},
    "np.linalg.eigvalsh": {"search._norms"},
    "np.linalg.eigh": {"hermitian.decompose"},
    # the polish's Cayley retractions
    "np.linalg.solve": {"search._cayley"},
    "np.linalg.qr": {"search.random_orthogonal"},
    # the one per-element map, for math functions NumPy rounds differently
    "np.fromiter": {"catalog.pointwise"},
    # one multiplicity rule per kind of block: amplified pairs, and commuting
    # levels as their witness is built (no separate fill step)
    "floor_reciprocal": {"blocks.amplify_to_unit", "sequences",
                         "sequences.make_sequence_witness"},
    # its definition, and the check that enforces it
    "_EIG_TOL": {"hermitian", "hermitian.decompose"},
}
#: name -> the only module that may use or import it
ONE_MODULE = {"Fraction": "blocks", "DEGENERATE_REL": "hermitian"}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _uses(tree, module: str) -> list:
    """(name, scope) for every bare name, dotted attribute chain and
    from-import in ``tree``; scope is the enclosing module.Class.function."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.ImportFrom):
            found.extend((a.name, scope) for a in node.names)
        name = _dotted(node)
        if name is not None:
            found.append((name, scope))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


USES = [(name, scope) for path, tree in MODULES.items()
        for name, scope in _uses(tree, path[:-3])]


@pytest.mark.parametrize("kernel", sorted(ONE_PATH))
def test_kernel_called_only_from_its_home(kernel):
    assert {scope for name, scope in USES if name == kernel} == ONE_PATH[kernel]


@pytest.mark.parametrize("name", sorted(ONE_MODULE))
def test_name_used_only_in_its_module(name):
    assert {scope.split(".")[0] for used, scope in USES if used == name} == {ONE_MODULE[name]}


def test_subnormal_quantum_written_only_in_hermitian():
    # every noise floor adds dim**2 * 2**-1022 through hermitian.noise_floor
    quantum = ast.dump(ast.parse("2.0 ** -1022", mode="eval").body)
    assert {path for path, tree in MODULES.items() for node in ast.walk(tree)
            if ast.dump(node) == quantum} == {"hermitian.py"}


def test_numpy_reached_by_module_attribute_only():
    # a ``from numpy.linalg import svd`` would hide a call from the checks above
    modules = {node.module for tree in MODULES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert not {m for m in modules if m and m.split(".")[0] in ("numpy", "scipy")}


def _scoped(tree, module: str):
    """(node, scope) for every node in ``tree``; scope is the enclosing
    module.Class.function, a definition's own name included."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, module)


def _calls(tree, module: str) -> list:
    """(callee, scope, call) for every call in ``tree``: callee is the last
    name of the called chain, scope the enclosing module.Class.function."""
    return [(name.rsplit(".", 1)[-1], scope, node) for node, scope in _scoped(tree, module)
            if isinstance(node, ast.Call) and (name := _dotted(node.func)) is not None]


CALLS = [call for path, tree in MODULES.items() for call in _calls(tree, path[:-3])]
BENCH_CALLS = [call for path, tree in BENCH.items() for call in _calls(tree, path[:-3])]


def test_no_function_takes_the_same_singular_values_twice():
    # both norms of a matrix come from one array of its singular values
    seen, repeated = set(), []
    for callee, scope, call in CALLS:
        if callee == "singular_values" and call.args:
            key = (scope, ast.dump(call.args[0]))
            if key in seen:
                repeated.append((scope, ast.unparse(call.args[0])))
            seen.add(key)
    assert repeated == []


def test_files_are_written_only_through_write_all():
    assert {scope for callee, scope, _ in CALLS if callee == "write_text"} == {"cli._write_all"}


@pytest.mark.parametrize("name", ["_write_all", "_get_output", "_get_format"])
def test_output_handled_only_in_main(name):
    assert {scope for callee, scope, _ in CALLS if callee == name} == {"cli.main"}


INPUT_ERRORS = ("BadParams", "UnknownFunction", "BadInterval", "BadSchedule",
                "BadArgument")


def test_input_errors_are_never_caught():
    # they reach cli.main, whose one ``except ConfigError`` exits 2
    caught = [(path, name) for path, tree in MODULES.items() for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in _used_names(node.type) & set(INPUT_ERRORS)]
    assert caught == []


@pytest.mark.parametrize("name", INPUT_ERRORS)
def test_input_errors_are_config_errors(name):
    assert issubclass(getattr(errors, name), errors.ConfigError)


def test_cli_catches_only_where_it_reads_a_file_and_exits():
    # every other error reaches main, which maps it to an exit code
    assert {scope for node, scope in _scoped(MODULES["cli.py"], "cli")
            if isinstance(node, ast.ExceptHandler)} == {"cli._read_json", "cli.main"}


def test_only_the_exit_code_contract_prints():
    # stderr carries the line that explains a nonzero exit, and nothing else
    assert {scope for callee, scope, _ in CALLS if callee == "print"} == {
        "cli.main", "cli.run_verify"}


#: input rule -> the only functions that call it: each config value is
#: checked by the function that uses it, and by no other
INPUT_RULES = {
    "integer_at_least": {"search.seminorm_lower_bound", "sequences.scalar_ratio_witnesses",
                         "blocks.default_delta_schedule", "blocks.build_divergent_family",
                         "loewner.restrict_to_grid", "serialize.matrix_from_json",
                         "cli.run_verify"},
    "finite_reals": {"catalog.get_function", "catalog.interval_bounds",
                     "blocks.default_delta_schedule", "serialize._entries"},
}


@pytest.mark.parametrize("rule", sorted(INPUT_RULES))
def test_input_rule_called_only_by_its_owners(rule):
    assert {scope for callee, scope, _ in CALLS if callee == rule} == INPUT_RULES[rule]


def test_cli_checks_no_integer_itself():
    # integer fields are routed to the library functions that check them
    checks = [ast.unparse(call) for callee, _, call in _calls(MODULES["cli.py"], "cli")
              if callee == "isinstance" and "int" in _used_names(call.args[1])]
    assert checks == []


def test_schedule_built_only_by_the_family():
    # the family checks its schedule before any search; nothing checks it first
    assert ({scope for callee, scope, _ in CALLS if callee == "default_delta_schedule"}
            == {"blocks.build_divergent_family"})


def _defaulted_parameters(tree) -> list:
    """(function, parameter, position) for every parameter with a default;
    position counts call arguments (a method's self is not one), and is
    None for a keyword-only parameter."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, skip = node.args, int(id(node) in methods)
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, i - skip) for i, arg in enumerate(positional)
                      if i >= first]
            found += [(node.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def _sets(call, name: str, position) -> bool:
    """True when ``call`` passes the parameter, by keyword or by position."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def test_every_default_is_overridden_by_some_caller():
    # a default that no caller in the package or the benchmark overrides is
    # an option with one value in use: it should be a constant
    unset = [(path, function, name)
             for path, tree in MODULES.items()
             for function, name, position in _defaulted_parameters(tree)
             if not any(callee == function and _sets(call, name, position)
                        for callee, _, call in CALLS + BENCH_CALLS)]
    assert unset == []


def _relies(call, name: str, position) -> bool:
    """True when ``call`` leaves the parameter to its default: it passes it
    neither by position nor by explicit keyword (a ``**kwargs`` call relies)."""
    if any(keyword.arg == name for keyword in call.keywords):
        return False
    return position is None or len(call.args) <= position


def test_every_default_is_relied_on_by_some_caller():
    # a default that every caller in the package and the benchmark overrides
    # serves only tests: the parameter should be required
    unused = [(path, function, name)
              for path, tree in MODULES.items()
              for function, name, position in _defaulted_parameters(tree)
              if not any(callee == function and _relies(call, name, position)
                         for callee, _, call in CALLS + BENCH_CALLS)]
    assert unused == []


#: (class, field) -> why the field stays although no package or benchmark
#: code reads it
UNREAD_FIELDS = {
    ("ScalarFunction", "operator_lipschitz_near_zero"):
        "the paper's verdict, which acceptance criterion 10 checks against evidence",
}


def _fields(tree) -> list:
    """(class, field) for every annotated field of a class in ``tree``."""
    return [(cls.name, node.target.id) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def test_every_field_is_read():
    """Every result field is loaded as an attribute somewhere in the package
    or the benchmark: a field that only tests read is work that no output
    needs.  The check matches by attribute name, so a field that shares its
    name with a field read elsewhere passes unread: ``RatioWitness.increment_s1``
    (beside ``SumBlock.increment_s1``) and ``TraceTransferReport.delta``
    (beside ``BlockRecord.delta``) were found and removed by hand."""
    loaded = {node.attr for tree in [*MODULES.values(), *BENCH.values()]
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [field for tree in MODULES.values() for field in _fields(tree)
              if field[1] not in loaded and field not in UNREAD_FIELDS]
    assert unread == []
