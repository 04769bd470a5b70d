"""Module boundaries.

No module imports a private name from a sibling: a name with a leading
underscore is internal to the module that defines it, and a sibling that
needs it should call the public entry point instead.

No evaluator takes a config: zeta's Euler-Maclaurin length, Bernoulli
order and pole exclusion radius are module constants, and no function of
zeta or of the layers above it takes or imports a config.

The CLI is the only module that writes files: no other module imports csv
or calls open.  It is also the only one that decides the JSON format: no
other module imports json.

The Weyl action lives in roots: WeylElement.act_coords acts on coordinates,
and no other module rebuilds it from the images of the fundamental weights.

The shifted integrand m(w, lam) Phi(lam) Phi*(-w lam) is built in one
function of parseval: no other function there forms the starred profile,
and parseval reaches ratio_L only through m_on_grid.  Two functions read
it: the rank-generic plane terms, one path for GL(2) and GL(3), and the
residue lines, which serve the plane's pole correction and both kappa
pickups of measure_constants.

intertwine reaches ratio_L by two routes: _stacked_ratios, the one
stacked call of an m_on_grid call on all of its points and rows, and
_sum_ratio, for each outer sum on two axes.  A third caller would add
kernel passes to an m_on_grid call, and each pass costs a fixed number of
numpy calls whatever its size, which on a few points is its whole cost.

The residue checks read m through m_on_grid: intertwine.cocycle_check,
intertwine.unitarity_check, gl3.transverse_residue and
gl3.symmetry_residual call no ratio_L themselves, so that each public call
stays one stacked pass of the one evaluator of m.

Circle nodes, the 2^-53 sizing of trapezoid rules and the pole factor
1/expm1(2 pi d / h) of a trapezoid sum live in contour: no other module
forms circle nodes, spells out 53 log 2 or calls expm1 on a multiple of
pi, and contour imports nothing from eisenspec, so every layer, zeta
included, can use it.

Every quotient of L values goes through zeta.ratio_L, which takes both
factors in one kernel pass: outside zeta, no module divides one
completed_L (or _completed_L_raw) value by another.  Which points of a
ratio_L call share a value is decided there too: outside zeta no module
reverses an array, and intertwine transposes none, so no caller reads one
ratio_L value as another's mirror or transpose.

zeta forms no BLAS product: no @, dot, matmul, tensordot, inner or vdot,
and no einsum with optimize, which may hand its contraction to BLAS.  A
BLAS product large enough to start a thread pool leaves threads spinning
between ratio_L calls.

Every gate of a CLI check is named in cli.TOLERANCES: each report.add
passes as its tolerance either a TOLERANCES[...] lookup or the literal 0,
for a check that must hold exactly.  A bound computed at the check, or a
name bound to a gate, is refused.

Every default has a caller: a defaulted parameter that only tests set is a
constant, not an argument.  The knob count, defaulted def parameters plus
@dataclass fields, is at most 48.

Every top-level def and class of the package, and every method and
property of its classes (dunders aside), is reached, by name, from
cli.main, from the module-level code of the package (its imports and
__all__ aside) or from the benchmark's modules: a definition that only
tests reach is a test oracle, and lives in the tests.

Each name has one home, its submodule: the package's __init__ holds its
docstring and __version__ and imports nothing, so eisenspec.zeta is the
module, and importing the package loads neither a submodule nor numpy.

The library provides every name the benchmark reads: each name that a
benchmark module imports from an eisenspec module or reads as an attribute
of one, and each layer.function that the tracer times.

No module reads the environment: a switch read from os.environ or
os.getenv would be a knob that the knob count does not see.

The package depends on numpy alone: no module imports scipy, and
pyproject.toml's dependencies name numpy only.  The special functions the
checks need, K_nu and the incomplete Gamma, are rules of truncation.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import eisenspec

SRC = Path(eisenspec.__file__).parent


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("eisenspec"):
            continue
        hits += [f"{path.name}:{node.lineno} imports {alias.name} from "
                 f"{'.' * node.level}{module}"
                 for alias in node.names if alias.name.startswith("_")]
    return hits


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [hit for path in modules for hit in _private_imports(path)] == []


def test_no_evaluator_takes_a_config():
    hits = []
    for name in ("zeta", "intertwine", "gl3", "parseval", "truncation"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                hits += [f"{path.name}:{node.lineno} {node.name} takes config"
                         for a in args.posonlyargs + args.args + args.kwonlyargs
                         if a.arg == "config"]
            elif isinstance(node, ast.ImportFrom):
                hits += [f"{path.name}:{node.lineno} imports EvaluatorConfig"
                         for alias in node.names
                         if alias.name == "EvaluatorConfig"]
    assert hits == []


def test_no_module_reads_the_environment():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "environ", "environb", "getenv", "getenvb"):
                hits.append(f"{path.name}:{node.lineno} reads os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hits += [f"{path.name}:{node.lineno} imports {alias.name}"
                         for alias in node.names
                         if alias.name in ("environ", "environb", "getenv",
                                           "getenvb", "*")]
    assert hits == []


def test_the_package_depends_on_numpy_alone():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} imports {name}"
                     for name in names if name.split(".")[0] == "scipy"]
    assert hits == []
    # the [project] table's dependency list, one quoted requirement each
    pyproject = (Path(__file__).resolve().parents[1]
                 / "pyproject.toml").read_text()
    deps, = re.findall(r"^dependencies = \[(.*?)\]", pyproject,
                       re.MULTILINE | re.DOTALL)
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group()
            for dep in re.findall(r'"([^"]+)"', deps)] == ["numpy"]


def _called_name(node: ast.Call) -> str | None:
    """The name a call is made through: f(...) or obj.f(...) give f."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(
        func, "attr", None)


def test_only_the_cli_writes_files():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                hits += [f"{path.name}:{node.lineno} imports csv"
                         for alias in node.names if alias.name == "csv"]
            elif isinstance(node, ast.Call) and _called_name(node) == "open":
                hits.append(f"{path.name}:{node.lineno} calls open")
    assert hits == []


def test_only_the_cli_writes_json():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                hits += [f"{path.name}:{node.lineno} imports json"
                         for alias in node.names if alias.name == "json"]
    assert hits == []


def test_weyl_action_lives_in_roots():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "roots.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and _called_name(node) == "act"
                    and any(isinstance(arg, ast.Call)
                            and _called_name(arg) == "fundamental_weight"
                            for arg in node.args)):
                hits.append(f"{path.name}:{node.lineno} acts on a "
                            "fundamental weight")
    assert hits == []


def test_shifted_integrand_is_built_once():
    path = SRC / "parseval.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    builders = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(call, ast.Call)
                        and _called_name(call) == "star"
                        for call in ast.walk(node))}
    assert builders == {"_shifted_integrand"}
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.alias))
            and getattr(node, "id", getattr(node, "name", None)) == "ratio_L"
            ] == []


def test_shifted_integrand_has_two_readers():
    # the rank-generic plane terms of the shifted integral and of A, one
    # path for GL(2) and GL(3), and the residue lines of the plane's pole
    # correction and of the kappa pickups: a per-rank copy of the shifted
    # integral, or a residue route of its own, would be a third
    path = SRC / "parseval.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = sorted(fn.name for fn in tree.body
                     if isinstance(fn, ast.FunctionDef)
                     and any(isinstance(call, ast.Call)
                             and _called_name(call) == "_shifted_integrand"
                             for call in ast.walk(fn)))
    assert callers == ["_plane_terms", "_residue_line"]


def _reached(tree: ast.Module, name: str, stop: str) -> set[str]:
    """The names that the module-level function name calls or passes as an
    argument, following every module-level function it calls (a table's
    build included) but not stop, the evaluator itself."""
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo = set(), [name]
    while todo:
        for call in ast.walk(fns[todo.pop()]):
            if not isinstance(call, ast.Call):
                continue
            called = _called_name(call)
            passed = {arg.id for arg in call.args if isinstance(arg, ast.Name)}
            if called in fns and called != stop and called not in reached:
                todo.append(called)
            reached |= {called} | passed
    return reached


def test_residue_checks_read_m_through_m_on_grid():
    found = {}
    for module, names in (("intertwine", ("cocycle_check", "unitarity_check")),
                          ("gl3", ("transverse_residue",
                                   "symmetry_residual"))):
        path = SRC / f"{module}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update({name: _reached(tree, name, "m_on_grid")
                      for name in names})
    # each check reaches m_on_grid, directly or as the evaluator of its
    # table, and neither it nor a helper or table it reads calls ratio_L
    assert [name for name, reached in found.items()
            if "ratio_L" in reached or "m_on_grid" not in reached] == []
    assert {"_weyl_table", "_circle_table"} <= set().union(*found.values())


def test_intertwine_calls_ratio_L_in_two_functions():
    path = SRC / "intertwine.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = sorted(fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     and any(isinstance(node, ast.Name)
                             and node.id == "ratio_L"
                             for node in ast.walk(fn)))
    assert callers == ["_stacked_ratios", "_sum_ratio"]


def _spells_out_53_bits(tree: ast.AST) -> list[int]:
    """Lines of tree that multiply or divide 53 by log(2), in either order."""
    def is_53(node):
        return isinstance(node, ast.Constant) and node.value == 53

    def is_log2(node):
        return (isinstance(node, ast.Call) and _called_name(node) == "log"
                and len(node.args) == 1 and isinstance(node.args[0],
                                                       ast.Constant)
                and node.args[0].value == 2)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and ((is_53(node.left) and is_log2(node.right))
                 or (is_log2(node.left) and is_53(node.right)))]


def _spells_out_pole_factor(tree: ast.AST) -> list[int]:
    """Lines of tree that call expm1 on an expression holding pi."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "expm1"
            and any(getattr(sub, "id", getattr(sub, "attr", None)) == "pi"
                    for arg in node.args for sub in ast.walk(arg))]


def test_contour_rules_live_in_contour():
    others = [path for path in sorted(SRC.glob("*.py"))
              if path.name != "contour.py"]
    node_callers = [f"{path.name}:{node.lineno}" for path in others
                    for node in ast.walk(ast.parse(path.read_text(),
                                                   filename=str(path)))
                    if isinstance(node, ast.Call)
                    and _called_name(node) == "circle_nodes"]
    assert node_callers == []
    sizings = [f"{path.name}:{line}" for path in others
               for line in _spells_out_53_bits(ast.parse(path.read_text()))]
    assert sizings == []
    assert sorted(_spells_out_53_bits(ast.parse(
        "x = 2.0 * math.pi * 0.45 / (53.0 * math.log(2.0))\n"
        "y = np.log(2) * 53"))) == [1, 2]
    factors = [f"{path.name}:{line}" for path in others
               for line in _spells_out_pole_factor(
                   ast.parse(path.read_text()))]
    assert factors == []
    assert _spells_out_pole_factor(ast.parse(
        (SRC / "contour.py").read_text())) != []
    assert sorted(_spells_out_pole_factor(ast.parse(
        "e = 1.0 / math.expm1(2.0 * math.pi * d / h)\n"
        "f = np.expm1(2 * np.pi * 0.3 / 0.1)\n"
        "g = math.expm1(x)"))) == [1, 2]
    # contour sizes every rule, and imports numpy and math only
    path = SRC / "contour.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "math", "numpy"}


def _holds_L_value(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Call)
               and _called_name(sub) in ("completed_L", "_completed_L_raw")
               for sub in ast.walk(node))


def test_every_L_quotient_goes_through_ratio_L():
    hits = [f"{path.name}:{node.lineno} divides one L value by another"
            for path in sorted(SRC.glob("*.py")) if path.name != "zeta.py"
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path)))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _holds_L_value(node.left) and _holds_L_value(node.right)]
    assert hits == []


def _is_reversal(node: ast.AST) -> bool:
    """x[..., ::-1] (a slice of step -1 on any axis), np.flip, np.flipud or
    np.fliplr."""
    if isinstance(node, ast.Call):
        return _called_name(node) in ("flip", "flipud", "fliplr")
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(part, ast.Slice) and part.step is not None
               and ast.unparse(part.step) == "-1" for part in parts)


def _lines(tree: ast.AST, hit) -> list[int]:
    return sorted({node.lineno for node in ast.walk(tree) if hit(node)})


def test_only_zeta_folds_conjugate_halves():
    # no module but zeta reverses an array, and intertwine transposes
    # none: no caller reads one ratio_L value as another's mirror or
    # transpose.  zeta's pointwise pass is where conjugates are read
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert [f"{name}:{line}" for name, tree in trees.items()
            if name != "zeta.py"
            for line in _lines(tree, _is_reversal)] == []
    assert _lines(trees["intertwine.py"], lambda node: isinstance(
        node, ast.Call) and _called_name(node) == "transpose") == []
    ratio_pass, = [fn for fn in trees["zeta.py"].body
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name == "_ratio_L_pass"]
    assert _lines(ratio_pass, lambda node: isinstance(node, ast.Call)
                  and _called_name(node) in ("conj", "conjugate")) != []
    assert _lines(ast.parse(
        "a = vals[::-1]\n"
        "b = np.flip(vals, axis=-1)\n"
        "c = np.flipud(vals)\n"
        "d = np.fliplr(vals)[..., ::2]\n"
        "e = vals[::2].conj()"), _is_reversal) == [1, 2, 3, 4]


def _blas_products(tree: ast.AST) -> list[int]:
    """Lines of tree that form a product BLAS may evaluate."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult))
                   or (isinstance(node, ast.Call)
                       and (_called_name(node) in ("dot", "matmul",
                                                   "tensordot", "inner",
                                                   "vdot")
                            or (_called_name(node) == "einsum"
                                and any(k.arg == "optimize"
                                        for k in node.keywords))))})


def test_zeta_forms_no_blas_product():
    assert _blas_products(ast.parse((SRC / "zeta.py").read_text())) == []
    assert _blas_products(ast.parse(
        "a = x @ y.T\n"
        "a @= y\n"
        "b = np.dot(x, y)\n"
        "c = x.dot(y)\n"
        "d = np.einsum('in,jn->ij', x, y, optimize=True)\n"
        "e = np.tensordot(x, y, 1) + np.inner(x, y) + np.matmul(x, y)\n"
        "f = np.einsum('in,jn->ij', x, y)\n"
        "g = x * y")) == [1, 2, 3, 4, 5, 6]


def test_every_cli_gate_is_named():
    path = SRC / "cli.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and _called_name(node) == "add"
                and getattr(node.func.value, "id", None) == "report"):
            continue
        gate = node.args[5] if len(node.args) > 5 else next(
            (k.value for k in node.keywords if k.arg == "tolerance"), None)
        named = (isinstance(gate, ast.Subscript)
                 and getattr(gate.value, "id", None) == "TOLERANCES")
        exact = isinstance(gate, ast.Constant) and gate.value == 0
        if not (named or exact):
            hits.append(f"cli.py:{node.lineno} gates at {ast.unparse(gate)}")
    assert hits == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_modules() -> list[Path]:
    """The benchmark's modules, its tests aside."""
    return [path for path in sorted(PERFBENCH.glob("*.py"))
            if not path.name.startswith("test_")]


# Defaults no call in the package or the benchmark passes, each kept for a
# reason of its own.
UNCALLED_DEFAULTS = {
    "cli.main(argv)": "entry point: the console script passes no argv",
    "cli.print_table(stream)": "entry point: the CLI prints to stdout",
}


def _defaulted(path: Path):
    """(called name, position or None, parameter, label) for every
    defaulted parameter of a function in path; a method's position does not
    count self, and __init__ is called through its class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {id(fn): cls for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = classes.get(id(fn))
        pos = fn.args.posonlyargs + fn.args.args
        first = 1 if cls and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list) else 0
        called = cls.name if fn.name == "__init__" else fn.name
        skip = len(pos) - len(fn.args.defaults)
        params = [(k - first, arg) for k, arg in enumerate(pos[skip:], skip)]
        params += [(None, arg) for arg, value in zip(fn.args.kwonlyargs,
                                                     fn.args.kw_defaults)
                   if value is not None]
        for position, arg in params:
            yield (called, position, arg.arg,
                   f"{path.stem}.{fn.name}({arg.arg})")


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes the parameter: by keyword, by enough
    positional arguments, or through * or **."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def test_every_default_has_a_caller():
    callers = sorted(SRC.glob("*.py")) + _benchmark_modules()
    assert len(callers) >= 12
    calls = [node for path in callers
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Call)]
    defaults = [entry for path in sorted(SRC.glob("*.py"))
                for entry in _defaulted(path)]
    uncalled = {label for called, position, name, label in defaults
                if not any(_called_name(call) == called
                           and _passes(call, position, name)
                           for call in calls)}
    assert uncalled - set(UNCALLED_DEFAULTS) == set()
    # every allowed entry still names a defaulted parameter
    assert set(UNCALLED_DEFAULTS) <= {label for *_, label in defaults}


def _dataclass_fields(tree: ast.AST) -> int:
    return sum(isinstance(stmt, ast.AnnAssign)
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               and any(_called_name(dec) == "dataclass"
                       if isinstance(dec, ast.Call)
                       else getattr(dec, "id", None) == "dataclass"
                       for dec in cls.decorator_list)
               for stmt in cls.body)


def test_knob_count():
    # a resolution no caller varies is a constant: the count only falls
    paths = sorted(SRC.glob("*.py"))
    defaulted = sum(1 for path in paths for _ in _defaulted(path))
    fields = sum(_dataclass_fields(ast.parse(path.read_text()))
                 for path in paths)
    assert defaulted + fields <= 48


def _names(node: ast.AST) -> set[str]:
    """Every name node reads, plain or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in stmt.targets)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(name, label, names its body reads) for every top-level def and
    class of path, and for every method and property of its classes,
    dunders aside: a class reads its bases, decorators, fields and dunders,
    and each member is a definition of its own."""
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, f"{path.stem}.{stmt.name}", _names(stmt)
        elif isinstance(stmt, ast.ClassDef):
            members = [fn for fn in stmt.body
                       if isinstance(fn, ast.FunctionDef)
                       and not _is_dunder(fn.name)]
            for fn in members:
                yield (fn.name, f"{path.stem}.{stmt.name}.{fn.name}",
                       _names(fn))
            yield stmt.name, f"{path.stem}.{stmt.name}", set().union(
                *(_names(node) for node in [*stmt.bases, *stmt.keywords,
                                            *stmt.decorator_list, *stmt.body]
                  if not any(node is fn for fn in members)))


def test_every_definition_is_reached():
    defs, roots = {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        for name, label, names in _definitions(path):
            defs.setdefault(name, []).append((label, names))
        roots |= set().union(*(
            _names(stmt) for stmt in ast.parse(path.read_text()).body
            if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef,
                                      ast.Import, ast.ImportFrom))
                    or _is_all(stmt))))
    for path in _benchmark_modules():
        roots |= _names(ast.parse(path.read_text(), filename=str(path)))
    # a name reaches every definition of that name, in any module, and an
    # attribute reaches every member of that name, in any class
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [n for _, names in defs.get(name, ()) for n in names]
    labels = [label for name, entries in defs.items() for label, _ in entries
              if name not in reached]
    assert sum(map(len, defs.values())) >= 170
    assert not labels, f"reached only from tests: {', '.join(sorted(labels))}"


def test_the_package_reexports_nothing():
    # every name is imported from its submodule: __init__ holds its
    # docstring and __version__, and no package attribute shadows a
    # submodule (a re-exported zeta made eisenspec.zeta the function)
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    shadowed = [f"eisenspec.{name}" for name in modules
                if importlib.import_module(f"eisenspec.{name}")
                is not getattr(eisenspec, name)]
    assert not shadowed, f"not the module: {', '.join(shadowed)}"
    path = SRC / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree)
    assert [ast.unparse(stmt) for stmt in tree.body[1:]] == [
        "__version__ = '0.1.0'"]
    # so importing the package loads nothing more
    code = ("import sys, eisenspec\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('eisenspec', 'numpy'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['eisenspec']"]


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """The local name of each eisenspec module a benchmark module imports:
    from eisenspec import gl3 binds gl3 to eisenspec.gl3."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eisenspec":
            aliases.update({alias.asname or alias.name:
                            f"eisenspec.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.Import):
            aliases.update({alias.asname: alias.name for alias in node.names
                            if alias.asname
                            and alias.name.startswith("eisenspec.")})
    return aliases


def _benchmark_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every name the benchmark module reads from an
    eisenspec module: imported from it, read as an attribute of a module
    it imported, or read from sys.modules["eisenspec.<module>"]."""
    aliases = _module_aliases(tree)
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").startswith("eisenspec.")):
            reads |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                reads.add((aliases[owner.id], node.attr))
            elif (isinstance(owner, ast.Subscript)
                  and ast.unparse(owner.value) == "sys.modules"
                  and isinstance(owner.slice, ast.Constant)
                  and str(owner.slice.value).startswith("eisenspec.")):
                reads.add((owner.slice.value, node.attr))
    return reads


def test_the_library_provides_what_the_benchmark_reads():
    # a deletion that breaks the benchmark fails here, not only in
    # perfbench/test_bench.py, which runs the benchmark itself
    reads = set().union(*(_benchmark_reads(ast.parse(path.read_text()))
                          for path in _benchmark_modules()))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    timed = {(f"eisenspec.{layer}", name) for layer, name in
             (entry.split(".") for entry in tracer.TIMED_FUNCTIONS)}
    assert {module for module, _ in reads} >= {
        "eisenspec.gl3", "eisenspec.intertwine", "eisenspec.parseval",
        "eisenspec.truncation", "eisenspec.errors", "eisenspec.roots",
        "eisenspec.zeta"}
    assert len(timed) >= 5
    missing = sorted(f"{module}.{name}" for module, name in reads | timed
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"gone, but the benchmark reads: {', '.join(missing)}"
