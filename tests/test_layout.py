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

The residue checks read m through m_on_grid: intertwine.cocycle_check,
intertwine.unitarity_check and gl3.transverse_residue call no ratio_L
themselves, so that each public call stays one stacked pass of the one
evaluator of m.

Circle nodes, the 2^-53 sizing of trapezoid rules and the pole factor
1/expm1(2 pi d / h) of a trapezoid sum live in contour: no other module
forms circle nodes, spells out 53 log 2 or calls expm1 on a multiple of
pi, and contour imports nothing from eisenspec, so every layer, zeta
included, can use it.

Every quotient of L values goes through zeta.ratio_L, which takes both
factors in one kernel pass: outside zeta, no module divides one
completed_L (or _completed_L_raw) value by another.  The fold of conjugate
halves lives there too: outside zeta, no module reverses an array and
conjugates it, so a second fold of ratio_L values cannot grow elsewhere.

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
@dataclass fields, is at most 59.

No module reads the environment: a switch read from os.environ or
os.getenv would be a knob that the knob count does not see.
"""

import ast
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


def test_residue_checks_read_m_through_m_on_grid():
    found = {}
    for module, names in (("intertwine", ("cocycle_check", "unitarity_check")),
                          ("gl3", ("transverse_residue",))):
        path = SRC / f"{module}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                found[fn.name] = {_called_name(call) for call in ast.walk(fn)
                                  if isinstance(call, ast.Call)}
    assert sorted(found) == ["cocycle_check", "transverse_residue",
                             "unitarity_check"]
    assert [name for name, called in found.items()
            if "ratio_L" in called or "m_on_grid" not in called] == []


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
    """x[..., ::-1] (a slice of step -1 on any axis) or np.flip(x)."""
    if isinstance(node, ast.Call):
        return _called_name(node) == "flip"
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(part, ast.Slice) and part.step is not None
               and ast.unparse(part.step) == "-1" for part in parts)


def _reverses_and_conjugates(tree: ast.AST) -> list[int]:
    """Lines of tree that conjugate a reversed array or reverse a
    conjugated one, in either spelling of each."""
    def is_conj(node):
        return (isinstance(node, ast.Call)
                and _called_name(node) in ("conj", "conjugate"))

    return sorted({node.lineno for node in ast.walk(tree)
                   if (is_conj(node) and any(_is_reversal(sub) for sub in
                                             ast.walk(node)))
                   or (_is_reversal(node) and any(is_conj(sub) for sub in
                                                  ast.walk(node)))})


def test_only_zeta_folds_conjugate_halves():
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            if path.name != "zeta.py"
            for line in _reverses_and_conjugates(ast.parse(path.read_text()))]
    assert hits == []
    assert _reverses_and_conjugates(ast.parse(
        (SRC / "zeta.py").read_text())) != []
    assert _reverses_and_conjugates(ast.parse(
        "a = vals[::-1].conj()\n"
        "b = np.conj(np.flip(vals, axis=-1))\n"
        "c = np.conjugate(vals)[..., ::-1]\n"
        "d = vals[::-1] * np.conj(vals)\n"
        "e = vals[::2].conj()")) == [1, 2, 3]


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
    callers = sorted(SRC.glob("*.py")) + [
        path for path in sorted(PERFBENCH.glob("*.py"))
        if not path.name.startswith("test_")]
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
    assert defaulted + fields <= 59
