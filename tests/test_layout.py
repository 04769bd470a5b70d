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
and parseval reaches ratio_L only through m_on_grid.

The trapezoid rule on residue circles lives in gl3.circle_residue: outside
zeta, no other function takes circle nodes.

Every gate of a CLI check is named in cli.TOLERANCES: no report.add passes
a nonzero numeric literal as its tolerance.  A 0.0 literal, for a check
that must hold exactly, and a bound computed at the check are allowed.
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


def test_circle_rule_lives_in_gl3():
    callers = [f"{path.name}:{getattr(top, 'name', '<module>')}"
               for path in sorted(SRC.glob("*.py")) if path.name != "zeta.py"
               for top in ast.parse(path.read_text(), filename=str(path)).body
               for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and _called_name(node) == "circle_nodes"]
    assert callers == ["gl3.py:circle_residue"]


def test_every_cli_gate_is_named():
    path = SRC / "cli.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and _called_name(node) == "add"
                and getattr(node.func.value, "id", None) == "report"):
            continue
        gate = node.args[5] if len(node.args) > 5 else next(
            (k.value for k in node.keywords if k.arg == "tolerance"), None)
        try:
            value = ast.literal_eval(gate)
        except ValueError:
            continue  # a TOLERANCES lookup, a name or a computed bound
        if value != 0:
            hits.append(f"cli.py:{node.lineno} gates at {value!r}")
    assert hits == []
