"""Module boundaries.

No module imports a private name from a sibling: a name with a leading
underscore is internal to the module that defines it, and a sibling that
needs it should call the public entry point instead.

EvaluatorConfig belongs to zeta: the layers above it evaluate at
DEFAULT_CONFIG, so none of them takes or imports a config.

The CLI is the only module that writes files: no other module imports csv
or calls open.
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


def test_evaluator_config_stays_in_zeta():
    hits = []
    for name in ("intertwine", "gl3", "parseval", "truncation"):
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


def test_only_the_cli_writes_files():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                hits += [f"{path.name}:{node.lineno} imports csv"
                         for alias in node.names if alias.name == "csv"]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == "open":
                    hits.append(f"{path.name}:{node.lineno} calls open")
    assert hits == []
