"""Guards on the API surface of the package, read with the stdlib `ast`.

Every function, class and method of `src/ckkms` (dunders aside) must be
referenced somewhere outside its own body in `src/ckkms`, `tests/` or
`perfbench/`, and no package module may import a name it never uses.

A module-level name N of module M counts as referenced by a bare `N` in M
itself, by `from ...M import N` or `from ckkms import N`, or by an
attribute `M.N` or `ckkms.N`.  A method counts as referenced by any
attribute `.N`, since the type of the object it is looked up on is not
known statically.  A nested function counts as referenced by a bare `N`
in its enclosing function.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ckkms"
SEARCHED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for base in SEARCHED for path in sorted(base.rglob("*.py"))}


def _span(node) -> tuple:
    return node.lineno, node.end_lineno


def _definitions(tree: ast.Module):
    """(kind, name, span, enclosing span) for every def and class."""
    out = []

    def visit(body, kind, enclosing):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((kind, node.name, _span(node), enclosing))
                inner = "method" if isinstance(node, ast.ClassDef) else "nested"
                visit(node.body, inner, _span(node))

    visit(tree.body, "module", None)
    return out


def _terminal(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _references(trees: dict) -> dict:
    """name -> [(how, path, line, qualifier)] over every searched file."""
    refs: dict = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(("name", path, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(
                    ("attr", path, node.lineno, _terminal(node.value)))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    refs.setdefault(alias.name, []).append(
                        ("import", path, node.lineno, node.module.split(".")[-1]))
    return refs


def _is_referenced(kind, path, name, span, enclosing, refs) -> bool:
    for how, where, line, qualifier in refs.get(name, ()):
        if where == path and span[0] <= line <= span[1]:
            continue  # inside its own body
        if kind == "method":
            if how == "attr":
                return True
        elif how == "name":
            if where == path and (kind == "module"
                                  or enclosing[0] <= line <= enclosing[1]):
                return True
        elif kind == "module" and qualifier in (path.stem, "ckkms"):
            return True
    return False


def test_every_definition_is_referenced():
    trees = _trees()
    refs = _references(trees)
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for kind, name, span, enclosing in _definitions(trees[path]):
            if not _is_dunder(name) and \
                    not _is_referenced(kind, path, name, span, enclosing, refs):
                unreferenced.append(f"{path.stem}.{name} ({kind}, line {span[0]})")
    assert unreferenced == [], "nothing references: " + ", ".join(unreferenced)


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}: {name} (line {line})"
                   for name, line in sorted(imported.items()) if name not in used]
    assert unused == [], "imported but never used: " + ", ".join(unused)


def test_sources_parse_with_the_python_3_10_grammar():
    # pyproject.toml declares requires-python >= 3.10; this catches newer
    # syntax (except*, type aliases, generic defs), though not newer
    # library calls
    for base in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))


def test_the_paper_checks_do_not_import_the_cli():
    # ckkms.cli renders the rows of ckkms.paper; the checks never depend on
    # how they are printed
    tree = ast.parse((PACKAGE / "paper.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "cli" for name in imported)


def test_the_word_layer_does_no_scalar_arithmetic():
    # normal forms hold Fractions; scalar values enter where a state
    # evaluates a form, never inside ckwords
    tree = ast.parse((PACKAGE / "ckwords.py").read_text(encoding="utf-8"))
    banned = {"mul", "add", "inv", "refine"}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "scalars"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalars"):
            used.update(alias.name for alias in node.names)
    assert not used & banned


def test_no_command_handler_names_a_mode():
    # cli.render derives the envelope's mode from the reported values; no
    # command handler, and not main, picks one by a literal
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    literals = [f"{node.name}: {const.value!r}" for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and (node.name.startswith("_cmd_") or node.name == "main")
                for const in ast.walk(node) if isinstance(const, ast.Constant)
                and const.value in ("exact", "certified", "heuristic")]
    assert literals == []


def test_every_traced_name_is_a_module_level_def():
    # perfbench/tracer.py wraps these functions by name, so deleting one
    # breaks `perfbench/run.py --trace 1` and perfbench/tests, which Tier-1
    # does not run; TRACED is read without importing the harness
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [_terminal(t) for t in node.targets] == ["TRACED"])
    missing = []
    for module, names in traced.items():
        module_tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name for node in module_tree.body
                   if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert traced and missing == []
