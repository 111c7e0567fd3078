"""Checks on the package's source, read with the standard library's ``ast``."""

import ast
import importlib.util
import pathlib

import gausssep

PACKAGE = pathlib.Path(gausssep.__file__).parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _defined(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(node: ast.stmt) -> set[str]:
    """The names a statement reads, as a variable or as an attribute."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_private_name_is_referenced():
    """Every module-level private name (one leading underscore) of the
    package is read by the package's code outside the statement that
    defines it, so that no helper a refactor leaves behind stays."""
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [(node, _read(node)) for node in statements]
    unread = [name for node in statements for name in _defined(node)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in names for other, names in reads if other is not node)]
    assert unread == []


def test_every_mutant_text_occurs_once():
    """Each mutant of ``scripts/mutants.py`` names an old text that occurs
    exactly once in its file, and changes it, so that the list cannot
    silently stop mutating the code it was written for."""
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.misplaced() == []
    assert all(m.old != m.new for m in mutants.MUTANTS)
    assert len({m.label for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
