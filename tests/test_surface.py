"""The package ships only what its callers run: every public top-level
function, class and constant of ``src/satbec`` is named somewhere in the
package or in ``perfbench/`` besides its own definition and the
``__init__`` re-exports.  Code only the tests use belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "satbec").glob("*.py"))
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def defined(statement) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def named(statement):
    """Every name a statement reads, imports or looks up as an attribute."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_has_a_caller():
    public, used = [], set()
    for path in CALLERS:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = defined(statement)
            if path in PACKAGE:
                public += [(path.name, name) for name in sorted(own) if not name.startswith("_")]
            used |= set(named(statement)) - own
    assert PACKAGE and CALLERS
    assert [f"{module}:{name}" for module, name in public if name not in used] == []
