"""The package ships only what its callers run: every public top-level
function, class and constant of ``src/satbec``, and every public method and
property of a public class, is named somewhere in the package or in
``perfbench/`` besides its own definition, and every private top-level name
is named in the package itself, and every NamedTuple or dataclass has a
field read by name.  Code only the tests use belongs in the tests.
``__init__`` binds only dunder names, so each public name has one import
path: its module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "satbec").glob("*.py"))
INIT = ROOT / "src" / "satbec" / "__init__.py"
CALLERS = [p for p in PACKAGE if p != INIT] + sorted((ROOT / "perfbench").glob("*.py"))


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


def uncalled(callers, wanted) -> list[str]:
    """``module.py:name`` for each top-level package name for which
    ``wanted(name)`` is true and that no top-level statement of ``callers``
    names besides the one defining it."""
    names, used = [], set()
    for path in callers:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = defined(statement)
            if path in PACKAGE:
                names += [(path.name, name) for name in sorted(own) if wanted(name)]
            used |= set(named(statement)) - own
    return [f"{module}:{name}" for module, name in names if name not in used]


def test_every_public_name_has_a_caller():
    assert PACKAGE and CALLERS
    assert uncalled(CALLERS, lambda name: not name.startswith("_")) == []


def test_every_private_name_has_a_caller_in_the_package():
    """A private helper is named by package code besides its definition; the
    tests and ``perfbench/`` do not count, so a helper a rewrite leaves
    behind fails here."""
    assert uncalled(PACKAGE, lambda name: name.startswith("_")
                    and not name.endswith("__")) == []


def attributes(tree):
    """Every name ``tree`` looks up as an attribute."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_every_public_member_has_a_caller():
    """A method or property is reached as an attribute, so a local variable
    of the same name does not count as a caller."""
    members, used = [], Counter()
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(attributes(tree))
        if path not in PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members += [(f"{path.name}:{cls.name}.{node.name}", node) for node in cls.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not node.name.startswith("_")]
    assert members
    assert [label for label, node in members
            if used[node.name] == Counter(attributes(node))[node.name]] == []


def test_init_binds_only_dunder_names():
    bound = set()
    for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
    assert "__version__" in bound
    assert sorted(n for n in bound if not (n.startswith("__") and n.endswith("__"))) == []


def compares_type_with_int(node) -> bool:
    """Whether ``node`` compares a ``type(...)`` call with ``int``, as in
    ``type(x) is int`` or ``type(x) in (int, float)``."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(
        isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type"
        for o in operands
    ) and any(isinstance(n, ast.Name) and n.id == "int" for o in operands for n in ast.walk(o))


def functions_where(test) -> set[str]:
    """``module.py:function`` for each package function (``<module>`` at top
    level) that holds a node for which ``test`` is true."""
    found = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> the name of its innermost enclosing function
        for parent in ast.walk(tree):
            name = scope.get(parent, "<module>")
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = parent.name
            for child in ast.iter_child_nodes(parent):
                scope[child] = name
                if test(child):
                    found.add(f"{path.name}:{name}")
    return found


def test_the_integer_rule_is_written_once():
    """``cnf.is_count`` is the one test of an exact int count and
    ``cnf.is_real`` of a finite real; only they compare a value's type with
    ``int``."""
    assert sorted(functions_where(compares_type_with_int)) == ["cnf.py:is_count",
                                                                "cnf.py:is_real"]


FINITENESS = {("math", "isfinite"), ("math", "isinf"), ("math", "inf"), ("np", "isfinite"),
              ("np", "isinf"), ("np", "inf"), ("sys", "float_info")}


def checks_finiteness(node) -> bool:
    """Whether ``node`` names ``math.isfinite``, ``math.isinf``, ``math.inf``
    (or numpy's), or ``sys.float_info``, or imports one of them by name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in FINITENESS
    if isinstance(node, ast.ImportFrom):
        return any((node.module, alias.name) in FINITENESS for alias in node.names)
    return False


def test_the_real_number_rule_is_written_once():
    """``cnf.is_real`` is the one test of a finite real; only the graph
    tables' row templates, which json writes otherwise, test finiteness too."""
    assert sorted(functions_where(checks_finiteness)) == ["cnf.py:is_real",
                                                          "graph.py:_record_rows"]


def names_json_dumps(node) -> bool:
    """Whether ``node`` names ``json.dumps`` or ``json.dump``, or imports
    one of them by name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "json" and node.attr in ("dumps", "dump")
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(a.name in ("dumps", "dump") for a in node.names)
    return False


def test_the_json_layout_is_decided_in_one_module():
    """Only ``satbec.graph`` lays out JSON: every artifact and manifest goes
    through its ``json_text`` or ``graph_to_json``."""
    found = functions_where(names_json_dumps)
    assert "graph.py:json_text" in found
    assert sorted({name.split(":")[0] for name in found}) == ["graph.py"]


OUTPUT = {("sys", "stdout"), ("os", "replace")}


def calls_open(node) -> bool:
    """Whether ``node`` calls the builtin ``open``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"


def writes_output(node) -> bool:
    """Whether ``node`` names ``sys.stdout`` or ``os.replace``, or imports
    one of them by name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in OUTPUT
    if isinstance(node, ast.ImportFrom):
        return any((node.module, alias.name) in OUTPUT for alias in node.names)
    return False


def test_cli_files_have_one_way_in_and_one_way_out():
    """``cli._load`` is the one reader of an input file and ``cli._emit`` the
    one writer of an artifact, to a file or to stdout."""
    assert sorted(functions_where(calls_open)) == ["cli.py:_load"]
    assert sorted(functions_where(writes_output)) == ["cli.py:_emit"]


def is_record(cls) -> bool:
    """Whether a class statement defines a NamedTuple or a dataclass."""
    bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return "NamedTuple" in bases or any(isinstance(d, ast.Name) and d.id == "dataclass"
                                        for d in decorators)


def test_every_record_has_a_field_read_by_name():
    """A NamedTuple or dataclass earns its field names only when package
    code or ``perfbench/`` reads one of them as an attribute; a record that
    is only unpacked is a plain tuple."""
    records, read = [], set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        records += [(f"{path.name}:{cls.name}", {field.target.id for field in cls.body
                                                 if isinstance(field, ast.AnnAssign)})
                    for cls in tree.body if isinstance(cls, ast.ClassDef) and is_record(cls)]
    assert len(records) >= 10
    assert [label for label, fields in records if not fields & read] == []
