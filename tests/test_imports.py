"""No module of the package keeps a module-level import it does not use,
nor a private module-level name that nothing reads.

No linter ships with the test environment, so these are the one check of
either: AST scans of src/esn2/*.py.  __init__.py is left out, since its
imports are the package's re-exports, and so is an import marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "esn2"


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for line, name in bound
            if name not in used]


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or
    constant: a name with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node):
    """The names node reads: loaded names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id, sub
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub
        elif isinstance(sub, ast.ImportFrom):
            for alias in sub.names:
                yield alias.name, sub


# the paper's entrywise assembly of E[-H], which the package keeps as the
# oracle its Gram rule is tested against; only the tests call it
TEST_ORACLES = {"expected_info.py": {"_assemble"}}


def test_every_private_definition_is_read():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = [(name, sub) for tree in trees.values()
             for name, sub in _reads(tree)]
    unread = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, node in _private_definitions(tree):
            if name in TEST_ORACLES.get(path.name, ()):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(read == name and id(sub) not in own
                       for read, sub in reads):
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
