"""No module of the package, the benchmark or the scripts keeps a
module-level import it does not use.  No module of the package keeps a
module-level name that nothing reads: a private one, or a public one
that the package does not export.  Nor does the package export a name
that neither it, the benchmark nor the scripts read, unless the name is a
quantity of the paper.

No linter ships with the test environment, so these are the one check of
each: AST scans of src/esn2/*.py, bench/*.py and scripts/*.py.
__init__.py is left out, since its imports are the package's re-exports,
and so is an import marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import esn2

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "esn2"


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
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for line, name in bound if name not in used]


def test_no_unused_module_level_imports():
    # the benchmark's files are only read here
    modules = [p for folder in (SRC, ROOT / "bench", ROOT / "scripts")
               for p in sorted(folder.glob("*.py")) if p.name != "__init__.py"]
    assert {p.parent for p in modules} == {SRC, ROOT / "bench",
                                            ROOT / "scripts"}
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def _definitions(tree):
    """(name, node) for each module-level function, class or constant,
    leaving out dunder names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
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
TEST_ORACLES = {"expectations.py": {"_assemble"}}


def _is_click_command(node):
    """Whether node is a function registered by @<group>.command(...) or
    @<group>.group(...): click calls it, so nothing in src/ reads it."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group") for d in node.decorator_list)


def _unread(public):
    """Each module-level definition, private or public, that no module of
    src/esn2 reads outside the definition itself.  For a public name
    __init__.py's re-export does not count as a read."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = [(name, sub) for path, tree in trees.items()
             if not (public and path.name == "__init__.py")
             for name, sub in _reads(tree)]
    unread = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, node in _definitions(tree):
            if name.startswith("_") == public:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(read == name and id(sub) not in own
                       for read, sub in reads):
                unread.append((path.name, name, node))
    return unread


def test_every_private_definition_is_read():
    unread = [f"{file}:{node.lineno} {name}"
              for file, name, node in _unread(public=False)
              if name not in TEST_ORACLES.get(file, ())]
    assert unread == []


def test_every_public_definition_is_exported_or_read():
    # a wrapper whose last caller went, still defined in its module, is
    # caught here even once the package no longer exports it
    unread = [f"{file}:{node.lineno} {name}"
              for file, name, node in _unread(public=True)
              if name not in esn2.__all__ and not _is_click_command(node)]
    assert unread == []


# exports that nothing in src/esn2, bench/ or scripts/ reads: each is a
# quantity of the paper that the tests pin
PAPER_QUANTITIES = {
    "block_structure_check",  # I is block diagonal at omega12 = alpha1 = 0
    "cgf_esn2",  # the cumulant generating function of the bivariate ESN
    "conditional_independence",  # holds iff omega12 = alpha1 alpha2 = 0
    "density_esn1",  # the univariate ESN density, the marginal law
    "expectation_set",  # the closed-form expectations that assemble E[-H]
    "u_distribution",  # the Gaussian law U of the zeta1 tilt identity
}


def test_every_export_is_read_or_a_paper_quantity():
    # __init__.py's re-export and a name's own definition are no read; an
    # entry of PAPER_QUANTITIES that is read, or no longer exported, fails
    unread_in_src = {name for _, name, _ in _unread(public=True)}
    read_outside = {name for folder in ("bench", "scripts")
                    for path in sorted((ROOT / folder).glob("*.py"))
                    for name, _ in _reads(ast.parse(
                        path.read_text(encoding="utf-8")))}
    unread = sorted(name for name in esn2.__all__
                    if name in unread_in_src and name not in read_outside)
    assert unread == sorted(PAPER_QUANTITIES)
