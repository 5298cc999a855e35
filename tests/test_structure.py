"""The package's shape, read from the source with `ast`: every module-level
import is used, `src/` imports only at module level, the `src/` modules
import each other without a cycle, and the public surface reaches every
top-level function and class of `src/`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arrowforms"
TESTS = ROOT / "tests"


def _parsed(folder):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(folder.glob("*.py"))}


def _module_imports(tree):
    """(line, bound name) of every import at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name != "annotations":
                    yield node.lineno, a.asname or a.name


def _reads(tree):
    """Names the module reads: loaded names, function argument names (a
    pytest fixture is read by naming it) and the entries of __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(e.value for e in node.value.elts)
    return out


def test_every_module_level_import_is_read():
    unread = []
    for folder in (SRC, TESTS):
        for path, tree in _parsed(folder).items():
            reads = _reads(tree)
            unread += [
                "%s:%d %s" % (path.relative_to(ROOT), line, name)
                for line, name in _module_imports(tree)
                if name not in reads
            ]
    assert unread == []


def test_src_imports_only_at_module_level():
    nested = []
    for path, tree in _parsed(SRC).items():
        top = set(map(id, tree.body))
        nested += [
            "%s:%d" % (path.relative_to(ROOT), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def _package_edges(tree):
    """The src/ modules this module imports with `from .x import` or
    `from . import x`, at any depth of the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


def test_src_import_graph_has_no_cycle():
    graph = {p.stem: _package_edges(t) for p, t in _parsed(SRC).items()}
    state = {}  # module -> "open" while on the search path, then "done"
    cycles = []

    def visit(mod, path):
        state[mod] = "open"
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == "open":
                cycles.append(" -> ".join(path[path.index(dep):] + [dep]))
            elif dep not in state:
                visit(dep, path + [dep])
        state[mod] = "done"

    for mod in sorted(graph):
        if mod not in state:
            visit(mod, [mod])
    assert cycles == []


# ---------------------------------------------------------------------------
# the public surface reaches every top-level function and class of src/

PERFBENCH = ROOT / "perfbench"

# deliberate keeps that no root reaches, each with its reason
KEPT = {
    # the reader of print_lincomb's format
    "textio.parse_lincomb",
}


def _console_scripts():
    """(module, function) of every console script in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^\s*[\w-]+\s*=\s*"arrowforms\.(\w+):(\w+)"', section, re.M)


def _package_bindings(tree, relative):
    """What the imports of a module bind: name -> module for a module of the
    package, name -> (module, name) for a name from one.  `relative` reads
    `from .x import` (src/), else `from arrowforms.x import` (perfbench/)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if relative:
            if node.level != 1:
                continue
            pkg = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "arrowforms":
            pkg = node.module.partition(".")[2] or None
        else:
            continue
        for a in node.names:
            bound = a.asname or a.name
            if pkg is None and (SRC / (a.name + ".py")).is_file():
                modules[bound] = a.name
            else:
                names[bound] = (pkg or "__init__", a.name)
    return modules, names


def _references(node, modules):
    """Names a piece of code reads but does not bind (as a local or an
    argument), and (module, name) for each attribute it reads off a module
    of the package."""
    refs, bound, attrs = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (bound if isinstance(sub.ctx, ast.Store) else refs).add(sub.id)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif (
            isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            attrs.add((modules[sub.value.id], sub.attr))
    return refs - bound, attrs


def _defined(tree):
    """Top-level name -> the statements that define it, and the other
    top-level statements (run on import)."""
    defs, other = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        defs.setdefault(n.id, []).append(node)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            other.append(node)
    return defs, other


def test_the_public_surface_reaches_every_function_and_class():
    # roots: arrowforms.__all__, the console script (cli.main) and every
    # package name that perfbench/ imports or reads off a module
    modules = {p.stem: t for p, t in _parsed(SRC).items()}
    defs, bindings, todo = {}, {}, []
    for mod, tree in modules.items():
        defs[mod], other = _defined(tree)
        bindings[mod] = _package_bindings(tree, relative=True)
        for node in other:
            refs, attrs = _references(node, bindings[mod][0])
            todo += [(mod, r) for r in refs] + list(attrs)
    todo += [("__init__", name) for name in _reads(modules["__init__"])]
    todo += _console_scripts()
    for tree in _parsed(PERFBENCH).values():
        mods, names = _package_bindings(tree, relative=False)
        todo += list(names.values()) + list(_references(tree, mods)[1])
    reached = set()
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached or mod not in modules:
            continue
        reached.add((mod, name))
        if name in defs[mod]:
            for node in defs[mod][name]:
                refs, attrs = _references(node, bindings[mod][0])
                todo += [(mod, r) for r in refs] + list(attrs)
        elif name in bindings[mod][1]:
            todo.append(bindings[mod][1][name])
    unreached = sorted(
        "%s.%s" % (mod, node.name)
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (mod, node.name) not in reached
    )
    assert [u for u in unreached if u not in KEPT] == []
    # a keep that gains a caller leaves the list
    assert sorted(KEPT) == [u for u in unreached if u in KEPT]
