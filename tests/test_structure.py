"""The package's shape, read from the source with `ast`: every module-level
import is used, `src/` imports only at module level, and the `src/`
modules import each other without a cycle."""

import ast
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
