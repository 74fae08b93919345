"""Static checks on the package source, with the standard library's ast."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lpaideals"
# the package root imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by a module-level import and never read in the module."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(_parse(path)) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .graphs import Graph, strong_csp\n"
                     "def f(g: Graph):\n    return os.sep\n")
    assert _unused_imports(tree) == [(2, "strong_csp")]


def _unused_private(trees: dict) -> list:
    """Module-level private functions, classes and constants that no module
    of the package reads.

    A definition is read by a name in its own module, by an import from
    another module, or as an attribute anywhere in the package.
    """
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                shared.add(node.attr)
    out = []
    for module, tree in sorted(trees.items()):
        read = shared | {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out.extend((module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read)
    return sorted(out)


def test_no_unread_private_definitions():
    trees = {path.name: _parse(path) for path in SRC.glob("*.py")}
    assert _unused_private(trees) == []


def test_the_check_sees_an_unread_private_definition():
    trees = {
        "a.py": ast.parse("_CAP = 3\n_STALE: int = 4\n"
                          "def _helper():\n    return _CAP\n"
                          "def _leftover():\n    return 1\n"
                          "class _Gone:\n    pass\n"
                          "def _reached():\n    return 2\n"),
        "b.py": ast.parse("from .a import _helper\nfrom . import a\n"
                          "def f():\n    return _helper() + a._reached()\n"),
    }
    assert _unused_private(trees) == [("a.py", 2, "_STALE"),
                                      ("a.py", 5, "_leftover"),
                                      ("a.py", 7, "_Gone")]


def _unread_methods(trees: dict, readers: list) -> list:
    """Public methods of the classes in trees that no tree of readers reads
    as an attribute."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, tree in sorted(trees.items()):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                out.extend((module, node.lineno, f"{cls.name}.{node.name}")
                           for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("_")
                           and node.name not in read)
    return sorted(out)


def test_every_public_method_is_read():
    trees = {path.name: _parse(path) for path in SRC.glob("*.py")}
    readers = [_parse(path) for folder in ("src", "tests", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread_methods(trees, readers) == []


def test_the_check_sees_an_unread_method():
    trees = {"a.py": ast.parse("class Box:\n"
                               "    def __len__(self):\n        return 0\n"
                               "    def _size(self):\n        return 0\n"
                               "    def opened(self):\n        return self._size()\n"
                               "    def stale(self):\n        return 1\n"
                               "    def stored(self):\n        return 2\n")}
    readers = [trees["a.py"],
               ast.parse("def f(box):\n    box.stored = None\n"
                         "    return box.opened()\n")]
    assert _unread_methods(trees, readers) == [("a.py", 8, "Box.stale"),
                                               ("a.py", 10, "Box.stored")]


def _oracle_imports(tree: ast.Module) -> list:
    """Lines, at any depth, that import the oracles module of the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracles" or (
                    module in ("", "lpaideals")
                    and any(alias.name == "oracles" for alias in node.names)):
                out.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["lpaideals", "oracles"]
                   for alias in node.names):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "oracles.py"],
                         ids=lambda p: p.name)
def test_library_modules_do_not_import_oracles(path):
    # the oracles are reference code for tests; no library path may lean on them
    assert _oracle_imports(_parse(path)) == []


def test_the_check_sees_an_oracle_import():
    tree = ast.parse("from .oracles import closure_oracle\n"
                     "from . import graphs, oracles\n"
                     "import lpaideals.oracles\n"
                     "from lpaideals import oracles as o\n"
                     "from lpaideals.oracles import absorb\n"
                     "from . import graphs\n"
                     "from .graphs import oracles_note\n"
                     "def f():\n    from .oracles import absorb\n")
    assert _oracle_imports(tree) == [1, 2, 3, 4, 5, 9]
