"""No module of ``lexgender`` reads another's private names.

A name with a leading underscore is free to change with its own module. So
``wndb._parse`` in any other module is a hidden dependency: this test walks
every module's syntax tree, resolves each name bound to a ``lexgender``
module by an import (at any depth, relative or absolute), and fails on an
attribute read such as ``X._name`` or ``X.sub._name`` whose ``X`` is another
module. Dunder names and NamedTuple's public helpers are allowed.
"""

import ast
from pathlib import Path

import lexgender

PACKAGE = Path(lexgender.__file__).parent
ALLOWED = {"_make", "_replace", "_asdict", "_fields"}  # NamedTuple's API, underscored to avoid field names


def _module_name(path: Path, root: Path = PACKAGE) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def boundary_reads(root: Path = PACKAGE) -> list[str]:
    """``file:line: X._name`` for every read of another module's private name under ``root``."""
    files = sorted(root.rglob("*.py"))
    modules = {_module_name(path, root) for path in files}
    found = []
    for path in files:
        name = _module_name(path, root)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        top = alias.name.partition(".")[0]
                        bound[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                source = ".".join(filter(None, (base, node.module)))
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr in ALLOWED or (node.attr.startswith("__") and node.attr.endswith("__")):
                continue
            dotted = _dotted(node.value)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            target = ".".join(filter(None, (bound.get(head), rest)))
            if target in modules and target != name:
                found.append(f"{path.relative_to(root)}:{node.lineno}: {dotted}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert boundary_reads() == []


def test_the_check_finds_private_reads_of_every_import_form(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    for name in ("__init__.py", "a.py", "sub/__init__.py"):
        (package / name).write_text("")
    (package / "sub" / "b.py").write_text(
        "from .. import a\n"
        "import pkg.sub as s\n"
        "from pkg import sub\n"
        "from .. import a as alias\n"
        "def f():\n"
        "    import pkg\n"
        "    return a._x, s._y, sub.b._z, alias._w, pkg.a._v, a.__name__, a._make, _own\n"
    )
    (package / "sub" / "c.py").write_text("from . import b\nfrom .b import f\nb.f(); f._not_a_module\n")
    assert boundary_reads(package) == [
        "sub/b.py:7: a._x",
        "sub/b.py:7: s._y",
        "sub/b.py:7: alias._w",
        "sub/b.py:7: pkg.a._v",
    ]
