"""Modules keep to each other's public names.

No module under ``src/bomtrace`` uses an ``_underscore`` attribute of
anything but ``self`` or ``cls``: another object's private state, or another
module's, is reached only through its public names. Dunder names are the
language's, not a module's, and stay allowed.
"""

import ast

from test_stdlib_only import PACKAGE


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, expression) for each ``x._name`` where x is not self or cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_check_sees_what_it_forbids():
    source = "gw._commit(self._write(r))\nself.gateway._assemblies\ncls._x\nt.__name__\n"
    assert private_reads(source) == [(1, "gw._commit"), (2, "self.gateway._assemblies")]


def test_no_module_reads_another_objects_private_attributes():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}: {expression}"
        for path in sources
        for line, expression in private_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []
