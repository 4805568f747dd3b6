"""The package exports nothing that only the tests use.

Every public top-level function and class of src/netmanifold must be used by
package code outside its own definition and __init__.py, be named in
README.md, or be used by a file under benchmarks/. A use is a name, an
attribute or a string constant (the tracer patches attributes by name);
`__all__` lists and imports alone do not count.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _references(node):
    """Names, attribute names and string constants anywhere under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def test_every_public_definition_has_a_user_besides_the_tests():
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "netmanifold").glob("*.py"))
        if path.name != "__init__.py"
    ]
    statements = [stmt for tree in modules for stmt in tree.body if not _is_all(stmt)]
    benchmarks = set().union(
        *(_references(ast.parse(path.read_text(encoding="utf-8")))
          for path in (ROOT / "benchmarks").glob("*.py"))
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        used = any(stmt.name in _references(other) for other in statements if other is not stmt)
        if not (used or stmt.name in benchmarks or re.search(rf"\b{stmt.name}\b", readme)):
            unused.append(stmt.name)
    assert not unused, unused
