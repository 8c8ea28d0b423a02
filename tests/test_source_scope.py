"""src/hpmsim holds only what a run executes.

Every public function and method defined under src/hpmsim must be referred
to by name somewhere in src/hpmsim outside its own definition, or be bound
by name in bench/*.py, which wraps and calls the package from outside. An
import alone is not a use. Code that only the tests call belongs in
tests/oracles.py; a name that stays for another reason is listed in ALLOWED
with that reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hpmsim"
BENCH = ROOT / "bench"

# name -> why it stays although neither src/hpmsim nor bench/ uses it
ALLOWED = {
    "instance_config": "wraps an in-memory instance as a run config; the planned "
                       "complexity ledger (ROADMAP item 10) builds its configs through it",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every public module-level function and
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _names(tree: ast.AST):
    """(name, line) of every identifier and attribute read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _bench_names() -> set[str]:
    """Identifiers, attributes and dotted string literals of bench/*.py."""
    names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        names.update(name for name, _ in _names(tree))
        names.update(part for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     for part in node.value.split("."))
    return names


def test_every_public_function_in_src_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {path: list(_names(tree)) for path, tree in trees.items()}
    bench = _bench_names()
    unused = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("_") or name in bench or qualname in ALLOWED:
                continue
            used = any(n == name and (where != path or not
                                      node.lineno <= line <= node.end_lineno)
                       for where, names in uses.items() for n, line in names)
            if not used:
                unused.append(f"{path.name}:{node.lineno} {qualname}")
    assert not unused, ("public names that only tests use; move them to "
                        f"tests/oracles.py or list them in ALLOWED: {unused}")


def test_allowed_names_are_defined():
    defined = {qualname for path in SRC.glob("*.py")
               for qualname, _ in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
