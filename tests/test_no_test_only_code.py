"""Every public top-level function or class, and every public method, in
`src/mixvae` is loaded by name (a `Name`, an `Attribute` or an import)
outside its own definition, in `src/mixvae` (`__init__.py`'s exports
included), `perfbench/*.py` or `tools/*.py`. Names inside strings do not
count. Code that only tests call belongs in `tests/`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(tree):
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            used[node.id if isinstance(node, ast.Name) else node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
    return used


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs))


def test_every_public_src_definition_has_a_caller_outside_tests():
    src = {p: ast.parse(p.read_text()) for p in sorted(ROOT.glob("src/mixvae/*.py"))}
    others = [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]
    used = Counter()
    for tree in [*src.values(), *(ast.parse(p.read_text()) for p in others)]:
        used += _loaded_names(tree)
    unused = [f"{path.stem}.{qualname}" for path, tree in src.items()
              for qualname, node in _definitions(tree)
              if not node.name.startswith("_")
              and used[node.name] <= _loaded_names(node)[node.name]]
    assert not unused, f"defined in src/mixvae but called only from tests: {unused}"
