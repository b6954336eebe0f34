"""Checks on the package source itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_level_definition_in_src_is_referenced():
    # code nothing calls gets deleted: each function and class defined at
    # module level in src/llot is named somewhere in src/llot or bench/, as
    # a name, an attribute or an imported name (bench/ alone reads some)
    package = sorted((ROOT / "src" / "llot").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in package + sorted((ROOT / "bench").glob("*.py"))]
    defined = {f"{p.stem}.{node.name}": node.name for p, tree in zip(package, trees)
               for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    assert sorted(full for full, name in defined.items() if name not in used) == []
