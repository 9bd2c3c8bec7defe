"""src/kloos holds what a command runs; the tests' brute-force oracles live in oracles.py."""

import ast
from collections import defaultdict
from pathlib import Path

import kloos

# full_verification has no caller in src/kloos: perfbench's TARGETS times it,
# and the tests read the collected verify document it returns
EXEMPT = {"full_verification"}


def test_every_public_src_name_has_a_src_consumer():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(kloos.__file__).parent.glob("*.py"))}
    readers = defaultdict(set)  # name -> ids of the top-level statements that read it
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    readers[node.id].add(id(stmt))
                elif isinstance(node, ast.Attribute):
                    readers[node.attr].add(id(stmt))
    public = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert EXEMPT <= {node.name for _, node in public}
    unread = [
        f"{module}.{node.name}"
        for module, node in public
        if node.name not in EXEMPT and not readers[node.name] - {id(node)}
    ]
    assert unread == []
