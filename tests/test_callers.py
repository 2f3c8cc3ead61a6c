"""Every public function, class and method of ``src/qndprobe`` has a caller in ``src/``.

Code that only the tests call belongs with the tests.  A definition counts
as called when a Name or an Attribute of its name appears anywhere in the
package outside its own body.  ``__init__`` only re-exports, so it defines
nothing checked here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qndprobe"

# name -> why it may stay without a caller in src/ for now
ALLOWED = {
    "GaussianState.check_psd": "bench/tracer.py binds it by name to count PSD checks",
    "db_below_projection": "the dB figure of merit; a per-run sensitivity output is planned to call it",
}


def _definitions(tree):
    """(qualified name, bare name, node) of each public module-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _uncalled():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    references = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    uncalled = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qualified, name, node in _definitions(tree):
            if not any(
                ref == name and not (ref_path == path and node.lineno <= line <= node.end_lineno)
                for ref_path, line, ref in references
            ):
                uncalled.add(qualified)
    return uncalled


def test_every_public_definition_has_a_caller_in_src():
    assert _uncalled() == set(ALLOWED)
