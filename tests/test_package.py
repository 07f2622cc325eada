import ast
import os
import subprocess
import sys
from pathlib import Path

import entnoise

SOURCE = Path(entnoise.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# where a library name counts as used: the package itself, the demos and the bench
CALLER_DIRS = (ROOT / "src" / "entnoise", ROOT / "demos", ROOT / "bench")


def test_no_assert_statements_in_library():
    # postconditions must still run under python -O, which strips asserts
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_runs_without_scipy():
    # numpy is the only run-time dependency; scipy serves the tests as a reference
    code = ("import sys, entnoise, entnoise.cli, entnoise.sampling; "
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.split() == []


def _referenced_names(node, skip=None):
    """Names and attributes used under node, leaving out the subtree skip.

    Import aliases are not uses: a name that is only imported or re-exported
    (from __init__.py, say) has no caller. Words in strings, comments and
    docstrings are not references either.
    """
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, skip)


def test_every_public_definition_has_a_caller():
    # a public top-level function or class must be used outside its own
    # definition by the package, a demo or the bench; an export from
    # __init__.py does not count, and code that only the tests call belongs in
    # the tests
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))}
    library = sorted(CALLER_DIRS[0].glob("*.py"))
    assert library, f"no library modules under {CALLER_DIRS[0]}"
    uncalled = []
    for path in library:
        elsewhere = {name for other, tree in trees.items() if other != path
                     for name in _referenced_names(tree)}
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own_module = set(_referenced_names(trees[path], skip=node))
                if node.name not in elsewhere | own_module:
                    uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"
