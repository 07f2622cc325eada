import ast
from pathlib import Path

import entnoise

SOURCE = Path(entnoise.__file__).parent


def test_no_assert_statements_in_library():
    # postconditions must still run under python -O, which strips asserts
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
