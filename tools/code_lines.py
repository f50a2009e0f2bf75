"""Count the code lines of each src/dp1toric/*.py file, and their total.

A code line is not blank, not a `#` comment and not inside a module, class
or function docstring.  Run from anywhere: python3 tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dp1toric"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and n not in docstrings)


total = 0
for path in sorted(SRC.glob("*.py")):
    count = code_lines(path.read_text())
    total += count
    print(f"{count:6d} {path.name}")
print(f"{total:6d} total")
