"""Count the code lines of each src/dp1toric/*.py file, and their total.

A code line is not blank, not a `#` comment and not inside a module, class
or function docstring (`docstrings`, which tools/unexecuted.py shares).
Run from anywhere: python3 tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dp1toric"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstrings(tree: ast.AST) -> list[ast.stmt]:
    """The docstring statement of each module, class and function of tree."""
    return [node.body[0] for node in ast.walk(tree) if isinstance(node, SCOPES)
            and ast.get_docstring(node, clean=False) is not None]


def code_lines(text: str) -> int:
    skipped = {n for doc in docstrings(ast.parse(text))
               for n in range(doc.lineno, doc.end_lineno + 1)}
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and n not in skipped)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
