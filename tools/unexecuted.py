"""List the statements of src/dp1toric that tier-1 never executes.

Reads and parses src/dp1toric/*.py, runs the tier-1 suite in this process
under `sys.settrace`, then prints `path:line: statement` for each statement
on none of whose header lines a line event fired.  The sources are read
before the run, as the suite imports them, so a file edited during the run
is not reported against lines it no longer has.  Module, class and function
docstrings are skipped, as in tools/code_lines.py; code that only the
suite's subprocesses run (the entry points) is listed.  Takes about two
minutes.  Run from anywhere: python3 tools/unexecuted.py
"""

import ast
import sys

from code_lines import SRC, docstrings

ROOT = SRC.parent.parent


def statements(text: str) -> list[tuple[int, range]]:
    """(line, header lines) of each statement but docstrings.  The header
    of a compound statement runs from its first decorator to the line
    before its body."""
    tree = ast.parse(text)
    skipped = set(map(id, docstrings(tree)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in skipped:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            found.append((node.lineno, range(first, body[0].lineno if body
                                             else node.end_lineno + 1)))
    return found


def run_tier1() -> dict[str, set[int]]:
    """The lines of each src/dp1toric file that the tier-1 run executed."""
    import pytest

    hit = {str(path): set() for path in SRC.glob("*.py")}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(trace)
    try:
        pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return hit


def main() -> None:
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = {path: sorted(statements(text), key=lambda s: s[0])
             for path, text in texts.items()}
    hit = run_tier1()
    for path, text in texts.items():
        source = text.splitlines()
        lines = hit[str(path)]
        for line, header in found[path]:
            if lines.isdisjoint(header):
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")


if __name__ == "__main__":
    main()
