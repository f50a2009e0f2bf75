"""Which private names the modules of the library share.

A module's underscore names are its own, so a sibling that imports one
shares a decision with it.  Only the tables `classify` bounds the oracle's
regions with, the evaluator of integer forms that `chow` keeps beside
(-K_X)^3's form, the signed-sum writer `chow` renders classes with, the
refusal namer `conditions` prints triplets with and `grading._over`, the
shared builder of every Fraction the library makes from ints, are shared;
any other import of an underscore name fails here.
"""

import ast
from pathlib import Path

import dp1toric

MODULES = sorted(Path(dp1toric.__file__).parent.glob("*.py"))

ALLOWED = {
    ("classify", "chow"): {"_form_at"},
    ("classify", "conditions"): {"_CASE_ROWS", "_TWO_DELTA", "_VALID_ROWS"},
    ("classify", "grading"): {"_over"},
    ("chow", "grading"): {"_over", "_signed_sum"},
    ("conditions", "chow"): {"_form_at"},
    ("conditions", "grading"): {"_over", "_shown"},
}


def private_imports(tree: ast.AST) -> dict[str, set[str]]:
    """{sibling module: underscore names imported from it} in tree, for the
    imports `from .sibling import ...` and `from dp1toric.sibling import ...`
    anywhere in it."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            sibling = node.module or ""
        elif (node.module or "").startswith("dp1toric."):
            sibling = node.module.removeprefix("dp1toric.")
        else:
            continue
        names = {a.name for a in node.names if a.name.startswith("_")}
        if names:
            found.setdefault(sibling, set()).update(names)
    return found


def test_the_guard_sees_private_imports():
    tree = ast.parse("from .conditions import _decide, report\n"
                     "def f():\n    from dp1toric.grading import _fiber_parts\n"
                     "from fractions import _gcd\nfrom . import grading\n")
    assert private_imports(tree) == {"conditions": {"_decide"},
                                     "grading": {"_fiber_parts"}}


def test_only_the_allowed_private_names_are_imported():
    imported = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for sibling, names in private_imports(tree).items():
            imported[path.stem, sibling] = names
    assert imported == ALLOWED
