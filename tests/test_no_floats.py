"""The library stays exact: no float enters it outside svg.py.

Walks the syntax tree of every module under src/veechkit and fails on a
float literal, a float(...) call or a math.sqrt / math.pi reference.  Only
svg.py (which renders) and FieldScalar.__float__ (which it calls) may use
them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "veechkit"
ALLOWED_FILES = {"svg.py"}
ALLOWED_FUNCTIONS = {("field.py", "__float__")}
FLOAT_MATH = {"sqrt", "pi"}


def _float_uses(tree):
    """(line, what) for every float use in `tree`, skipping allowed bodies."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, "math.%s" % node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, "from math import %s" % alias.name


def _allowed_lines(path, tree):
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) in ALLOWED_FUNCTIONS):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_no_floats_outside_svg():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _allowed_lines(path, tree)
        found += ["%s:%d: %s" % (path.name, line, what)
                  for line, what in _float_uses(tree) if line not in allowed]
    assert found == []


def test_the_walk_sees_each_kind_of_float_use():
    code = ("import math\nfrom math import pi\nx = 0.5\ny = float(2)\n"
            "z = math.sqrt(2)\n")
    assert sorted(what for _, what in _float_uses(ast.parse(code))) == [
        "float literal 0.5", "float(...) call", "from math import pi",
        "math.sqrt"]
