"""No module of the package uses floating point: every answer is exact."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "ncd_moduli").rglob("*.py"))


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            found.append(f"line {node.lineno}: import cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"line {node.lineno}: from cmath import")
    return found


def test_modules_found():
    assert len(MODULES) > 5


def test_detector_flags_each_kind():
    source = "import cmath\nfrom cmath import pi\nx = 1.0\ny = 2j\nz = float(3)\nw = complex\n"
    assert len(_float_uses(ast.parse(source))) == 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text(), filename=str(path))) == []
