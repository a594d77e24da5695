"""The library keeps one LP representation: every LP is a ``RowFormLP``.

An AST scan of ``src/repro`` fails when any module defines or imports the
expression layer's names (``Model``, ``LinearExpression``, ``Variable``,
``Constraint``), calls ``scipy.optimize.milp``/``linprog``, or imports from
the test-suite.  Those live in ``tests/oracle_model.py`` and
``tests/oracles.py`` as references only.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
EXPRESSION_NAMES = {"Model", "LinearExpression", "Variable", "Constraint"}
SCIPY_SOLVERS = {"milp", "linprog"}


def violations(path: Path) -> list:
    """Every boundary breach in one module, as ``"line: what"`` strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in EXPRESSION_NAMES:
            found.append(f"{line}: defines {node.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "tests" or module.startswith("tests.") or module.startswith("oracle"):
                found.append(f"{line}: imports from the test-suite ({module})")
            for alias in node.names:
                if alias.name in EXPRESSION_NAMES:
                    found.append(f"{line}: imports {alias.name} from {module}")
                if alias.name in SCIPY_SOLVERS and module.startswith("scipy"):
                    found.append(f"{line}: imports scipy's {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "tests" or alias.name.startswith(("tests.", "oracle")):
                    found.append(f"{line}: imports the test-suite ({alias.name})")
        elif isinstance(node, ast.Attribute) and node.attr in SCIPY_SOLVERS:
            if isinstance(node.value, ast.Name) and node.value.id == "optimize":
                found.append(f"{line}: calls optimize.{node.attr}")
            elif isinstance(node.value, ast.Attribute) and node.value.attr == "optimize":
                found.append(f"{line}: calls optimize.{node.attr}")
    return found


def test_library_uses_the_row_form_only():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "core" / "provisioning.py" in modules
    breaches = {
        path.relative_to(SRC).as_posix(): violations(path) for path in modules
    }
    assert {name: found for name, found in breaches.items() if found} == {}


@pytest.mark.parametrize(
    "source",
    [
        "from repro.lpsolver import Model\n",
        "class LinearExpression:\n    pass\n",
        "from scipy import optimize\noptimize.milp(c=None)\n",
        "import scipy.optimize\nscipy.optimize.linprog(c=None)\n",
        "from scipy.optimize import linprog\n",
        "from oracles import linprog_solve\n",
        "import tests.oracles\n",
    ],
)
def test_scan_catches(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    assert violations(path)
