"""Built-in ``sum`` stays out of the modules whose float sums reach the output.

From Python 3.12 on, built-in ``sum`` adds floats with compensation, so the
same sum gives other last digits than on 3.10 and 3.11. These modules add
left to right instead (``np.cumsum`` or ``reduce(add, ...)``), so that their
rankings, scores and reports do not depend on the interpreter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgrerank"


@pytest.mark.parametrize(
    "module", ["evaluation.py", "recsys.py", "metrics.py", "cli.py", "rerank.py"]
)
def test_no_builtin_sum_call(module):
    path = PACKAGE / module
    calls = [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []
