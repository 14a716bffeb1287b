"""One way to add floats in the modules whose float sums reach the output.

From Python 3.12 on, built-in ``sum`` adds floats with compensation, so the
same sum gives other last digits than on 3.10 and 3.11. These modules add
left to right instead, so that their rankings, scores and reports do not
depend on the interpreter, and by one idiom: ``metrics._running_total``, which
takes an array's rows or a 1-D array built from a Python list. Only
``_running_total`` reads a sum off ``np.cumsum`` or calls a ``reduce``;
elsewhere ``np.cumsum`` costs several times the helper's sum down the slow
axis, and ``functools.reduce`` is a second idiom beside it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgrerank"
MODULES = ["evaluation.py", "recsys.py", "metrics.py", "cli.py", "rerank.py"]


def _tree(module):
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_no_builtin_sum_call(module):
    calls = [
        f"{module}:{node.lineno}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []


def _last_of_cumsum(node) -> bool:
    """``np.cumsum(...)[-1]``, ``[:, -1]``, ``[..., -1]`` and the like."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "cumsum"
        and any(
            isinstance(index, ast.UnaryOp)
            and isinstance(index.op, ast.USub)
            and isinstance(index.operand, ast.Constant)
            and index.operand.value == 1
            for index in ast.walk(node.slice)
        )
    )


def _reduce_call(node) -> bool:
    """``reduce(...)``, ``functools.reduce(...)``, ``np.add.reduce(...)`` and
    the like."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "reduce")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "reduce")
    )


def _outside_running_total(module):
    """Every node of the module but those of ``metrics._running_total``."""
    tree = _tree(module)
    allowed = {
        id(node)
        for fn in tree.body
        if module == "metrics.py" and getattr(fn, "name", None) == "_running_total"
        for node in ast.walk(fn)
    }
    return [node for node in ast.walk(tree) if id(node) not in allowed]


@pytest.mark.parametrize("module", MODULES)
def test_sums_off_cumsum_only_in_running_total(module):
    found = [
        f"{module}:{node.lineno}"
        for node in _outside_running_total(module)
        if _last_of_cumsum(node)
    ]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_reduce_calls_only_in_running_total(module):
    found = [
        f"{module}:{node.lineno}"
        for node in _outside_running_total(module)
        if _reduce_call(node)
    ]
    assert found == []


def test_the_guard_sees_each_form():
    forms = ["np.cumsum(x)[-1]", "np.cumsum(x, axis=1)[:, -1]", "np.cumsum(x)[..., -1]"]
    assert all(_last_of_cumsum(ast.parse(form).body[0].value) for form in forms)
    assert not _last_of_cumsum(ast.parse("np.cumsum(x)[1:]").body[0].value)
    reduces = ["reduce(add, xs, 0.0)", "functools.reduce(add, xs)", "np.add.reduce(x)"]
    assert all(_reduce_call(ast.parse(form).body[0].value) for form in reduces)
    assert not _reduce_call(ast.parse("reduced(x)").body[0].value)
