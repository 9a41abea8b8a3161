"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "augridge"


def _einsum_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else getattr(f, "id", None))
            if name == "einsum":
                yield node


def _einsum_operands(call):
    """The operand count of an einsum call: the subscripts' comma-separated
    inputs when they are a literal, else half the arguments (the
    interleaved operand, sublist form)."""
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value.split("->")[0].count(",") + 1
    return len(call.args) // 2


def test_no_einsum_with_three_or_more_operands():
    # numpy runs such an einsum without optimize as one loop over every
    # index (p^2 q terms for theta^T S theta); ridge.quadratic_form is the
    # GEMM form of it
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls += [(path.name, call) for call in _einsum_calls(tree)]
    assert calls, f"no einsum call found under {SRC}"
    slow = [f"{name}:{call.lineno}" for name, call in calls
            if _einsum_operands(call) >= 3]
    assert not slow, f"einsum with three or more operands at {slow}"
