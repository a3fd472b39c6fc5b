"""Only hhwb.hochschild knows how a total-degree block lies over the
levels: the other modules read and write block vectors through
StandardComplex.block_permutation, block_levels and block_vector.  And no
function in hhwb takes a parameter whose name starts with an underscore:
such a private knob is a second path through the function that only some
callers take."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hhwb"
BLOCK_LAYOUT = {"_runs", "positions", "whole"}


def layout_calls(path: Path) -> list:
    """(line, name) of each call of a block-layout method in `path`."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in BLOCK_LAYOUT]


def test_only_hochschild_reads_the_block_layout():
    outside = {path.name: layout_calls(path)
               for path in sorted(SRC.glob("*.py"))
               if path.name != "hochschild.py"}
    assert {name: calls for name, calls in outside.items() if calls} == {}


def test_the_guard_sees_the_layout_calls_of_hochschild():
    assert {name for _, name in layout_calls(SRC / "hochschild.py")} \
        == BLOCK_LAYOUT


def private_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function or
    lambda in `source` whose name starts with an underscore."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.arg.startswith("_"):
                    out.append((node.lineno, getattr(node, "name", "lambda"),
                                arg.arg))
    return out


def test_no_function_takes_a_private_parameter():
    found = {path.name: private_parameters(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: params for name, params in found.items() if params} == {}


def test_the_guard_sees_private_parameters():
    source = ("def f(a, _b=None, *_args, _c=1, **_kw):\n    pass\n"
              "g = lambda _x: _x\n")
    assert private_parameters(source) == [
        (1, "f", "_b"), (1, "f", "_c"), (1, "f", "_args"), (1, "f", "_kw"),
        (3, "lambda", "_x")]
