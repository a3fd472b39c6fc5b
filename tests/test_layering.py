"""Only hhwb.hochschild knows how a total-degree block lies over the
levels: the other modules read and write block vectors through
StandardComplex.block_permutation, block_levels and block_vector."""

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
