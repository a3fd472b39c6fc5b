"""Only hhwb.hochschild knows how a total-degree block lies over the
levels: the other modules read and write block vectors through
StandardComplex.block_permutation, block_levels and block_vector.  No
function in hhwb takes a parameter whose name starts with an underscore:
such a private knob is a second path through the function that only some
callers take.  No module or class in hhwb holds a mutable container:
state kept between calls would make one answer depend on another.  And
no module that compute or decompose loads imports fractions when it is
imported: an integral input keeps its coefficients in ints, and only a
coefficient that is not one loads rational arithmetic."""

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


# calls that make a mutable container, by name or attribute name
CONTAINERS = {"dict", "list", "set", "bytearray", "defaultdict",
              "OrderedDict", "Counter", "deque", "WeakValueDictionary",
              "WeakKeyDictionary", "WeakSet"}


def makes_container(node: ast.AST) -> bool:
    """Whether evaluating the expression `node` makes a mutable container:
    a list, dict or set literal or comprehension, or a call of one of
    CONTAINERS or of anything in weakref; a lambda's body is not run."""
    if isinstance(node, ast.Lambda):
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in CONTAINERS:
            return True
        if isinstance(f, ast.Attribute) and (
                f.attr in CONTAINERS
                or isinstance(f.value, ast.Name) and f.value.id == "weakref"):
            return True
    return any(map(makes_container, ast.iter_child_nodes(node)))


def lasting_containers(source: str) -> list:
    """(line, target) of each assignment outside a function in `source`,
    at module level or in a class body, whose value makes a mutable
    container."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(child, (ast.Assign, ast.AnnAssign))
                    and child.value is not None
                    and makes_container(child.value)):
                target = (child.targets[0] if isinstance(child, ast.Assign)
                          else child.target)
                out.append((child.lineno, ast.unparse(target)))
            visit(child)

    visit(ast.parse(source))
    return sorted(out)


def test_no_module_keeps_a_mutable_container():
    found = {path.name: lasting_containers(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_mutable_containers():
    source = ("import weakref\n"
              "A = []\n"
              "B: dict = {}\n"
              "C = {k: 1 for k in 'ab'}\n"
              "D = defaultdict(list)\n"
              "E = weakref.WeakValueDictionary()\n"
              "F = (1, [2])\n"
              "if True:\n    G = set()\n"
              "class H:\n    cache = dict()\n    n: int\n"
              "LinComb = dict\n"
              "I = (1, 2)\n"
              "J = namedtuple('J', 'a b')\n"
              "f = lambda: []\n"
              "def g():\n    local = []\n")
    assert lasting_containers(source) == [
        (2, "A"), (3, "B"), (4, "C"), (5, "D"), (6, "E"), (7, "F"),
        (9, "G"), (11, "cache")]


# the modules compute and decompose load
START_UP = ["cli.py", "dgcore.py", "qlinalg.py", "hochschild.py",
            "decomposition.py"]


def import_time_imports(source: str, module: str) -> list:
    """Line of each import of `module` in `source` that runs when it is
    imported: at module level or in a class body, not in a function."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import) and any(
                    a.name.split(".")[0] == module for a in child.names):
                out.append(child.lineno)
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                  and child.module.split(".")[0] == module):
                out.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(out)


def test_no_start_up_module_imports_fractions():
    found = {name: import_time_imports((SRC / name).read_text(), "fractions")
             for name in START_UP}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_import_time_imports():
    source = ("from fractions import Fraction\n"
              "import fractions as fr\n"
              "try:\n    import fractions\nexcept ImportError:\n    pass\n"
              "class C:\n    from fractions import Fraction\n"
              "from .fractions import x\n"
              "import fractionsx\n"
              "def f():\n    from fractions import Fraction\n"
              "g = lambda: __import__('fractions')\n")
    assert import_time_imports(source, "fractions") == [1, 2, 4, 8]
