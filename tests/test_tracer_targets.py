"""The bench tracer (bench/tracer.py) wraps hhwb's functions by module and
attribute name from outside the library, and its count hooks read what
they return.  A refactor that renames or moves one of them would break
`bench/run.py --trace 1` with no other test failing, so every target must
resolve here as `tracer.install` resolves it.  The tracer's source is read
and executed, never imported, so nothing is written under bench/."""

import importlib
from pathlib import Path

from hhwb.dgcore import identity_functor
from hhwb.hochschild import build_complex
from hhwb.qlinalg import MODULAR, rank_info

from conftest import dual_numbers

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_namespace() -> dict:
    ns = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), ns)
    return ns


def resolves(mod_name: str, attr: str) -> bool:
    """True when tracer.install finds a function to wrap: a module
    attribute, or a method in the class's own __dict__."""
    module = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and callable(vars(cls).get(meth))
    return callable(getattr(module, attr, None))


def test_every_tracer_target_resolves():
    targets = tracer_namespace()["TARGETS"]
    assert targets
    assert [span for span, mod_name, attr, _ in targets
            if not resolves(mod_name, attr)] == []


def test_the_guard_sees_a_target_that_is_gone():
    assert resolves("hhwb.qlinalg", "SparseMatrix.mul")
    assert not resolves("hhwb.qlinalg", "SparseMatrix.no_such_method")
    assert not resolves("hhwb.qlinalg", "NoSuchClass.mul")
    assert not resolves("hhwb.hochschild", "no_such_function")


def test_the_count_hooks_read_what_hhwb_returns():
    ns = tracer_namespace()
    hooks = {span: hook for span, _, _, hook in ns["TARGETS"] if hook}
    tracer = ns["Tracer"]()
    c = dual_numbers()
    sc = build_complex(c, identity_functor(c), 3)
    d = sc.total_differential(-2)
    hooks["qlinalg.rank_info"](tracer, (d,), rank_info(d, MODULAR))
    hooks["hochschild.build_complex"](tracer, (), sc)
    counts = tracer.counts
    assert counts["qlinalg.rank_info.nnz"] == d.nnz() > 0
    assert counts["qlinalg.rank_info.agreed"] == 1
    assert counts["hochschild.chains"] == sum(map(len, sc.levels))
    assert counts["hochschild.d_nnz"] == sum(m.nnz() for m in sc.d1 + sc.d2)
