"""Span recorder that wraps hhwb's public functions from outside the library.

Each wrapped call records a span [name, start, end, parent index] in memory;
a few calls also add to named counts.  Nothing inside ``src/`` is edited: the
wrappers replace the module attributes (and every ``from ... import`` binding
of them in other hhwb modules) before the command runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.counts = {}
        self._stack = []

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced


# -- counts taken at the layer boundaries ------------------------------------


def _count_rank(tr, args, result):
    nnz = args[0].nnz()
    tr.add("qlinalg.rank_info.nnz", nnz)
    tr.counts["qlinalg.rank_info.max_nnz"] = max(
        tr.counts.get("qlinalg.rank_info.max_nnz", 0), nnz)
    if result.mode.kind == "modular":
        tr.add("qlinalg.rank_info.modular_calls")
        tr.add("qlinalg.rank_info.agreed", int(result.agreed))
        tr.add("qlinalg.failed_primes", len(result.failed_primes))


def _count_complex(tr, args, sc):
    tr.add("hochschild.chains", sum(len(level) for level in sc.levels))
    tr.add("hochschild.d_nnz", sum(d.nnz() for d in sc.d1 + sc.d2))
    n_obj = len(sc.category.objects)
    tr.add("hochschild.enum_tuples",
           sum(n_obj ** (m + 1) for m in range(sc.max_level + 1)))


# (span name, module, attribute or Class.attribute, count hook)
TARGETS = [
    ("qlinalg.rank_info", "hhwb.qlinalg", "rank_info", _count_rank),
    ("qlinalg.solve", "hhwb.qlinalg", "solve", None),
    ("qlinalg.kernel_basis", "hhwb.qlinalg", "kernel_basis", None),
    ("qlinalg.column_space_basis", "hhwb.qlinalg", "column_space_basis", None),
    ("qlinalg.SparseMatrix.mul", "hhwb.qlinalg", "SparseMatrix.mul", None),
    ("qlinalg.projector_invariant_dim", "hhwb.qlinalg",
     "projector_invariant_dim", None),
    ("hochschild.build_complex", "hhwb.hochschild", "build_complex",
     _count_complex),
    ("hochschild.total_differential", "hhwb.hochschild",
     "StandardComplex.total_differential", None),
    ("hochschild.total_homology", "hhwb.hochschild", "total_homology", None),
    ("hochschild.homology_basis", "hhwb.hochschild",
     "StandardComplex.homology_basis", None),
    ("hochschild.induced_chain_map", "hhwb.hochschild", "induced_chain_map",
     None),
    ("hochschild.check_commutes", "hhwb.hochschild",
     "ChainMapData.check_commutes", None),
    ("hochschild.homology_action", "hhwb.hochschild", "homology_action", None),
    ("decomposition.invariant_dims", "hhwb.decomposition", "invariant_dims",
     None),
    ("decomposition.verify_decomposition", "hhwb.decomposition",
     "verify_decomposition", None),
    ("decomposition.rhs_dims", "hhwb.decomposition", "rhs_dims", None),
    ("dgcore.validate_category", "hhwb.dgcore", "validate_category", None),
    ("dgcore.tensor_power", "hhwb.dgcore", "tensor_power", None),
    ("cli.load_input", "hhwb.cli", "load_input", None),
    ("cli.category_from_dict", "hhwb.cli", "category_from_dict", None),
    ("cli.main", "hhwb.cli", "main", None),
]

SPAN_NAMES = [t[0] for t in TARGETS]


def rebind(module, attr, new):
    """Replace module.attr, and every hhwb module's binding of the same
    object, with new."""
    old = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if name == "hhwb" or name.startswith("hhwb."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def install(tracer: Tracer):
    for span_name, mod_name, attr, hook in TARGETS:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, vars(cls)[meth], hook))
        else:
            rebind(module, attr, tracer.wrap(span_name, getattr(module, attr),
                                             hook))


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the durations of the
    span's direct children (children nest inside their parent)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def inclusive_times(spans) -> dict:
    """Total inclusive time per span name.  No wrapped call reaches itself,
    so spans of one name never nest."""
    out = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out
