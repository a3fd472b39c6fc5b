"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the same code runs up to 1.7x slower when neighbours are
busy, and such states last from seconds to minutes, so whole runs of the
benchmark fall into them.  ``run.py`` times this kernel between every two
hhwb processes on the same CPU and divides each process's wall time by the
kernel's mean time in the gaps just before and just after it.  The quotient
is the process's cost in units of the kernel, which the host's state moves
much less than it moves either time.  Multiplied by ``REF_S`` it reads in
seconds again.

The kernel does the kinds of work hhwb does, in pure Python and without
importing hhwb, so a change to hhwb cannot change it: sparse row elimination
over ``Fraction`` and over GF(p), and dictionaries keyed by tuples.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# A fixed scale, so that calibrated times read like seconds: about the
# kernel's fastest time on a 2-vCPU Xeon VM with Python 3.11.
REF_S = 0.06

P = 1048583
RANKS = (60, 140, 1001)  # the kernel's result, checked on every call


def _rows(rng, n_rows, n_cols, per_row):
    return [{c: rng.randint(1, 9) for c in rng.sample(range(n_cols), per_row)}
            for _ in range(n_rows)]


def _rank(rows, reduce, inverse):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            prow = pivots[c]
            f = reduce(row[c] * inverse(prow[c]))
            for k, v in prow.items():
                nv = reduce(row.get(k, 0) - f * v)
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def kernel() -> tuple:
    rng = random.Random(12345)
    over_q = [{k: Fraction(v) for k, v in r.items()}
              for r in _rows(rng, 60, 70, 4)]
    r1 = _rank(over_q, lambda x: x, lambda x: 1 / x)
    r2 = _rank(_rows(rng, 140, 150, 5), lambda x: x % P,
               lambda x: pow(x, P - 2, P))
    buckets = {}
    for t in range(6000):
        buckets.setdefault((t % 7, t % 11, t % 13), []).append(t)
    return r1, r2, len(buckets)


def reference_seconds() -> float:
    """Wall time of one call of the kernel."""
    t0 = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - t0
    if result != RANKS:
        raise RuntimeError(f"reference kernel returned {result}, not {RANKS}")
    return elapsed
