"""Workload definitions, the seeded input generator and the output checker.

The generator rewrites a fixture so that the program sees a new input for
every seed while the mathematics is unchanged: basis and object ids are
relabelled, the order of objects, ``homs`` and ``compose`` entries is
shuffled, and the permutation twist is replaced by a random conjugate.  Twisted
Hochschild homology depends only on the conjugacy class of the twist, so the
expected outputs below do not depend on the seed.

The expected values are frozen from oracles that do not use hhwb (see
``tests/``):

* HH(D) for the dual numbers D = k[x]/x^2 from the periodic resolution
  (``periodic_resolution_dims_D``): 2 in degree 0 and 1 in each degree below.
  D^{⊗n} twisted by an n-cycle has the same homology (the swap for n = 2).
* The decomposition of HH(Sym^3 D) from the generating-series oracle
  (``series_rhs_oracle``): 10, 8, 9 in degrees 0, -1, -2.
* HH of the path algebra of a -> b from the brute-force bar complex
  (``bar_complex_dims_T2``): 2 in degree 0 and 0 below, also for the
  3-cycle twist of its cube.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    fixture: str
    verb: str
    options: tuple     # hhwb options after the input path
    cycle: tuple       # (n, cycle): --twist is a random conjugate of it
    expected: dict     # degree -> dim (compute) or degree -> lhs = rhs total
    mode: str          # "modular" or "exact"


WORKLOADS = {
    "compute-modular": Workload(
        "dual_numbers.json", "compute",
        ("--max-level", "6", "--degrees=-5..0"), (2, (1, 2)),
        {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1}, "modular"),
    "compute-exact": Workload(
        "dual_numbers.json", "compute",
        ("--max-level", "6", "--degrees=-5..0", "--mode", "exact"), (2, (1, 2)),
        {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1}, "exact"),
    "decompose": Workload(
        "dual_numbers.json", "decompose",
        ("--n", "3", "--max-level", "3", "--degrees=-2..0"), None,
        {0: 10, -1: 8, -2: 9}, "modular"),
    "enumerate-multiobject": Workload(
        "quiver_a2.json", "compute",
        ("--max-level", "6", "--mode", "exact"), (3, (1, 2, 3)),
        {0: 2, -1: 0, -2: 0, -3: 0, -4: 0, -5: 0}, "exact"),
}


def _fresh_ids(rng, prefix, names):
    """Distinct ids of one fixed length per kind, so memory use does not
    depend on the seed."""
    picks = rng.sample(range(10 ** 5), len(names))
    return {name: f"{prefix}{k:05d}" for name, k in zip(names, picks)}


def relabel(data: dict, rng: random.Random) -> dict:
    obj = _fresh_ids(rng, "o", data["objects"])
    bid = _fresh_ids(rng, "m", [h["name"] for h in data["homs"]])

    def lin(entries):
        return [dict(e, basis=bid[e["basis"]]) for e in entries]

    out = {
        "name": data.get("name", "category"),
        "objects": [obj[o] for o in data["objects"]],
        "homs": [dict(h, name=bid[h["name"]], src=obj[h["src"]],
                      tgt=obj[h["tgt"]]) for h in data["homs"]],
        "units": {obj[o]: bid[u] for o, u in data["units"].items()},
        "compose": [{"g": bid[e["g"]], "f": bid[e["f"]],
                     "result": lin(e.get("result", []))}
                    for e in data.get("compose", [])],
        "diff": [{"basis": bid[e["basis"]], "result": lin(e.get("result", []))}
                 for e in data.get("diff", [])],
    }
    for key in ("objects", "homs", "compose"):
        rng.shuffle(out[key])
    return out


def conjugate_twist(n: int, cycle: tuple, rng: random.Random) -> str:
    """perm:n:<cycle of g∘σ∘g⁻¹> for a random g in S_n."""
    g = list(range(1, n + 1))
    rng.shuffle(g)
    return f"perm:{n}:(" + " ".join(str(g[i - 1]) for i in cycle) + ")"


def generate(name: str, seed: int, fixtures: str, workdir: str) -> list:
    """Write the seeded input into workdir; return the hhwb argument list."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    with open(os.path.join(fixtures, wl.fixture)) as fh:
        data = relabel(json.load(fh), rng)
    path = os.path.join(workdir, "input.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    argv = [wl.verb, path, *wl.options]
    if wl.cycle:
        argv.append("--twist=" + conjugate_twist(*wl.cycle, rng))
    return argv


def check(name: str, code: int, report) -> str:
    """'' when the run's outputs match the frozen values, else the reason."""
    wl = WORKLOADS[name]
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    res = report["results"]
    want = {str(k): v for k, v in wl.expected.items()}
    if wl.verb == "decompose":
        for side in ("lhs_totals", "rhs_totals"):
            if res[side] != want:
                return f"{side} {res[side]} != {want}"
        if set(res["verdicts"].values()) != {"Equal"}:
            return f"verdicts {res['verdicts']}"
        return ""
    got = {k: v["dim"] for k, v in res.items()}
    if got != want:
        return f"dims {got} != {want}"
    for k, v in res.items():
        if v["certificate"] != "exact":
            return f"degree {k}: certificate {v['certificate']}"
        if v["mode"] != wl.mode:
            return f"degree {k}: mode {v['mode']}"
        if not v["agreed"]:
            return f"degree {k}: primes disagree"
    return ""
