"""hhwb benchmark: one workload as a closed loop of fresh hhwb processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs one hhwb process at
a time, each on the seeded input, with the result cache off, until the next
process would end after S seconds.  Every answer is checked against frozen values.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics:
  wall_s       process launch until the report is written
  setup_s      process launch until the input has passed validate_category
  peak_rss_mb  the process's maximum resident set size
each the median over the run's processes.  The run and its processes are
pinned to one CPU, and the reference kernel of calibrate.py is timed there
between every two processes.  The two times are calibrated: each process's
wall time is divided by the mean of the kernel's times in the gaps just
before and after it, its set-up time by that of the gap before, and both
are multiplied by calibrate.REF_S.  On a shared host, neighbours slow the
same code by up to 1.7x for seconds to minutes, and the quotient cancels
most of that (see NOTES.md).  The raw times, with their median, tail and
sample count, go to standard error.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the fastest traced process: self times and counts at
the wrapped calls (see tracer.py), its coverage and its overhead over the
fastest untraced process.  A traced process also fails if any modular rank
reports that its primes disagreed, which the decompose report cannot show.
Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REF_S, reference_seconds
from tracer import SPAN_NAMES, inclusive_times, self_times
from workloads import WORKLOADS, check, generate

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

# Counts that must repeat exactly on every traced process and every seed.
COUNT_KEYS = [
    "qlinalg.rank_info.nnz", "qlinalg.rank_info.max_nnz",
    "qlinalg.rank_info.modular_calls", "qlinalg.rank_info.agreed",
    "qlinalg.failed_primes", "hochschild.chains", "hochschild.d_nnz",
    "hochschild.enum_tuples",
]
REF_CALLS = 3  # reference kernel calls between two processes
INCLUSIVE = ["hochschild.build_complex", "decomposition.invariant_dims"]
CALLS = ["qlinalg.rank_info", "qlinalg.solve", "qlinalg.SparseMatrix.mul",
         "hochschild.total_differential", "hochschild.induced_chain_map",
         "hochschild.homology_action"]


def run_once(workload, argv, workdir, trace):
    """One hhwb process.  Returns (failure reason or '', sample or None)."""
    out = os.path.join(workdir, "child.json")
    report = os.path.join(workdir, "report.json")
    for path in (out, report):
        if os.path.exists(path):
            os.unlink(path)
    env = {k: v for k, v in os.environ.items() if k != "HHWB_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), out, str(trace),
           "--", *argv, "--out", report]
    with open(os.path.join(workdir, "stderr.txt"), "w+") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    record = rep = None
    if os.path.exists(out):
        with open(out) as fh:
            record = json.load(fh)
    if os.path.exists(report):
        with open(report) as fh:
            rep = json.load(fh)
    reason = check(workload, proc.returncode, rep)
    if not reason and (record is None or "setup" not in record["stamps"]):
        reason = "no timestamps recorded"
    if not reason and trace:
        counts = record["counts"]
        if (counts.get("qlinalg.rank_info.agreed", 0)
                != counts.get("qlinalg.rank_info.modular_calls", 0)):
            reason = "primes disagree in a modular rank"
    if reason:
        print(f"run failed: {reason}\n{stderr[-2000:]}", file=sys.stderr)
        return reason, None
    stamps = record["stamps"]
    return "", {
        "wall_s": stamps["end"] - launched,
        "setup_s": stamps["setup"] - launched,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "launched": launched,
        "spans": record.get("spans"),
        "counts": record.get("counts"),
    }


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of the fastest traced process.  Counts must be
    identical in every traced process; any that differ are named."""
    per_run = []
    for sample in traced:
        spans = sample["spans"]
        selfs = self_times(spans)
        incl = inclusive_times(spans)
        wall = sample["wall_s"]
        names = [s[0] for s in spans]
        m = {f"{n}.self_s": selfs.get(n, 0.0) for n in SPAN_NAMES}
        m.update({f"{n}.calls": names.count(n) for n in CALLS})
        m.update({k: sample["counts"].get(k, 0) for k in COUNT_KEYS})
        m["decomposition.group_elements"] = names.count(
            "hochschild.homology_action")
        for n in INCLUSIVE:
            m[f"{n}.total_s"] = incl.get(n, 0.0)
        m["trace.wall_s"] = wall
        m["trace.spans"] = len(spans)
        m["process.startup_s"] = spans[0][1] - sample["launched"]
        m["trace.coverage"] = sum(selfs.values()) / wall
        per_run.append(m)
    counts = [k for k, v in per_run[0].items() if isinstance(v, int)]
    unstable = [k for k in counts if len({m[k] for m in per_run}) > 1]
    for k in unstable:
        print(f"count {k} differs between processes: "
              f"{sorted({m[k] for m in per_run})}", file=sys.stderr)
    out = min(per_run, key=lambda m: m["trace.wall_s"])
    wall = out["trace.wall_s"]
    modular = out["qlinalg.rank_info.modular_calls"]
    out["qlinalg.prime_agreement"] = (
        out["qlinalg.rank_info.agreed"] / modular if modular else 1.0)
    out["hochschild.enum_yield"] = (
        out["hochschild.chains"] / out["hochschild.enum_tuples"])
    out["qlinalg.rank_info.share"] = out["qlinalg.rank_info.self_s"] / wall
    for n in INCLUSIVE:
        out[f"{n}.share"] = out[f"{n}.total_s"] / wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.counts_stable"] = 0 if unstable else 1
    return out


def reference_gap():
    """Mean time of the reference kernel over the calls made in one gap
    between processes; one call alone is too short to be steady."""
    return statistics.mean(reference_seconds() for _ in range(REF_CALLS))


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    p = 100 * (len(values) - 10) // len(values)
    if p <= 50:
        return ""
    return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    fixtures = os.path.join(ROOT, "fixtures")
    if not (os.path.isfile(os.path.join(ROOT, "src", "hhwb", "cli.py"))
            and os.path.isfile(os.path.join(
                fixtures, WORKLOADS[args.workload].fixture))):
        print(f"{ROOT} is not an hhwb checkout: src/hhwb or fixtures missing",
              file=sys.stderr)
        return 2
    untraced, traced = [], []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        argv = generate(args.workload, args.seed, fixtures, tmp)
        # Compile hhwb's bytecode first: users pay that once, not per run.
        subprocess.run([sys.executable, "-c", "import hhwb.cli"], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                       check=True)
        # One CPU for the run, so that the kernel and the processes are
        # timed on the same one.  The first kernel call is warm-up.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        reference_seconds()
        ref = reference_gap()
        deadline = time.monotonic() + args.seconds
        durations = []
        while True:
            trace = args.trace == 1 and attempted % 2 == 1
            attempted += 1
            t0 = time.monotonic()
            reason, sample = run_once(args.workload, argv, tmp, int(trace))
            ref_before, ref = ref, reference_gap()
            durations.append(time.monotonic() - t0)
            if sample:
                # Set-up runs straight after the gap before the process.
                sample["setup_ref_s"] = ref_before
                sample["ref_s"] = (ref_before + ref) / 2
            if reason:
                failed += 1
            else:
                (traced if trace else untraced).append(sample)
            enough = attempted >= 2 if args.trace else attempted >= 1
            if enough and deadline - time.monotonic() < statistics.median(
                    durations):
                break
    metrics = {}
    if untraced and (traced or not args.trace):
        wall = min(s["wall_s"] for s in untraced)
        if args.trace:
            values = layer_metrics(traced, wall)
        else:
            values = {
                "wall_s": statistics.median(
                    s["wall_s"] * REF_S / s["ref_s"] for s in untraced),
                "setup_s": statistics.median(
                    s["setup_s"] * REF_S / s["setup_ref_s"] for s in untraced)}
            values["peak_rss_mb"] = statistics.median(
                s["peak_rss_mb"] for s in untraced)
        assert set(values) == {m["name"] for m in listed}, sorted(values)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed}
    n = len(untraced)
    print(f"{args.workload} seed {args.seed}: {attempted} processes, "
          f"{failed} failed (error_rate {failed / attempted:.3f}), "
          f"{n} untraced and {len(traced)} traced samples", file=sys.stderr)
    for key in ("wall_s", "setup_s", "ref_s"):
        times = [s[key] for s in untraced]
        if times:
            print(f"  raw {key}: min {min(times):.4f} s, median "
                  f"{statistics.median(times):.4f} s over {n}"
                  f"{tail(times)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
