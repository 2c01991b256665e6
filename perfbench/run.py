"""npscalar benchmark: one workload, one process, a closed loop of one client.

    python3 perfbench/run.py --workload deep|wide|audit --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from ./src. With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Every op is checked; the last line of stdout
is one JSON object, and the exit code is nonzero if any op failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from importlib import metadata

from spans import MESSAGE_KINDS, Tracer
from workloads import (
    ENGINE_LAYERS,
    POOL_SIZE,
    WORKLOADS,
    check_op,
    make_inputs,
    message_count,
    run_op,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_OPS = 11  # a tail is the highest percentile with ten samples beyond it
SETUP_SAMPLES = 5  # this process's set-up plus four fresh ones, median reported
TRACED_OPS = 2  # inputs traced per pass; two passes must count identically
REF_WINDOW = 2  # reference runs on each side of an op that set its unit
MIB = float(1 << 20)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, npscalar, workload, entry):
        """Run and check one op: (seconds, output), or (None, None) if it
        raised or failed its check. gc runs before the timed region."""
        vectors, seed = entry
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            out = run_op(npscalar, workload, vectors, seed)
            elapsed = time.perf_counter() - start
            problems = check_op(npscalar, workload, vectors, out)
        except Exception:  # a raising op is a failed op; the run goes on
            problems = [traceback.format_exc()]
        if problems:
            self.fail("; ".join(problems))
            return None, None
        return elapsed, out

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"op failed: {reason}", file=sys.stderr)


def setup(workload, seed, tally):
    """Import the engine, make the inputs and run one untimed warm-up op."""
    if not os.path.isfile(os.path.join(SRC, "npscalar", "__init__.py")):
        sys.exit(f"error: no npscalar package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import npscalar

    pool = make_inputs(workload, seed)
    tally.attempt(npscalar, workload, pool[0])
    return npscalar, pool, time.perf_counter() - start


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with npscalar: 64-bit
    modular arithmetic, small tuples and dict updates, about 20 ms. Op times
    are reported in units of it (`ref`)."""
    x = 0x9E3779B97F4A7C15
    counts = {}
    for i in range(12000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (i & 511, x >> 57)
        counts[key] = counts.get(key, 0) + 1
        parts = tuple(x >> s & 0xFFFF for s in (0, 16, 32, 48))
    return len(counts) + parts[0]


def time_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def relative(times, refs):
    """Each op's wall time in units of the reference loop's mean time over
    the runs next to it, REF_WINDOW on each side. The machine's speed swings
    by a third within seconds and drifts over minutes; a nearby reference
    takes most of that out of the ratio."""
    return [
        t / statistics.fmean(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def measure(npscalar, workload, pool, seconds, min_ops, tally, on_op=None):
    """For `seconds`, and at least `min_ops` ops: each op's wall time and
    the wall time of one reference loop run right after it."""
    times, refs, msgs = [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        elapsed, out = tally.attempt(npscalar, workload, pool[i % POOL_SIZE])
        if out is not None:
            times.append(elapsed)
            msgs = message_count(out)
            if on_op is not None:
                on_op(i, out)
            del out
            refs.append(time_reference())
        i += 1
    return times, refs, msgs


def fresh_setup_s(workload, seed, tally):
    """Set-up time of a new process; its warm-up op counts as attempted."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    tally.attempted += 1
    if proc.returncode != 0:
        tally.fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def tail(times):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(npscalar, workload, seed, pool, seconds, tally, setup_s):
    times, refs, msgs = measure(npscalar, workload, pool, seconds, MIN_OPS, tally)
    fresh = [fresh_setup_s(workload, seed, tally) for _ in range(SETUP_SAMPLES - 1)]
    setups = [setup_s] + [s for s in fresh if s is not None]
    if not times:  # every op failed: nothing was timed
        times, refs = [0.0], [1.0]
    ratios = relative(times, refs)
    ref_p50 = statistics.median(ratios)
    ref_tail, pct = tail(ratios)
    wall_p50 = statistics.median(times)
    print(f"# {len(times)} timed ops, {msgs} messages per op; the tails are "
          f"p{pct:.1f}; set-up samples {setups}")
    print("# wall clock, which drifts with the machine's speed:")
    for name, value, unit in (
        ("op_s_p50", wall_p50, "s"),
        ("op_s_tail", tail(times)[0], "s"),
        ("msgs_per_s", msgs / wall_p50 if wall_p50 else 0.0, "1/s"),
        ("reference_s_p50", statistics.median(refs), "s"),
        ("fail_ratio", tally.failed / tally.attempted, "ratio"),
    ):
        print(f"#   {name:38s} {value:16.6f} {unit}")
    return {
        "op_ref_p50": (ref_p50, "ref"),
        "op_ref_tail": (ref_tail, "ref"),
        "msgs_per_ref": (msgs / ref_p50 if ref_p50 else 0.0, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def fingerprint(out):
    """Results, transcript digest and transcript bytes of one op."""
    exports = [run.transcript.export_jsonl().encode() for run in out.runs]
    digest = hashlib.sha256(b"\0".join(exports)).hexdigest()
    return tuple(run.result for run in out.runs), digest, sum(map(len, exports))


def traced(npscalar, workload, pool, seconds, tally):
    """Per-layer metrics: an untraced reference, two traced passes over the
    first TRACED_OPS inputs, then a tracemalloc pass without wrappers."""
    problems = []
    reference = {}

    def keep(i, out):
        if i < TRACED_OPS:
            reference[i] = fingerprint(out)

    plain_times, plain_refs, _ = measure(
        npscalar, workload, pool, seconds, TRACED_OPS, tally, keep)

    tracer = Tracer()
    tracer.install()
    passes, traced_times, traced_refs = [], [], []
    try:
        for _ in range(2):
            traces = []
            for i in range(TRACED_OPS):
                tracer.begin_op()
                elapsed, out = tally.attempt(npscalar, workload, pool[i])
                trace = tracer.end_op()
                if out is None:
                    continue
                fp = fingerprint(out)
                if fp != reference.get(i):
                    problems.append(f"tracing changed the result or transcript of op {i}")
                trace.counts["simnet.transcript.bytes"] = fp[2]
                traces.append(trace)
                traced_times.append(elapsed)
                del out
                traced_refs.append(time_reference())
            passes.append(traces)
    finally:
        tracer.uninstall()
    for name in tracer.absent:
        print(f"# absent: {name}")

    first, second = passes
    if not first:
        return {}, False
    if [t.counts for t in first] != [t.counts for t in second]:
        problems.append("counts differ between the two traced passes")
    for layer in ENGINE_LAYERS + workload.reader_layers:
        if not first[0].layer_calls.get(layer):
            problems.append(f"layer {layer} recorded no calls")
    if not matches_census(npscalar, workload, first[0].counts):
        problems.append("traced instance or message counts differ from count_instances")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)

    values = {k: sum(t.counts[k] for t in first) / len(first) for k in first[0].counts}
    traces = first + second
    for key in first[0].times:
        values[key] = statistics.median(t.times[key] for t in traces)
    values["trace.overhead_ratio"] = (
        statistics.median(relative(traced_times, traced_refs))
        / statistics.median(relative(plain_times, plain_refs))
        if plain_times else 0.0)
    values.update(memory(npscalar, workload, pool[0], tally))
    return {k: (v, unit_of(k)) for k, v in values.items()}, not problems


def matches_census(npscalar, workload, counts) -> bool:
    census = npscalar.analysis.count_instances(workload.n)
    runs = len(workload.policies)
    expected = {f"protocol.instances.depth{d}": runs * c
                for d, c in enumerate(census.per_depth)}
    expected["protocol.instances"] = runs * census.total_instances
    delivered = sum(counts[f"simnet.messages.{kind}"] for kind in MESSAGE_KINDS)
    return delivered == runs * census.messages and all(
        counts[k] == v for k, v in expected.items())


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("mem."):
        return "MiB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_element")):
        return "ratio"
    return "count"


def memory(npscalar, workload, entry, tally):
    """Peak traced memory of one op and its check, and what the op's output
    still holds at the end, by source file. No span wrappers."""
    tracemalloc.start()
    try:
        _, out = tally.attempt(npscalar, workload, entry)
        peak = tracemalloc.get_traced_memory()[1]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = dict.fromkeys(("ring", "shares", "simnet", "protocol"), 0)
    package = os.path.join(SRC, "npscalar") + os.sep
    for stat in snapshot.statistics("filename") if out is not None else ():
        filename = stat.traceback[0].filename
        module = os.path.splitext(os.path.basename(filename))[0]
        if filename.startswith(package) and module in retained:
            retained[module] += stat.size
    values = {"mem.traced_peak_mb": peak / MIB}
    for module, size in retained.items():
        values[f"mem.retained_mb.{module}"] = size / MIB
    return values


def machine() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
            f"numpy {numpy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tally = Tally()
    npscalar, pool, setup_s = setup(workload, args.seed, tally)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 1 if tally.failed else 0

    print(f"# machine: {machine()}")
    print(f"# workload {workload.name}: n={workload.n} L={workload.length} "
          f"policies={','.join(workload.policies)} seed={args.seed} "
          f"trace={args.trace}")
    if args.trace:
        metrics, ok = traced(npscalar, workload, pool, args.seconds, tally)
    else:
        metrics = end_to_end(npscalar, workload, args.seed, pool, args.seconds,
                             tally, setup_s)
        ok = True
    correct = ok and tally.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
