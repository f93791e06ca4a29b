"""cogal benchmark: one workload per process, closed loop, single thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suite,scale,search} --seed N \
        --seconds S --trace {0,1}

With `--trace 0` the workload's pass runs again and again, each pass after
the previous one finished: on the inputs of PANEL_SEED until S seconds have
gone by, then once on the inputs of seed N, and at least MIN_PASSES times
in all. While a pass runs, a profiling timer interrupts it every
REF_INTERVAL_S of CPU time to run a fixed reference slice of interpreter
work; the pass's cost is its CPU time counted in those slices, which
cancels the host's changing speed. The end-to-end metrics are medians over
the passes. With `--trace 1` one pass runs untraced and then one runs
traced, both on the inputs of seed N, and the per-layer metrics come from
the traced pass. Outputs are checked after timing. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Full results, and the spans of a traced run, are written under
perfbench/out/. `--record-reference` stores the digests of the outputs for
seed N and PANEL_SEED in perfbench/reference.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 7
SETUP_REPEATS = 7
END_TO_END = ("setup_s", "pass_refs", "ops_per_kref", "peak_rss_mb")
# CPU time between two reference slices; a slice takes about 1 ms, so the
# slices add about 2% to a pass.
REF_INTERVAL_S = 0.05
# Every pass but the last runs on the inputs of PANEL_SEED. What a pass
# costs differs between seeds: by a third for `suite`, where it follows how
# many of the 100 random models have 4 states, and by 6 to 8% (quartile
# distance over median) for `search` and `scale`. With at least MIN_PASSES
# passes, all but one on the panel, the median is a pass on the panel's
# inputs whatever the seed, so runs with different seeds compare.
PANEL_SEED = 1000
MIN_PASSES = 3


def git_rev() -> str:
    """Commit of the checkout; "unknown" outside a git clone. Git does not
    look above the checkout for a repository."""
    root = workloads.ROOT
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def setup(workload, seed):
    """Import cogal, build the inputs of the seed and of the panel and load
    the reference, several times; the last round's results are used, the
    median CPU time is `setup_s`."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        cg = workloads.import_cogal()
        panel = workload.setup(cg, PANEL_SEED)
        inputs = workload.setup(cg, seed)
        reference = load_reference().get(workload.name, {})
        times.append(time.process_time() - t0)
    return cg, inputs, panel, reference, statistics.median(times)


def reference_slice() -> int:
    """A fixed piece of interpreter work, about 1 ms: a loop of dict, tuple
    and int operations. Timed alongside in the same passes, it tracked the
    host's speed better than a slice that builds frozensets (see
    README.md)."""
    table = {}
    for i in range(8000):
        table[i & 127] = (i, i * i)
    return len(table)


class ReferenceClock:
    """While active, runs `reference_slice` every REF_INTERVAL_S of this
    process's CPU time, from a profiling timer, and records the duration of
    each slice. The slices run between the pass's own bytecodes, so they see
    the same host speed as the pass around them. A slice is timed by the
    wall clock: inside the timer's signal handler the process CPU clock of a
    virtual machine can advance in whole scheduler ticks."""

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - t0)

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


@dataclass
class Timing:
    wall: float  # wall time of the pass, slices included
    cpu: float  # CPU time of the pass, slices excluded
    refs: float  # `cpu` in reference slices (see `timed_pass`); 0 if untimed
    slice: float  # harmonic mean duration of a slice; 0 if untimed
    slices: int  # reference slices run during the pass


def timed_pass(workload, cg, inputs, call=lambda body: body(), reference_clock=True):
    """One pass: its result and timing. Every pass starts from a collected
    heap.

    With the reference clock, the pass's CPU time is split into intervals of
    REF_INTERVAL_S, each followed by a slice, and each interval is counted in
    units of its own slice: refs = cpu * mean(1 / slice). A host that slows
    down for a while slows the intervals and the slices of that while alike,
    so refs stays put where the CPU time does not.
    """
    gc.collect()
    clock = ReferenceClock() if reference_clock else contextlib.nullcontext()
    w0, c0 = time.perf_counter(), time.process_time()
    with clock:
        result = call(lambda: workload.run_pass(cg, inputs))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if not reference_clock:
        return result, Timing(wall, cpu, 0.0, 0.0, 0)
    cpu -= sum(clock.slices)
    ref = 1 / statistics.fmean(1 / t for t in clock.slices)
    return result, Timing(wall, cpu, cpu / ref, ref, len(clock.slices))


def checked_pass(workload, cg, inputs, reference, call=lambda body: body(),
                 reference_clock=True):
    """Time a pass, check its outputs against the digests recorded for the
    inputs' seed and the seed-independent oracles, then release them."""
    key = str(inputs.seed)
    result, timing = timed_pass(workload, cg, inputs, call, reference_clock)
    ops, failed = workload.evaluate(cg, inputs, result, reference.get(key))
    recorded = {key: workload.reference(cg, inputs, result)}
    result.outputs = None
    return result, timing, ops, failed, recorded


def measure(workload, cg, inputs, panel, reference, seconds):
    """Closed loop of passes on `panel` for `seconds`, then one pass on
    `inputs`, and at least MIN_PASSES passes in all. The panel passes come
    first, so they run in the same process state whatever the seed.
    End-to-end metrics are medians over the passes."""
    results, timings, ops, recorded = [], [], [], {}

    def run(pass_inputs):
        result, timing, n, bad, digests = checked_pass(
            workload, cg, pass_inputs, reference)
        recorded.update(digests)
        results.append(result)
        timings.append(timing)
        ops.append(n)
        return bad

    failed = 0
    start = time.perf_counter()
    while len(results) < MIN_PASSES - 1 or time.perf_counter() - start < seconds:
        failed += run(panel)
    failed += run(inputs)
    median = statistics.median
    metrics = {
        "pass_refs": (median(t.refs for t in timings), "ref"),
        "ops_per_kref": (median(1e3 * n / t.refs for n, t in zip(ops, timings)), "1/kref"),
        "ref_slice_ms": (median(t.slice for t in timings) * 1e3, "ms"),
        "cpu_s": (median(t.cpu for t in timings), "s"),
        "ops_per_cpu_s": (median(n / t.cpu for n, t in zip(ops, timings)), "1/s"),
        "wall_s": (median(t.wall for t in timings), "s"),
        "ops_per_s": (median(n / t.wall for n, t in zip(ops, timings)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update(workload.extra_metrics(inputs, results))
    detail = {"passes": [dict(vars(t), ops=n) for t, n in zip(timings, ops)]}
    return recorded, sum(ops), failed, metrics, detail


def trace(workload, cg, inputs, reference, seed, out_stem):
    """One pass untraced, then set-up and one pass under the span recorder.
    Layer metrics count the traced pass only; `setup.formula.parse` counts
    the parses of the traced set-up."""
    _, plain, plain_ops, plain_failed, recorded = checked_pass(
        workload, cg, inputs, reference, reference_clock=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_inputs = tracer.call(lambda: workload.setup(cg, seed))
        setup_spans = len(tracer.start)
        traced, timing = timed_pass(workload, cg, traced_inputs, tracer.call,
                                    reference_clock=False)
    finally:
        tracer.uninstall()
    traced_ops, traced_failed = workload.evaluate(
        cg, traced_inputs, traced, reference.get(str(seed)))
    totals = tracer.layer_totals(first=setup_spans)
    setup_parse = tracer.layer_totals(last=setup_spans)["formula.parse"]
    metrics = {
        "setup.formula.parse.calls": (setup_parse[0], "count"),
        "setup.formula.parse.self_s": (setup_parse[1], "s"),
    }
    for layer in tracing.LAYERS:
        calls, self_s = totals[layer]
        if layer != tracing.ROOT:
            metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    contractions = totals["model.contract"][0]
    queries = totals["checker.eval"][0] + totals["checker.check"][0]
    metrics.update({
        "model.contract.noop_ratio": (
            tracer.contractions_noop / contractions if contractions else 0.0, "ratio"),
        "checker.certificates.checked": (traced.certificates_checked, "count"),
        "checker.certificates.mismatches": (traced.certificates_mismatches, "count"),
        "checker.restrictions_per_query": (
            totals["model.update"][0] / queries if queries else 0.0, "ratio"),
        "harness.enumerate_models.models": (tracer.enumerated_models, "count"),
        "trace.overhead_ratio": (timing.wall / plain.wall, "ratio"),
        "trace.spans": (len(tracer.start) - setup_spans, "count"),
    })
    tracer.write(out_stem.with_suffix(".spans.csv.gz"))
    detail = {"untraced": vars(plain), "traced": vars(timing)}
    return recorded, plain_ops + traced_ops, plain_failed + traced_failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the output digests for this seed and the panel")
    args = parser.parse_args(argv)

    needed = [workloads.SRC / "cogal" / "__init__.py", REFERENCE] + [
        workloads.MODELS / name for name, _ in workloads.SHIPPED]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: run from the root of a cogal checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    cg, inputs, panel, reference, setup_s = setup(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out_stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorded, attempted, failed, metrics, detail = trace(
            workload, cg, inputs, reference, args.seed, out_stem)
    else:
        recorded, attempted, failed, metrics, detail = measure(
            workload, cg, inputs, panel, reference, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    metrics["failed_ratio"] = (failed / attempted, "ratio")

    if args.record_reference:
        stored = load_reference()
        stored.setdefault(workload.name, {}).update(recorded)
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    env = environment()
    report = {"workload": workload.name, "seed": args.seed,
              "panel_seed": PANEL_SEED, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "inputs": workload.describe(cg, inputs), "detail": detail,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"git={env['git_rev'][:12]} python={env['python']} nproc={env['nproc']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<36} {value:>16.6g} {unit}")
    # The result line carries exactly the metrics BENCHMARK.json lists for
    # this mode; the rest are in the table above and in the report file.
    wanted = END_TO_END if not args.trace else [
        name for name in metrics if name not in ("failed_ratio",)]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in wanted}}))
    return 0


if __name__ == "__main__":
    # String hashes decide how every dict and set cogal builds is laid out,
    # and with it how fast a pass runs; a fixed hash seed keeps that the
    # same from run to run. exec replaces this process, it starts no other.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
