#!/usr/bin/env python3
"""slimlat benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                    # every workload, a table of end-to-end metrics
    python3 perfbench/run.py --trace 1          # every workload, a table of per-layer metrics
    python3 perfbench/run.py --workload analyze --seed 3 --seconds 18 --trace 0

Without --workload each workload runs in its own fresh child process, one at
a time.  With --workload the run prints a summary line and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}; the
metrics are the `end_to_end` ones of BENCHMARK.json with --trace 0 and the
`per_layer` ones with --trace 1.

A run sets up SETUP_REPEATS times (inputs from the seed, then warm-up
items that are discarded) and reports the median as setup_s.  With
--trace 0 it then runs the workload's whole batch of items a fixed number
of rounds, which follows from --seconds and the workload's nominal round
time alone, never from measured speed, so every commit does the same work.
wall_s is the median round, op_p50_ms and op_p90_ms are quantiles of the
item times of all rounds, and peak_rss_mb is the process's peak resident
memory.  These times are read on refclock.RefClock, which scales out the
shared host's drifting speed (see there); untouched, the same seed's times
spread by a quarter between runs.  With --trace 1 it times one batch
untraced and one with spans around slimlat's public functions, and writes
the spans to .bench_out/.

Every answer is checked against a reference outside the timed region.  An
item fails when it raises or when its answer fails the check; `failed`
counts both, and `correct` is false only when some answer was wrong.  The
known double() defect therefore shows in `failed`, not in `correct`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
MIN_ROUNDS = 2          # rounds of the batch per run, at least
FULL_SECONDS = 10


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_slimlat():
    """Import slimlat from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "slimlat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no slimlat sources under {src}")
    sys.path.insert(0, str(src))
    import slimlat

    if Path(slimlat.__file__).resolve().parent != (src / "slimlat").resolve():
        raise SystemExit(f"perfbench: slimlat imported from {slimlat.__file__}")


def run_batch(wl, items, tracer=None, clock=time.perf_counter):
    """(seconds, per-item seconds, outputs) for one pass over `items`, read
    on `clock`."""
    outs, times = [], []
    start = last = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        out = {}
        try:
            wl.run_item(item, out)
        except Exception as e:  # an operation that raises is a failed item
            out["error"] = f"{type(e).__name__}: {e}"
        now = clock()
        times.append(now - last)
        last = now
        outs.append(out)
    return last - start, times, outs


class Tally:
    """Attempted, failed and wrong items, with the reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons = Counter()

    def add(self, wl, items, outs):
        for item, out in zip(items, outs):
            self.attempted += 1
            problem = wl.check(item, out)
            if problem:
                self.wrong += 1
                self.reasons[f"wrong answer: {problem}"] += 1
            if "error" in out:
                self.reasons[f"raised {out['error']}"] += 1
            if problem or "error" in out:
                self.failed += 1


def setup(wl, seed, clock=time.perf_counter):
    """Seeded inputs and warm-up, timed on `clock`; returns (seconds, items)."""
    gc.collect()
    t0 = clock()
    items, warmup = wl.setup(seed)
    run_batch(wl, warmup)
    return clock() - t0, items


def measure(wl, seed, seconds, tally):
    setups, walls, item_times = [], [], []
    rounds = max(MIN_ROUNDS, int(seconds // wl.round_s))
    with RefClock() as ref:
        for _ in range(SETUP_REPEATS):
            t, items = setup(wl, seed, ref.now)
            setups.append(t)
        for _ in range(rounds):
            gc.collect()
            wall, its, outs = run_batch(wl, items, clock=ref.now)
            tally.add(wl, items, outs)
            del outs
            walls.append(wall)
            item_times += its
    p90 = (statistics.quantiles(item_times, n=10, method="inclusive")[8]
           if len(item_times) > 1 else item_times[0])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(item_times) * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, rounds


def measure_traced(wl, name, seed, tally):
    """One batch untraced and one traced.  Spans are timed on wall time less
    the reference clock's probes; the overhead compares reference readings."""
    from spans import Tracer

    _, items = setup(wl, seed)
    with RefClock() as ref:
        gc.collect()
        wall_u, _, outs = run_batch(wl, items, clock=ref.now)
        tally.add(wl, items, outs)
        del outs
        tracer = Tracer(ref.wall)
        tracer.install()
        try:
            gc.collect()
            start = ref.now()
            wall_t, _, outs = run_batch(wl, items, tracer, clock=ref.wall)
            overhead = (ref.now() - start) / wall_u - 1
        finally:
            tracer.uninstall()
    tally.add(wl, items, outs)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.tsv")
    return tracer.metrics(wall_t, overhead), 2


def run_one(spec, name, seed, seconds, trace):
    import_slimlat()
    import workloads

    wl = workloads.WORKLOADS[name](full=seconds >= FULL_SECONDS)
    tally = Tally()
    if trace:
        values, rounds = measure_traced(wl, name, seed, tally)
    else:
        values, rounds = measure(wl, seed, seconds, tally)
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {declared}")
    for reason, count in tally.reasons.most_common(5):
        print(f"  {count} x {reason}", file=sys.stderr)
    frac = tally.failed / tally.attempted
    print(f"{name} seed={seed}: {tally.attempted} items in {rounds} rounds, "
          f"failed {tally.failed} (failed_frac {frac:.4f}), wrong answers {tally.wrong}")
    if not trace:
        print("  " + "  ".join(f"{m['name']}={values[m['name']]:.6g} {m['unit']}" for m in declared))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


def run_all(spec, seed, seconds, trace):
    """Each workload in a fresh child process; one table for all of them."""
    results = {}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not results:
        return status
    names = list(results)
    if trace:
        rows = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        print(f"{'per-layer metric':44} {'unit':6} " + " ".join(f"{n:>12}" for n in names))
        for metric, unit in rows:
            vals = [results[n]["metrics"][metric]["value"] for n in names]
            print(f"{metric:44} {unit:6} " + " ".join(f"{v:12.6g}" for v in vals))
        return status
    cols = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    print(f"{'workload':10} {'failed/attempted':>18} {'failed_frac':>11} "
          + " ".join(f"{f'{c} ({u})':>17}" for c, u in cols))
    for n in names:
        r = results[n]
        cells = []
        for c, _ in cols:
            v = r["metrics"][c]["value"]
            # the 90th percentile is shown only with ten samples beyond it
            shown = c != "op_p90_ms" or r["attempted"] >= 100
            cells.append(f"{v:17.6g}" if shown else f"{'-':>17}")
        counts = f"{r['failed']}/{r['attempted']}"
        print(f"{n:10} {counts:>18} {r['failed'] / r['attempted']:11.4f} " + " ".join(cells))
    return status


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run one workload in this process (default: all, one child each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds, args.trace)
    run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
