"""entnoise benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

One client in one process sends the next item only when the previous one has
returned. There is no concurrency and there are no queues, so no layer has a
waiting time. The inputs are generated from the seed before timing and every
item's output is checked against an independent reference. The end-to-end
timings are calibrated to host speed by a reference kernel timed in the same
process (see calibrate.py); the raw figures are printed beside them.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the entnoise
modules (see tracer.py) and reports the per-layer metrics, with the spans
written as JSON lines under .bench_run/. BENCHMARK.json at the repository root
names the metrics and their units; the last line of stdout is the JSON result.
"""

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
SETUP_REPEATS = 3
# workloads whose timings are calibrated; the reference kernel is timed every
# CALIBRATE_EVERY_S seconds of the timed loop and after every set-up
CALIBRATED = {"certify": True, "noise": True, "oracle": False}
CALIBRATE_EVERY_S = 0.5
SETUP_SHOTS = 9
P90_MIN_SAMPLES = 100
ORACLE_SPEC = 3e-3  # criterion 4a's tolerance, for the report only
# BLAS threads per workload, set before numpy is first imported. The 4x4
# batches of certify and noise only lose time to a second OpenBLAS thread;
# the 400x400 complex products of oracle run about 45 % faster on two.
BLAS_THREADS = {"certify": 1, "noise": 1, "oracle": 2}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(BLAS_THREADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one complete set-up in this interpreter, print it and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    """Import the benchmark's workloads, and with them entnoise from ./src."""
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    package = Path(sys.modules["entnoise"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"imported entnoise from {package}, not from {SRC}")
    return workloads


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def attempt(workload, item, tracer=None, item_id=None):
    """Run and check one item: (seconds in entnoise, check info or None if it failed)."""
    if tracer is not None:
        tracer.item = item_id
    start = time.perf_counter()
    try:
        output = workload.run(item)
        ran = True
    except Exception:
        traceback.print_exc()
        ran = False
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.item = None
    if not ran:
        return elapsed, None
    try:
        return elapsed, workload.check(item, output)
    except Exception as exc:
        print(f"{workload.name}: check failed: {exc!r}", file=sys.stderr)
        return elapsed, None


def set_up(workload, seed, tracer=None):
    """Generate the seeded inputs and run the first item as a warm-up."""
    import numpy as np

    if tracer is not None:
        tracer.item = "setup"
    items = workload.make_items(np.random.default_rng(seed))
    _, info = attempt(workload, items[0], tracer, "setup")
    return items, info is not None


def setup_in_subprocess(args):
    """One complete set-up (imports, inputs, warm-up) in a fresh interpreter:
    (its seconds, the reference kernel's seconds measured right after it)."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=170)
    setup_s, reference_s = done.stdout.split()[-2:]
    return float(setup_s), float(reference_s)


def end_to_end(workload, items, args, setups, reference):
    """Time items back to back for args.seconds; the reference kernel is timed
    between them, and each stretch of items is scaled by the mean of the two
    reference times around it."""
    latencies, busy, failed, devs = [], 0.0, 0, {}
    refs, stretches = [reference.measure()], [0.0]
    start = last_ref = time.perf_counter()
    for index in itertools.cycle(range(len(items))):
        now = time.perf_counter()
        if now - start >= args.seconds:
            break
        if now - last_ref >= CALIBRATE_EVERY_S:
            refs.append(reference.measure())
            stretches.append(0.0)
            last_ref = time.perf_counter()
        elapsed, info = attempt(workload, items[index])
        busy += elapsed
        stretches[-1] += elapsed
        if info is None:
            failed += 1
            continue
        latencies.append(elapsed)
        if "oracle_dev" in info:
            devs[index] = info["oracle_dev"]
    refs.append(reference.measure())
    attempted = len(latencies) + failed
    if not latencies:
        raise SystemExit(f"{workload.name}: none of {attempted} items passed its check")

    calibrated_busy = sum(stretch * reference.scale(0.5 * (before + after))
                          for stretch, before, after in zip(stretches, refs, refs[1:]))
    setup_raw = [setup_s for setup_s, _ in setups]
    values = {
        "setup_s": statistics.median(setup_s * reference.scale(ref_s) for setup_s, ref_s in setups),
        "items_per_s": len(latencies) / calibrated_busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ref_ms = sorted(1e3 * r for r in refs)
    scaled = "calibrated" if CALIBRATED[workload.name] else "raw"
    report = [
        f"reference kernel '{reference.kind}' (nominal {1e3 * reference.nominal:g} ms): "
        f"{len(refs)} timings in the loop, min {ref_ms[0]:.3f} median "
        f"{statistics.median(ref_ms):.3f} max {ref_ms[-1]:.3f} ms; after the set-ups "
        + ", ".join(f"{1e3 * ref_s:.3f}" for _, ref_s in setups) + " ms"
        if CALIBRATED[workload.name] else "not calibrated: timings are raw seconds",
        f"setup_s: median of {len(setups)} {scaled} set-ups (imports, inputs, warm-up); "
        "raw " + ", ".join(f"{t:.4f}" for t in setup_raw) + " s",
        f"items_per_s: {len(latencies)} checked items over {calibrated_busy:.3f} {scaled} s "
        f"in entnoise; raw {busy:.3f} s, {len(latencies) / busy:.4f} items/s",
        f"item_p50_ms: {1e3 * statistics.median(latencies):.4f} ms over {len(latencies)} items",
    ]
    if len(latencies) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        report.append(f"item_p90_ms: {1e3 * p90:.4f} ms over {len(latencies)} items")
    else:
        report.append(f"item_p90_ms: not reported, {len(latencies)} items < {P90_MIN_SAMPLES}")
    report.append(f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    if devs:
        report.append(
            f"oracle_dev_max: {max(devs.values()):.6e} over items {sorted(devs)} of "
            f"{len(items)} (criterion 4a spec {ORACLE_SPEC:g}, not a check)")
    return values, report, attempted, failed


def per_layer(workload, args):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    items, warm_ok = set_up(workload, args.seed, tracer)
    tracer.uninstall()
    setup_sampling_ms = 1e3 * sum(span.end - span.start for span in tracer.spans
                                  if span.item == "setup" and span.name.startswith("sampling."))

    # Alternate an untraced and a traced pass over the same items, so the
    # overhead compares identical work and the counts repeat exactly.
    trace_list = items[:workload.trace_items]
    plain_s = traced_s = 0.0
    attempted = failed = passes = 0
    item_ids, devs = [], {}
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for item in trace_list:
            elapsed, info = attempt(workload, item)
            plain_s += elapsed
            attempted += 1
            failed += info is None
        tracer.install()
        for index, item in enumerate(trace_list):
            item_id = f"{passes}:{index}"
            elapsed, info = attempt(workload, item, tracer, item_id)
            traced_s += elapsed
            attempted += 1
            failed += info is None
            item_ids.append(item_id)
            for name, value in (info or {}).items():
                if name == "oracle_dev":
                    devs[index] = value
                else:
                    tracer.counts[item_id][name] += value
        tracer.uninstall()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break

    n = len(item_ids)
    ids = set(item_ids)
    self_ms, calls = tracer.self_ms(ids)
    totals = tracer.totals(ids)
    values = {"sampling.setup_ms": setup_sampling_ms / len(items)}
    for name in set(self_ms) | set(calls):
        values[f"{name}.self_ms"] = self_ms[name] / n
        values[f"{name}.calls"] = calls[name] / n
    for name, total in totals.items():
        values[name] = total / n
    onset_points = totals["entanglement.onset_points"]
    values["entanglement.onset_scan_waste"] = (
        totals["entanglement.onset_wasted_points"] / onset_points if onset_points else 0.0)
    apply_ms = self_ms["fock.TrotterStepper.apply"]
    values["fock.apply_gflop_per_s"] = (
        totals["fock.apply_flops"] / (apply_ms * 1e-3) / 1e9 if apply_ms else 0.0)
    values["trace_overhead_frac"] = 1.0 - plain_s / traced_s
    values["oracle_dev_max"] = max(devs.values()) if devs else 0.0

    spans_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    report = [
        f"traced {passes} pass(es) over {len(trace_list)} items, each after an untraced "
        f"pass over the same items: {plain_s:.3f} s untraced, {traced_s:.3f} s traced",
        f"per-layer figures are per traced item; spans in {spans_path.relative_to(ROOT)}",
        f"sampling.setup_ms: {setup_sampling_ms:.3f} ms in sampling for {len(items)} items",
        "fock.apply_gflop_per_s: computed as 4 * 8 N^3 flops per apply (N = d_a d_b) "
        "over the apply self time",
    ]
    return values, report, attempted, failed, warm_ok


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "entnoise" / "__init__.py").is_file():
        raise SystemExit(f"entnoise sources not found under {SRC}")
    threads = min(BLAS_THREADS[args.workload], os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    SCRATCH.mkdir(exist_ok=True)

    if args.trace:
        workload = import_workloads().make(args.workload, str(SCRATCH))
        values, report, attempted, failed, warm_ok = per_layer(workload, args)
    else:
        # every repetition is a complete set-up; the last one is this run's own
        setups = ([] if args.setup_only else
                  [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)])
        start = time.perf_counter()
        workload = import_workloads().make(args.workload, str(SCRATCH))
        items, warm_ok = set_up(workload, args.seed)
        setup_s = time.perf_counter() - start
        from calibrate import Raw, Reference

        reference = Reference() if CALIBRATED[args.workload] else Raw()
        setups.append((setup_s, reference.measure(SETUP_SHOTS)))
        if args.setup_only:
            print(*setups[-1])
            return 0
        values, report, attempted, failed = end_to_end(workload, items, args, setups, reference)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # a layer the workload never reaches reads 0
        values = {m["name"]: 0.0 for m in wanted} | values
    print("env " + json.dumps(environment(args)))
    print("closed loop, 1 client, 1 process; no concurrency or queues, so no layer waits")
    for line in report:
        print(f"{args.workload} {line}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": warm_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
