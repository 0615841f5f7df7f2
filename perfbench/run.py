"""relcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload relfiles --seed 0 --seconds 40 --trace 0

Run from anywhere inside a relcalc checkout; the package is imported
from the checkout's src/, never from an installed copy.  The workload
runs in its own fresh interpreter (worker.py) as a single-client closed
loop.  With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Every line above it
names a metric with its unit.  End-to-end times are scaled to a fixed
host speed (calibrate.py); the unscaled wall figures are printed too.  The whole record, and in traced runs the
spans, are written under perfbench/out/.  See NOTES.md for what each
workload and metric is for.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("life-like", "rules", "trajectories", "relfiles")
UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s"}
# Fresh interpreters timed importing the package, half before the worker
# and half after it, so the median (setup_s) spans the run.
SETUP_SAMPLES = 11
# Each probe then times PROBE_UNITS of calibrate.py's unit, about as long
# as the import, so the import times can be scaled to the host's speed.
PROBE_UNITS = 8
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import relcalc, relcalc.cli; "
                "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import calibrate; "
                f"print(t); print(*calibrate.samples({PROBE_UNITS})); print(relcalc.__file__)")
# The whole run, set-up included, ends within this many seconds.
RUN_DEADLINE = 170.0
# Left for the set-up samples taken after the worker.
SETUP_RESERVE = 10.0
TAIL_BEYOND = 10


def measure_setup(env):
    """SETUP_SAMPLES (import seconds, [unit seconds]) pairs, each from a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        lines = probe.stdout.splitlines()
        if probe.returncode != 0 or len(lines) != 3 or not lines[2].startswith(SRC + os.sep):
            sys.exit(f"error: cannot import relcalc from {SRC}: {probe.stderr.strip()[-300:]}")
        samples.append((float(lines[0]), [float(u) for u in lines[1].split()]))
    return samples


def run_worker(args, env, timeout):
    """Worker's JSON lines, stderr, exit code, and whether it was killed for time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
        shutil.rmtree(os.path.join(HERE, "out", f"work-{proc.pid}"), ignore_errors=True)
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return records, err, proc.returncode, killed


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    A run too short for that percentile to lie above the median reports
    its slowest op instead, so the tail never names a fast op.
    """
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > 2 * TAIL_BEYOND else 0
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def round_rates(ops, size):
    """Successful ops per second of op time in each round of the workload's op mix."""
    rounds = [ops[i:i + size] for i in range(0, len(ops), size)]
    return [sum(1 for r in chunk if not r["error"]) / sum(r["s"] for r in chunk)
            for chunk in rounds]


def timings(ops, setup, size):
    """Unscaled ops_per_s, op_p50_s, op_tail_s and setup_s, and how they were taken."""
    latencies = [r["s"] for r in ops]
    tail_s, tail_pct, beyond = tail(latencies)
    rates = round_rates(ops, size)
    values = {"ops_per_s": statistics.median(rates), "op_p50_s": statistics.median(latencies),
              "op_tail_s": tail_s, "setup_s": statistics.median(t for t, _ in setup)}
    return values, {"op_tail_percentile": tail_pct, "op_tail_beyond": beyond,
                    "samples": len(latencies), "rounds": len(rates)}


def scaled(values, worker_unit, setup_unit):
    """The wall figures at the host speed at which the unit takes REFERENCE_S."""
    out = {}
    for name, value in values.items():
        unit = setup_unit if name == "setup_s" else worker_unit
        factor = calibrate.REFERENCE_S / unit
        out[name] = value / factor if name == "ops_per_s" else value * factor
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "relcalc", "cli.py")):
        sys.exit(f"error: no relcalc sources at {SRC}; run from a relcalc checkout")
    env = dict(os.environ, PYTHONPATH=SRC)

    setup = [] if args.trace else measure_setup(env)
    remaining = RUN_DEADLINE - SETUP_RESERVE - (time.monotonic() - started)
    records, err, code, killed = run_worker(args, env, remaining)
    if not args.trace:
        setup += measure_setup(env)
    summary = next((r["summary"] for r in records if "summary" in r), None)
    if summary is None and not killed:
        sys.exit(f"error: worker exited {code} without a summary: {err.strip()[-2000:]}")
    ops = [r for r in records if "kind" in r]
    preflight = [r["preflight_failed"] for r in records if "preflight_failed" in r]
    if not ops:
        sys.exit("error: no op finished")
    attempted = len(ops) + killed
    failed = sum(1 for r in ops if r["error"]) + killed
    # Any op that raised, ran out of time or memory, or printed wrong output fails the run.
    correct = failed == 0 and not preflight
    if summary is None:
        summary = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {summary.get('python')}  nproc {summary.get('nproc')}")
    for name in preflight:
        print(f"README example differs: relcalc {name}")
    for r in ops:
        if r["error"]:
            print(f"failed op {r['kind']}: {r['error']}")
    if killed:
        print(f"killed after {RUN_DEADLINE:g} s: one op hung")
    print(f"attempted {attempted} ops, failed {failed}, fail_ratio {failed / attempted:.4f}")

    details = {}
    if args.trace:
        metrics = summary.get("layers", {})
    else:
        # The median over rounds keeps rounds a slow phase of the host
        # stretched, when they are a minority of the run, out of the figure.
        wall, details = timings(ops, setup, summary.get("cycle_ops", len(ops)))
        # Calibration units ran between the ops in proportion to op time
        # (and beside every import), so their mean time is the host's
        # mean speed over the measured work.
        worker_unit = statistics.fmean(u for r in ops for u in r["cal"])
        setup_unit = statistics.fmean(u for _, units in setup for u in units)
        values = scaled(wall, worker_unit, setup_unit)
        details.update(wall=wall, worker_unit_s=worker_unit, setup_unit_s=setup_unit,
                       setup=setup)
        print(f"op_tail_s is p{details['op_tail_percentile']:.2f} of {details['samples']} ops, "
              f"{details['op_tail_beyond']} samples beyond it; "
              f"ops_per_s is the median of {details['rounds']} rounds")
        for name, value in wall.items():
            print(f"wall {name} {value:.6g} {UNITS[name]}")
        print(f"calibration unit {1e3 * worker_unit:.3f} ms beside the ops and "
              f"{1e3 * setup_unit:.3f} ms beside the imports; the metrics below are the "
              f"wall figures scaled to a host that takes {1e3 * calibrate.REFERENCE_S:g} ms")
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        metrics["peak_rss_mib"] = {"value": summary["peak_rss_mib"], "unit": "MiB"}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": summary, **details,
                   "preflight_failed": preflight,
                   "ops": ops}, handle, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
