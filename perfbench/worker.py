"""Run one workload in this interpreter, one op at a time, and stream the results.

run.py starts this file in a fresh interpreter with PYTHONPATH pointing
at the checkout's src/.  It prints one JSON line per op as the op ends,
so a run killed for hanging still reports what it finished, and a
summary line last.  Single client, closed loop: the next op starts only
when the previous one and its check are done.  It runs whole rounds of
the workload's op mix, at least --seconds of op time.  Untraced runs
time units of calibrate.py after each op, enough to keep their total at
CAL_SHARE of the op time so far, so run.py can scale op times by how
fast the host ran while they were measured.

With --trace 1 each op runs twice, plain and then traced, so the two
walls give the tracing overhead on identical inputs.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# An op that allocates past this fails with MemoryError instead of taking the machine.
MEMORY_LIMIT = 1 << 30
CAL_SHARE = 0.1


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op runs past its limit."""


def _alarm(signum, frame):
    raise OpTimeout


def execute(op, tracer=None):
    """Run one op under its time limit: (seconds, outcome, error or None)."""
    span = tracer.begin_op() if tracer else None
    start = perf_counter()
    outcome, error = None, None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.limit)
            outcome = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = f"over its {op.limit:g} s limit"
    except MemoryError:
        error = "out of memory"
    except Exception as exc:  # any library error is a failed op, not a crashed run
        error = f"raised {exc!r}"
    elapsed = perf_counter() - start
    if tracer:
        tracer.end_op(span)
    if error is None and elapsed > op.limit:
        error = f"took {elapsed:.3f} s, over its {op.limit:g} s limit"
    return elapsed, outcome, error


def emit(record):
    print(json.dumps(record), flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import relcalc
    if not os.path.abspath(relcalc.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported relcalc from {relcalc.__file__}, not from {SRC}")
    import calibrate
    import workloads
    from tracer import Tracer

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    signal.signal(signal.SIGALRM, _alarm)

    for argv, expected in workloads.PREFLIGHT[args.workload]:
        outcome = workloads.cli_call(argv)()
        if outcome.code != 0 or outcome.stdout != expected:
            emit({"preflight_failed": " ".join(argv)})

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None
    plain_total = traced_total = cal_total = 0.0
    count = 0
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        cycle = workloads.CYCLE_OPS[args.workload]
        # Whole rounds of the op mix: past --seconds, the round in progress is finished.
        while plain_total + traced_total < args.seconds or count % cycle:
            op = next(ops)
            elapsed, outcome, error = execute(op)
            plain_total += elapsed
            count += 1
            record = {"kind": op.kind, "s": elapsed}
            if tracer:
                tracer.install()
                try:
                    traced, traced_outcome, traced_error = execute(op, tracer)
                finally:
                    tracer.uninstall()
                traced_total += traced
                record["traced_s"] = traced
                if error is None and traced_error is None and (
                        workloads.digest(traced_outcome) != workloads.digest(outcome)):
                    traced_error = "traced output differs from the plain run"
                error = error or traced_error
            else:
                record["cal"] = []
                while cal_total < CAL_SHARE * plain_total:
                    record["cal"] += calibrate.samples(1)
                    cal_total += record["cal"][-1]
            if error is None:
                try:
                    op.check(outcome)
                    workloads.check_digest(args.workload, op, outcome)
                except Exception as exc:  # output the check cannot even parse is wrong too
                    error = f"wrong output: {exc!r}"
            record["error"] = error
            emit(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cycle_ops": workloads.CYCLE_OPS[args.workload],
    }
    if tracer:
        summary["layers"] = tracer.layer_metrics(count, plain_total, traced_total)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write_spans(spans)
        summary["spans_file"] = os.path.relpath(spans, os.path.dirname(HERE))
    emit({"summary": summary})


if __name__ == "__main__":
    main()
