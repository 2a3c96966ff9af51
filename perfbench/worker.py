"""One workload in one fresh process: set-up, timed loop, checks.

Started by run.py with the BLAS/OpenMP pools pinned to one thread.  Prints
one JSON object as its last line of standard output.  With --setup-only it
stops after set-up and reports when set-up ended.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def now():
    # CLOCK_MONOTONIC is shared by all processes of the machine, so run.py
    # can subtract its own spawn time from this process's ready time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rydtherm
    import rydtherm.cli  # noqa: F401  (the tracer patches its namespace too)

    src = os.path.realpath(os.path.join(ROOT, "src", "rydtherm"))
    if os.path.dirname(os.path.realpath(rydtherm.__file__)) != src:
        print(f"imported rydtherm from {rydtherm.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.out_dir)
    workload.setup(rydtherm)
    t_ready = now()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    rng = random.Random(args.seed)
    items = workload.make_inputs(rng)

    rounds = []
    ok_times = []
    attempted = failed = iterations = 0
    if tracer:
        tracer.recording = True
    t_loop = now()
    while True:
        ctx = workload.new_round()
        outputs = []
        for item in items:
            t0 = now()
            try:
                out = workload.run_item(item, ctx)
            except Exception as exc:  # counted as failed; check() judges it
                dt, out = now() - t0, f"{type(exc).__name__}: {exc}"
                failed += 1
            else:
                dt = now() - t0
                ok_times.append(dt)
                iterations += getattr(out, "iterations", 0)
                out = workload.summarize(out)
            attempted += 1
            outputs.append(out)
        rounds.append(outputs)
        if now() - t_loop >= args.seconds:
            break
    loop_s = now() - t_loop
    if tracer:
        tracer.recording = False
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = workload.check(items, rounds, rng)
    result = {
        "t_ready": t_ready,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "succeeded": len(ok_times),
        "loop_s": loop_s,
        "item_p50_s": statistics.median(ok_times) if ok_times else None,
        "peak_rss_kb": peak_rss_kb,
        "iterations": iterations,
        "errors": errors,
    }
    if tracer:
        result["layers"] = {
            name: [calls, self_s] for name, (calls, self_s) in tracer.totals().items()
        }
        result["table_builds"] = tracer.table_builds
        path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(path)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
