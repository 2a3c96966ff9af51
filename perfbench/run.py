"""Benchmark entry point: one workload of rydtherm, timed from outside the package.

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
single-threaded Python process that imports rydtherm from ``src/``; with
``--trace 0`` further fresh processes repeat only the set-up, and the
median of all set-ups is ``setup_s``.  With ``--trace 1`` the layer
functions are wrapped in spans and per-layer metrics are reported instead.
The last line of standard output is one JSON object.  The exit code is not
0 when the program is missing, a process fails, or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("scan_cold", "thermo_invert", "magic_table")
SETUP_SAMPLES = 5
# one worker plus four set-ups stay inside the 180 s a run may take
WORKER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 12
# pin every BLAS/OpenMP pool to one thread before numpy loads
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# per-layer metrics: (metric, layer, field); every value is per timed item
PER_LAYER = [
    ("radial.solve.calls", "radial.solve", "calls"),
    ("radial.solve.self_ms", "radial.solve", "self_ms"),
    ("radial.pair.calls", "radial.pair", "calls"),
    ("radial.pair.self_ms", "radial.pair", "self_ms"),
    ("wigner.moment.calls", "wigner.moment", "calls"),
    ("wigner.moment.self_ms", "wigner.moment", "self_ms"),
    ("lattice.magic.calls", "lattice.magic", "calls"),
    ("lattice.magic.self_ms", "lattice.magic", "self_ms"),
    ("lattice.sin2.calls", "lattice.sin2", "calls"),
    ("lattice.sin2.self_ms", "lattice.sin2", "self_ms"),
    ("lattice.alpha.calls", "lattice.alpha", "calls"),
    ("transitions.table.calls", "transitions.table", "calls"),
    ("transitions.table.builds", None, "table_builds"),
    ("transitions.table.self_ms", "transitions.table", "self_ms"),
    ("bbr.shift.calls", "bbr.shift", "calls"),
    ("bbr.shift.self_ms", "bbr.shift", "self_ms"),
    ("bbr.kernel.calls", "bbr.kernel", "calls"),
    ("bbr.kernel.self_ms", "bbr.kernel", "self_ms"),
    ("bbr.tail.calls", "bbr.tail", "calls"),
    ("bbr.tail.self_ms", "bbr.tail", "self_ms"),
    ("thermometry.model.calls", "thermometry.model", "calls"),
    ("thermometry.model.self_ms", "thermometry.model", "self_ms"),
    ("thermometry.iterations", None, "iterations"),
    ("polarizability.static.calls", "polarizability.static", "calls"),
    ("polarizability.static.self_ms", "polarizability.static", "self_ms"),
    ("species.load.calls", "species.load", "calls"),
    ("species.load.self_ms", "species.load", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
]


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_worker(args, extra, timeout):
    """Start worker.py; return (spawn time, its JSON result) or raise."""
    cmd = [
        sys.executable, "-s", os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR, *extra,
    ]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    t_spawn = now()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stdout[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rydtherm", "__init__.py")):
        return fail(f"no rydtherm sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        t_spawn, res = run_worker(args, [], WORKER_TIMEOUT_S)
        setups = [res["t_ready"] - t_spawn]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                t_spawn, probe = run_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)
                setups.append(probe["t_ready"] - t_spawn)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    for err in res["errors"]:
        print(f"CHECK FAILED: {err}")
    attempted = res["attempted"]
    if args.trace:
        metrics = {}
        for name, layer, field in PER_LAYER:
            if layer is None:
                total, unit = res[field], "count"
            elif field == "calls":
                total, unit = res["layers"][layer][0], "count"
            else:
                total, unit = 1e3 * res["layers"][layer][1], "ms"
            metrics[name] = metric(total / attempted, unit)
        print(f"spans: {res['spans_file']}")
    else:
        if not res["succeeded"]:
            return fail("no item succeeded")
        metrics = {
            "items_per_s": metric(res["succeeded"] / res["loop_s"], "1/s"),
            "item_p50_ms": metric(1e3 * res["item_p50_s"], "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024.0, "MB"),
        }
    print(
        f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
        f"{res['succeeded']} items in {res['loop_s']:.2f} s; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    correct = not res["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
