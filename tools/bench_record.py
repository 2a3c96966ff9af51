"""Record the benchmark of the checked-out commit in ``BENCH_<NN>.json``.

Runs the unchanged ``perfbench/run.py`` of this checkout once per workload
and seed (seeds 1-5, workloads interleaved within each seed so that host
drift spreads over all of them), then once per workload with ``--seed 1
--trace 1``, and writes:

* commit, whether ``src/`` differs from it, date, nproc, and the Python,
  numpy and scipy versions;
* per workload, the median and quartiles of the four end-to-end metrics
  over the seeds, with the per-seed values and failed shares;
* per workload, the seed-1 per-layer values of the traced run;
* end to end, the fresh-process wall time (min of 3, with the runs and
  exit codes) of ``import rydtherm`` and of every command in README's
  command-line block, the three runs taken round-robin over the
  commands, and the wall time and summary line of one tier-1 run
  (``python -m pytest -q``).

    python3 tools/bench_record.py 11            # writes BENCH_11.json

Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  Run from anywhere,
on an otherwise idle host; it takes about (5 + 1) x 3 such runs plus their
set-up processes.  If any end-to-end metric's interquartile range over the
seeds exceeds its ``BENCHMARK.json`` bound relative to its median, the
host was too noisy to tell: nothing is written and the script exits 1.
Compare numbers only between files recorded on the same host.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
CLI_REPEATS = 3
# the file README's ``thermo joint --measurements meas.csv`` reads
MEASUREMENTS = os.path.join(ROOT, "tests", "golden", "meas_sr.csv")


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def _run(workload, seed, seconds, trace):
    """The JSON line ``perfbench/run.py`` prints last; raises if it has none."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def readme_commands():
    """The ``rydtherm ...`` lines of README's command-line block, each as
    the argument list after ``rydtherm``, comments dropped."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("rydtherm ")
    ]


def _cli_wall_times():
    """Fresh-process wall time of ``import rydtherm`` and of each README
    command, run in a scratch directory holding README's ``meas.csv``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run_cli = "import sys; from rydtherm.cli import main; sys.exit(main(sys.argv[1:]))"
    cases = {"import rydtherm": ["-c", "import rydtherm"]}
    for argv in readme_commands():
        cases[" ".join(argv)] = ["-c", run_cli, *argv]
    out = {name: {"runs_s": [], "exit_codes": []} for name in cases}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(MEASUREMENTS, os.path.join(tmp, "meas.csv"))
        # round-robin over the commands, so that a noisy stretch of the
        # host costs one run of several commands, not every run of one
        for repeat in range(CLI_REPEATS):
            for name, args in cases.items():
                print(f"wall time {repeat + 1}/{CLI_REPEATS}: {name}", file=sys.stderr)
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, *args], cwd=tmp, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                out[name]["runs_s"].append(time.perf_counter() - t0)
                out[name]["exit_codes"].append(proc.returncode)
    return {name: {"min_s": min(t["runs_s"]), **t} for name, t in out.items()}


def _tier1():
    """Wall time and last output line (the pass/fail summary) of one
    tier-1 run."""
    print("tier-1", file=sys.stderr)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1]}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="NN of the BENCH_<NN>.json written")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            print(f"{w} seed {seed}", file=sys.stderr)
            runs[w].append(_run(w, seed, seconds, trace=0))
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": {},
        "cli_wall_s": _cli_wall_times(),
        "tier1": _tier1(),
    }
    for w in workloads:
        print(f"{w} seed 1 traced", file=sys.stderr)
        traced = _run(w, 1, seconds, trace=1)
        record["workloads"][w] = {
            "correct": [r["correct"] for r in runs[w]],
            "failed_share": [r["failed"] / r["attempted"] for r in runs[w]],
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    **_spread([r["metrics"][m["name"]]["value"] for r in runs[w]]),
                }
                for m in bench["end_to_end"]
            },
            "per_layer_seed1": {
                m["name"]: traced["metrics"][m["name"]] for m in bench["per_layer"]
            },
        }
    noisy = [
        f"{w} {m['name']}: q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, median {s['median']:.4g}"
        for w in workloads
        for m in bench["end_to_end"]
        for s in [record["workloads"][w]["end_to_end"][m["name"]]]
        if s["q3"] - s["q1"] > m["bound"] * s["median"]
    ]
    if noisy:
        print("spread above the benchmark's bound, nothing written:", file=sys.stderr)
        print("\n".join(noisy), file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.number:02d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
