#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is the
JSON result; the exit code is non-zero if the build fails, the run fails
the oracle gate (a wrong, refused, hung or raised op, or a transfer
count that varies; see NOTES.md), or the metrics printed are not the
ones BENCHMARK.json lists.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "ppjbench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")
    listed = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    # Keep dune's shared cache out of it: the build reads and writes only
    # inside this directory.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/ppjbench.exe"],
        env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.exit("build failed")

    proc = subprocess.Popen(
        [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run exceeded 170 s")
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.exit(f"no result line (exit {proc.returncode})")
    if proc.returncode == 0 and sorted(result["metrics"]) != sorted(listed):
        sys.exit("metrics differ from BENCHMARK.json: "
                 + " ".join(sorted(set(result["metrics"]) ^ set(listed))))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
