"""Runs the benchmark command on one workload at several seeds and prints
each end-to-end metric's spread, (q3 - q1) / median, next to its bound.

    python3 perfbench/steadiness.py paper-seq 1 2 3 4 5 6 7 8 9 10

Run it from the repository root: it reads BENCHMARK.json for the command,
the run length and the bounds. The per-invocation results go to standard
error as one JSON line.
"""

import json
import os
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 4:
        sys.exit("usage: steadiness.py <workload> <seed> <seed> [<seed>...]")
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    runs = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": int(seed), "correct": result["correct"], "metrics": metrics})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    print(f"{workload}: spread over {len(runs)} invocations")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"  {m['name']:16s} median {median:.6g}  spread {spread:.3f}  bound {m['bound']}")
    print(json.dumps({"workload": workload, "runs": runs}), file=sys.stderr)


if __name__ == "__main__":
    main()
