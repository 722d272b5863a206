"""Run a workload on several seeds and print each metric's quartile spread.

    python3 perfbench/spread.py --workload train_race --seeds 1 2 3 4 5

Spread is the inter-quartile distance as a share of the median, the
figure each end-to-end metric's bound in ``BENCHMARK.json`` must cover.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        took = time.monotonic() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({took:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, series in values.items():
        spread = quartile_spread(series)
        bound = bounds.get(key)
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{key:28s} median {median(series):12.5g}  spread {spread:7.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
