"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 30]
                                [--json OUT.json]

For each end-to-end metric it prints the median, the quartiles of the
per-seed values (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  This is how the
bounds in ``BENCHMARK.json`` are checked and how ``baseline.json`` was made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    values = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result, "report": lines[:-1]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<40} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload,
                                         "seconds": args.seconds,
                                         "runs": runs, "summary": summary},
                                        indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
