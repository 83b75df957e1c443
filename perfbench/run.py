"""minsurf benchmark: pinned experiment workloads, timed end to end.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  For ``--seconds`` seconds it
runs the workload's ``minsurf`` experiment again and again, one fresh
interpreter per run and one run at a time (a closed loop with one client),
with BLAS pinned to one thread.  It first starts a few interpreters that only
import ``minsurf.cli``, to sample the set-up time.  Every run's outputs are
checked (see ``check_run``).  With ``--trace 1`` two more runs follow under
the tracer, which gives the per-layer table.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Everything the
runs write goes under ``.perfbench/`` in the checkout and is removed at the
end.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("result_error", "1"),
]
SETUP_PROBES = 5     # import-only interpreters per invocation
MIN_RUNS = 3         # untraced runs per invocation, even past --seconds
TRACED_RUNS = 2      # their counts must agree exactly
TRACE_SLOWDOWN = 1.5  # a traced run takes at most this many untraced runs
DEADLINE_S = 170.0   # an invocation must end within 180 s
BLAS_THREADS = "1"


class Runner:
    """Starts child interpreters for one workload and seed, one at a time."""

    def __init__(self, name, seed, work, deadline):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.config = workloads.config(name, seed)
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        # every CLI user pays import from cached bytecode, so let it be cached
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, subcommand, trace=False):
        """One child run; returns its directory, exit code and result."""
        self.count += 1
        run_dir = self.work / f"run{self.count:03d}"
        run_dir.mkdir(parents=True)
        job = {
            "subcommand": subcommand,
            "config": self.config,
            "out": str(run_dir / "out"),
            "trace": trace,
            "result": str(run_dir / "result.json"),
            "spans": str(run_dir / "spans.json"),
        }
        (run_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), str(run_dir / "job.json")]
        with open(run_dir / "log.txt", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd + [repr(spawned)], cwd=run_dir,
                                    env=self.env, stdout=log, stderr=log)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline
                                             - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:  # also on SIGTERM, which main turns into SystemExit
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = run_dir / "result.json"
        result = (json.loads(result_path.read_text(encoding="utf-8"))
                  if result_path.is_file() else None)
        return run_dir, code, result

    def setup_probe(self):
        _, code, result = self.spawn(None)
        return result["setup_s"] if code == 0 and result else None

    def workload_run(self, trace=False):
        run_dir, code, result = self.spawn(self.spec["subcommand"], trace)
        problems, digests, error = check_run(self.name, run_dir / "out", code)
        return {"dir": run_dir, "code": code, "result": result,
                "problems": problems, "digests": digests,
                "result_error": error}


def check_run(name, out, code):
    """The output check that defines a failed run.

    A run passes when it exits 0, every manifest assertion passed, each CSV
    has the documented header and row count, and every value is finite.
    Returns (problems, CSV digests, the workload's gated error).
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"no readable manifest ({exc})"], {}, None
    failing = [r["name"] for r in manifest.get("assertions", [])
               if not r.get("passed")]
    if failing or not manifest.get("assertions"):
        problems.append(f"assertions not all PASS: {failing}")
    digests = {}
    for csv_name, (header, n_rows) in workloads.WORKLOADS[name]["csv"].items():
        try:
            text = (out / csv_name).read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{csv_name} missing ({exc})")
            continue
        digests[csv_name] = hashlib.sha256(text.encode()).hexdigest()
        lines = text.splitlines()
        if not lines or lines[0].split(",") != header:
            problems.append(f"{csv_name}: header {lines[:1]} != {header}")
        if len(lines) - 1 != n_rows:
            problems.append(f"{csv_name}: {len(lines) - 1} rows, "
                            f"expected {n_rows}")
        try:
            values = [float(c) for line in lines[1:] for c in line.split(",")]
        except ValueError as exc:
            problems.append(f"{csv_name}: unparsable value ({exc})")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{csv_name}: non-finite value")
    try:
        error = float(workloads.result_error(name, manifest))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return problems + [f"result error unreadable ({exc})"], digests, None
    if not math.isfinite(error):
        problems.append(f"result error {error} is not finite")
    return problems, digests, error


def quartiles(values):
    """(first quartile, median, third quartile) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_note(n):
    """Highest percentile with at least ten samples beyond it, if any."""
    if n < 20:
        return f"n={n}: too few runs for a tail percentile"
    return f"n={n}: p{int(100 * (1 - 10 / n))} has >=10 samples beyond it"


def run_workload(name, seed, seconds, trace, work, plan_end, deadline):
    """All runs for one workload; returns (summary, report lines).

    No run starts unless it is expected to end by ``plan_end``, this
    workload's share of the invocation.  ``deadline`` kills a run that hangs.
    """
    start = time.monotonic()
    runner = Runner(name, seed, work, deadline)
    runner.setup_probe()  # writes bytecode caches; not a sample
    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    runs = []
    loop_start = time.monotonic()
    n_traced = TRACED_RUNS if trace else 0
    while True:
        runs.append(runner.workload_run())
        now = time.monotonic()
        per_run = (now - loop_start) / len(runs)
        # leave time for the traced runs that follow
        reserve = n_traced * TRACE_SLOWDOWN * per_run
        if now + per_run + reserve > plan_end:
            break
        # stop when the next run would end past --seconds
        if len(runs) >= MIN_RUNS and now + per_run - start > seconds:
            break
    traced = []
    for _ in range(n_traced):
        if time.monotonic() + TRACE_SLOWDOWN * per_run > plan_end:
            break
        traced.append(runner.workload_run(trace=True))

    # CSVs must be byte-identical across every run of one seed, traced or not
    reference = next((r["digests"] for r in runs + traced if r["digests"]),
                     None)
    for r in runs + traced:
        if r["digests"] and r["digests"] != reference:
            r["problems"].append("CSV bytes differ from the first run")
    done = [r for r in runs if r["result"] is not None]
    setup += [r["result"]["setup_s"] for r in done]
    setup = [s for s in setup if s is not None]
    failed = [r for r in runs + traced if r["problems"]]
    # time the passing runs; if none passed, whatever ran to the end
    ok = ([r for r in done if not r["problems"]]
          or [r for r in done if r["result_error"] is not None])
    errors = [r["result_error"] for r in ok]
    if not (ok and setup):
        return None, failure_lines(failed)

    samples = {
        "setup_s": setup,
        "run_s": [r["result"]["run_s"] for r in ok],
        "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in ok],
        "result_error": errors,
    }
    summary = {
        "attempted": len(runs) + len(traced),
        "failed": len(failed),
        "correct": not failed and len(set(errors)) == 1,
        "e2e": {k: quartiles(v) for k, v in samples.items()},
        "n": {k: len(v) for k, v in samples.items()},
    }
    lines = [f"== {name} (seed {seed}, {workloads.WORKLOADS[name]['subcommand']}"
             f"; {len(runs)} untraced runs, {len(traced)} traced, closed loop, "
             "1 client, BLAS threads " + BLAS_THREADS + ")"]
    lines += failure_lines(failed)
    if len(set(errors)) > 1:
        lines.append(f"  result_error differs between runs: {sorted(errors)}")
    lines.append(f"  {'metric':<14}{'unit':<7}{'median':>14}{'q1':>14}"
                 f"{'q3':>14}  samples")
    for metric, unit in END_TO_END:
        q1, med, q3 = summary["e2e"][metric]
        lines.append(f"  {metric:<14}{unit:<7}{med:>14.6g}{q1:>14.6g}"
                     f"{q3:>14.6g}  {summary['n'][metric]}")
    lines.append("  run_s samples: " + ", ".join(f"{v:.4f}"
                                                 for v in samples["run_s"]))
    lines.append(f"  run_s tail: {tail_note(summary['n']['run_s'])}")
    lines.append(f"  failed_frac    ratio  {len(failed) / summary['attempted']:.4g}"
                 f" ({len(failed)} of {summary['attempted']} runs)")
    if trace:
        layer_values, layer_lines, consistent = trace_summary(
            traced, summary["e2e"]["run_s"][1])
        summary["layers"] = layer_values
        summary["correct"] = summary["correct"] and consistent
        lines += layer_lines
    return summary, lines


def failure_lines(failed):
    return [f"  FAILED {r['dir'].name}: {'; '.join(r['problems'])}"
            for r in failed]


def trace_summary(traced, untraced_run_s):
    """Per-layer values (median of the traced runs) and the count check."""
    done = [r for r in traced if r["result"] and "layers" in r["result"]]
    lines = ["  -- per-layer, from traced runs (self times; one thread, "
             "no layer queues work, so there is no waiting time to record)"]
    if len(traced) < TRACED_RUNS:
        lines.append(f"  only {len(traced)} of {TRACED_RUNS} traced runs "
                     "fit before the deadline, so counts are not checked")
    if not done:
        lines.append("  no traced run finished")
        return {name: 0.0 for name in layers.UNITS}, lines, False
    per_run = []
    for r in done:
        values = dict(r["result"]["layers"])
        values.update(layers.import_times(
            (r["dir"] / "log.txt").read_text(encoding="utf-8")))
        values["trace.overhead_frac"] = (
            (r["result"]["run_s"] - untraced_run_s) / untraced_run_s)
        per_run.append(values)
    merged = {name: statistics.median(v[name] for v in per_run)
              for name in layers.UNITS}
    consistent = len(done) == TRACED_RUNS
    for name in layers.COUNTS:
        seen = [v[name] for v in per_run]
        if len(set(seen)) > 1:
            consistent = False
            lines.append(f"  COUNT MISMATCH {name}: {seen}")
    absent = sorted({a for r in done for a in r["result"]["absent"]})
    if absent:
        lines.append(f"  absent (0 calls): {', '.join(absent)}")
    for layer, metrics in layers.PER_LAYER.items():
        for name, unit in metrics:
            lines.append(f"  {name:<40}{unit:<7}{merged[name]:>14.6g}")
    lines.append("  -- wrapped functions, first traced run")
    lines.append(f"  {'function':<44}{'calls':>8}{'self_s':>12}{'total_s':>12}")
    for fn, e in sorted(done[0]["result"]["functions"].items()):
        lines.append(f"  {fn:<44}{e['calls']:>8}{e['self_s']:>12.4f}"
                     f"{e['total_s']:>12.4f}")
    return merged, lines, consistent


def contract_problems():
    """Where BENCHMARK.json's workloads and metrics differ from the code's."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        listed = {key: [tuple(m[k] for k in ("name", "unit"))
                        for m in bench[key]]
                  for key in ("end_to_end", "per_layer")}
        names = [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"BENCHMARK.json unreadable ({exc})"]
    problems = []
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {list(workloads.WORKLOADS)}")
    if listed["end_to_end"] != END_TO_END:
        problems.append(f"end_to_end {listed['end_to_end']} != {END_TO_END}")
    if listed["per_layer"] != list(layers.UNITS.items()):
        problems.append("per_layer differs from layers.PER_LAYER")
    return problems


def metrics_json(summary, trace):
    if trace:
        return {name: {"value": summary["layers"][name], "unit": unit}
                for name, unit in layers.UNITS.items()}
    return {name: {"value": summary["e2e"][name][1], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "minsurf" / "cli.py").is_file():
        print(f"error: no minsurf source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    problems = contract_problems()
    if problems:
        print("error: BENCHMARK.json disagrees with perfbench:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    base = ROOT / ".perfbench"
    results = {}
    attempted = failed = 0
    correct = True
    try:
        for i, name in enumerate(names):
            work = base / f"{name}-{os.getpid()}"
            # each workload left gets an equal share of the time left
            now = time.monotonic()
            plan_end = now + (deadline - now) / (len(names) - i)
            summary, lines = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), work, plan_end,
                                          deadline)
            print("\n".join(lines), flush=True)
            if summary is None:
                print(f"error: no run of {name} finished", file=sys.stderr)
                return 1
            attempted += summary["attempted"]
            failed += summary["failed"]
            correct = correct and summary["correct"]
            results[name] = metrics_json(summary, args.trace)
    finally:
        for name in names:
            shutil.rmtree(base / f"{name}-{os.getpid()}", ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()
    metrics = results[names[0]] if len(names) == 1 else results
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
