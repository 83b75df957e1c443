"""One benchmark run in a fresh interpreter.

Usage: ``python3 child.py JOB.json SPAWNED`` where ``SPAWNED`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux).  The child imports ``minsurf.cli`` first, so the
set-up time covers interpreter start plus the import and nothing else.  A
job without a subcommand stops there.  Otherwise it runs
``cli.run(subcommand, config, out=...)``, optionally under the tracer, and
writes its measurements to the job's result path.  The exit code is the
CLI's.
"""

import sys
import time


def main():
    spawned = float(sys.argv[2])
    import minsurf.cli as cli

    setup_s = time.monotonic() - spawned

    import json
    import resource

    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"setup_s": setup_s}
    code = 0
    if job["subcommand"] is not None:
        tracer = None
        if job["trace"]:
            import layers
            from tracer import Tracer

            tracer = Tracer().install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.run(job["subcommand"], job["config"], out=job["out"])
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kB on Linux
        if tracer is not None:
            result["layers"] = layers.from_tracer(tracer, result["cpu_s"])
            result["functions"] = {
                name: {"calls": e["calls"], "self_s": e["self_s"],
                       "total_s": e["total_s"]}
                for name, e in tracer.by_name().items()}
            result["absent"] = tracer.absent
            with open(job["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
