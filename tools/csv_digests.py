"""SHA-256 digests of the CSVs and manifests of a fixed set of ``minsurf`` runs.

    python3 tools/csv_digests.py [CHECKOUT]

Runs, in this interpreter and one at a time, the six subcommands at their
shipped defaults (config ``{}``), the three ``perfbench`` workloads at seeds
0 and 7 (their configs from ``perfbench.workloads.config``), and one
``recover-q`` run with a ``field`` grid, each into its own directory under a
temporary directory that is removed at the end.  It prints one line per CSV,
``run/file exit sha256``, or ``run exit -`` for a run that wrote no CSV, and
then one line for the run's manifest, ``run/manifest exit sha256``: the
digest of ``json.dumps`` of its ``results``, ``assertions`` and ``passed``
with sorted keys, so numbers that only the manifest holds are compared too;
its ``timings`` and ``versions`` are left out.  A run that wrote no manifest
(a config error) prints ``run/manifest exit -``.  The code run and the
workloads read are those of ``CHECKOUT`` (default: the checkout this script
is in), so two checkouts are compared by a ``diff`` of the outputs of this
script run against each.  A run's own output (its PASS/FAIL lines) is not
printed.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ["forward", "linearize-check", "identity-check", "area-pipeline",
               "recover-q", "boundary-jet"]
WORKLOADS = ["area-newton", "probe-extension", "identity-sweep"]
SEEDS = [0, 7]
FIELD_RUN = ("recover-q-field", "recover-q", {"field": {"spacing": 0.3}})


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import minsurf.cli as cli
    from perfbench import workloads

    runs = [(name, name, {}) for name in SUBCOMMANDS]
    runs += [(f"{name}@{seed}", workloads.WORKLOADS[name]["subcommand"],
              workloads.config(name, seed))
             for name in WORKLOADS for seed in SEEDS]
    runs.append(FIELD_RUN)
    with tempfile.TemporaryDirectory() as tmp:
        for label, subcommand, config in runs:
            out = Path(tmp) / label
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(subcommand, config, out=out)
            csvs = sorted(out.glob("*.csv"))
            for path in csvs:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{label}/{path.name} {code} {digest}", flush=True)
            if not csvs:
                print(f"{label} {code} -", flush=True)
            print(f"{label}/manifest {code} {_manifest_digest(out)}", flush=True)


def _manifest_digest(out):
    """SHA-256 of the run's results, assertions and verdict, or ``-``."""
    path = out / "manifest.json"
    if not path.exists():
        return "-"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    kept = {key: manifest[key] for key in ("results", "assertions", "passed")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    main(sys.argv)
