"""SHA-256 digests of the CSVs and manifests of a fixed set of ``minsurf`` runs.

    python3 tools/csv_digests.py [CHECKOUT]
    python3 tools/csv_digests.py PARENT CHANGE

Runs, in this interpreter and one at a time, the six subcommands at their
shipped defaults (config ``{}``), the three ``perfbench`` workloads at seeds
0 and 7 (their configs from ``perfbench.workloads.config``), and one
``recover-q`` run with a ``field`` grid, each into its own directory under a
temporary directory that is removed at the end.  It prints one line per
CSV, ``run/file exit sha256``, or ``run exit -`` for a run that wrote no
CSV, and then one line for the run's manifest, ``run/manifest exit
sha256``: the digest of ``json.dumps`` of its ``results``, ``assertions``
and ``passed`` with sorted keys, so numbers that only the manifest holds
are compared too; its ``timings`` and ``versions`` are left out.  A run that wrote no manifest (a config error) prints
``run/manifest exit -``.  The code run and the workloads read are those of
``CHECKOUT`` (default: the checkout this script is in).  A run's own output
(its PASS/FAIL lines) is not printed.

Given two checkouts, it runs the set on each in a fresh interpreter and
prints one line for each output whose digest or exit code differs,
``run/file parent_exit change_exit difference``.  The difference is the
largest relative difference |a - b| / max(|a|, |b|) over the numbers of the
CSV, or of the manifest's ``json.dumps`` text, read in order; it is
``text differs`` when the two differ other than in their numbers (a word,
or how many numbers they hold).  A last line counts the identical outputs
and names the largest difference.

A checkout with no ``src/minsurf/*.py`` makes it exit 2 with a one-line
message naming the path, before any run.
"""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ["forward", "linearize-check", "identity-check", "area-pipeline",
               "recover-q", "boundary-jet"]
WORKLOADS = ["area-newton", "probe-extension", "identity-sweep"]
SEEDS = [0, 7]
FIELD_RUN = ("recover-q-field", "recover-q", {"field": {"spacing": 0.3}})
# a number as repr(float), json.dumps or a message writes it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
# runs ``digests(CHECKOUT, DEST)`` of this script in a fresh interpreter
CHILD = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
         "import csv_digests; csv_digests.digests(Path(sys.argv[2]), Path(sys.argv[3]))")


def main(argv):
    roots = [checkout(arg) for arg in argv[1:]] or [Path(__file__).resolve().parents[1]]
    if len(roots) == 2:
        compare(*roots)
        return
    with tempfile.TemporaryDirectory() as tmp:
        digests(roots[0], Path(tmp))


def checkout(arg):
    """The checkout ``arg``; exits 2, naming it, if it holds no package."""
    if not any((Path(arg) / "src" / "minsurf").glob("*.py")):
        print(f"csv_digests.py: no minsurf package in {arg} (no src/minsurf/*.py)",
              file=sys.stderr)
        sys.exit(2)
    return Path(arg)


def digests(root, dest):
    """Run the set on the checkout ``root`` into ``dest`` and print its digests."""
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    import minsurf.cli as cli
    from perfbench import workloads

    runs = [(name, name, {}) for name in SUBCOMMANDS]
    runs += [(f"{name}@{seed}", workloads.WORKLOADS[name]["subcommand"],
              workloads.config(name, seed))
             for name in WORKLOADS for seed in SEEDS]
    runs.append(FIELD_RUN)
    for label, subcommand, config in runs:
        out = dest / label
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(subcommand, config, out=out)
        csvs = sorted(out.glob("*.csv"))
        for path in csvs:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{label}/{path.name} {code} {digest}", flush=True)
        if not csvs:
            print(f"{label} {code} -", flush=True)
        text = _manifest_text(out)
        digest = "-" if text is None else hashlib.sha256(text.encode()).hexdigest()
        print(f"{label}/manifest {code} {digest}", flush=True)


def _manifest_text(out):
    """``json.dumps`` of the run's results, assertions and verdict, or None."""
    path = out / "manifest.json"
    if not path.exists():
        return None
    manifest = json.loads(path.read_text(encoding="utf-8"))
    kept = {key: manifest[key] for key in ("results", "assertions", "passed")}
    return json.dumps(kept, sort_keys=True)


def compare(parent, change):
    """Print the outputs of ``change`` that differ from those of ``parent``."""
    with tempfile.TemporaryDirectory() as tmp:
        dests = [Path(tmp) / "parent", Path(tmp) / "change"]
        procs = [subprocess.Popen([sys.executable, "-B", "-c", CHILD, str(Path(__file__).parent),
                                   str(root), str(dest)], stdout=subprocess.PIPE, text=True)
                 for dest, root in zip(dests, (parent, change))]
        lines = [{key: (code, digest) for key, code, digest
                  in map(str.split, proc.communicate()[0].splitlines())}
                 for proc in procs]
        if any(proc.returncode for proc in procs):
            sys.exit("a checkout's runs failed")
        largest, worst = 0.0, None
        for key, (code, digest) in lines[0].items():
            new_code, new_digest = lines[1].get(key, ("missing", "-"))
            if (code, digest) == (new_code, new_digest):
                continue
            texts = [_output_text(dest, key) for dest in dests]
            diff = None if None in texts else _largest_difference(*texts)
            if diff is not None and diff > largest:
                largest, worst = diff, key
            shown = "text differs" if diff is None else f"{diff:.3g}"
            print(f"{key} {code} {new_code} {shown}", flush=True)
        same = sum(lines[0][key] == lines[1].get(key) for key in lines[0])
        print(f"{same} of {len(lines[0])} outputs identical; largest relative "
              f"difference {largest:.3g}" + (f" ({worst})" if worst else ""))


def _output_text(dest, key):
    """The text of the output ``key`` under ``dest``, or None if there is none."""
    label, _, name = key.rpartition("/")
    if name == "manifest":
        return _manifest_text(dest / label)
    path = dest / label / name
    return path.read_text(encoding="utf-8") if path.exists() else None


def _largest_difference(a, b):
    """Largest relative difference over the numbers of two texts, read in
    order, or None if the texts differ in anything but their numbers."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    largest = 0.0
    for x, y in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
        if x != y:
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest


if __name__ == "__main__":
    main(sys.argv)
