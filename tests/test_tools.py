"""Tests for the checkout tools under ``tools/``: a path without a package is refused."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name, *paths):
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("args", [
    ("code_lines.py", "{empty}"),
    ("code_lines.py", "{empty}", "{root}"),
    ("code_lines.py", "{root}", "{empty}"),
    ("csv_digests.py", "{empty}"),
    ("csv_digests.py", "{empty}", "{root}"),
    # checked before any run, so the good checkout's runs never start
    ("csv_digests.py", "{root}", "{empty}"),
], ids=["code-lines-dir", "code-lines-parent", "code-lines-change",
        "csv-digests-checkout", "csv-digests-parent", "csv-digests-change"])
def test_a_path_without_a_package_exits_2_and_names_it(tmp_path, args):
    empty = tmp_path / "empty"
    empty.mkdir()
    name, *paths = args
    result = _tool(name, *(p.format(empty=empty, root=ROOT) for p in paths))
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert str(empty) in line


def test_code_lines_of_a_checkout_match_its_package_dir():
    # the refusal leaves a real package counted as before
    whole = _tool("code_lines.py", ROOT, ROOT)
    single = _tool("code_lines.py", ROOT / "src" / "minsurf")
    assert whole.returncode == single.returncode == 0
    total = single.stdout.splitlines()[-1].split()[1]
    assert whole.stdout.splitlines()[-1] == f"total {total} {total} +0"
