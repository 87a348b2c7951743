"""The scripts under ``scripts/``: the A/B harness, and README's list of them."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

#: makes a tree's search answer ``unknown`` on every two-state set
_UNKNOWN_ON_PAIRS = """

_search_protocol = search_protocol


def search_protocol(e, cfg=None):
    out = _search_protocol(e, cfg)
    return SearchOutcome("unknown", None, out.schmidt_report) if e.m == 2 else out
"""

#: moves a tree's reported completeness deviation by one bit, and nothing else
_NUDGED_DEVIATION = """

_verify_protocol = verify_protocol


def verify_protocol(tree, e, tol=DEFAULT_TOL):
    report = _verify_protocol(tree, e, tol)
    return VerificationReport(**{**report.__dict__, "completeness_deviation":
                                 float(np.nextafter(report.completeness_deviation, 1.0))})
"""


def _copy_with(tmp_path, module, source):
    """A copy of ``src/loccdist`` under ``tmp_path`` with ``source`` appended
    to ``module``."""
    shutil.copytree(ROOT / "src" / "loccdist", tmp_path / "loccdist",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "loccdist" / module, "a") as f:
        f.write(source)
    return tmp_path


def _search_ab(old_src, new_src):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "search_ab.py"), str(old_src), str(new_src),
         "--cases", "highdim", "--seeds", "1", "--repeat", "1"],
        capture_output=True, text=True, timeout=300)


def test_search_ab_finds_no_difference_between_a_tree_and_itself():
    proc = _search_ab(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert ["decided", "46", "46"] in lines
    assert ["failed", "0", "0"] in lines
    assert "protocol bytes differ: 0 of 104" in proc.stdout.splitlines()
    assert "verification reports differ: 0 of 104" in proc.stdout.splitlines()
    # p90 falls inside six4x4's wide band (34 of the 104 searches) on either
    # tree; p50 falls among groups whose times interleave, so one round of
    # timing noise may name a neighbour of the same band on each side
    bands = {line[0]: line[2:] for line in lines if line[1:2] == ["group"]}
    assert bands["latency_ms.p90"] == ["six4x4", "six4x4"]
    groups = {line[0] for line in lines if len(line) == 5 and line[1].isdigit()}
    assert len(bands["latency_ms.p50"]) == 2 and set(bands["latency_ms.p50"]) <= groups


def test_search_ab_names_the_operations_whose_verdict_moved(tmp_path):
    proc = _search_ab(ROOT / "src", _copy_with(tmp_path, "search.py", _UNKNOWN_ON_PAIRS))
    assert proc.returncode == 1
    assert re.search(r"^differs: haarpair3/\d+: ", proc.stderr, re.M), proc.stderr


def test_search_ab_counts_verification_reports_that_differ_by_a_bit(tmp_path):
    proc = _search_ab(ROOT / "src", _copy_with(tmp_path, "protocol.py", _NUDGED_DEVIATION))
    assert proc.returncode == 0, proc.stderr  # a difference alone keeps the exit code
    lines = proc.stdout.splitlines()
    assert "protocol bytes differ: 0 of 104" in lines
    differ = re.search(r"^verification reports differ: (\d+) of 104$", proc.stdout, re.M)
    listed = sum(1 for line in proc.stderr.splitlines()
                 if line.startswith("verification reports differ: "))
    assert differ and int(differ.group(1)) == listed > 0, proc.stdout


def test_readme_names_every_script_and_no_other():
    named = set(re.findall(r"scripts/(\w+)\.py", (ROOT / "README.md").read_text()))
    assert named == {path.stem for path in SCRIPTS.glob("*.py")}
