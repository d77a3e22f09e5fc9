"""Run the tier-1 suite and hold it to its one expected failure.

    python tools/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors --durations=10`
from the repo root with src on PYTHONPATH (so every log lists the ten
slowest tests), under `python -X dev` and without pytest's cache, and
reads each test's outcome from a JUnit XML report written to a temporary
directory. pyproject.toml's filterwarnings makes every warning an error,
so a floating-point warning that escapes a kernel fails its test, and so
does any other warning, a deprecation or an unclosed resource say.
After its pass/fail line it prints `src/qud: N lines`, the size of the
package as `cat src/qud/*.py | wc -l` counts it.
The d=2 U_tr volume cell is expected to stay red (the stated relation
admits about 0.80 of the cube against the reference 0.930; see README
"Reference volumes and known gaps"), and only on that cell's assertion:
its JUnit failure message must start with EXPECTED_MESSAGE.

Exit 0 when that test is the only one that fails, and fails on that
assertion; exit 1 when any other test fails or errors, when that test
passes, is missing or fails in any other way, or when pytest writes no
report.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tests/test_acceptance.py::test_volume_table_d2, as the JUnit report names it
EXPECTED_RED = "tests.test_acceptance::test_volume_table_d2"
# how its U_tr cell's assertion fails; a TypeError, say, is not the known gap
EXPECTED_MESSAGE = "AssertionError: U_tr measured"


def outcomes(report: Path) -> dict:
    """classname::name -> (outcome, message) from a JUnit XML report. The
    outcome is "passed", "failed" or "skipped"; the message is that of the
    last failure or error, "" for a passed or skipped test. A collection
    error is a failed case named after its module."""
    result = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        bad = [e.get("message", "") for e in case if e.tag in ("failure", "error")]
        if bad:
            result[test] = ("failed", bad[-1])
        else:
            skipped = case.find("skipped") is not None
            result.setdefault(test, ("skipped" if skipped else "passed", ""))
    return result


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run(
            [sys.executable, "-X", "dev", "-m", "pytest", "-q",
             "--continue-on-collection-errors", "--durations=10",
             "-p", "no:cacheprovider", f"--junitxml={report}"],
            cwd=ROOT, env=env, check=False)
        if not report.exists():
            print("tier1: pytest wrote no report", file=sys.stderr)
            return 1
        results = outcomes(report)
    failed = sorted(t for t, (r, _) in results.items() if r == "failed")
    passed = sum(r == "passed" for r, _ in results.values())
    print(f"tier1: {passed} passed, {len(failed)} failed")
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src/qud").glob("*.py"))
    print(f"src/qud: {lines} lines")
    unexpected = [t for t in failed if t != EXPECTED_RED]
    for test in unexpected:
        print(f"tier1: unexpected failure: {test}", file=sys.stderr)
    if EXPECTED_RED not in failed:
        state = results.get(EXPECTED_RED, ("missing", ""))[0]
        print(f"tier1: expected-red {EXPECTED_RED} is {state}", file=sys.stderr)
        return 1
    message = results[EXPECTED_RED][1]
    if not message.startswith(EXPECTED_MESSAGE):
        first_line = message.partition("\n")[0]
        print(f"tier1: expected-red {EXPECTED_RED} failed otherwise: {first_line}",
              file=sys.stderr)
        return 1
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
