#!/usr/bin/env python3
"""Fixture-based test suite for tools/rn_lint.py, registered with ctest.

Each `.cpp` under tests/lint_fixtures/ is self-describing:

    // lint-fixture-place:  src/dist/r3_raw_io.cpp   (repo-relative path the
    //                      file is staged at — rule scopes are path-based)
    // lint-fixture-expect: R3 R3 R3                  (exact multiset of rule
    //                      IDs that must fire; `none` for clean fixtures)

The runner stages every fixture into a shadow tree, runs rn_lint on it, and
asserts the reported rule-ID multiset matches the directive exactly — the
named rule fires the named number of times and *nothing else* fires.
Exit 0 = all fixtures pass.
"""

from __future__ import annotations

import collections
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RN_LINT = REPO / "tools" / "rn_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

_PLACE_RE = re.compile(r"lint-fixture-place:\s*(\S+)")
_EXPECT_RE = re.compile(r"lint-fixture-expect:\s*(.+)")


def parse_directives(fixture: Path) -> tuple[str, list[str]]:
    head = fixture.read_text()
    place = _PLACE_RE.search(head)
    expect = _EXPECT_RE.search(head)
    if place is None or expect is None:
        raise SystemExit(f"{fixture.name}: missing lint-fixture directives")
    raw = expect.group(1).split("//")[0].strip()
    rules = [] if raw == "none" else raw.split()
    return place.group(1), rules


def run_fixture(fixture: Path, place: str, expected: list[str]) -> list[str]:
    """Returns a list of failure messages (empty = pass)."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="rn_lint_fix_") as tmp:
        root = Path(tmp)
        staged = root / place
        staged.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fixture, staged)
        proc = subprocess.run(
            [
                sys.executable,
                str(RN_LINT),
                "--root",
                str(root),
                "--files",
                str(staged),
                "--json",
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode not in (0, 1):
            return [
                f"{fixture.name}: rn_lint crashed "
                f"(rc={proc.returncode}): {proc.stderr.strip()}"
            ]
        findings = json.loads(proc.stdout)
        got = collections.Counter(f["rule"] for f in findings)
        want = collections.Counter(expected)
        if got != want:
            detail = "; ".join(
                f"{f['file']}:{f['line']} {f['rule']} {f['message']}"
                for f in findings
            )
            failures.append(
                f"{fixture.name}: expected {dict(want) or 'none'}, "
                f"got {dict(got) or 'none'} ({detail or 'no findings'})"
            )
        want_rc = 1 if expected else 0
        if proc.returncode != want_rc:
            failures.append(
                f"{fixture.name}: exit code {proc.returncode}, "
                f"expected {want_rc}"
            )
    return failures


def main() -> int:
    fixtures = sorted(FIXTURES.glob("*.cpp"))
    if not fixtures:
        print("no fixtures found", file=sys.stderr)
        return 2
    failures: list[str] = []
    for fixture in fixtures:
        place, expected = parse_directives(fixture)
        failures.extend(run_fixture(fixture, place, expected))
    for message in failures:
        print(f"FAIL {message}")
    print(f"lint fixtures: {len(fixtures)} run, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
