#!/usr/bin/env python3
"""Checks that README.md's test counts match the build.

README states the number of ctest suites and of tests in them, as "N suites / M tests"
or "N suites (M tests". This script counts the suites with ctest and the tests with each
suite binary's --gtest_list_tests, and fails if any count README states differs.

Usage: check_readme_counts.py <build dir> [README path]
"""

import json
import os
import re
import subprocess
import sys

COUNT = re.compile(r"(\d[\d,]*) suites(?: / | \()(\d[\d,]*) tests")


def build_counts(build_dir):
    """Returns (suites, tests) for the ctest suites registered in build_dir."""
    listing = subprocess.run(["ctest", "--test-dir", build_dir, "--show-only=json-v1"],
                             check=True, stdout=subprocess.PIPE, text=True).stdout
    suites = json.loads(listing)["tests"]
    tests = 0
    for suite in suites:
        cases = subprocess.run([suite["command"][0], "--gtest_list_tests"], check=True,
                               stdout=subprocess.PIPE, text=True).stdout
        # Suite headers start in column 0; each test (each parameter instance of a
        # parameterized one) is an indented line.
        tests += sum(1 for line in cases.splitlines() if line.startswith("  "))
    return len(suites), tests


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = sys.argv[1]
    readme = sys.argv[2] if len(sys.argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme) as f:
        stated = [(int(s.replace(",", "")), int(t.replace(",", "")))
                  for s, t in COUNT.findall(f.read())]
    if not stated:
        print(f"{readme}: states no 'N suites / M tests' count", file=sys.stderr)
        return 1
    actual = build_counts(build_dir)
    wrong = [count for count in stated if count != actual]
    for suites, tests in wrong:
        print(f"README says {suites} suites / {tests} tests; the build has "
              f"{actual[0]} suites / {actual[1]} tests", file=sys.stderr)
    if not wrong:
        print(f"README counts match the build: {actual[0]} suites / {actual[1]} tests")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
