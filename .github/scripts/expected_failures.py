"""Fail unless the Tier-1 failures are exactly the two red-by-design criteria.

    python .github/scripts/expected_failures.py tier1.xml

Reads the junit XML that ``pytest --junitxml`` writes. Acceptance criteria
4 and 11 stay strict and fail by design; any other failed or errored test
is a regression. A passing criterion 4 or 11 fails the check too, because
then the expected set (and the ROADMAP) needs updating.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_04_binary_tree_height4_unique_optimum",
    "tests.test_acceptance::test_criterion_11_growth_trajectory_strict_minimum",
}


def failed_tests(path: str) -> set[str]:
    """``classname::name`` of every test case with a failure or an error."""
    return {
        f"{case.get('classname', '')}::{case.get('name', '')}"
        for case in ET.parse(path).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = failed_tests(argv[1])
    for name in sorted(failed - EXPECTED):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED - failed):
        print(f"expected failure did not fail: {name}")
    if failed != EXPECTED:
        return 1
    print("ok: exactly criteria 4 and 11 fail")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
