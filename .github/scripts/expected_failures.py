"""Fail unless a suite's failures are exactly its known, red-by-design set.

    python .github/scripts/expected_failures.py tier1 tier1.xml
    python .github/scripts/expected_failures.py layerbench lb.xml

Reads the junit XML that ``pytest --junitxml`` writes. In Tier-1,
acceptance criteria 4 and 11 stay strict and fail by design. In
``layerbench/tests``, two tests fail because the benchmark's tracer still
lists names the library no longer has (ROADMAP item 2). Any other failed
or errored test is a regression. A known failure that passes fails the
check too, because then the expected set (and the ROADMAP) needs
updating.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tier1": {
        "tests.test_acceptance::test_criterion_04_binary_tree_height4_unique_optimum",
        "tests.test_acceptance::test_criterion_11_growth_trajectory_strict_minimum",
    },
    "layerbench": {
        "layerbench.tests.test_layerbench::test_missing_trace_target_is_reported_absent",
        "layerbench.tests.test_layerbench::test_traced_run_emits_every_per_layer_name",
    },
}


def failed_tests(path: str) -> set[str]:
    """``classname::name`` of every test case with a failure or an error."""
    return {
        f"{case.get('classname', '')}::{case.get('name', '')}"
        for case in ET.parse(path).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[1] not in EXPECTED:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    expected = EXPECTED[argv[1]]
    failed = failed_tests(argv[2])
    for name in sorted(failed - expected):
        print(f"unexpected failure: {name}")
    for name in sorted(expected - failed):
        print(f"expected failure did not fail: {name}")
    if failed != expected:
        return 1
    print(f"ok: exactly the {len(expected)} known {argv[1]} failures")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
