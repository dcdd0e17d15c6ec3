"""The acceptance gate.

One test per criterion; each prints its PASS/FAIL line with timing and
detail, and the assertion carries the same line so failures are fully
described in the report.  Everything is checked at exact tolerance; the
multipoint criterion is the long one (a few minutes of exact
arithmetic over roughly a million terms).
"""

import pytest

from sumrange.acceptance import CRITERION_NUMBERS, run_criterion

_SLUGS = {
    1: "two-point-axioms",
    2: "three-point-axioms",
    3: "two-point-telescoping",
    4: "three-point-limits",
    5: "divergence-obstruction",
    6: "higher-moments",
    7: "lemma-suites",
    8: "multipoint-limits",
    9: "affine-transforms",
    10: "compact-running-sums",
    11: "five-point-limits",
}


@pytest.mark.parametrize(
    "number", CRITERION_NUMBERS,
    ids=[f"{n:02d}-{_SLUGS[n]}" for n in CRITERION_NUMBERS])
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
