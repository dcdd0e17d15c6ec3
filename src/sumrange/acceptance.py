"""The acceptance battery: every headline claim of the package checked
with exact arithmetic, one criterion per claim.

Each criterion returns pass or fail plus a short factual detail line.
Failures are reported, never masked; a crash inside a criterion counts
as a failure with the exception in the detail.  Criteria with a stated
time budget also fail when they run over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    run_cross_variable_suite,
    run_drift_battery,
    run_fiber_suite,
    run_near_constancy_battery,
)
from .families import (
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
    expected_sum_range,
    point_to_y,
    y_to_point,
)
from .schedules import (
    Trace,
    run_trace,
    schedule_divergent,
    schedule_point,
)
from .verify import verify_family

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (f"{word} criterion {self.number:2d} [{self.seconds:7.1f}s] "
                f"{self.title}: {self.detail}")


def _verify_report(fam) -> tuple[bool, str]:
    report = verify_family(fam)
    total, failed = report.counts()
    detail = f"{total} checks, {failed} failures"
    if failed:
        first = report.failures()[0]
        detail += f" (first: {first.check} at {first.scope})"
    return report.ok, detail


def _blocks_telescope(fam, trace: Trace, problems: list[str]) -> int:
    """Markers must sit exactly on target; open rows at level n may
    deviate by at most 2/|M_n| on every cube.  The opening ramp block
    spans the lowest levels, so its open rows get the loosest of the
    involved bounds, 2/|M_1|."""
    label = trace.schedule.label
    checked = 0
    for row in trace.rows:
        checked += 1
        if row.is_marker:
            if any(d != 0 for d in row.deviations):
                problems.append(f"{label} marker {row.block} deviates "
                                f"{max(row.deviations)}")
        else:
            bound = Fraction(2, fam.sizes(row.level if row.level else 1))
            if any(d > bound for d in row.deviations):
                problems.append(f"{label} step {row.step} exceeds {bound}")
    return checked


def _point_schedules(fam, names: tuple[str, ...], what: str) -> tuple[bool, str]:
    """Steps traces of the named point schedules, checked by `_blocks_telescope`."""
    problems: list[str] = []
    rows = 0
    for name in names:
        rows += _blocks_telescope(fam, run_trace(fam, schedule_point(fam, name)), problems)
    if problems:
        return False, "; ".join(problems[:3])
    return True, f"{rows} rows over {what}"


def _divergent_obstruction() -> tuple[bool, str]:
    fam = build_three_kadets(8)
    trace = run_trace(fam, schedule_divergent(fam))
    problems: list[str] = []
    halves = 0
    for row in trace.markers():
        n, m = map(int, row.block.strip("()").split(","))
        theta = Fraction(m, fam.sizes(n))
        expected = 2 * theta * (1 - theta)
        if row.deviations[1] != expected:
            problems.append(f"checkpoint {row.block}: {row.deviations[1]} "
                            f"!= {expected}")
        if row.deviations[0] != 0 or row.deviations[2] != 0:
            problems.append(f"checkpoint {row.block} leaks off the middle cube")
        if theta == Fraction(1, 2):
            halves += 1
            if row.deviations[1] != Fraction(1, 2):
                problems.append(f"half checkpoint {row.block} != 1/2")
    if problems:
        return False, "; ".join(problems[:3])
    if halves < 4:
        return False, f"only {halves} half-level checkpoints seen"
    return True, (f"{len(trace.markers())} checkpoints match 2*theta*(1-theta); "
                  f"deviation returns to 1/2 at every even level, so the "
                  "partial sums never settle")


def _higher_moments() -> tuple[bool, str]:
    runs = [
        (build_kadets(8), "sigma"),
        (build_three_kadets(4), "p00"),
    ]
    compared = 0
    for fam, name in runs:
        sch = schedule_point(fam, name)
        first = run_trace(fam, sch, p=1)
        for p in (2, 3):
            higher = run_trace(fam, sch, p=p)
            for base_row, high_row in zip(first.rows, higher.rows):
                for d1, dp in zip(base_row.deviations, high_row.deviations):
                    compared += 1
                    if dp > d1:
                        return False, (f"{sch.label} step {base_row.step}: "
                                       f"moment {p} is {dp} > moment 1 {d1}")
    return True, f"{compared} moment comparisons, all below the first moment"


def _lemma_suites() -> tuple[bool, str]:
    cross = run_cross_variable_suite(cases=500, seed=7)
    fiber = run_fiber_suite(cases=500, seed=7)
    near = run_near_constancy_battery()
    drift = run_drift_battery()
    certified = sum(1 for c in near.cases if c.hypothesis_ok and c.conclusion_ok)
    vacuous = sum(1 for c in near.cases if not c.hypothesis_ok)
    ok = (cross.ok and fiber.ok and near.ok and drift.ok and certified >= 20)
    detail = (f"cross-variable {len(cross.cases)} clean, fiber "
              f"{len(fiber.cases)} clean, near-constancy {certified} certified "
              f"+ {vacuous} vacuous, drift verdicts exact")
    if not ok:
        for report in (cross, fiber, near, drift):
            for line in report.lines()[1:2]:
                detail += "; " + line.strip()
    return ok, detail


def _multipoint() -> tuple[bool, str]:
    fam = build_multipoint(4, 4)
    ok, detail = _verify_report(fam)
    if not ok:
        return False, detail
    limits = []
    for i in range(4):
        sch = schedule_point(fam, i)
        trace = run_trace(fam, sch, record="blocks")
        if any(d != 0 for d in trace.final_deviations):
            return False, (f"point {i} missed its limit by "
                           f"{max(trace.final_deviations)}")
        limits.append(sch.target)
    if len(set(limits)) != 4:
        return False, f"only {len(set(limits))} distinct limits"
    if not all(v.denominator == 1 for point in limits for v in point):
        return False, "a limit has a non-integer coordinate"
    on_last = [point for point in limits if point[-1] == 1]
    if len(on_last) != 1:
        return False, f"{len(on_last)} limits are 1 on the last cube"
    return True, (f"{detail}; four distinct integer limits reached, exactly "
                  "one equal to 1 on the last cube")


def _affine_transforms() -> tuple[bool, str]:
    base = build_three_kadets(4)
    base_points = expected_sum_range(base)
    matrices = [
        ("zero", TransformSpec.zero(2)),
        ("identity", TransformSpec.identity(2)),
        ("rank-deficient", TransformSpec([[-1, 0], [0, 0]])),
    ]
    checked = 0
    for name, spec in matrices:
        fam = apply_transform(base, spec)
        for index, label in enumerate(("p00", "p10", "p11")):
            sch = schedule_point(fam, label)
            y = point_to_y(3, base_points[index])
            shifted = tuple(a + b for a, b in zip(y, spec.apply(y)))
            if sch.target != y_to_point(3, shifted):
                return False, f"{name} {label}: target is not (I+T) of the base"
            trace = run_trace(fam, sch, record="blocks")
            if any(d != 0 for d in trace.final_deviations):
                return False, (f"{name} {label} missed its limit by "
                               f"{max(trace.final_deviations)}")
            checked += 1
    return True, (f"{checked} schedule runs over three matrices, every limit "
                  "exactly (I+T) of its base point")


def _compact_running_sums() -> tuple[bool, str]:
    # The exact peak.  sigma starts at deviation 0 and its block (n, m) is
    # a^n(m) = 1{x_n in cell m}, then b^n(m, j) = -1{x_n in cell m,
    # x_{n+1} in cell j} for j = 1..|M_{n+1}|.  Each block sums to zero,
    # so the deviation is 0 when a block starts.  After the head and the
    # first k < |M_{n+1}| tails it is the indicator of the single box
    # {x_n in cell m, x_{n+1} >= k/|M_{n+1}|}: one box.  After the last
    # tail it is 0 again: no box at any block marker.
    fam = build_kadets(8)
    trace = run_trace(fam, schedule_point(fam, "sigma"))
    peak = 0
    for row in trace.rows:
        if row.level is None:
            return False, "sigma has no level-free rows"
        bound = 0 if row.is_marker else 1
        peak = max(peak, row.box_counts[0])
        if row.box_counts[0] > bound:
            return False, (f"step {row.step}: {row.box_counts[0]} boxes "
                           f"exceed {bound}")
    if trace.rows[-1].box_counts[0] != 0:
        return False, "running sum does not cancel to zero at the end"
    return True, (f"box count peaks at {peak} and returns to 0 after the "
                  "final block")


_CRITERIA = {
    1: ("two-point family satisfies every axiom at depth 8",
        lambda: _verify_report(build_kadets(8))),
    2: ("three-point family satisfies every axiom at depth 6",
        lambda: _verify_report(build_three_kadets(6))),
    3: ("two-point schedules telescope exactly at depth 8",
        lambda: _point_schedules(build_kadets(8), ("sigma", "tau"),
                                 "sigma and tau: markers exactly on target, "
                                 "open rows within 2/|M_n|")),
    4: ("three-point schedules reach all three limits at depth 6",
        lambda: _point_schedules(build_three_kadets(6), ("p00", "p10", "p11"),
                                 "three schedules: every limit reached with "
                                 "markers exactly on target")),
    5: ("divergent schedule repeats deviation 1/2 on the middle cube",
        _divergent_obstruction),
    6: ("second and third moments never exceed the first", _higher_moments),
    7: ("lemma suites pass with exact witnesses", _lemma_suites),
    8: ("four-point family verifies and reaches four distinct limits",
        _multipoint),
    9: ("affine transforms move every limit to (I+T) of the base point",
        _affine_transforms),
    10: ("running sums stay compact and cancel to zero", _compact_running_sums),
}

TIME_BUDGETS = {1: 30.0, 2: 60.0, 7: 120.0}

CRITERION_NUMBERS = tuple(sorted(_CRITERIA))


def run_criterion(number: int) -> CriterionResult:
    title, fn = _CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    budget = TIME_BUDGETS.get(number)
    if budget is not None:
        detail += f"; {seconds:.1f}s of {budget:.0f}s budget"
        if seconds >= budget:
            passed = False
    return CriterionResult(number, title, passed, detail, seconds)


def run_all() -> list[CriterionResult]:
    return [run_criterion(number) for number in CRITERION_NUMBERS]
