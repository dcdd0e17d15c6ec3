"""Auxiliary inequalities behind the finite-sum-range argument, as
executable checks with exact arithmetic, plus seeded property suites.

The three function lemmas live on a single cube viewed as a product
probability space:

* cross-variable bound: for f and g depending on disjoint coordinate
  sets, the L1 norm of f+g is at least the norm of f plus the norm of g
  discounted by twice the support of f.
* fiber approximation: the best L1 approximation of f among functions
  of a chosen coordinate set is the weighted median along each fiber;
  it stays within eps of f and 2*eps of any g whose distance to f is
  at most eps.
* near constancy: if integer-valued f and h depend on disjoint
  coordinates, g takes two adjacent integer values, and the norm of
  f+g+h is below delta < 1/9, then f or h coincides with an integer
  constant off a set of measure 2*sqrt(delta) and lies within
  3*sqrt(delta) of it.  Both conclusions are verified in squared form
  so no square roots are ever taken.

The drift check covers the scalar-plus-integer splitting: a window of
indices whose drift total lands strictly between eps and 1/2 forces the
combined series to move by at least eps, because the function part of
any window sum is integer-valued.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .families import ConfigError, build_kadets
from .schedules import schedule_point
from .stepfn import (
    Rational,
    StepFunction,
    as_fraction,
    constant,
    indicator,
    lattice_entries,
)

F0 = Fraction(0)


def _single_cube(*fns: StepFunction) -> int:
    domain = fns[0].domain
    if len(domain) != 1:
        raise ConfigError(f"expected a single-cube function, got domain {domain}")
    for f in fns[1:]:
        if f.domain != domain:
            raise ConfigError(f"domain mismatch: {f.domain} vs {domain}")
    return domain[0]


def _coords(f: StepFunction) -> frozenset[int]:
    return frozenset(coord for _, coord in f.footprint())


# --- cross-variable lower bound ---------------------------------------------


class CrossVariableResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    support: Fraction
    holds: bool


def cross_variable_lower_bound(f: StepFunction, g: StepFunction) -> CrossVariableResult:
    """Exact check of ||f+g|| >= ||f|| + ||g||*(1 - 2*mu(supp f)) for
    functions of disjoint coordinate sets."""
    cube = _single_cube(f, g)
    if _coords(f) & _coords(g):
        raise ConfigError("the two functions must depend on disjoint coordinates")
    support = f.support_measure(cube)
    lhs = (f + g).moment(1)
    rhs = f.moment(1) + g.moment(1) * (1 - 2 * support)
    return CrossVariableResult(lhs, rhs, support, lhs >= rhs)


# --- fiber best approximation -----------------------------------------------


def fiber_best_approximation(f: StepFunction, keep: Iterable[int],
                             integer_only: bool = False) -> StepFunction:
    """Best L1 approximation of f among functions of the `keep`
    coordinates: a weighted median over each fiber, counting the
    untouched remainder of the fiber as the value 0.  Ties pick the
    smallest optimal value.

    Works on f's lattice: a value is an integer over f's value
    denominator, and a box's weight in a fiber an integer over `whole`,
    the product of the other coordinates' denominators."""
    cube = _single_cube(f)
    keep = sorted(set(int(c) for c in keep))
    dens, vden = f._dens, f._vden
    whole = 1
    for c, d in dens.items():
        if c not in keep:
            whole *= d
    cuts = {c: {0, dens.get(c, 1)} for c in keep}
    boxes = []
    for _, bounds, v in f._entries:
        spans, weight = {}, whole
        for c, lo, hi in bounds:
            if c in cuts:
                spans[c] = (lo, hi)
                cuts[c].update((lo, hi))
            else:
                weight = weight // dens[c] * (hi - lo)
        boxes.append((spans, weight, v))
    grids = [list(zip(sorted(cuts[c]), sorted(cuts[c])[1:])) for c in keep]
    out = []
    for chosen in product(*grids):
        # the fiber over one cell of the keep grid: value -> weight
        merged = {0: whole}
        for spans, weight, v in boxes:
            if all(spans[c][0] <= lo and hi <= spans[c][1]
                   for c, (lo, hi) in zip(keep, chosen) if c in spans):
                merged[v] = merged.get(v, 0) + weight
                merged[0] -= weight
        values = sorted(v for v, w in merged.items() if w)
        # the first value whose cumulative weight reaches half the fiber
        cum = 0
        for med in values:
            cum += merged[med]
            if 2 * cum >= whole:
                break
        den = vden
        if integer_only:
            med = min((med // vden, -(-med // vden)),
                      key=lambda c: (sum(w * abs(v - c * vden) for v, w in merged.items()), c))
            den = 1
        if med:
            out.append((cube, [(c, lo, dens.get(c, 1), hi, dens.get(c, 1))
                               for c, (lo, hi) in zip(keep, chosen) if hi - lo != dens.get(c, 1)],
                        (med, den)))
    return StepFunction._raw(f.domain, *lattice_entries(f.domain, out))


class FiberApproximationResult(NamedTuple):
    eps: Fraction
    gap: Fraction
    dist_f: Fraction
    dist_g: Fraction
    approximation: StepFunction
    holds: bool


def fiber_approximation_check(f: StepFunction, g: StepFunction,
                              eps: Rational | None = None,
                              integer_only: bool = False) -> FiberApproximationResult:
    """Build the median approximation of f over the coordinates shared
    with g, then check dist(h,f) <= eps and dist(h,g) <= 2*eps."""
    _single_cube(f, g)
    gap = (f - g).moment(1)
    bound = gap if eps is None else as_fraction(eps)
    if bound < gap:
        raise ConfigError(f"eps {bound} is below the actual distance {gap}")
    keep = _coords(f) & _coords(g)
    h = fiber_best_approximation(f, keep, integer_only)
    dist_f = (h - f).moment(1)
    dist_g = (h - g).moment(1)
    holds = dist_f <= bound and dist_g <= 2 * bound
    return FiberApproximationResult(bound, gap, dist_f, dist_g, h, holds)


# --- near constancy ---------------------------------------------------------


class ConstancyCertificate(NamedTuple):
    value: Fraction
    equal_measure: Fraction
    distance: Fraction


def _integer_fits(f: StepFunction, cube: int) -> Iterator[ConstancyCertificate]:
    """Each integer value of f, and 0, in increasing order, with the
    measure where f equals it and the L1 distance of f to it."""
    for c in sorted({v for v in f.value_set() if v.denominator == 1} | {F0}):
        diff = f - constant(f.domain, c)
        yield ConstancyCertificate(c, 1 - diff.support_measure(cube), diff.moment(1))


def constancy_certificate(f: StepFunction) -> ConstancyCertificate:
    """The integer constant agreeing with f on the largest measure,
    with its exact agreement measure and L1 distance; ties go to the
    smaller distance, then to the smaller constant."""
    return max(_integer_fits(f, _single_cube(f)),
               key=lambda cert: (cert.equal_measure, -cert.distance))


class NearConstancyResult(NamedTuple):
    hypothesis_ok: bool
    reason: str
    holds: bool
    which: str
    value: Fraction | None
    equal_measure: Fraction | None
    distance: Fraction | None


def near_constancy_check(f: StepFunction, g: StepFunction, h: StepFunction,
                         delta: Rational) -> NearConstancyResult:
    """Exact form of the near-constancy conclusion.

    Hypotheses are checked exactly; an instance that violates them is
    reported as vacuous, never as a failure.  The conclusion is checked
    in squared form: (1 - equal_measure)^2 <= 4*delta and
    distance^2 <= 9*delta for some integer constant against f or h.
    """
    delta = as_fraction(delta)
    if not 0 < delta < Fraction(1, 9):
        raise ConfigError(f"delta must lie strictly between 0 and 1/9, got {delta}")
    cube = _single_cube(f, g, h)

    def vacuous(reason: str) -> NearConstancyResult:
        return NearConstancyResult(False, reason, False, "", None, None, None)

    for name, fn in (("first", f), ("middle", g), ("last", h)):
        if not fn.is_integer_valued():
            return vacuous(f"{name} function is not integer-valued")
    if _coords(f) & _coords(h):
        return vacuous("outer functions share a coordinate")
    gv = sorted(g.value_set())
    if gv[-1] - gv[0] > 1:
        return vacuous(f"middle values {gv} are not two adjacent integers")
    total = (f + g + h).moment(1)
    if not total < delta:
        return vacuous(f"moment {total} of the sum is not below {delta}")

    for which, target in (("f", f), ("h", h)):
        for c, eq, dist in _integer_fits(target, cube):
            if (1 - eq) ** 2 <= 4 * delta and dist ** 2 <= 9 * delta:
                return NearConstancyResult(True, "", True, which, c, eq, dist)
    return NearConstancyResult(True, "", False, "", None, None, None)


# --- integer plus drift windows ---------------------------------------------


class DriftWindow(NamedTuple):
    start: int
    stop: int
    drift_sum: Fraction
    moment: Fraction


class DriftReport(NamedTuple):
    verdict: str
    eps: Fraction
    horizon: int
    windows: tuple[DriftWindow, ...]

    @property
    def transfers_hold(self) -> bool:
        return all(w.moment >= self.eps for w in self.windows)


def integer_drift_check(fns: Sequence[StepFunction], drifts: Sequence[Rational],
                        eps: Rational = Fraction(1, 4)) -> DriftReport:
    """Search index windows whose drift total lies strictly between eps
    and 1/2, and verify on each that the combined window sum moves by at
    least eps.  Because the function part is integer-valued, the window
    moment is at least the distance of the drift total to the integers.

    A witness window in the late half of the horizon means the combined
    partial sums still fluctuate by eps there, which is the exact
    obstruction the splitting predicts; the verdict reports that as
    "divergent", otherwise "convergent".
    """
    eps = as_fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ConfigError(f"eps must lie strictly between 0 and 1/2, got {eps}")
    if len(fns) != len(drifts):
        raise ConfigError(f"{len(fns)} functions but {len(drifts)} drifts")
    if not fns:
        raise ConfigError("need at least one term")
    for k, fn in enumerate(fns):
        if not fn.is_integer_valued():
            raise ConfigError(f"function {k + 1} is not integer-valued")
    vals = [as_fraction(d) for d in drifts]
    horizon = len(vals)
    prefix = [F0]
    for d in vals:
        prefix.append(prefix[-1] + d)
    # a window's sum is the difference of two prefix sums, whose canonical
    # form is the one of the window's terms summed alone
    domain = fns[0].domain
    sums = [StepFunction.zero(domain)]
    for fn in fns:
        sums.append(sums[-1] + fn)
    windows = []
    for i in range(horizon):
        for j in range(i + 1, horizon + 1):
            s = prefix[j] - prefix[i]
            if eps < abs(s) < Fraction(1, 2):
                moment = (sums[j] - sums[i] + constant(domain, s)).moment(1)
                windows.append(DriftWindow(i + 1, j, s, moment))
    late = [w for w in windows if w.start > horizon // 2]
    verdict = "divergent" if late else "convergent"
    return DriftReport(verdict, eps, horizon, tuple(windows))


# --- seeded suites ----------------------------------------------------------


class SuiteCase(NamedTuple):
    """One suite instance.  `hypothesis_ok` records whether the lemma
    hypotheses held; `conclusion_ok` records whether the case behaved
    as the suite expected, so an instance built to violate a hypothesis
    counts as passing when it is reported vacuous."""
    label: str
    hypothesis_ok: bool
    conclusion_ok: bool
    witness: str


class SuiteReport:
    def __init__(self, name: str, cases: list[SuiteCase]):
        self.name = name
        self.cases = cases

    @property
    def ok(self) -> bool:
        return all(c.conclusion_ok for c in self.cases)

    def counts(self) -> tuple[int, int, int]:
        vacuous = sum(1 for c in self.cases if not c.hypothesis_ok)
        failed = sum(1 for c in self.cases if not c.conclusion_ok)
        return len(self.cases), vacuous, failed

    def lines(self) -> list[str]:
        total, vacuous, failed = self.counts()
        out = [f"suite {self.name}: {total} cases, {vacuous} vacuous, {failed} failed"]
        for c in self.cases:
            if not c.conclusion_ok:
                out.append(f"  FAIL {c.label}: {c.witness}")
        return out

    def csv_lines(self) -> list[str]:
        out = ["case,hypothesis_ok,conclusion_ok,witness"]
        for c in self.cases:
            witness = c.witness.replace('"', "'")
            out.append(f'{c.label},{int(c.hypothesis_ok)},{int(c.conclusion_ok)},"{witness}"')
        return out


def _random_fn(rng: random.Random, coords: tuple[int, ...]) -> StepFunction:
    """A step function on cube 1 of the coordinates `coords` (increasing):
    each axis is cut at 0 to 7 random eighths, and each grid cell gets a
    value in -3..3."""
    axes = []
    for _ in coords:
        cells = rng.randint(1, 8)
        edges = [0] + sorted(rng.sample(range(1, 8), cells - 1)) + [8]
        axes.append(list(zip(edges, edges[1:])))
    boxes = []
    for spans in product(*axes):
        v = rng.randint(-3, 3)
        if v:
            boxes.append((1, [(c, lo, 8, hi, 8) for c, (lo, hi) in zip(coords, spans)
                              if hi - lo != 8], (v, 1)))
    return StepFunction._raw((1,), *lattice_entries((1,), boxes))


def run_cross_variable_suite(cases: int = 500, seed: int = 7) -> SuiteReport:
    rng = random.Random(seed)
    rows = []
    for k in range(cases):
        f = _random_fn(rng, (1,))
        g = _random_fn(rng, (2,))
        r = cross_variable_lower_bound(f, g)
        rows.append(SuiteCase(f"case-{k}", True, r.holds,
                              f"lhs={r.lhs} rhs={r.rhs} supp={r.support}"))
    return SuiteReport("cross-variable", rows)


def run_fiber_suite(cases: int = 500, seed: int = 7) -> SuiteReport:
    rng = random.Random(seed)
    rows = []
    for k in range(cases):
        f = _random_fn(rng, (1, 2))
        g = _random_fn(rng, (2, 3))
        integer_only = bool(k % 2)
        r = fiber_approximation_check(f, g, integer_only=integer_only)
        clean = (_coords(r.approximation) <= {2}
                 and r.approximation.is_integer_valued())
        rows.append(SuiteCase(
            f"case-{k}{'-int' if integer_only else ''}", True, r.holds and clean,
            f"eps={r.eps} dist_f={r.dist_f} dist_g={r.dist_g}"))
    return SuiteReport("fiber-approximation", rows)


def _near_constancy_instances():
    """Each entry: label, delta, f, g, h, expect_hypothesis."""
    dom = (1,)
    deltas = [Fraction(1, 16), Fraction(1, 25), Fraction(1, 36), Fraction(1, 100)]
    one = constant(dom, 1)
    half1 = indicator(dom, 1, {1: (0, Fraction(1, 2))})
    half2 = indicator(dom, 1, {2: (0, Fraction(1, 2))})
    for delta in deltas:
        m = delta / 2
        noise1 = indicator(dom, 1, {1: (0, m)})
        noise2 = indicator(dom, 1, {2: (0, m)})
        yield (f"exact-zero d={delta}", delta, one, one.scale(-1),
               StepFunction.zero(dom), True)
        yield (f"noisy-first d={delta}", delta, one + noise1, one.scale(-1),
               StepFunction.zero(dom), True)
        yield (f"noisy-last d={delta}", delta, StepFunction.zero(dom), one,
               one.scale(-1) + noise2, True)
        yield (f"split-balanced d={delta}", delta, half1, half1.scale(-1),
               StepFunction.zero(dom), True)
        yield (f"offset-pair d={delta}", delta, constant(dom, 3), one.scale(-1),
               constant(dom, -2), True)
    tiny = indicator(dom, 1, {1: (0, Fraction(1, 200))})
    yield ("adversarial-split d=1/100", Fraction(1, 100), half1,
           StepFunction.zero(dom), half2, False)
    yield ("adversarial-tiny-middle d=1/100", Fraction(1, 100), half1, tiny,
           half2, False)


def run_near_constancy_battery() -> SuiteReport:
    rows = []
    for label, delta, f, g, h, expect_hyp in _near_constancy_instances():
        r = near_constancy_check(f, g, h, delta)
        if expect_hyp:
            ok = r.hypothesis_ok and r.holds
            witness = (f"which={r.which} c={r.value} equal={r.equal_measure} "
                       f"dist={r.distance}")
        else:
            # hypothesis must fail exactly, which keeps the lemma honest
            ok = not r.hypothesis_ok
            witness = f"vacuous: {r.reason}"
        rows.append(SuiteCase(label, r.hypothesis_ok, ok, witness))
    return SuiteReport("near-constancy", rows)


def run_drift_battery(horizon: int = 64) -> SuiteReport:
    depth = 6
    fam = build_kadets(depth)
    ids = list(schedule_point(fam, "sigma").term_ids())[:horizon]
    if len(ids) < horizon:
        raise ConfigError(f"depth {depth} family has too few terms for {horizon}")
    fns = [fam.fn(tid) for tid in ids]
    batteries = [
        ("harmonic", [Fraction(1, n) for n in range(1, horizon + 1)], "divergent"),
        ("alternating", [Fraction((-1) ** (n + 1), n) for n in range(1, horizon + 1)],
         "convergent"),
    ]
    rows = []
    for label, drifts, expected in batteries:
        report = integer_drift_check(fns, drifts)
        ok = report.verdict == expected and report.transfers_hold
        first = report.windows[0] if report.windows else None
        witness = (f"verdict={report.verdict} windows={len(report.windows)}"
                   + (f" first=[{first.start},{first.stop}] sum={first.drift_sum}"
                      f" moment={first.moment}" if first else ""))
        rows.append(SuiteCase(label, True, ok, witness))
    return SuiteReport("integer-drift", rows)


# Suite name -> (runner, whether it takes the case count and the seed).
# Runners are named, not held, and looked up when a suite runs, so a
# timing shim that rebinds the module attribute sees every call.
SUITES = {
    "cross-variable": ("run_cross_variable_suite", True),
    "fiber": ("run_fiber_suite", True),
    "near-constancy": ("run_near_constancy_battery", False),
    "drift": ("run_drift_battery", False),
}


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    """The report of the suite called `name` in `SUITES`."""
    runner, seeded = SUITES[name]
    run = globals()[runner]
    return run(cases, seed) if seeded else run()
