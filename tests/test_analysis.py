"""Lemma checks against independent oracles.

The oracles at the top avoid the implementation's own machinery: L1
distances are recomputed by evaluating both functions on a common
refinement grid, and fiber medians are rediscovered by scanning every
candidate value for every fiber.  The perturbation test then confirms
optimality cell by cell through the step-function algebra alone.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sumrange.analysis import (
    ConstancyCertificate,
    SuiteCase,
    SuiteReport,
    constancy_certificate,
    cross_variable_lower_bound,
    fiber_approximation_check,
    fiber_best_approximation,
    integer_drift_check,
    near_constancy_check,
    run_cross_variable_suite,
    run_drift_battery,
    run_fiber_suite,
    run_near_constancy_battery,
    _random_fn,
)
from sumrange.families import ConfigError, build_kadets
from sumrange.schedules import schedule_point
from sumrange.stepfn import (
    Box,
    StepFunction,
    constant,
    indicator,
    make_bounds,
    step_on_coord,
)

F = Fraction
DOM = (1,)


# --- oracles ----------------------------------------------------------------


def _edges(fns, coord):
    cuts = {F(0), F(1)}
    for f in fns:
        for box, _ in f.terms:
            for c, iv in box.bounds:
                if c == coord:
                    cuts.update((iv.lo, iv.hi))
    return sorted(cuts)


def grid_distance(f, g, coords):
    """L1 distance recomputed by midpoint evaluation on a common grid."""
    grids = [_edges((f, g), c) for c in coords]
    total = F(0)

    def walk(depth, point, measure):
        nonlocal total
        if depth == len(coords):
            total += measure * abs(f.evaluate(1, point) - g.evaluate(1, point))
            return
        edges = grids[depth]
        for lo, hi in zip(edges, edges[1:]):
            point[coords[depth]] = (lo + hi) / 2
            walk(depth + 1, point, measure * (hi - lo))
        del point[coords[depth]]

    walk(0, {}, F(1))
    return total


def brute_fiber_values(f, keep_coord, integer_only):
    """Per-fiber optimum by scanning every candidate value, ties to the
    smallest.  Returns a list of (lo, hi, value) pieces."""
    a_edges = _edges((f,), 3 - keep_coord) if keep_coord in (1, 2) else None
    assert a_edges is not None
    b_edges = _edges((f,), keep_coord)
    values = sorted(set(f.value_set()) | {F(0)})
    if integer_only:
        span = range(math.floor(min(values)) - 1, math.ceil(max(values)) + 2)
        candidates = [F(k) for k in span]
    else:
        candidates = values
    pieces = []
    for blo, bhi in zip(b_edges, b_edges[1:]):
        weighted = []
        for alo, ahi in zip(a_edges, a_edges[1:]):
            point = {keep_coord: (blo + bhi) / 2, 3 - keep_coord: (alo + ahi) / 2}
            weighted.append((f.evaluate(1, point), ahi - alo))
        best = None
        for c in candidates:
            cost = sum(w * abs(v - c) for v, w in weighted)
            if best is None or cost < best[0]:
                best = (cost, c)
        pieces.append((blo, bhi, best[1]))
    return pieces


def random_grid(rng, coords, cells=4, lo=-3, hi=3):
    xs = sorted(rng.sample([F(k, 8) for k in range(1, 8)], cells - 1))
    ys = sorted(rng.sample([F(k, 8) for k in range(1, 8)], cells - 1))
    xs = [F(0)] + xs + [F(1)]
    ys = [F(0)] + ys + [F(1)]
    out = StepFunction.zero(DOM)
    for xa, xb in zip(xs, xs[1:]):
        for ya, yb in zip(ys, ys[1:]):
            v = rng.randint(lo, hi)
            if v:
                out = out + indicator(DOM, 1, {coords[0]: (xa, xb),
                                               coords[1]: (ya, yb)}, v)
    return out


# --- cross-variable lower bound ---------------------------------------------


def test_cross_variable_matches_grid_oracle():
    import random
    rng = random.Random(3)
    for _ in range(40):
        f = step_on_coord(DOM, 1, 1,
                          [(F(k, 4), F(k + 1, 4), rng.randint(-3, 3)) for k in range(4)])
        g = step_on_coord(DOM, 1, 2,
                          [(F(k, 4), F(k + 1, 4), rng.randint(-3, 3)) for k in range(4)])
        r = cross_variable_lower_bound(f, g)
        assert r.lhs == grid_distance(f + g, StepFunction.zero(DOM), (1, 2))
        norm_f = grid_distance(f, StepFunction.zero(DOM), (1,))
        norm_g = grid_distance(g, StepFunction.zero(DOM), (2,))
        assert r.rhs == norm_f + norm_g * (1 - 2 * r.support)
        assert r.holds


def test_cross_variable_equality_case():
    # full-support f makes the bound an identity candidate: with f = 1
    # and g = -1 on half the second coordinate, both sides equal 1/2
    f = constant(DOM, 1)
    g = indicator(DOM, 1, {2: (0, F(1, 2))}, -1)
    r = cross_variable_lower_bound(f, g)
    assert r.support == 1
    assert r.lhs == r.rhs == F(1, 2)


def test_cross_variable_small_support_strengthens_bound():
    f = indicator(DOM, 1, {1: (0, F(1, 8))}, 2)
    g = step_on_coord(DOM, 1, 2, [(0, F(1, 2), 1), (F(1, 2), 1, -1)])
    r = cross_variable_lower_bound(f, g)
    assert r.rhs == F(1, 4) + 1 * (1 - F(1, 4))
    assert r.holds


def test_cross_variable_rejects_shared_coordinate():
    f = indicator(DOM, 1, {1: (0, F(1, 2))})
    g = indicator(DOM, 1, {1: (F(1, 2), 1)})
    with pytest.raises(ConfigError):
        cross_variable_lower_bound(f, g)


def test_cross_variable_rejects_multi_cube():
    dom = (1, 2)
    f = indicator(dom, 1, {1: (0, F(1, 2))})
    g = indicator(dom, 2, {2: (0, F(1, 2))})
    with pytest.raises(ConfigError):
        cross_variable_lower_bound(f, g)


# --- fiber best approximation -----------------------------------------------


def test_fiber_median_hand_case():
    f = (indicator(DOM, 1, {1: (0, F(1, 2)), 2: (0, F(1, 2))}, 3)
         + indicator(DOM, 1, {1: (F(1, 2), 1), 2: (0, F(1, 2))}, 1))
    h = fiber_best_approximation(f, [2])
    # fiber below 1/2 splits evenly between 3 and 1: smallest optimum 1;
    # the empty fiber above keeps 0
    assert h == indicator(DOM, 1, {2: (0, F(1, 2))}, 1)


def test_fiber_median_prefers_implicit_zero():
    f = indicator(DOM, 1, {1: (0, F(1, 4)), 2: (0, F(1, 2))}, 3)
    h = fiber_best_approximation(f, [2])
    assert h == StepFunction.zero(DOM)


def test_fiber_median_tie_breaks_to_smallest():
    f = indicator(DOM, 1, {1: (0, F(1, 2))})
    h = fiber_best_approximation(f, [2])
    assert h == StepFunction.zero(DOM)


def test_fiber_empty_keep_gives_global_constant():
    f = step_on_coord(DOM, 1, 1, [(0, F(2, 3), 5)])
    h = fiber_best_approximation(f, [])
    assert h == constant(DOM, 5)


def test_fiber_integer_rounding():
    f = constant(DOM, F(2, 3))
    assert fiber_best_approximation(f, [], integer_only=True) == constant(DOM, 1)
    g = constant(DOM, F(1, 2))
    # costs tie between 0 and 1, smallest integer wins
    assert fiber_best_approximation(g, [], integer_only=True) == StepFunction.zero(DOM)


def test_fiber_merges_identical_fibers():
    f = (indicator(DOM, 1, {1: (0, F(2, 3)), 2: (0, F(1, 3))}, 2)
         + indicator(DOM, 1, {1: (0, F(2, 3)), 2: (F(1, 3), F(2, 3))}, 2)
         + indicator(DOM, 1, {1: (0, F(2, 3)), 2: (F(2, 3), 1)}, 5))
    h = fiber_best_approximation(f, [2])
    assert h == step_on_coord(DOM, 1, 2, [(0, F(2, 3), 2), (F(2, 3), 1, 5)])


def test_fiber_matches_brute_scan():
    import random
    rng = random.Random(17)
    for k in range(30):
        f = random_grid(rng, (1, 2))
        integer_only = bool(k % 2)
        h = fiber_best_approximation(f, [2], integer_only=integer_only)
        expected = StepFunction.zero(DOM)
        for lo, hi, v in brute_fiber_values(f, 2, integer_only):
            if v:
                expected = expected + indicator(DOM, 1, {2: (lo, hi)}, v)
        assert h == expected


def test_fiber_perturbations_never_improve():
    import random
    rng = random.Random(23)
    for k in range(12):
        f = random_grid(rng, (1, 2))
        h = fiber_best_approximation(f, [2])
        base = (f - h).moment(1)
        edges = _edges((f, h), 2)
        for lo, hi in zip(edges, edges[1:]):
            current = h.evaluate(1, {2: (lo + hi) / 2})
            for x in sorted(set(f.value_set()) | {F(0)}):
                if x == current:
                    continue
                bumped = h + indicator(DOM, 1, {2: (lo, hi)}, x - current)
                cost = (f - bumped).moment(1)
                if x < current:
                    assert cost > base
                else:
                    assert cost >= base


def test_fiber_check_bounds_hold():
    import random
    rng = random.Random(29)
    for _ in range(25):
        f = random_grid(rng, (1, 2))
        g = random_grid(rng, (2, 3))
        r = fiber_approximation_check(f, g)
        assert r.eps == r.gap == grid_distance(f, g, (1, 2, 3))
        assert r.dist_f <= r.eps
        assert r.dist_g <= 2 * r.eps
        assert r.holds


def test_fiber_check_integrality_and_coords():
    import random
    rng = random.Random(31)
    f = random_grid(rng, (1, 2))
    g = random_grid(rng, (2, 3))
    r = fiber_approximation_check(f, g, integer_only=True)
    assert r.approximation.is_integer_valued()
    assert {c for _, c in r.approximation.footprint()} <= {2}
    assert r.holds


def test_fiber_check_custom_eps():
    f = indicator(DOM, 1, {1: (0, F(1, 2))})
    g = StepFunction.zero(DOM)
    r = fiber_approximation_check(f, g, eps=1)
    assert r.eps == 1 and r.gap == F(1, 2) and r.holds
    with pytest.raises(ConfigError):
        fiber_approximation_check(f, g, eps=F(1, 4))


# --- constancy --------------------------------------------------------------


def test_constancy_certificate_picks_majority_integer():
    f = constant(DOM, 1) + indicator(DOM, 1, {1: (0, F(1, 32))})
    assert constancy_certificate(f) == ConstancyCertificate(F(1), F(31, 32), F(1, 32))


def test_constancy_certificate_skips_non_integers():
    f = constant(DOM, F(1, 2))
    assert constancy_certificate(f) == ConstancyCertificate(F(0), F(0), F(1, 2))


def test_constancy_certificate_tie_breaks_to_smallest():
    f = step_on_coord(DOM, 1, 1, [(0, F(1, 2), -1), (F(1, 2), 1, 2)])
    cert = constancy_certificate(f)
    assert cert.value == -1 and cert.equal_measure == F(1, 2)


def test_constancy_certificate_tie_breaks_on_distance():
    # 0, 1, 2 and 5 each hold on a quarter; 1 and 2 are nearest, at 3/2
    f = step_on_coord(DOM, 1, 1, [(F(1, 4), F(1, 2), 1), (F(1, 2), F(3, 4), 2),
                                  (F(3, 4), 1, 5)])
    assert constancy_certificate(f) == ConstancyCertificate(F(1), F(1, 4), F(3, 2))


def test_near_constancy_conclusion_exact():
    delta = F(1, 16)
    f = constant(DOM, 1) + indicator(DOM, 1, {1: (0, delta / 2)})
    r = near_constancy_check(f, constant(DOM, -1), StepFunction.zero(DOM), delta)
    assert r.hypothesis_ok and r.holds
    assert (r.which, r.value) == ("f", 1)
    assert r.equal_measure == 1 - delta / 2
    assert r.distance == delta / 2
    assert (1 - r.equal_measure) ** 2 <= 4 * delta
    assert r.distance ** 2 <= 9 * delta


def test_near_constancy_balanced_split_still_concludes():
    # f splits 1/2 and 1/2, so the constant lives on the other side
    half = indicator(DOM, 1, {1: (0, F(1, 2))})
    r = near_constancy_check(half, half.scale(-1), StepFunction.zero(DOM), F(1, 25))
    assert r.hypothesis_ok and r.holds
    assert r.which == "h" and r.value == 0 and r.equal_measure == 1


def test_near_constancy_vacuous_reasons():
    zero = StepFunction.zero(DOM)
    half1 = indicator(DOM, 1, {1: (0, F(1, 2))})
    half2 = indicator(DOM, 1, {2: (0, F(1, 2))})
    d = F(1, 100)
    r = near_constancy_check(constant(DOM, F(1, 2)), zero, zero, d)
    assert not r.hypothesis_ok and "integer" in r.reason
    r = near_constancy_check(half1, zero, half1, d)
    assert not r.hypothesis_ok and "coordinate" in r.reason
    r = near_constancy_check(zero, half1.scale(2), zero, d)
    assert not r.hypothesis_ok and "adjacent" in r.reason
    r = near_constancy_check(half1, zero, half2, d)
    assert not r.hypothesis_ok and "not below" in r.reason


def test_near_constancy_adversarial_split_fails_bounds_too():
    # the balanced pair from the battery: had the hypothesis held, no
    # integer would satisfy the squared measure bound at delta = 1/100
    delta = F(1, 100)
    for target in (indicator(DOM, 1, {1: (0, F(1, 2))}),
                   indicator(DOM, 1, {2: (0, F(1, 2))})):
        for c in (F(0), F(1)):
            diff = target - constant(DOM, c)
            equal = 1 - diff.support_measure(1)
            assert (1 - equal) ** 2 > 4 * delta


def test_near_constancy_delta_range():
    zero = StepFunction.zero(DOM)
    for bad in (F(1, 9), F(0), F(-1, 16), F(1, 2)):
        with pytest.raises(ConfigError):
            near_constancy_check(zero, zero, zero, bad)


def test_near_constancy_battery():
    report = run_near_constancy_battery()
    assert report.ok
    total, vacuous, failed = report.counts()
    assert (total, vacuous, failed) == (22, 2, 0)
    satisfied = [c for c in report.cases if c.hypothesis_ok]
    assert len(satisfied) == 20
    assert all("adversarial" in c.label for c in report.cases if not c.hypothesis_ok)


# --- integer plus drift -----------------------------------------------------


def test_drift_windows_are_exact():
    drifts = [F(1, n) for n in range(1, 17)]
    fns = [StepFunction.zero(DOM)] * 16
    report = integer_drift_check(fns, drifts)
    assert report.verdict == "divergent"
    for w in report.windows:
        s = sum(drifts[w.start - 1:w.stop])
        assert s == w.drift_sum
        assert F(1, 4) < abs(s) < F(1, 2)
        assert w.moment == abs(s)
    assert report.transfers_hold
    starts = {w.start for w in report.windows}
    assert any(s > 8 for s in starts)


def test_drift_alternating_has_only_early_windows():
    drifts = [F((-1) ** (n + 1), n) for n in range(1, 65)]
    fns = [StepFunction.zero(DOM)] * 64
    report = integer_drift_check(fns, drifts)
    assert report.verdict == "convergent"
    assert report.windows
    assert all(w.start <= 32 for w in report.windows)


def test_drift_moment_uses_the_functions():
    half = indicator(DOM, 1, {1: (0, F(1, 2))})
    fns = [half if n % 2 else half.scale(-1) for n in range(16)]
    drifts = [F(1, n) for n in range(1, 17)]
    report = integer_drift_check(fns, drifts)
    for w in report.windows:
        chunk = StepFunction.zero(DOM)
        for f in fns[w.start - 1:w.stop]:
            chunk = chunk + f
        assert w.moment == (chunk + constant(DOM, w.drift_sum)).moment(1)
        assert w.moment >= F(1, 4)
    assert report.transfers_hold


def test_drift_validation():
    zero = StepFunction.zero(DOM)
    with pytest.raises(ConfigError):
        integer_drift_check([], [])
    with pytest.raises(ConfigError):
        integer_drift_check([zero], [F(1, 2), F(1, 3)])
    with pytest.raises(ConfigError):
        integer_drift_check([constant(DOM, F(1, 2))], [F(1, 3)])
    with pytest.raises(ConfigError):
        integer_drift_check([zero], [F(1, 3)], eps=F(1, 2))
    with pytest.raises(ConfigError):
        integer_drift_check([zero], [F(1, 3)], eps=0)


def test_drift_battery_with_family_terms():
    report = run_drift_battery(horizon=32)
    assert report.ok
    labels = [c.label for c in report.cases]
    assert labels == ["harmonic", "alternating"]
    assert "divergent" in report.cases[0].witness
    assert "convergent" in report.cases[1].witness


def test_drift_respects_family_term_order():
    fam = build_kadets(6)
    ids = list(schedule_point(fam, "sigma").term_ids())[:32]
    fns = [fam.fn(tid) for tid in ids]
    assert all(f.is_integer_valued() for f in fns)
    report = integer_drift_check(fns, [F(1, n) for n in range(1, 33)])
    assert report.verdict == "divergent"
    assert report.transfers_hold


# --- suites -----------------------------------------------------------------


# --- the lattice lemma code against its Fraction references -----------------
#
# `_random_fn` and `fiber_best_approximation` run on lattice integers; the
# functions below are their earlier `Fraction` versions, kept as references.


def _reference_random_fn(rng, coords):
    axes = []
    for _ in coords:
        cells = rng.randint(1, 8)
        edges = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], cells - 1)) + [F(1)]
        axes.append(list(zip(edges, edges[1:])))
    boxes = []
    for spans in itertools.product(*axes):
        v = rng.randint(-3, 3)
        if v:
            spec = {c: span for c, span in zip(coords, spans) if span != (F(0), F(1))}
            boxes.append((Box(1, make_bounds(spec)), v))
    return StepFunction((1,), boxes)


def _reference_weighted_median(pairs, integer_only):
    merged = {}
    for v, w in pairs:
        merged[v] = merged.get(v, F(0)) + w
    values = sorted(merged)
    half = F(1, 2)
    lo = hi = values[-1]
    cum = F(0)
    for idx, v in enumerate(values):
        prev = cum
        cum += merged[v]
        if cum >= half:
            lo = values[idx - 1] if prev == half else v
            hi = v
            break
    if not integer_only:
        return lo
    candidates = sorted({F(x) for bound in (lo, hi)
                         for x in (bound.__floor__(), bound.__ceil__())})
    return min(candidates, key=lambda c: (sum(w * abs(v - c) for v, w in merged.items()), c))


def _reference_fiber(f, keep, integer_only=False):
    cube = f.domain[0]
    keep = sorted(set(int(c) for c in keep))
    boxes = [(dict(box.bounds), value) for box, value in f.terms]
    cuts = {c: {F(0), F(1)} for c in keep}
    for bounds, _ in boxes:
        for c in keep:
            if c in bounds:
                cuts[c].update(bounds[c])
    grids = [list(zip(sorted(cuts[c]), sorted(cuts[c])[1:])) for c in keep]
    out = []
    for chosen in itertools.product(*grids):
        pairs = []
        covered = F(0)
        for bounds, value in boxes:
            weight = F(1)
            for c, (lo, hi) in zip(keep, chosen):
                if c in bounds and not (bounds[c][0] <= lo and hi <= bounds[c][1]):
                    weight = F(0)
                    break
            if weight == 0:
                continue
            for c, iv in bounds.items():
                if c not in keep:
                    weight *= iv.hi - iv.lo
            pairs.append((value, weight))
            covered += weight
        if covered < 1:
            pairs.append((F(0), 1 - covered))
        med = _reference_weighted_median(pairs, integer_only)
        if med != 0:
            spec = {c: span for c, span in zip(keep, chosen) if span != (F(0), F(1))}
            out.append((Box(cube, make_bounds(spec) if spec else ()), med))
    return StepFunction(f.domain, out)


@pytest.mark.parametrize("seed", [1, 7])
def test_lattice_lemma_code_matches_fraction_reference(seed):
    # the same draws as the fiber suite: 500 cases of two functions each
    rng, ref = random.Random(seed), random.Random(seed)
    for k in range(500):
        f, g = _random_fn(rng, (1, 2)), _random_fn(rng, (2, 3))
        rf, rg = _reference_random_fn(ref, (1, 2)), _reference_random_fn(ref, (2, 3))
        assert f.terms == rf.terms and g.terms == rg.terms
        integer_only = bool(k % 2)
        for keep in ([2], [1]) if k % 5 else ([2], [1], [], [1, 2], [3]):
            h = fiber_best_approximation(f, keep, integer_only)
            assert h.terms == _reference_fiber(rf, keep, integer_only).terms, (k, keep)


@pytest.mark.parametrize("f, keep, integer_only, want", [
    # the fiber's weight splits exactly in half between 1 and 3
    (indicator(DOM, 1, {1: (0, F(1, 2))}, 3) + indicator(DOM, 1, {1: (F(1, 2), 1)}, 1), [], False,
     constant(DOM, 1)),
    (indicator(DOM, 1, {1: (0, F(1, 2))}, -2), [2], False, constant(DOM, -2)),
    # an all-zero fiber over x2 in [1/2, 1) keeps 0
    (indicator(DOM, 1, {2: (0, F(1, 2))}, 2), [2], False, indicator(DOM, 1, {2: (0, F(1, 2))}, 2)),
    (StepFunction.zero(DOM), [1, 2], True, StepFunction.zero(DOM)),
    # an empty keep: one global median
    (step_on_coord(DOM, 1, 1, [(0, F(1, 3), -1), (F(1, 3), 1, F(7, 3))]), [], False,
     constant(DOM, F(7, 3))),
    # integer rounding with tied costs goes to the smaller integer
    (constant(DOM, F(1, 2)), [], True, StepFunction.zero(DOM)),
    (constant(DOM, F(-1, 2)), [], True, constant(DOM, -1)),
    (step_on_coord(DOM, 1, 2, [(0, F(1, 2), F(5, 2))]), [2], True,
     indicator(DOM, 1, {2: (0, F(1, 2))}, 2)),
], ids=["half-weight", "half-weight-zero", "all-zero-fiber", "zero-function", "empty-keep",
        "tie-half", "tie-minus-half", "tie-five-halves"])
def test_fiber_hand_cases_match_fraction_reference(f, keep, integer_only, want):
    assert fiber_best_approximation(f, keep, integer_only) == want
    assert _reference_fiber(f, keep, integer_only) == want


def test_cross_variable_suite_clean():
    report = run_cross_variable_suite(cases=120, seed=7)
    assert report.ok
    assert report.counts() == (120, 0, 0)


def test_fiber_suite_clean_and_deterministic():
    a = run_fiber_suite(cases=60, seed=7)
    b = run_fiber_suite(cases=60, seed=7)
    assert a.ok
    assert a.csv_lines() == b.csv_lines()
    assert a.csv_lines()[0] == "case,hypothesis_ok,conclusion_ok,witness"
    assert any(c.label.endswith("-int") for c in a.cases)


def test_suite_seed_changes_cases():
    a = run_cross_variable_suite(cases=20, seed=7)
    b = run_cross_variable_suite(cases=20, seed=8)
    assert a.csv_lines() != b.csv_lines()
    assert a.ok and b.ok


def test_suite_report_failure_lines():
    report = SuiteReport("demo", [
        SuiteCase("good", True, True, "x=1"),
        SuiteCase("bad", True, False, "x=2"),
    ])
    assert not report.ok
    assert report.counts() == (2, 0, 1)
    assert any("FAIL bad" in line for line in report.lines())
    assert report.csv_lines()[2] == 'bad,1,0,"x=2"'
