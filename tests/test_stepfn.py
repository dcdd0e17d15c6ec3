"""Core step-function algebra, checked against an independent pointwise oracle.

The oracle never touches canonical forms: it keeps the raw list of
(cube, bounds, value) boxes exactly as generated, evaluates by summing the
values of boxes containing a point, and integrates over the common
refinement grid of all breakpoints.  Library results must agree exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest

from sumrange import stepfn
from sumrange.stepfn import (
    Box,
    ChunkedSum,
    DomainError,
    Interval,
    StepFunction,
    constant,
    cube_constants,
    indicator,
    make_bounds,
    make_interval,
    sum_functions,
)

F = Fraction


def fraction_terms(fn):
    """The canonical entries of `fn` as the (`Box`, value) pairs of exact
    `Fraction`s they stand for, in entry order."""
    dens, vden = fn._dens, fn._vden
    return tuple((Box(cube, tuple((c, Interval(F(lo, dens[c]), F(hi, dens[c])))
                                  for c, lo, hi in bounds)), F(v, vden))
                 for cube, bounds, v in fn._entries)


# --- the oracle -------------------------------------------------------------
# raw instance: list of (cube, {coord: (lo, hi)}, value)


def oracle_value(raw, cube, point):
    total = F(0)
    for c, bounds, v in raw:
        if c != cube:
            continue
        if all(lo <= point.get(k, F(0)) < hi for k, (lo, hi) in bounds.items()):
            total += v
    return total


def oracle_grid(raw, fn, cube):
    """Common refinement cells for one cube: (point, measure) pairs.

    Breakpoints come from both the raw boxes and the canonical terms, so
    the grid refines every piece either side could produce.
    """
    cuts = {}
    for c, bounds, _ in raw:
        if c == cube:
            for k, (lo, hi) in bounds.items():
                cuts.setdefault(k, {F(0), F(1)}).update((lo, hi))
    for box, _ in fraction_terms(fn):
        if box.cube == cube:
            for k, iv in box.bounds:
                cuts.setdefault(k, {F(0), F(1)}).update((iv.lo, iv.hi))
    axes = []
    for k in sorted(cuts):
        pts = sorted(cuts[k])
        axes.append([(k, (a + b) / 2, b - a) for a, b in zip(pts, pts[1:])])
    if not axes:
        yield {}, F(1)
        return
    for combo in itertools.product(*axes):
        point = {k: mid for k, mid, _ in combo}
        measure = F(1)
        for _, _, w in combo:
            measure *= w
        yield point, measure


def assert_matches_oracle(raw, fn):
    for cube in fn.domain:
        grid = list(oracle_grid(raw, fn, cube))
        for point, _ in grid:
            assert fn.evaluate(cube, point) == oracle_value(raw, cube, point)
        for p in (1, 2, 3):
            want = sum((abs(oracle_value(raw, cube, pt)) ** p) * m for pt, m in grid)
            assert fn.moment(p, cube) == want
        want_int = sum(oracle_value(raw, cube, pt) * m for pt, m in grid)
        assert fn.integral(cube) == want_int
        want_supp = sum(m for pt, m in grid if oracle_value(raw, cube, pt) != 0)
        assert fn.support_measure(cube) == want_supp
        assert fn.box_count(cube) == fn.restrict(cube).box_count()
    want_sup = max(
        (abs(oracle_value(raw, c, pt)) for c in fn.domain for pt, _ in oracle_grid(raw, fn, c)),
        default=F(0),
    )
    assert max((abs(v) for v in fn.term_values()), default=F(0)) == want_sup


def assert_canonical_shape(fn):
    """Structural invariants of a canonical term list."""
    for box, v in fraction_terms(fn):
        assert v != 0
        assert box.cube in fn.domain
        coords = [k for k, _ in box.bounds]
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)
        for _, iv in box.bounds:
            assert F(0) <= iv.lo < iv.hi <= F(1)
            assert (iv.lo, iv.hi) != (F(0), F(1))
    by_cube = {}
    for box, v in fraction_terms(fn):
        by_cube.setdefault(box.cube, []).append(box)
    for boxes in by_cube.values():
        for a, b in itertools.combinations(boxes, 2):
            assert _boxes_disjoint(a, b)


def _boxes_disjoint(a, b):
    da = dict(a.bounds)
    db = dict(b.bounds)
    for k in set(da) | set(db):
        lo_a, hi_a = (da[k].lo, da[k].hi) if k in da else (F(0), F(1))
        lo_b, hi_b = (db[k].lo, db[k].hi) if k in db else (F(0), F(1))
        if max(lo_a, lo_b) >= min(hi_a, hi_b):
            return True
    return False


# --- instance generators ----------------------------------------------------


def random_raw(rng, domain, max_boxes=6, max_coords=3):
    raw = []
    for _ in range(rng.randint(1, max_boxes)):
        cube = rng.choice(domain)
        bounds = {}
        n_coords = rng.randint(0, max_coords)
        for coord in rng.sample(range(1, max_coords + 1), n_coords):
            den = rng.randint(2, 8)
            a, b = sorted(rng.sample(range(den + 1), 2))
            bounds[coord] = (F(a, den), F(b, den))
        value = rng.choice([v for v in range(-3, 4) if v != 0])
        raw.append((cube, bounds, F(value)))
    return raw


def build(raw, domain):
    terms = [(Box(c, make_bounds(bounds)), v) for c, bounds, v in raw]
    return StepFunction(domain, terms)


def split_raw(raw, rng, max_coords=3):
    """A different decomposition of the same pointwise function."""
    out = []
    for cube, bounds, v in raw:
        coord = rng.randint(1, max_coords)
        lo, hi = bounds.get(coord, (F(0), F(1)))
        mid = (lo + hi) / 2
        left = dict(bounds)
        right = dict(bounds)
        left[coord] = (lo, mid)
        right[coord] = (mid, hi)
        out.extend([(cube, left, v), (cube, right, v)])
    rng.shuffle(out)
    return out


# --- basic building blocks --------------------------------------------------


def test_interval_basics():
    assert make_interval(F(1, 3), "1/2") == Interval(F(1, 3), F(1, 2))
    with pytest.raises(ValueError):
        make_interval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        make_interval(F(-1, 2), F(1, 2))


def test_domain_validation():
    with pytest.raises(DomainError):
        StepFunction(())
    with pytest.raises(DomainError):
        StepFunction((1, 1))
    f = indicator((1, 2), 1, {1: (0, F(1, 2))})
    g = indicator((1, 3), 1, {1: (0, F(1, 2))})
    with pytest.raises(DomainError):
        f.add(g)
    with pytest.raises(DomainError):
        f.integral(3)
    with pytest.raises(DomainError):
        f.box_count(3)
    with pytest.raises(DomainError):
        indicator((1, 2), 5, {1: (0, F(1, 2))})


# --- frozen canonicalization examples ---------------------------------------


def test_full_span_constraint_is_dropped():
    f = indicator((1,), 1, {1: (0, 1), 2: (0, F(1, 2))}, value=-1)
    assert fraction_terms(f) == ((Box(1, ((2, Interval(F(0), F(1, 2))),)), F(-1)),)
    assert f.moment(1) == F(1, 2)
    assert f.moment(2) == F(1, 2)
    assert max(abs(v) for v in f.term_values()) == 1


def test_adjacent_cells_merge_and_lift():
    f = indicator((1,), 1, {1: (0, F(1, 2))})
    g = indicator((1,), 1, {1: (F(1, 2), 1)})
    assert fraction_terms(f + g) == ((Box(1, ()), F(1)),)
    assert (f + g) == constant((1,), 1)


def test_cancellation_gives_zero():
    f = indicator((1,), 1, {2: (F(1, 3), F(2, 3))}, value=F(3, 7))
    assert fraction_terms(f - f) == ()
    assert (f - f) == StepFunction.zero((1,))


def test_partial_overlap_splits():
    f = indicator((1,), 1, {1: (0, F(2, 3))})
    g = indicator((1,), 1, {1: (F(1, 3), 1)})
    h = f + g
    assert fraction_terms(h) == (
        (Box(1, ((1, Interval(F(0), F(1, 3))),)), F(1)),
        (Box(1, ((1, Interval(F(1, 3), F(2, 3))),)), F(2)),
        (Box(1, ((1, Interval(F(2, 3), F(1))),)), F(1)),
    )


def test_merge_requires_matching_residue():
    left = indicator((1,), 1, {1: (0, F(1, 2)), 2: (0, F(1, 2))})
    right = indicator((1,), 1, {1: (F(1, 2), 1), 2: (0, F(1, 2))})
    merged = left + right
    assert merged == indicator((1,), 1, {2: (0, F(1, 2))})
    assert fraction_terms(merged)[0][0].bounds == ((2, Interval(F(0), F(1, 2))),)


def test_mixed_coordinates_outermost_is_smallest():
    f = indicator((1,), 1, {2: (0, F(1, 2))}) + indicator((1,), 1, {1: (0, F(1, 2))})
    half = Interval(F(0), F(1, 2))
    rest = Interval(F(1, 2), F(1))
    assert fraction_terms(f) == (
        (Box(1, ((1, half), (2, half))), F(2)),
        (Box(1, ((1, half), (2, rest))), F(1)),
        (Box(1, ((1, rest), (2, half))), F(1)),
    )


def test_multiply_intersects():
    f = indicator((1,), 1, {1: (0, F(2, 3))})
    g = indicator((1,), 1, {1: (F(1, 3), 1)})
    assert (f * g) == indicator((1,), 1, {1: (F(1, 3), F(2, 3))})
    h = indicator((1,), 1, {1: (0, F(1, 2))}) * indicator((1,), 1, {2: (0, F(1, 3))})
    assert h == indicator((1,), 1, {1: (0, F(1, 2)), 2: (0, F(1, 3))})
    assert h.moment(1) == F(1, 6)
    disjoint = indicator((1,), 1, {1: (0, F(1, 3))}) * indicator((1,), 1, {1: (F(1, 2), 1)})
    assert fraction_terms(disjoint) == ()


def test_scalar_operations():
    f = indicator((1,), 1, {1: (0, F(1, 2))}, value=2)
    assert (f * F(1, 2)) == indicator((1,), 1, {1: (0, F(1, 2))})
    assert (F(1, 2) * f) == indicator((1,), 1, {1: (0, F(1, 2))})
    assert (-f) == indicator((1,), 1, {1: (0, F(1, 2))}, value=-2)
    assert fraction_terms(f.scale(0)) == ()
    assert f.scale(1) is f


def test_half_open_boundaries():
    f = indicator((1,), 1, {1: (0, F(1, 2))})
    assert f.evaluate(1, {1: F(0)}) == 1
    assert f.evaluate(1, {1: F(1, 2)}) == 0
    assert f.evaluate(1, {}) == 1


def test_value_sets():
    f = indicator((1,), 1, {1: (0, F(1, 2))})
    assert f.term_values() == frozenset({F(1)})
    assert f.value_set() == frozenset({F(0), F(1)})
    assert constant((1,), 1).value_set() == frozenset({F(1)})
    assert f.is_integer_valued()
    assert not f.scale(F(1, 2)).is_integer_valued()


def test_footprint():
    f = indicator((1, 2), 1, {3: (0, F(1, 2))}) + indicator((1, 2), 2, {1: (0, F(1, 4)), 2: (0, F(1, 4))})
    assert f.footprint() == frozenset({(1, 3), (2, 1), (2, 2)})
    assert constant((1, 2), 5).footprint() == frozenset()


def test_multi_cube_accounting():
    dom = (1, 2, 3)
    f = cube_constants(dom, {1: 1, 2: F(-1, 2)})
    assert f.integral(1) == 1
    assert f.integral(2) == F(-1, 2)
    assert f.integral(3) == 0
    assert f.moment(1) == F(3, 2)
    assert f.moment(1, cube=2) == F(1, 2)
    assert [f.box_count(c) for c in dom] == [1, 1, 0] and f.box_count() == 2
    assert f.support_measure(3) == 0
    r = f.restrict(2)
    assert r.domain == (2,)
    assert r.integral(2) == F(-1, 2)


def test_sum_functions_matches_fold():
    rng = random.Random(11)
    dom = (1, 2)
    fns = [build(random_raw(rng, dom), dom) for _ in range(6)]
    folded = StepFunction.zero(dom)
    for f in fns:
        folded = folded + f
    assert sum_functions(fns) == folded
    assert hash(sum_functions(fns)) == hash(folded)
    assert sum_functions([], domain=dom) == StepFunction.zero(dom)
    with pytest.raises(ValueError):
        sum_functions([])


def test_moment_rejects_bad_order():
    f = constant((1,), 1)
    with pytest.raises(ValueError):
        f.moment(0)
    with pytest.raises(ValueError):
        f.moment(F(1, 2))


# --- randomized oracle comparison -------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_random_instance_matches_oracle(seed):
    rng = random.Random(seed)
    dom = (1, 2)
    raw = random_raw(rng, dom)
    fn = build(raw, dom)
    assert_canonical_shape(fn)
    assert_matches_oracle(raw, fn)


@pytest.mark.parametrize("seed", range(40, 60))
def test_canonical_form_is_function_determined(seed):
    rng = random.Random(seed)
    dom = (1,)
    raw = random_raw(rng, dom)
    fn = build(raw, dom)
    other = build(split_raw(raw, rng), dom)
    assert fn == other
    assert hash(fn) == hash(other)


@pytest.mark.parametrize("seed", range(60, 80))
def test_canonicalization_is_idempotent(seed):
    rng = random.Random(seed)
    dom = (1, 2)
    fn = build(random_raw(rng, dom), dom)
    again = StepFunction(dom, fraction_terms(fn))
    assert fraction_terms(again) == fraction_terms(fn)
    assert again == fn and hash(again) == hash(fn)


@pytest.mark.parametrize("seed", range(80, 100))
def test_algebra_matches_oracle(seed):
    rng = random.Random(seed)
    dom = (1, 2)
    raw_a = random_raw(rng, dom)
    raw_b = random_raw(rng, dom)
    fa, fb = build(raw_a, dom), build(raw_b, dom)
    assert_matches_oracle(raw_a + raw_b, fa + fb)
    c = F(rng.randint(-5, 5), rng.randint(1, 4))
    assert_matches_oracle([(cu, bd, v * c) for cu, bd, v in raw_a], fa.scale(c))
    prod = fa * fb
    assert_canonical_shape(prod)
    for cube in dom:
        for point, _ in oracle_grid(raw_a + raw_b + [  # refine by product terms too
            (box.cube, {k: (iv.lo, iv.hi) for k, iv in box.bounds}, v) for box, v in fraction_terms(prod)
        ], prod, cube):
            want = oracle_value(raw_a, cube, point) * oracle_value(raw_b, cube, point)
            assert prod.evaluate(cube, point) == want


# --- integer-lattice edge cases ---------------------------------------------
# Each case draws endpoints k/d with d from `dens` on the coordinates in
# `coords`, and values from `values`; the same oracle then checks the
# functions, their sum, a scaling and the product.

LATTICE_CASES = {
    "coprime-denominators": dict(coords=(1,), dens=(3, 7, 11), values=(F(1), F(-2), F(5, 3))),
    "mixed-denominators": dict(coords=(1, 2), dens=(4, 6, 9, 10), values=(F(1), F(-1, 2))),
    "far-coordinates": dict(coords=(1, 10_000), dens=(2, 3, 5), values=(F(1), F(-3))),
    "huge-value-denominators": dict(
        coords=(1, 2), dens=(2, 3),
        values=(F(1, 2**61 + 1), F(-3, 2**62 - 57), F(2**63, 2**64 + 13))),
}


def lattice_raw(rng, domain, coords, dens, values, max_boxes=5):
    raw = []
    for _ in range(rng.randint(1, max_boxes)):
        bounds = {}
        for coord in rng.sample(coords, rng.randint(0, len(coords))):
            den = rng.choice(dens)
            a, b = sorted(rng.sample(range(den + 1), 2))
            bounds[coord] = (F(a, den), F(b, den))
        raw.append((rng.choice(domain), bounds, rng.choice(values)))
    return raw


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_lattice_edge_cases_match_oracle(case, seed):
    rng = random.Random(f"{case}-{seed}")
    dom = (1, 2)
    raw_a = lattice_raw(rng, dom, **LATTICE_CASES[case])
    raw_b = lattice_raw(rng, dom, **LATTICE_CASES[case])
    fa, fb = build(raw_a, dom), build(raw_b, dom)
    for raw, fn in ((raw_a, fa), (raw_a + raw_b, fa + fb),
                    ([(cu, bd, -v) for cu, bd, v in raw_b], -fb)):
        assert_canonical_shape(fn)
        assert_matches_oracle(raw, fn)
    c = F(rng.randint(1, 5), 2**61 + rng.randint(0, 9))
    assert_matches_oracle([(cu, bd, v * c) for cu, bd, v in raw_a], fa.scale(c))
    prod = fa * fb
    assert_canonical_shape(prod)
    prod_raw = [(box.cube, {k: (iv.lo, iv.hi) for k, iv in box.bounds}, v)
                for box, v in fraction_terms(prod)]
    for cube in dom:
        for point, _ in oracle_grid(raw_a + raw_b + prod_raw, prod, cube):
            want = oracle_value(raw_a, cube, point) * oracle_value(raw_b, cube, point)
            assert prod.evaluate(cube, point) == want


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_lattice_predicates_match_fractions(case, seed):
    # the predicates that decide on lattice integers, against the Fraction
    # results they stand for; mostly one box each, so that `is_product`
    # compares boxes across unrelated lattices
    rng = random.Random(f"predicates-{case}-{seed}")
    dom = (1, 2)
    spec = LATTICE_CASES[case]

    def draw():
        return build(lattice_raw(rng, dom, **spec, max_boxes=rng.choice((1, 1, 3))), dom)

    a, b, other = draw(), draw(), draw()
    c = rng.choice(spec["values"])
    prod = a.multiply(b).scale(c)
    for f in (prod, prod.scale(2), prod + other, other):
        s = f.summary()
        # the one pass against the measurements that build Fractions
        assert F(s.measure, s.common) == sum(f.support_measure(k) for k in dom)
        assert F(s.integral, s.common * s.vden) == sum(f.integral(k) for k in dom)
        assert F(s.moment, s.common * s.vden) == f.moment(1)
        assert {F(v, s.vden) for v in s.values} == f.term_values()
        assert s.coords == {k for _, k in f.footprint()} and s.cubes == f.support_cubes()
        assert s.box == (f._entries[0] if f.box_count() == 1 else None) and s.f is f
        assert s.is_product(a.summary(), b.summary(), c) == (f == prod)
        m = f.moment(1)
        assert s.moment_is(m) and not s.moment_is(m + F(1, 2**70))
        for value in f.term_values() | {F(1), F(-1, 3)}:
            assert s.takes_only(value) == (f.term_values() <= {value})
        assert f.restrict(1).summary().same_integral(f.restrict(2).summary()) == (
            f.integral(1) == f.integral(2))


def test_sum_refines_both_lattices():
    # cuts at quarters and at sixths: the sum needs twelfths, which
    # neither operand's lattice has
    raw_a = [(1, {1: (F(1, 4), F(3, 4))}, F(1))]
    raw_b = [(1, {1: (F(1, 6), F(5, 6))}, F(2, 3)), (1, {1: (F(0), F(1, 2))}, F(-1, 5))]
    fa, fb = build(raw_a, (1,)), build(raw_b, (1,))
    total = fa + fb
    assert_canonical_shape(total)
    assert_matches_oracle(raw_a + raw_b, total)
    ends = {x for box, _ in fraction_terms(total) for _, iv in box.bounds for x in iv}
    assert {F(1, 4), F(1, 6), F(3, 4), F(5, 6), F(1, 2)} <= ends
    assert total - fb == fa and hash(total - fb) == hash(fa)


def test_multiply_single_boxes():
    f = indicator((1, 2), 2, {1: (F(1, 3), F(6, 7)), 3: (0, F(2, 5))}, value=F(3, 4))
    g = indicator((1, 2), 2, {1: (F(2, 11), F(1, 2)), 2: (F(1, 9), 1)}, value=F(-5, 3))
    prod = f * g
    assert prod == indicator((1, 2), 2, {1: (F(1, 3), F(1, 2)), 2: (F(1, 9), 1), 3: (0, F(2, 5))},
                             value=F(-5, 4))
    raw = [(2, {1: (F(1, 3), F(1, 2)), 2: (F(1, 9), F(1)), 3: (F(0), F(2, 5))}, F(-5, 4))]
    assert_canonical_shape(prod)
    assert_matches_oracle(raw, prod)
    # the same product read off the boxes: lo from f, hi from g on coordinate 1
    fs, gs = f.summary(), g.summary()
    assert prod.summary().is_product(fs, gs) and prod.scale(-2).summary().is_product(gs, fs, -2)
    wider = indicator((1, 2), 2, {1: (F(2, 11), F(6, 7)), 2: (F(1, 9), 1), 3: (0, F(2, 5))},
                      value=F(-5, 4))
    unbounded = indicator((1, 2), 2, {1: (F(1, 3), F(1, 2)), 2: (F(1, 9), 1)}, value=F(-5, 4))
    for wrong in (f, g, prod.scale(2), wider, wider * indicator((1, 2), 2, {1: (0, F(1, 2))}),
                  wider * indicator((1, 2), 2, {1: (F(1, 3), 1)}), unbounded):
        assert not wrong.summary().is_product(fs, gs)
    apart = indicator((1, 2), 2, {1: (F(1, 2), F(4, 7))}) * indicator((1, 2), 2, {1: (F(4, 7), 1)})
    assert fraction_terms(apart) == ()
    elsewhere = indicator((1, 2), 1, {1: (0, F(1, 2))}) * g
    assert elsewhere == StepFunction.zero((1, 2))


def test_equal_functions_on_different_lattices():
    dom = (1,)
    halves = indicator(dom, 1, {1: (0, F(1, 2))})
    quarters = StepFunction(dom, [(Box(1, make_bounds({1: (0, F(1, 4))})), 1),
                                  (Box(1, make_bounds({1: (F(1, 4), F(1, 2))})), 1)])
    thirds = indicator(dom, 1, {1: (0, F(1, 2))}, F(1, 3)) + indicator(dom, 1, {1: (0, F(1, 2))},
                                                                          F(2, 3))
    # the same function, stored over 1/2, over 1/4 and with values over 3
    assert halves._dens != quarters._dens and halves._vden != thirds._vden
    for other in (quarters, thirds):
        assert halves == other
        assert hash(halves) == hash(other)
        assert fraction_terms(other) == fraction_terms(halves)
    assert len({halves, quarters, thirds}) == 1
    assert halves != indicator(dom, 1, {1: (0, F(3, 4))})


# --- multi-entry adds against the oracle -----------------------------------
# `add` of two multi-entry operands sweeps their entries together
# (`StepFunction._summed`).  Each sum is held to the pointwise oracle.  The
# tests keep the names they had when `add` merged its operands, so that
# their 95 ids stay comparable from one change to the next.


def assert_add_matches_oracle(raw, fa, fb):
    total = fa + fb
    assert_canonical_shape(total)
    assert_matches_oracle(raw, total)
    return total


def negated(raw):
    return [(cu, bd, -v) for cu, bd, v in raw]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_add_merge_matches_sweep_on_lattice_cases(case, seed):
    rng = random.Random(f"merge-{case}-{seed}")
    dom = (1, 2)
    raw_a = lattice_raw(rng, dom, **LATTICE_CASES[case], max_boxes=8)
    raw_b = lattice_raw(rng, dom, **LATTICE_CASES[case], max_boxes=rng.choice((1, 3, 8)))
    fa, fb = build(raw_a, dom), build(raw_b, dom)
    assert_add_matches_oracle(raw_a + raw_b, fa, fb)
    assert_add_matches_oracle(raw_b + raw_a, fb, fa)
    assert fraction_terms(assert_add_matches_oracle(raw_a + negated(raw_a), fa, -fa)) == ()


@pytest.mark.parametrize("seed", range(40))
def test_add_merge_matches_sweep_on_random_chains(seed):
    # a running sum of random functions, as a trace in steps mode builds
    # one, held to the oracle at every step
    rng = random.Random(f"merge-chain-{seed}")
    dom = (1, 2)
    raw: list = []
    total = StepFunction.zero(dom)
    for _ in range(6):
        step = random_raw(rng, dom, max_boxes=rng.choice((1, 2, 4)))
        if rng.random() < 0.25:  # cancel part of what is there
            step += negated(rng.sample(raw, len(raw) // 2))
        raw += step
        total = assert_add_matches_oracle(raw, total, build(step, dom))


ADD_CASES = {
    # a + (-a) with a spread over three coordinates
    "exact-cancellation": (
        [(1, {1: (F(0), F(1, 2)), 3: (F(1, 3), F(1))}, F(2)), (1, {2: (F(1, 4), F(3, 4))}, F(-1))],
        [(1, {1: (F(0), F(1, 2)), 3: (F(1, 3), F(1))}, F(-2)), (1, {2: (F(1, 4), F(3, 4))}, F(1))],
    ),
    # the second operand fills the first one's holes: cells join level by
    # level until the sum is the constant 1 and every coordinate is dropped
    "re-merge-to-constant": (
        [(1, {1: (F(0), F(1, 2)), 2: (F(0), F(1, 3))}, F(1)),
         (1, {1: (F(1, 2), F(1))}, F(1))],
        [(1, {1: (F(0), F(1, 2)), 2: (F(1, 3), F(1))}, F(1))],
    ),
    # joined cells drop coordinate 1 but keep coordinate 2
    "re-merge-drops-a-coordinate": (
        [(1, {1: (F(0), F(1, 3)), 2: (F(0), F(1, 2))}, F(3))],
        [(1, {1: (F(1, 3), F(1)), 2: (F(0), F(1, 2))}, F(3))],
    ),
    # the second operand is free on coordinate 1, the first one's top
    # coordinate, and constrained on coordinate 2, below it
    "free-on-top-constrained-below": (
        [(1, {1: (F(1, 4), F(1, 2)), 3: (F(0), F(1, 2))}, F(1)),
         (1, {1: (F(1, 2), F(1)), 2: (F(0), F(1, 3))}, F(-1))],
        [(1, {2: (F(1, 3), F(2, 3)), 4: (F(1, 5), F(1))}, F(1, 2))],
    ),
    "disjoint-cubes": (
        [(1, {1: (F(0), F(1, 2))}, F(1))],
        [(2, {2: (F(1, 3), F(1))}, F(-1)), (2, {}, F(1, 7))],
    ),
    # thirds against quarters: the sum lives on twelfths
    "different-lattices": (
        [(1, {1: (F(1, 3), F(2, 3)), 2: (F(0), F(2, 3))}, F(1, 3))],
        [(1, {1: (F(1, 4), F(3, 4))}, F(3, 4)), (1, {1: (F(3, 4), F(1)), 2: (F(1, 4), F(1))}, F(2))],
    ),
    "constant-plus-box": (
        [(1, {}, F(5)), (2, {}, F(-1))],
        [(1, {2: (F(1, 6), F(1, 2)), 3: (F(0), F(1, 4))}, F(-5))],
    ),
}


@pytest.mark.parametrize("case", sorted(ADD_CASES))
def test_add_merge_cases_match_oracle(case):
    dom = (1, 2)
    raw_a, raw_b = ADD_CASES[case]
    fa, fb = build(raw_a, dom), build(raw_b, dom)
    total = assert_add_matches_oracle(raw_a + raw_b, fa, fb)
    assert assert_add_matches_oracle(raw_b + raw_a, fb, fa) == total
    assert fraction_terms(assert_add_matches_oracle(raw_a + negated(raw_a), fa, -fa)) == ()
    if case == "exact-cancellation":
        assert fraction_terms(total) == ()
    elif case == "re-merge-to-constant":
        assert fraction_terms(total) == ((Box(1, ()), F(1)),)
    elif case == "re-merge-drops-a-coordinate":
        assert total.footprint() == frozenset({(1, 2)})


# --- the one-box path of `add` ----------------------------------------------
# A part of one entry on a one-cube domain is inserted into the other
# operand's span lists.  Each case: the running sum, the box added to it.

BOX_CASES = {
    # the box cancels the sum on part of it: a hole in the middle
    "cancels-inside-the-box": (
        [(1, {1: (F(0), F(3, 4)), 2: (F(0), F(1, 3))}, F(2))],
        (1, {1: (F(1, 4), F(1, 2)), 2: (F(0), F(1, 3))}, F(-2)),
    ),
    # the cell the box changes now equals the span that ends at its left end
    "re-joins-at-the-left-edge": (
        [(1, {1: (F(0), F(1, 4)), 2: (F(0), F(1, 2))}, F(3)),
         (1, {1: (F(1, 4), F(1, 2)), 2: (F(0), F(1, 2))}, F(1))],
        (1, {1: (F(1, 4), F(1, 2)), 2: (F(0), F(1, 2))}, F(2)),
    ),
    # ... and the span that starts at its right end
    "re-joins-at-the-right-edge": (
        [(1, {1: (F(1, 4), F(1, 2))}, F(1)), (1, {1: (F(1, 2), F(1)), 3: (F(1, 5), F(1))}, F(3))],
        (1, {1: (F(1, 4), F(1, 2)), 3: (F(1, 5), F(1))}, F(2)),
    ),
    # both edges join: one cell spans [0, 1) and coordinate 1 is dropped
    "drops-the-top-coordinate": (
        [(1, {1: (F(0), F(1, 4))}, F(2)), (1, {1: (F(1, 4), F(1, 2))}, F(5)),
         (1, {1: (F(1, 2), F(1))}, F(2))],
        (1, {1: (F(1, 4), F(1, 2))}, F(-3)),
    ),
    # inside one span of coordinate 1, coordinate 2 is dropped
    "drops-a-coordinate-inside-a-span": (
        [(1, {1: (F(0), F(1, 2)), 2: (F(0), F(1, 3))}, F(1)),
         (1, {1: (F(0), F(1, 2)), 2: (F(1, 3), F(1))}, F(4)),
         (1, {1: (F(1, 2), F(1))}, F(7))],
        (1, {1: (F(0), F(1, 2)), 2: (F(1, 3), F(1))}, F(-3)),
    ),
    # the box is free on coordinate 1: it goes under both spans and into
    # the gaps between them
    "free-on-the-top-coordinate": (
        [(1, {1: (F(0), F(1, 4)), 2: (F(0), F(1, 2))}, F(1)), (1, {1: (F(1, 2), F(3, 4))}, F(2))],
        (1, {2: (F(1, 4), F(3, 4)), 3: (F(0), F(1, 3))}, F(1)),
    ),
    # the sum is free on coordinate 1, which the box constrains
    "on-a-coordinate-the-sum-leaves-free": (
        [(1, {2: (F(0), F(1, 2)), 3: (F(0), F(1, 3))}, F(1)), (1, {2: (F(1, 2), F(1))}, F(-1))],
        (1, {1: (F(1, 3), F(2, 3)), 3: (F(1, 3), F(1))}, F(-1)),
    ),
    # the box lies in a gap of the sum, on a lattice the sum refines, and
    # joins nothing: the sum's entries are kept
    "in-a-gap": (
        [(1, {1: (F(0), F(1, 8))}, F(1)), (1, {1: (F(3, 4), F(1)), 2: (F(0), F(1, 2))}, F(1))],
        (1, {1: (F(3, 8), F(5, 8)), 2: (F(0), F(1, 2))}, F(2)),
    ),
    # onto a constant: three cells of coordinate 1
    "on-a-constant": (
        [(1, {}, F(1, 3))],
        (1, {1: (F(1, 3), F(2, 3))}, F(2, 3)),
    ),
    # the part's lattice is coarser than the sum's (twelfths), finer, or
    # its value denominator does not divide the sum's
    "coarser-part-lattice": (
        [(1, {1: (F(1, 12), F(5, 12)), 2: (F(0), F(1, 6))}, F(1))],
        (1, {1: (F(0), F(1, 2))}, F(1)),
    ),
    "finer-part-lattice": (
        [(1, {1: (F(0), F(1, 2))}, F(1)), (1, {1: (F(1, 2), F(1)), 2: (F(1, 3), F(1))}, F(2))],
        (1, {1: (F(1, 12), F(5, 12)), 2: (F(1, 5), F(3, 5))}, F(1)),
    ),
    "value-denominator-does-not-divide": (
        [(1, {1: (F(0), F(1, 2))}, F(1, 3)), (1, {1: (F(1, 2), F(1))}, F(2, 3))],
        (1, {1: (F(1, 4), F(3, 4))}, F(1, 2)),
    ),
}


def exhausted_box_cases():
    """Cases where the box runs out of constraints at depth 1, under
    [0, 1/2) of coordinate 1, or at depth 2, under [0, 1/2) x [0, 1/2):
    there the sum holds the constants 2 and 5 on [0, 1/3) and [2/3, 1)
    of the next coordinate, with a gap between them.  The box's value
    cancels the constant 2, leaving a gap, or cancels none, or the box
    covers its span of the sum exactly (the `keep` path) and cancels 5."""
    cases = {}
    for depth, outer in ((1, {1: (F(0), F(1, 2))}),
                         (2, {1: (F(0), F(1, 2)), 2: (F(0), F(1, 2))})):
        c = depth + 1
        spans = [(1, {**outer, c: (F(0), F(1, 3))}, F(2)),
                 (1, {**outer, c: (F(2, 3), F(1))}, F(5)),
                 (1, {**outer, depth: (F(1, 2), F(1))}, F(7))]
        if depth == 2:
            spans.append((1, {1: (F(1, 2), F(1))}, F(-1)))
        for name, cut, v in (("cancels-a-constant", (F(1, 4), F(1, 2)), F(-2)),
                             ("cancels-no-constant", (F(0), F(1, 4)), F(3)),
                             ("covers-a-span", (F(0), F(1, 2)), F(-5))):
            cases[f"exhausted-at-depth-{depth}-{name}"] = (spans, (1, {**outer, depth: cut}, v))
    return cases


BOX_CASES.update(exhausted_box_cases())


def assert_add_matches_sweep(fa, fb):
    """fa + fb, for a one-box operand: the insert gives the sweep's entries
    on the same lattice."""
    total = fa + fb
    if fa._entries and fb._entries:
        swept = StepFunction._summed(fa.domain, (fa, fb))
        assert total._entries == swept._entries
        assert total._dens == swept._dens and total._vden == swept._vden
    else:  # an empty operand: `add` returns the other one as it is
        assert total == StepFunction._summed(fa.domain, (fa, fb))
    assert_canonical_shape(total)
    return total


def assert_box_add(f, raw_f, part, raw_part):
    """f + part and part + f, held to the sweep and to the oracle."""
    total = assert_add_matches_sweep(f, part)
    assert assert_add_matches_sweep(part, f)._entries == total._entries
    assert_matches_oracle(raw_f + [raw_part], total)
    return total


@pytest.mark.parametrize("case", sorted(BOX_CASES))
def test_one_box_add_cases_match_sweep_and_oracle(case):
    dom = (1,)
    raw, raw_box = BOX_CASES[case]
    f, part = build(raw, dom), build([raw_box], dom)
    assert part.box_count() == 1
    total = assert_box_add(f, raw, part, raw_box)
    if case == "drops-the-top-coordinate":
        assert fraction_terms(total) == ((Box(1, ()), F(2)),)
    elif case == "drops-a-coordinate-inside-a-span":
        assert total.footprint() == frozenset({(1, 1)})
    elif case == "coarser-part-lattice":
        assert total._dens is f._dens  # the sum's lattice, reused
    elif case == "in-a-gap":
        assert all(any(e is x for x in total._entries) for e in f._entries)


@pytest.mark.parametrize("seed", range(10))
def test_one_box_chains_match_sweep(seed):
    # chains of one-box adds, as a steps trace makes them: boxes on
    # several lattices, a quarter of them cancelling an earlier box, held
    # to the sweep at every add (120 adds a seed), and the end of the
    # short chain to the canonical shape and to the oracle
    rng = random.Random(f"one-box-chain-{seed}")
    dom = (1,)
    for length in (15, 50, 55):
        raw: list = []
        total = StepFunction.zero(dom)
        for _ in range(length):
            if raw and rng.random() < 0.25:
                cube, bounds, v = rng.choice(raw)
                step = (cube, bounds, -v)
            else:
                step = lattice_raw(rng, dom, coords=(1, 2, 3), dens=(2, 3, 4, 6),
                                   values=(F(1), F(-2), F(1, 2), F(3, 4)), max_boxes=1)[0]
            part = build([step], dom)
            got = total + part
            if total._entries:
                want = StepFunction._summed(dom, (total, part))
                assert (got._entries, got._dens, got._vden) == (
                    want._entries, want._dens, want._vden)
            else:
                assert got is part
            total = got
            raw.append(step)
        if length == 15:
            assert_canonical_shape(total)
            assert_matches_oracle(raw, total)


# --- ChunkedSum -------------------------------------------------------------


def section_runs(rng, dom):
    """Runs of functions on `dom` = (1, 2, 3) as a formula section hands
    them out: one lattice object per run, a box repeated as the same entry
    object, and boxes that step through consecutive cells of their last
    coordinate; some runs take back the run before, and some hand the
    repeated entry object of the run before on, which on another lattice
    is another box.  Each run changes the lattice or the value
    denominator, mostly in the middle of a chunk."""
    stream: list = []
    fixed = (1, ((1, 0, 1),), 1)
    for _ in range(12):
        if stream and rng.random() < 0.3:
            stream += [f.scale(-1) for f in stream[-rng.randint(1, 20):]]
            continue
        dens = {1: rng.choice((2, 3, 4)), 2: rng.choice((3, 5, 6, 8))}
        vden = rng.choice((1, 2, 3))
        if rng.random() < 0.5 or fixed[1][0][2] >= dens[1]:
            a = rng.randrange(dens[1])
            fixed = (1, ((1, a, a + 1),), rng.choice((1, -2, 3)))
        a = fixed[1][0][1]
        v = rng.choice((1, -1, 2))
        for k in range(rng.randint(1, 40)):
            cell = (2, k % dens[2], k % dens[2] + 1)
            stream.append(StepFunction._raw(
                dom, (fixed, (2, ((1, a, a + 1), cell), v), (3, (cell,), -v)), dens, vden))
    return stream


def part_runs(rng, dom, seed):
    """Runs of adds of one function object, as the verifier adds one
    bridge part for each tail of a row: seed 10 adds one part k times in
    a row; seed 11 interleaves runs of four parts, each coming back; seed
    12 puts 127 functions, one short of a chunk of 128, before a run of
    300 adds, whose put starts a compaction, then 127 more and a run of
    another part, which starts the next; seed 13 follows runs of parts with runs of
    their negations, `f.scale(-1)`, which cancel some of them."""
    spec = dict(coords=(1, 2), dens=(2, 3, 4), values=(F(1), F(-1), F(1, 2)), max_boxes=3)
    parts = [build(lattice_raw(rng, dom, **spec), dom) for _ in range(4)]
    if seed == 10:
        return [parts[0]] * rng.randint(2, 60)
    if seed == 12:
        fresh = [build(lattice_raw(rng, dom, **spec), dom) for _ in range(2 * 127)]
        return fresh[:127] + [parts[0]] * 300 + fresh[127:] + [parts[1]] * 200 + [parts[0]]
    stream: list = []
    for _ in range(16):
        f = rng.choice(parts)
        stream += [f] * rng.randint(1, 40)
        if seed == 13 and rng.random() < 0.5:
            stream += [f.scale(-1)] * rng.randint(1, 40)
    return stream


@pytest.mark.parametrize("seed", range(14))
def test_chunked_sum_matches_sum_functions(seed, monkeypatch):
    # compactions only decide when the pending functions are folded in:
    # streams of less than one chunk, of one chunk and one more, and of
    # several chunks, which fold the running total in again and again, at
    # a chunk of 128; seeds 6-9 stream section-shaped runs whose lattice
    # changes in the middle of a chunk, and seeds 10-13 runs of one
    # function object.  The sum is sum_functions', on the same lattice.
    monkeypatch.setattr(stepfn, "_CHUNK", 128)
    rng = random.Random(f"chunked-{seed}")
    dom = (1, 2, 3)
    if seed < 6:
        spec = dict(coords=(1, 2), dens=(2, 3, 4), values=(F(1), F(-1), F(1, 2)), max_boxes=3)
        stream = [build(lattice_raw(rng, dom, **spec), dom)
                  for _ in range((1, 128, 129, 257, 400, 700)[seed])]
    elif seed < 10:
        stream = section_runs(rng, dom)
    else:
        stream = part_runs(rng, dom, seed)
    want = sum_functions(stream)
    total = ChunkedSum(dom)
    for f in stream:
        total.add(f)
    got = total.total()
    assert (got._entries, got._dens, got._vden) == (want._entries, want._dens, want._vden)
    assert_canonical_shape(got)
