"""Verifier behavior on correct families and deliberately broken ones.

The positive tests pin down exactly which check ids a clean run records.
The fault-injection tests corrupt one structural fact at a time and
assert that precisely the expected checks fail, so every check is known
to be both sound (passes on correct input) and sharp (fails only when
its own invariant is the broken one).
"""

import hashlib
from fractions import Fraction

import pytest

from sumrange.families import (
    Family,
    StructuralError,
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
    cube_label,
)
from sumrange.serialize import dump_family, family_to_lines, load_family
from sumrange.stepfn import StepFunction, cube_constants, indicator, sum_functions
from sumrange.verify import (
    CHECKS, COLUMN, COUPLING, HEAD, HEADS, MID, ROW, TAIL, TAILS, _Unit, verify_family)

PAIR_CHECKS = {
    "partition-sums-to-one", "cell-norm", "single-coordinate",
    "zero-one-valued", "disjoint-cells", "product-structure", "pair-norm",
    "two-coordinate", "zero-minus-one-valued", "cube-support",
    "row-cancellation", "rows-sum-to-minus-one", "column-cancellation",
}
BRIDGE_CHECKS = {
    "bridge-partition-sums-to-one", "bridge-sums-to-minus-one",
    "bridge-row-cancellation", "bridge-level-coupling",
    "bridge-row-indicator", "paired-integrals", "bridge-norm",
    "bridge-scaled-values", "bridge-single-coordinate",
}


def check_ids(report):
    return {c.check for c in report.checks}


def failing_checks(report):
    names = {c.check for c in report.failures()}
    names.update(report.suppressed)
    return names


def test_kadets_passes():
    report = verify_family(build_kadets(4))
    assert report.ok
    assert check_ids(report) == PAIR_CHECKS | {"cell-count-growth"}


def test_three_kadets_passes():
    report = verify_family(build_three_kadets(3))
    assert report.ok
    assert check_ids(report) == PAIR_CHECKS | BRIDGE_CHECKS | {"cell-count-growth"}


def test_multipoint_passes():
    report = verify_family(build_multipoint(4, 1))
    assert report.ok
    assert check_ids(report) == PAIR_CHECKS | BRIDGE_CHECKS | {"cell-count-growth"}


def test_custom_sizes_pass():
    assert verify_family(build_kadets(3, sizes=[2, 3, 5, 7])).ok
    assert verify_family(build_three_kadets(2, sizes=[1, 2, 4, 4, 8])).ok


def test_identities_match_direct_sums():
    """Re-derive two aggregate identities by explicit summation."""
    fam = build_three_kadets(2)
    dom = (1, 2, 3)

    # one term plus all its children vanishes on the last two cubes
    g = fam.fn(TermId("g", 1, (1, 1)))
    children = [fam.fn(TermId("h", 1, (1, 1, k)))
                for k in range(1, fam.flat_size(1, 2) + 1)]
    total = sum_functions([g] + children, domain=dom)
    assert total.restrict(2).box_count() == 0
    assert total.restrict(3).box_count() == 0

    # a level-2 column couples against the matching level-1 children
    lhs = [fam.fn(TermId("g", 2, (m, 1))) for m in range(1, fam.sizes(2) + 1)]
    rhs = []
    level2 = list(fam.index_tuples(1, 2))  # by flat index - 1
    for idx in fam.index_tuples(2, 1):
        if level2[idx[-1] - 1][-1] == 1:
            rhs.append(fam.fn(TermId("h", 1, idx)))
    total = sum_functions(lhs + rhs, domain=dom)
    assert total.restrict(2).box_count() == 0
    assert total.restrict(3).box_count() == 0


def test_negated_tail_detected():
    fam = build_kadets(3)
    tid = TermId("b", 2, (1, 2))
    report = verify_family(fam.with_replaced({tid: fam.fn(tid).scale(-1)}))
    assert not report.ok
    assert failing_checks(report) == {
        "zero-minus-one-valued", "product-structure", "row-cancellation",
        "rows-sum-to-minus-one", "column-cancellation",
    }


def test_unequal_partition_detected():
    # level-2 cells of measure 1/3 and 2/3: still a partition, wrong norms
    fam = build_kadets(3)
    lop = indicator((1,), 1, {2: (0, Fraction(1, 3))})
    rest = indicator((1,), 1, {2: (Fraction(1, 3), 1)})
    report = verify_family(fam.with_replaced({
        TermId("a", 2, (1,)): lop,
        TermId("a", 2, (2,)): rest,
    }))
    assert failing_checks(report) == {
        "cell-norm", "product-structure", "row-cancellation",
        "column-cancellation",
    }
    recorded = {(c.check, c.passed) for c in report.checks}
    assert ("partition-sums-to-one", True) in recorded
    assert ("partition-sums-to-one", False) not in recorded


def test_perturbed_mid_part_detected():
    fam = build_three_kadets(2)
    tid = TermId("h", 1, (1, 1, 1))
    bump = indicator((1, 2, 3), 2, {1: (0, Fraction(1, 2))}, Fraction(1, 7))
    report = verify_family(fam.with_replaced({tid: fam.fn(tid) + bump}))
    assert failing_checks(report) == {
        "bridge-row-cancellation", "bridge-norm", "bridge-scaled-values",
        "paired-integrals", "bridge-sums-to-minus-one",
        "bridge-level-coupling",
    }


def test_swapped_supports_detected():
    # exchange the last-cube cells of two siblings: partitions and norms
    # survive, only the product wiring and its row cancellation break
    fam = build_three_kadets(2)
    dom = (1, 2, 3)
    cell1 = indicator(dom, 3, {1: (0, Fraction(1, 2))})
    cell2 = indicator(dom, 3, {1: (Fraction(1, 2), 1)})
    g11 = fam.fn(TermId("g", 1, (1, 1)))
    g12 = fam.fn(TermId("g", 1, (1, 2)))
    report = verify_family(fam.with_replaced({
        TermId("g", 1, (1, 1)): g11 - cell1 + cell2,
        TermId("g", 1, (1, 2)): g12 - cell2 + cell1,
    }))
    assert failing_checks(report) == {"product-structure", "row-cancellation"}
    assert all("Q3" in c.scope for c in report.failures())


def test_substitutes_are_checked_as_a_table():
    # a fault family is a table of every term: it passes table-complete,
    # and a substitute for an id outside the family is an unexpected term
    fam = build_kadets(2)
    tid = TermId("b", 1, (1, 1))
    report = verify_family(fam.with_replaced({tid: fam.fn(tid).scale(-1)}))
    assert ("table-complete", True) in {(c.check, c.passed) for c in report.checks}
    report = verify_family(fam.with_replaced({TermId("b", 1, (1, 9)): fam.fn(tid)}))
    assert failing_checks(report) == {"table-complete"}
    assert [(c.scope, c.witness) for c in report.failures()] == [
        ("b^1(1,9)", "unexpected term in table")]


def test_swapped_columns_detected():
    # swapping two children of one row keeps every row sum intact
    fam = build_three_kadets(2)
    t1, t2 = TermId("h", 1, (1, 1, 1)), TermId("h", 1, (1, 1, 2))
    report = verify_family(
        fam.with_replaced({t1: fam.fn(t2), t2: fam.fn(t1)}))
    assert failing_checks(report) == {
        "product-structure", "column-cancellation", "bridge-level-coupling",
    }


def test_missing_table_entry_detected(tmp_path):
    lines = list(family_to_lines(build_three_kadets(2)))
    victim = next(i for i, line in enumerate(lines)
                  if '"kind":"h"' in line and line.startswith(","))
    del lines[victim]
    path = tmp_path / "holey.json"
    path.write_text("".join(lines))
    report = verify_family(load_family(path))
    assert failing_checks(report) == {"table-complete"}
    missing = [c for c in report.failures() if c.check == "table-complete"]
    assert len(missing) == 1


def test_loaded_table_verifies(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text("".join(family_to_lines(build_three_kadets(2))))
    report = verify_family(load_family(path))
    assert report.ok
    assert ("table-complete" in check_ids(report))


def test_structure_mismatch_rejected():
    twisted = apply_transform(build_three_kadets(2), TransformSpec.identity(2))
    with pytest.raises(StructuralError):
        verify_family(twisted)


def test_report_output():
    good = verify_family(build_kadets(2))
    lines = good.lines()
    assert lines[-1].startswith("OK: ")
    assert all(line.startswith("PASS") for line in lines[:-1])

    fam = build_kadets(2)
    tid = TermId("b", 1, (1, 1))
    bad = verify_family(fam.with_replaced({tid: fam.fn(tid).scale(-1)}))
    assert any(line.startswith("FAIL") for line in bad.lines())
    assert bad.lines()[-1].startswith("FAILED: ")
    csv = bad.csv_lines()
    assert csv[0] == "check,scope,passed,witness"
    assert any(",0," in line for line in csv[1:])


def digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


# Clean reports pinned row for row: order, scope text and witness text.
# Each entry is (line count, digest of lines(), digest of csv_lines()).
GOLDEN = {
    "kadets(3)": (44, "6a47005104bd2e483d7161b021554d2e6c10e6920489e0049297297cd5584a4b",
                  "1aa663f32b625d87f34dfe929118f389bdf38cb63ada92a1e506c904a832d430"),
    "three-kadets(2)": (84, "ad124adde77383e43bf0673ca628b67fc58336b884afb0f05a2a8716ce494c79",
                        "ad5f50003e443133f6c8f2f29250cb0c64538dfb07967b85bde206eb16c3754b"),
    "multipoint(4, 1)": (66, "8ee697f9a62aebc2d0f0011def1d8083013ed3f4eb08c43e7e513830b1fe7d19",
                         "54001c879ce6b73afe144da621c5dbae34066149259ad78685c23ea6730a26ab"),
    "loaded multipoint(4, 1)": (
        67, "12f2104d3dbaac258da99d88767c838dbe3ef8502137c975467199c8154962a1",
        "f18c898577914b7dbbc4c34f2e6cad20f3be039e2bdd401e76a2b232e9519909"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_clean_report_is_pinned(name, tmp_path):
    builders = {
        "kadets(3)": lambda: build_kadets(3),
        "three-kadets(2)": lambda: build_three_kadets(2),
        "multipoint(4, 1)": lambda: build_multipoint(4, 1),
    }
    if name.startswith("loaded "):
        path = tmp_path / "fam.json"
        dump_family(builders[name[len("loaded "):]](), path)
        fam = load_family(path)
    else:
        fam = builders[name]()
    report = verify_family(fam)
    count, lines_digest, csv_digest = GOLDEN[name]
    assert len(report.lines()) == count
    assert digest(report.lines()) == lines_digest
    assert digest(report.csv_lines()) == csv_digest


def test_clean_report_rows_in_table_order():
    assert verify_family(build_kadets(1)).lines() == [
        "PASS cell-count-growth [levels 1..2]",
        "PASS cell-norm [level 1, pair (a,b) on Q1]",
        "PASS single-coordinate [level 1, pair (a,b) on Q1]",
        "PASS zero-one-valued [level 1, pair (a,b) on Q1]",
        "PASS partition-sums-to-one [level 1, pair (a,b) on Q1]",
        "PASS disjoint-cells [level 1, pair (a,b) on Q1]",
        "PASS product-structure [level 1, pair (a,b) on Q1]",
        "PASS pair-norm [level 1, pair (a,b) on Q1]",
        "PASS two-coordinate [level 1, pair (a,b) on Q1]",
        "PASS zero-minus-one-valued [level 1, pair (a,b) on Q1]",
        "PASS cube-support [level 1, pair (a,b) on Q1]",
        "PASS row-cancellation [level 1, pair (a,b) on Q1]",
        "PASS rows-sum-to-minus-one [level 1, pair (a,b) on Q1]",
        "PASS disjoint-cells [level 1, pair (a,b) on Q1 tails]",
        "PASS column-cancellation [level 1, pair (a,b) on Q1]",
        "OK: 15/15 checks passed",
    ]


@pytest.mark.parametrize("build", [lambda: build_multipoint(4, 1), lambda: build_three_kadets(3),
                                   lambda: build_kadets(4)],
                         ids=["multipoint(4, 1)", "three-kadets(3)", "kadets(4)"])
def test_each_term_fetched_once(build, monkeypatch):
    # one walk by level: a term is kept, split, between its uses as a
    # next-level head, a tail and a head
    fam = build()
    calls = []
    fetch, section = Family.fn, Family.section

    def counted_section(self, g, n, prefix=()):
        for index, f in section(self, g, n, prefix):
            calls.append(TermId(self.kinds[g], n, index))
            yield index, f

    # a term built by fn and a term yielded by a section count alike
    monkeypatch.setattr(Family, "fn", lambda self, tid: calls.append(tid) or fetch(self, tid))
    monkeypatch.setattr(Family, "section", counted_section)
    assert verify_family(fam).ok
    assert len(calls) == fam.term_count()
    assert len(set(calls)) == fam.term_count()


# --- the integer checks against their Fraction predicates -------------------

# Today's Fraction predicate of each check that compares lattice integers;
# `allowed` holds the cubes the term's generation has pieces on.
FRACTION_PREDICATES = {
    "cell-norm": lambda u, f, whole, allowed: f.moment(1) == u.head_norm,
    "pair-norm": lambda u, f, whole, allowed: f.moment(1) == u.tail_norm,
    "bridge-norm": lambda u, f, whole, allowed: f.moment(1) == u.tail_norm,
    "zero-one-valued": lambda u, f, whole, allowed: f.term_values() <= {1},
    "zero-minus-one-valued": lambda u, f, whole, allowed: f.term_values() <= {-1},
    "bridge-scaled-values": lambda u, f, whole, allowed: (
        f.term_values() <= {u.bridge_value[f.domain[0]]}),
    "paired-integrals": lambda u, f, whole, allowed: (
        whole.integral(f.domain[0]) == whole.integral(f.domain[0] + 1)),
    "cube-support": lambda u, f, whole, allowed: not any(
        f.support_measure(c) != 0 for c in f.domain if c not in allowed),
    "product-structure": lambda u, f, whole, allowed: f == (
        u.factors[0].multiply(u.factors[1]).scale(-1)),
}


def _allowed_cubes(fam, g):
    # the cubes of generation g's pieces, read off the construction's formulas
    if g == 0:
        return {1}
    cubes = {2 * g - 1, 2 * g - 2} if g >= 2 else {1}
    if g <= fam.points - 2:
        cubes |= {2 * g, 2 * g + 1}
    return cubes


def _copies(f):
    # the term, scaled, negated and shifted by a constant on the last cube
    return (f, f.scale(3), f.scale(-1), f + indicator(f.domain, f.domain[-1], {}, Fraction(1, 7)))


def _parts(f, cubes):
    return {**f.split(cubes), None: f}


def _agree(u, todo, parts, allowed, outcomes):
    """Run each converted check on one term's parts against its predicate."""
    for ck, k in todo:
        got = ck.ok(u, parts[k], parts[None])
        assert got == FRACTION_PREDICATES[ck.id](u, parts[k], parts[None], allowed), ck.id
        outcomes.add((ck.id, got))


@pytest.mark.parametrize("build", [lambda: build_kadets(4), lambda: build_three_kadets(3),
                                   lambda: build_multipoint(4, 2)],
                         ids=["kadets(4)", "three-kadets(3)", "multipoint(4, 2)"])
def test_integer_checks_match_fraction_predicates(build):
    fam = build()
    outcomes = set()
    for n in range(1, fam.depth + 1):
        for e in range(fam.points - 1):
            u = _Unit(fam, e, n)
            cubes = [k for k in u.roles.values() if k is not None]
            todo = {on: [(ck, u.roles[role]) for ck in CHECKS if ck.on == on
                         and ck.id in FRACTION_PREDICATES for role in ck.roles if role in u.roles]
                    for on in (HEAD, TAIL)}
            heads = [fam.fn(TermId(u.head, n, idx)) for idx in fam.index_tuples(e, n)]
            u.heads = [_parts(f, cubes) for f in heads]
            u.next_heads = [_parts(f, cubes) for _, f in fam.reference_section(e, n + 1)]
            allowed = _allowed_cubes(fam, e)
            for f in heads:
                for copy in _copies(f):
                    _agree(u, todo[HEAD], _parts(copy, cubes), allowed, outcomes)
            s_next = len(u.next_heads)
            allowed = _allowed_cubes(fam, e + 1)
            for t, idx in enumerate(fam.index_tuples(e + 1, n)):
                row, column = divmod(t, s_next)
                f = fam.fn(TermId(u.tail, n, idx))
                for copy in _copies(f):
                    u.factors = (u.heads[row][u.c], u.next_heads[column][u.c])
                    _agree(u, todo[TAIL], _parts(copy, cubes), allowed, outcomes)
                # against the next column's head: one box each, the wrong box
                u.factors = (u.heads[row][u.c], u.next_heads[(column + 1) % s_next][u.c])
                _agree(u, todo[TAIL], _parts(f, cubes), allowed, outcomes)
    # every check a family has was seen both passing and failing, except
    # cube-support on the one cube of kadets
    passed = {ck for ck, ok in outcomes if ok}
    assert passed == {ck for ck, ok in outcomes if not ok} | (
        {"cube-support"} if fam.points == 2 else set())
    assert len(passed) == (6 if fam.points == 2 else len(FRACTION_PREDICATES))


def test_tail_of_two_boxes_takes_the_multiply_path(monkeypatch):
    # the tail's pair-cube part split into two boxes, one moved to another
    # column: values, norm and support survive, the product does not
    fam = build_kadets(3)
    tid = TermId("b", 2, (1, 2))
    dom = fam.domain
    left = indicator(dom, 1, {2: (0, Fraction(1, 4)), 3: (Fraction(1, 3), Fraction(2, 3))}, -1)
    right = indicator(dom, 1, {2: (Fraction(1, 4), Fraction(1, 2)), 3: (0, Fraction(1, 3))}, -1)
    assert fam.fn(tid) == left + indicator(dom, 1, {2: (Fraction(1, 4), Fraction(1, 2)),
                                                   3: (Fraction(1, 3), Fraction(2, 3))}, -1)
    calls = []
    multiply = StepFunction.multiply
    monkeypatch.setattr(StepFunction, "multiply",
                        lambda self, other: calls.append(1) or multiply(self, other))
    report = verify_family(fam.with_replaced({tid: left + right}))
    assert calls
    assert failing_checks(report) == {
        "product-structure", "row-cancellation", "rows-sum-to-minus-one",
        "column-cancellation"}
    failed = [c for c in report.failures() if c.check == "product-structure"]
    assert [c.scope for c in failed] == ["b^2(1,2) on Q1"]


# --- the sums against sum_functions -----------------------------------------

# The fault families of the tests above, built the same way.
def _negated_tail():
    fam = build_kadets(3)
    tid = TermId("b", 2, (1, 2))
    return fam.with_replaced({tid: fam.fn(tid).scale(-1)})


def _unequal_partition():
    return build_kadets(3).with_replaced({
        TermId("a", 2, (1,)): indicator((1,), 1, {2: (0, Fraction(1, 3))}),
        TermId("a", 2, (2,)): indicator((1,), 1, {2: (Fraction(1, 3), 1)})})


def _perturbed_mid_part():
    fam = build_three_kadets(2)
    tid = TermId("h", 1, (1, 1, 1))
    bump = indicator((1, 2, 3), 2, {1: (0, Fraction(1, 2))}, Fraction(1, 7))
    return fam.with_replaced({tid: fam.fn(tid) + bump})


def _swapped_supports():
    fam = build_three_kadets(2)
    cell1 = indicator(fam.domain, 3, {1: (0, Fraction(1, 2))})
    cell2 = indicator(fam.domain, 3, {1: (Fraction(1, 2), 1)})
    g11, g12 = TermId("g", 1, (1, 1)), TermId("g", 1, (1, 2))
    return fam.with_replaced({g11: fam.fn(g11) - cell1 + cell2, g12: fam.fn(g12) - cell2 + cell1})


def _swapped_columns():
    fam = build_three_kadets(2)
    t1, t2 = TermId("h", 1, (1, 1, 1)), TermId("h", 1, (1, 1, 2))
    return fam.with_replaced({t1: fam.fn(t2), t2: fam.fn(t1)})


def _tail_of_two_boxes():
    fam = build_kadets(3)
    dom = fam.domain
    left = indicator(dom, 1, {2: (0, Fraction(1, 4)), 3: (Fraction(1, 3), Fraction(2, 3))}, -1)
    right = indicator(dom, 1, {2: (Fraction(1, 4), Fraction(1, 2)), 3: (0, Fraction(1, 3))}, -1)
    return fam.with_replaced({TermId("b", 2, (1, 2)): left + right})


def _negated_first_tail():
    fam = build_kadets(2)
    tid = TermId("b", 1, (1, 1))
    return fam.with_replaced({tid: fam.fn(tid).scale(-1)})


def _doubled_head(build, tid):
    # a head that no longer partitions: H != 1 at its level, G != 1 below it
    def doubled():
        fam = build()
        return fam.with_replaced({tid: fam.fn(tid).scale(2)})
    return doubled


def _doubled_with_products(build, kind, n, flat):
    # that head doubled together with every tail that is its product: the
    # product checks pass, but H != 1 at level n and G != 1 at level n-1
    def doubled():
        fam = build()
        g = fam.generation(kind)
        tail = fam.kinds[g + 1]
        tids = [TermId(kind, n, list(fam.index_tuples(g, n))[flat - 1])]
        tids += [TermId(tail, n, idx) for idx in fam.index_tuples(g + 1, n)
                 if fam.flat_index(g, n, idx[:-1]) == flat]
        tids += [TermId(tail, n - 1, idx) for idx in fam.index_tuples(g + 1, n - 1)
                 if idx[-1] == flat]
        return fam.with_replaced({tid: fam.fn(tid).scale(2) for tid in tids})
    return doubled


def _cancels(s, cancel):
    return (s + cancel).box_count() == 0


def _is_constant(value):
    return lambda s, _: s == cube_constants(s.domain, {s.domain[0]: value})


# Each sum check's verdict, recomputed without the verifier's predicate.
SUM_PREDICATES = {
    "partition-sums-to-one": _is_constant(1),
    "disjoint-cells": lambda s, measure: measure == 1,
    "row-cancellation": _cancels,
    "bridge-row-cancellation": _cancels,
    "bridge-row-indicator": lambda s, _: s.value_set() <= {0, 1},
    "rows-sum-to-minus-one": _is_constant(-1),
    "bridge-sums-to-minus-one": _is_constant(-1),
    "bridge-partition-sums-to-one": _is_constant(1),
    "column-cancellation": _cancels,
    "bridge-level-coupling": _cancels,
}


def _reference_sums(fam):
    """(check, its unit's PASS scope, where it fails, sum, compared with) for
    every row, column, level and coupling sum, each summed with
    `sum_functions` over the terms' parts from `fam.fn`."""
    for n in range(1, fam.depth + 1):
        for e in range(fam.points - 1):
            u = _Unit(fam, e, n)
            cubes = [k for k in u.roles.values() if k is not None]
            heads = [fam.fn(TermId(u.head, n, idx)) for idx in fam.index_tuples(e, n)]
            next_ids = list(fam.index_tuples(e, n + 1))
            nexts = [fam.fn(TermId(u.head, n + 1, idx)) if n < fam.depth
                     else next(fam.reference_section(e, n + 1, idx))[1] for idx in next_ids]
            tail_ids = list(fam.index_tuples(e + 1, n))
            tails = [fam.fn(TermId(u.tail, n, idx)) for idx in tail_ids]
            parts = {k: [t.restrict(k) for t in tails] for k in cubes}
            s = len(nexts)

            def sums(on, name, pick):
                for ck in CHECKS:
                    for role in ck.roles if ck.on == on else ():
                        if role in u.roles:
                            k = u.roles[role]
                            scope = ck.scope.format(**u.fields)
                            where = scope if name is None else f"{name} on {cube_label(k)}"
                            yield (ck, scope, where, *pick(k))

            def total(fns, k):
                return sum_functions([f.restrict(k) for f in fns], (k,))

            yield from sums(HEADS, None, lambda k: (
                total(heads, k), sum(h.support_measure(k) for h in heads)))
            for r, head in enumerate(heads):
                row = range(r * s, (r + 1) * s)
                name = f"row {u.tail}^{n}({','.join(map(str, tail_ids[r * s][:-1]))})+*"
                yield from sums(ROW, name, lambda k: (
                    sum_functions([parts[k][t] for t in row], (k,)), head.restrict(k)))
            yield from sums(TAILS, None, lambda k: (
                sum_functions(parts[k], (k,)),
                sum(p.support_measure(k) for p in parts[k]) if k == u.c else None))
            for j, g in enumerate(nexts):
                yield from sums(COLUMN, f"column {u.tail}^{n}(*,{j + 1})", lambda k: (
                    sum_functions(parts[k][j::s], (k,)), g.restrict(k)))
            if MID not in u.roles:
                continue
            for jp in sorted({idx[-1] for idx in next_ids}):
                group = [j for j, idx in enumerate(next_ids) if idx[-1] == jp]
                yield from sums(
                    COUPLING, f"column {jp} of level {n + 1} {u.head} vs level {n} {u.tail}",
                    lambda k: (sum_functions([p for j in group for p in parts[k][j::s]], (k,)),
                               total([nexts[j] for j in group], k)))


@pytest.mark.parametrize("build", [
    lambda: build_kadets(4), lambda: build_three_kadets(3), lambda: build_multipoint(4, 2),
    _negated_tail, _unequal_partition, _perturbed_mid_part, _swapped_supports,
    _swapped_columns, _tail_of_two_boxes, _negated_first_tail,
    _doubled_head(lambda: build_kadets(3), TermId("a", 2, (1,))),
    _doubled_head(lambda: build_three_kadets(2), TermId("g", 2, (1, 1))),
    _doubled_with_products(lambda: build_kadets(3), "a", 2, 1),
    _doubled_with_products(lambda: build_three_kadets(2), "g", 2, 1),
], ids=["kadets(4)", "three-kadets(3)", "multipoint(4, 2)", "negated-tail",
        "unequal-partition", "perturbed-mid-part", "swapped-supports", "swapped-columns",
        "tail-of-two-boxes", "negated-first-tail", "doubled-head", "doubled-bridge-head",
        "doubled-products", "doubled-bridge-products"])
def test_sums_match_sum_functions(build):
    # the verifier derives the pair-cube sums from the product checks and
    # the bridge sums from distinct parts; each must judge as the plain sum
    fam = build()
    report = verify_family(fam)
    assert not report.suppressed
    failures = {(c.check, c.scope): c.witness for c in report.failures()}
    passes = {(c.check, c.scope) for c in report.checks if c.passed}
    want_failures, scopes, failed_scopes = {}, set(), set()
    for ck, scope, where, total, other in _reference_sums(fam):
        scopes.add((ck.id, scope))
        if not SUM_PREDICATES[ck.id](total, other):
            want_failures[ck.id, where] = ck.witness(None, total, other)
            failed_scopes.add((ck.id, scope))
    assert {key: w for key, w in failures.items() if key[0] in SUM_PREDICATES} == want_failures
    assert {key for key in passes if key[0] in SUM_PREDICATES} == scopes - failed_scopes
