"""Family builders against hand-computed term values and counting identities.

Expected values below were derived by hand from the construction rules
(cell indicators, negated products of consecutive levels, the 1/(cell
count) corrections) before the builder existed; the tests freeze them.
"""

import functools
import math
import random
import re
from fractions import Fraction

import pytest

from sumrange.families import (
    ConfigError,
    Family,
    IndexSizes,
    StructuralError,
    TermId,
    TermTable,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
    cube_label,
    expected_sum_range,
    parse_cube_label,
    parse_term_id,
    size_problem,
    y_groups,
)
from sumrange.stepfn import (
    Box,
    ChunkedSum,
    Interval,
    StepFunction,
    constant,
    cube_constants,
    indicator,
    sum_functions,
)
from test_stepfn import fraction_terms

F = Fraction


def tid(kind, level, *index):
    return TermId(kind, level, tuple(index))


# --- identifiers ------------------------------------------------------------


def test_term_id_text_roundtrip():
    t = tid("b", 2, 1, 3)
    assert str(t) == "b^2(1,3)"
    assert parse_term_id("b^2(1,3)") == t
    assert parse_term_id(" d3^10(1,2,3,4) ") == tid("d3", 10, 1, 2, 3, 4)
    for bad in ("b^2", "b^2()", "^2(1)", "b^(1)", "b^2(1,)", "b 2(1)"):
        with pytest.raises(ValueError):
            parse_term_id(bad)


def test_cube_labels():
    assert cube_label(3) == "Q3"
    assert parse_cube_label("Q12") == 12
    with pytest.raises(ValueError):
        parse_cube_label("R1")


# --- configuration ----------------------------------------------------------


def test_depth_and_size_validation():
    with pytest.raises(ConfigError):
        build_kadets(0)
    with pytest.raises(ConfigError):
        build_multipoint(1, 3)
    with pytest.raises(ConfigError):
        build_kadets(3, [1, 1, 1, 1, 1])
    with pytest.raises(ConfigError):
        build_kadets(3, [2, 1, 3, 4, 5])
    with pytest.raises(ConfigError):
        build_kadets(3, [0, 1, 2, 3, 4])
    # depth 3 with two generations needs sizes through level 4
    with pytest.raises(ConfigError):
        build_kadets(3, [1, 2])
    assert build_kadets(3, [1, 2, 2, 3]).sizes(4) == 3


def test_size_rule_covers_the_verified_levels():
    # the construction reads levels 1..6 and sizes grow there, but the
    # verifier pairs levels 1..2, where they are constant
    sizes = IndexSizes((1, 1, 1, 1, 1, 2))
    assert "levels 1..2" in size_problem(sizes, 1, 6)
    with pytest.raises(ConfigError, match="grow over levels 1..2"):
        build_multipoint(6, 1, sizes=(1, 1, 1, 1, 1, 2))
    assert size_problem(IndexSizes((1, 2, 2, 2, 2, 2)), 1, 6) is None
    assert build_multipoint(6, 1, sizes=(1, 2, 2, 2, 2, 2)).term_count() > 0


@pytest.mark.parametrize("sizes", [[1.9, 2.5, 3.7], [1, 2.0, 3], [True, 2, 3], [1, "2", 3],
                                   [1, F(2), 3]])
def test_non_integer_sizes_refused(sizes):
    # a size is an int, never truncated or read from a bool
    with pytest.raises(ConfigError, match="must be integers, got"):
        build_kadets(2, sizes)
    bad = next(v for v in sizes if type(v) is not int)
    with pytest.raises(ConfigError, match=re.escape(repr(bad))):
        IndexSizes(sizes)


def test_custom_sizes_change_cells():
    fam = build_kadets(2, [2, 2, 3, 3])
    a11 = fam.fn(tid("a", 1, 1))
    assert a11 == indicator((1,), 1, {1: (0, F(1, 2))})
    assert a11.moment(1) == F(1, 2)
    assert fam.fn(tid("a", 2, 2)) == indicator((1,), 1, {2: (F(1, 2), 1)})


def test_index_sizes_sequence():
    sizes = IndexSizes((2, 4, 6, 8, 10))
    assert sizes(3) == 6
    assert size_problem(sizes, 3, 3) is None  # levels 1..5
    with pytest.raises(ConfigError):
        sizes(0)
    with pytest.raises(ConfigError, match="only through level 5"):
        sizes(6)
    assert IndexSizes()(7) == 7


# --- flat index machinery ---------------------------------------------------


def test_flat_sizes_multiply_up():
    fam = build_multipoint(4, 4)
    assert [fam.flat_size(0, n) for n in range(1, 6)] == [1, 2, 3, 4, 5]
    assert [fam.flat_size(1, n) for n in range(1, 6)] == [2, 6, 12, 20, 30]
    assert [fam.flat_size(2, n) for n in range(1, 5)] == [12, 72, 240, 600]
    assert [fam.flat_size(3, n) for n in range(1, 5)] == [864, 17280, 144000, 756000]


def test_flat_index_is_lexicographic_bijection():
    fam = build_multipoint(4, 3)
    for g in range(4):
        for n in (1, 2, 3):
            flats = [fam.flat_index(g, n, idx) for idx in fam.index_tuples(g, n)]
            assert flats == list(range(1, fam.flat_size(g, n) + 1))


def test_three_kadets_flat_map_matches_row_major_rule():
    fam = build_three_kadets(3)
    # (m, j) at level n sits at position (m-1)(n+1)+j among n(n+1) cells
    assert fam.flat_index(1, 2, (1, 2)) == 2
    assert fam.flat_index(1, 2, (2, 3)) == 6
    assert list(fam.index_tuples(1, 3))[5 - 1] == (2, 1)


def test_term_counts():
    assert build_kadets(8).term_count() == 276
    assert build_three_kadets(4).term_count() == 974
    assert build_three_kadets(6).term_count() == 4669
    fam = build_multipoint(4, 4)
    assert fam.term_count() == 919_118
    assert fam.domain == (1, 2, 3, 4, 5)


def test_term_order_is_level_kind_index():
    fam = build_kadets(2)
    first = [str(t) for t in fam.term_ids()][:6]
    assert first == ["a^1(1)", "b^1(1,1)", "b^1(1,2)", "a^2(1)", "a^2(2)", "b^2(1,1)"]
    only_b = [t for t in fam.term_ids() if t.level == 2 and t.kind == "b"]
    assert len(only_b) == 6
    assert only_b[0] == tid("b", 2, 1, 1)
    assert only_b[-1] == tid("b", 2, 2, 3)


def test_fn_rejects_out_of_range_ids():
    fam = build_kadets(3)
    with pytest.raises(KeyError):
        fam.fn(tid("c", 1, 1))
    with pytest.raises(KeyError):
        fam.fn(tid("a", 4, 1))
    with pytest.raises(KeyError):
        fam.fn(tid("a", 2, 3))
    with pytest.raises(KeyError):
        fam.fn(tid("b", 2, 1))


def test_fn_errors_keep_their_text():
    fam = build_kadets(3)
    cases = {
        tid("c", 1, 1): "unknown kind 'c'; family has ('a', 'b')",
        tid("a", 0, 1): "level of a^0(1) outside 1..3",
        tid("a", 4, 1): "level of a^4(1) outside 1..3",
        tid("b", 2, 1): "index of b^2(1) outside ranges (2, 3)",
        tid("b", 2, 1, 4): "index of b^2(1,4) outside ranges (2, 3)",
        tid("a", 2, 0): "index of a^2(0) outside ranges (2,)",
    }
    shifted = apply_transform(build_kadets(3), TransformSpec.zero(1))
    for family in (fam, shifted):
        for t, text in cases.items():
            with pytest.raises(KeyError) as caught:
                family.fn(t)
            assert caught.value.args == (text,)
    # reference_section plans level depth+1; fn and section must refuse it all the same
    assert next(fam.reference_section(0, 4, (1,)))[1].moment(1) == F(1, 4)
    with pytest.raises(KeyError) as caught:
        fam.fn(tid("a", 4, 1))
    assert caught.value.args == ("level of a^4(1) outside 1..3",)
    with pytest.raises(KeyError) as caught:
        fam.section(0, 4)
    assert caught.value.args == ("level of a^4() outside 1..3",)


def test_term_budget_refuses_before_enumerating(tmp_path, monkeypatch):
    from sumrange.schedules import random_schedule, run_trace, schedule_custom, schedule_point
    from sumrange.serialize import dump_family
    from sumrange.verify import verify_family

    fam = build_multipoint(5, 2)
    assert fam.term_count() == 2_503_268_159
    sch = schedule_point(fam, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("a term was enumerated")

    for name in ("fn", "term_ids", "index_tuples", "section", "section_sum",
                 "reference_section"):
        monkeypatch.setattr(Family, name, refuse)
    too_many = "has 2503268159 terms, more than max_terms 5000000"
    path = tmp_path / "fam.json"
    for call in (lambda: verify_family(fam),
                 lambda: run_trace(fam, sch, record="blocks"),
                 lambda: dump_family(fam, path),
                 lambda: apply_transform(fam, TransformSpec.zero(4)),
                 lambda: random_schedule(fam, 1),
                 lambda: schedule_custom(fam, [])):
        with pytest.raises(ConfigError, match=too_many):
            call()
    assert not path.exists()
    small = build_kadets(3)
    with pytest.raises(ConfigError, match="has 26 terms, more than max_terms 25"):
        verify_family(small, max_terms=25)
    assert schedule_point(small, 0).term_count == 26
    with pytest.raises(ConfigError, match="schedule sigma has 26 terms"):
        run_trace(small, schedule_point(small, "sigma"), max_terms=25)


# --- term generation against the formulas -----------------------------------


def formula_terms(fam, g, n, index):
    """Term (g, n, index) built with Box, cell() and Fraction from the
    formulas in the families module docstring, without the family's
    flat-index helpers or plans."""

    @functools.cache
    def count(h, level):  # s_h(level)
        if h == 0:
            return fam.sizes(level)
        return count(h - 1, level) * count(h - 1, level + 1)

    def flat(prefix):  # F_k of the prefix (i0..ik)
        pos = prefix[0]
        for h in range(1, len(prefix)):
            pos = (pos - 1) * count(h - 1, n + 1) + prefix[h]
        return pos

    def cell(i, size):  # cell i (1-based) of the equal partition of [0, 1)
        return Interval(F(i - 1, size), F(i, size))

    def piece(cube, value, *cells):
        bounds = tuple((coord, cell(i, size)) for coord, i, size in cells)
        return Box(cube, bounds), value

    if g == 0:
        pieces = [piece(1, F(1), (n, index[0], count(0, n)))]
    else:
        pieces = [piece(2 * g - 1, F(-1), (n, flat(index[:-1]), count(g - 1, n)),
                        (n + 1, index[-1], count(g - 1, n + 1)))]
        if g >= 2:
            pieces.append(piece(2 * g - 2, F(-1, count(g - 1, n + 1) * count(g - 2, n + 1)),
                                (n, flat(index[:-2]), count(g - 2, n))))
    if 1 <= g <= fam.points - 2:
        pieces.append(piece(2 * g, F(1, count(g - 1, n + 1)),
                            (n, flat(index[:-1]), count(g - 1, n))))
        pieces.append(piece(2 * g + 1, F(1), (n, flat(index), count(g, n))))
    return fraction_terms(StepFunction(fam.domain, pieces))


@pytest.mark.parametrize("make", [
    lambda: build_kadets(4),
    lambda: build_three_kadets(3),
    lambda: build_multipoint(4, 2),
    lambda: build_multipoint(5, 1, sizes=(1, 2, 2, 2, 2)),
], ids=["kadets(4)", "three-kadets(3)", "multipoint(4, 2)", "multipoint(5, 1, sizes)"])
def test_every_term_matches_the_formulas(make):
    fam = make()
    checked = 0
    # each term as fn gives it and as its whole (g, n) section yields it
    ids = iter(fam.term_ids())
    for n in range(1, fam.depth + 1):
        for g, kind in enumerate(fam.kinds):
            for index, f in fam.section(g, n):
                t = next(ids)
                assert t == TermId(kind, n, index)
                want = formula_terms(fam, g, n, index)
                assert fraction_terms(f) == want, str(t)
                assert fraction_terms(fam.fn(t)) == want, str(t)
                checked += 1
    assert next(ids, None) is None
    assert checked == fam.term_count()
    # the verifier reads heads of generations 0..r-2 one level past the depth
    n = fam.depth + 1
    for g in range(fam.points - 1):
        heads = list(fam.reference_section(g, n))
        assert [index for index, _ in heads] == list(fam.index_tuples(g, n))
        for index, f in heads:
            assert fraction_terms(f) == formula_terms(fam, g, n, index)


# --- sections ---------------------------------------------------------------


def _loaded(fam, tmp_path):
    from sumrange.serialize import dump_family, load_family

    dump_family(fam, tmp_path / "fam.json")
    return load_family(tmp_path / "fam.json")


SECTION_FAMILIES = {
    "kadets(4)": lambda tmp: build_kadets(4),
    "three-kadets(3)": lambda tmp: build_three_kadets(3),
    "multipoint(4, 2)": lambda tmp: build_multipoint(4, 2),
    "transformed": lambda tmp: apply_transform(build_three_kadets(3),
                                               TransformSpec([[1, 2], [F(1, 3), -1]])),
    "loaded": lambda tmp: _loaded(build_multipoint(4, 1), tmp),
    "with_replaced": lambda tmp: build_three_kadets(3).with_replaced(
        {tid("g", 2, 1, 2): cube_constants((1, 2, 3), {2: 1})}),
}


@pytest.mark.parametrize("name", SECTION_FAMILIES)
def test_sections_match_fn(name, tmp_path):
    # every prefix of every length 0..g+1 yields, in index order, the
    # terms under it with fn's entries on fn's lattice
    fam = SECTION_FAMILIES[name](tmp_path)
    compared = 0
    for n in range(1, fam.depth + 1):
        for g, kind in enumerate(fam.kinds):
            ids = list(fam.index_tuples(g, n))
            for length in range(g + 2):
                got = [term for prefix in dict.fromkeys(index[:length] for index in ids)
                       for term in fam.section(g, n, prefix)]
                assert [index for index, _ in got] == ids
                # cut by cube: one part on each cube the term touches, the
                # term there as a function on that cube
                cut = [term for prefix in dict.fromkeys(index[:length] for index in ids)
                       for term in fam.parts(g, n, prefix)]
                assert [(index, f) for index, _, f in cut] == got
                for _, parts, f in cut:
                    assert list(parts) == sorted(f.support_cubes())
                    assert all(p.domain == (k,) and p == f.restrict(k) for k, p in parts.items())
                for index, f in got:
                    want = fam.fn(TermId(kind, n, index))
                    assert (f._entries, f._dens, f._vden) == \
                        (want._entries, want._dens, want._vden), (kind, n, index)
                    compared += 1
    assert compared == sum(fam.generation(kind) + 2 for kind, _, _ in fam.term_ids())


def test_section_refuses_what_fn_refuses(tmp_path):
    fam = build_kadets(3)
    families = (fam, apply_transform(fam, TransformSpec.zero(1)), fam.with_replaced({}),
                _loaded(fam, tmp_path))
    cases = {
        (1, 2, (3,)): "index of b^2(3) outside ranges (2, 3)",
        (1, 2, (1, 4)): "index of b^2(1,4) outside ranges (2, 3)",
        (1, 2, (1, 1, 1)): "index of b^2(1,1,1) outside ranges (2, 3)",
        (0, 2, (0,)): "index of a^2(0) outside ranges (2,)",
        (0, 0, ()): "level of a^0() outside 1..3",
        (0, 4, (1,)): "level of a^4(1) outside 1..3",
        (2, 1, ()): "generation 2 outside 0..1",
        (-1, 1, ()): "generation -1 outside 0..1",
    }
    for family in families:
        for (g, n, prefix), text in cases.items():
            for call in (family.section, family.section_sum):
                with pytest.raises(KeyError) as caught:
                    call(g, n, prefix)  # refused at the call, before any term
                assert caught.value.args == (text,), (family, call, g, n, prefix)
    # fn refuses the whole ids under those prefixes with the same text
    for family in families[:2]:
        for t, text in {tid("b", 2, 3, 1): "index of b^2(3,1) outside ranges (2, 3)",
                        tid("a", 4, 1): "level of a^4(1) outside 1..3"}.items():
            with pytest.raises(KeyError) as caught:
                family.fn(t)
            assert caught.value.args == (text,)
    # a table without a term: the section stops there with fn's text
    table = {t: fam.fn(t) for t in fam.term_ids() if t != tid("b", 2, 1, 3)}
    holed = Family(2, 3, source=TermTable(table))
    got = []
    with pytest.raises(KeyError) as caught:
        got.extend(index for index, _ in holed.section(1, 2, (1,)))
    assert got == [(1, 1), (1, 2)]
    assert caught.value.args == ("term b^2(1,3) missing from the loaded table",)
    with pytest.raises(KeyError) as caught:
        holed.fn(tid("b", 2, 1, 3))
    assert caught.value.args == ("term b^2(1,3) missing from the loaded table",)
    with pytest.raises(KeyError) as caught:
        holed.section_sum(1, 2, (1,))
    assert caught.value.args == ("term b^2(1,3) missing from the loaded table",)
    assert holed.section_sum(1, 2, (2,))[1:] == (3, (2, 3))


def _folded(domain, terms):
    """(sum, count, last index) of a section's (index, term) pairs, summed
    term by term."""
    total, count, last = ChunkedSum(domain), 0, None
    for last, f in terms:
        total.add(f)
        count += 1
    return total.total(), count, last


def _sampled_prefixes(fam, g, n, rng, most):
    """Every length of prefix of (g, n), whole indices too: the first and
    last prefix of each length and a few drawn by `rng`, each over at most
    `most` terms."""
    ranges = fam.index_ranges(g, n)
    for length in range(g + 2):
        below = math.prod(ranges[length:])
        if below > most:
            continue
        picks = {tuple(1 for _ in range(length)), ranges[:length]}
        picks.update(tuple(rng.randint(1, top) for top in ranges[:length]) for _ in range(3))
        yield from sorted(picks)


SUM_FAMILIES = {
    "kadets(4)": lambda: build_kadets(4),
    "three-kadets(4)": lambda: build_three_kadets(4),
    "multipoint(4, 2)": lambda: build_multipoint(4, 2),
    "multipoint(5, 1, sizes)": lambda: build_multipoint(5, 1, sizes=(1, 2, 2, 2, 2)),
    "Family(4, 2, primes)": lambda: Family(4, 2, [2, 3, 5, 7, 11, 13]),
}


@pytest.mark.parametrize("name", SUM_FAMILIES)
def test_section_sum_is_the_sum_of_the_section(name):
    # the closed-form sum of a formula section is the sum of its terms
    # added one by one, with their count and the last index; a section
    # over more than 50,000 terms is left to its longer prefixes
    fam = SUM_FAMILIES[name]()
    rng = random.Random(22)
    compared = 0
    for n in range(1, fam.depth + 1):
        for g in range(fam.points):
            for prefix in _sampled_prefixes(fam, g, n, rng, 50_000):
                want = _folded(fam.domain, fam.reference_section(g, n, prefix))
                assert fam.section_sum(g, n, prefix) == want, (g, n, prefix)
                compared += 1
    assert compared >= 5 * fam.points * fam.depth


@pytest.mark.parametrize("source", ["apply_transform", "with_replaced", "sectioned_family"])
def test_sourced_section_sum_folds_the_source(source, tmp_path):
    # a term source's section is summed term by term, so a transform or a
    # replaced term is in the sum
    from sumrange.serialize import dump_family, sectioned_family

    ref = build_three_kadets(3)
    replaced = tid("g", 2, 1, 2)
    if source == "apply_transform":
        fam = apply_transform(ref, TransformSpec([[1, 2], [F(1, 3), -1]]))
    elif source == "with_replaced":
        fam = ref.with_replaced({replaced: cube_constants(ref.domain, {2: 1})})
    else:
        dump_family(ref, tmp_path / "fam.json")
        fam = sectioned_family(tmp_path / "fam.json")
    assert fam.source is not None
    differs = 0
    for n in range(1, fam.depth + 1):
        for g in range(fam.points):
            for prefix in _sampled_prefixes(fam, g, n, random.Random(n), 10_000):
                got = fam.section_sum(g, n, prefix)
                assert got == _folded(fam.domain, fam.section(g, n, prefix)), (g, n, prefix)
                differs += got[0] != ref.section_sum(g, n, prefix)[0]
    # the file holds the formula terms; the other two sources change them
    assert (differs == 0) == (source == "sectioned_family")


# --- term sources -----------------------------------------------------------

SOURCE_BASES = {
    "kadets(3)": lambda: build_kadets(3),
    "three-kadets(2)": lambda: build_three_kadets(2),
    "multipoint(4, 1)": lambda: build_multipoint(4, 1),
}
# the sources whose ids are a table's, unproven; the others' are proven
HELD_IDS = ("with_replaced", "load_family", "loaded transformed")


def _with_source(name, fam, spec, tmp_path):
    """`fam`, or its transform by `spec`, as the term source `name` gives it."""
    from sumrange.serialize import dump_family, load_family, sectioned_family

    path = tmp_path / "fam.json"
    if name == "formulas":
        return fam
    if name == "with_replaced":
        return fam.with_replaced({})
    if name == "apply_transform":
        return apply_transform(fam, spec)
    if name == "loaded transformed":
        dump_family(apply_transform(fam, spec), path)
        return load_family(path)
    dump_family(fam, path)
    return {"load_family": load_family, "sectioned_family": sectioned_family}[name](path)


def _shifted(fam, spec, f):
    """f plus the constant `spec` makes of its paired cube means, on each pair."""
    groups = y_groups(fam.points)
    shift = spec.apply([f.integral(group[0]) for group in groups])
    return f + cube_constants(fam.domain, {c: v for group, v in zip(groups, shift) for c in group})


@pytest.mark.parametrize("source", ["formulas", "with_replaced", "load_family",
                                    "sectioned_family", "apply_transform",
                                    "loaded transformed"])
@pytest.mark.parametrize("base", SOURCE_BASES)
def test_every_source_gives_the_reference_terms(base, source, tmp_path):
    # each term, as every prefix's section yields it, with its parts or
    # without, and as fn gives it, equals the formula term, shifted by hand
    # for the transformed sources
    ref = SOURCE_BASES[base]()
    d = ref.points - 1
    spec = TransformSpec([[F(i + 1, j + 2) - j for j in range(d)] for i in range(d)])
    fam = _with_source(source, ref, spec, tmp_path)
    want = ((lambda f: _shifted(ref, spec, f)) if "transform" in source else (lambda f: f))
    assert fam.transform == (spec if "transform" in source else None)
    compared = 0
    for n in range(1, ref.depth + 1):
        for g, kind in enumerate(ref.kinds):
            ids = list(ref.index_tuples(g, n))
            for length in range(g + 2):
                got = [term for prefix in dict.fromkeys(index[:length] for index in ids)
                       for term in fam.section(g, n, prefix)]
                assert [index for index, _ in got] == ids
                # cut by cube: one part on each cube the term touches, the
                # term there as a function on that cube
                cut = [term for prefix in dict.fromkeys(index[:length] for index in ids)
                       for term in fam.parts(g, n, prefix)]
                assert [(index, f) for index, _, f in cut] == got
                for _, parts, f in cut:
                    assert list(parts) == sorted(f.support_cubes())
                    assert all(p.domain == (k,) and p == f.restrict(k) for k, p in parts.items())
                for index, f in got:
                    t = TermId(kind, n, index)
                    expected = fraction_terms(want(ref.fn(t)))
                    assert fraction_terms(f) == expected, (str(t), length)
                    assert fraction_terms(fam.fn(t)) == expected, str(t)
                    compared += 1
    assert compared == sum(ref.generation(t.kind) + 2 for t in ref.term_ids())
    # the ids answer: a table's are its own, unproven; the others' proven
    if source == "formulas":
        assert fam.source is None
    elif source in HELD_IDS:
        assert list(fam.source.ids()) == list(ref.term_ids())
    else:
        assert fam.source.ids() is None


# --- two-kind family values -------------------------------------------------


def test_kadets_level_one_is_whole_cube():
    fam = build_kadets(3)
    assert fam.fn(tid("a", 1, 1)) == constant((1,), 1)


def test_kadets_cell_indicators():
    fam = build_kadets(3)
    a12 = fam.fn(tid("a", 2, 1))
    assert a12 == indicator((1,), 1, {2: (0, F(1, 2))})
    assert a12.moment(1) == F(1, 2)
    assert a12.moment(2) == F(1, 2)
    assert a12.footprint() == frozenset({(1, 2)})
    assert fam.fn(tid("a", 2, 1)) + fam.fn(tid("a", 2, 2)) == constant((1,), 1)
    assert fam.fn(tid("a", 2, 1)) != fam.fn(tid("a", 2, 2))


def test_kadets_b_is_negated_product():
    fam = build_kadets(3)
    b11 = fam.fn(tid("b", 1, 1, 1))
    assert b11 == indicator((1,), 1, {2: (0, F(1, 2))}, value=-1)
    assert b11.moment(1) == F(1, 2)
    b21 = fam.fn(tid("b", 2, 1, 1))
    assert b21 == indicator((1,), 1, {2: (0, F(1, 2)), 3: (0, F(1, 3))}, value=-1)
    assert b21.moment(1) == F(1, 6)
    for n in (1, 2):
        for m in range(1, n + 1):
            for j in range(1, n + 2):
                prod = fam.fn(tid("a", n, m)) * next(fam.reference_section(0, n + 1, (j,)))[1]
                assert fam.fn(tid("b", n, m, j)) == -prod


def test_kadets_row_and_total_sums():
    fam = build_kadets(3)
    for n in (1, 2, 3):
        level_a = sum_functions([fam.fn(t) for t in fam.term_ids() if t[:2] == ("a", n)])
        assert level_a == constant((1,), 1)
        level_b = sum_functions([fam.fn(t) for t in fam.term_ids() if t[:2] == ("b", n)])
        assert level_b == constant((1,), -1)
    everything = sum_functions([fam.fn(t) for t in fam.term_ids()])
    assert everything == StepFunction.zero((1,))
    head = [fam.fn(t) for t in fam.term_ids() if t.kind == "a"]
    tail = [fam.fn(t) for t in fam.term_ids() if t.kind == "b" and t.level <= 2]
    assert sum_functions(head + tail) == constant((1,), 1)


# --- three-kind family values -----------------------------------------------


def test_f_terms_live_on_first_cube_only():
    fam = build_three_kadets(3)
    f11 = fam.fn(tid("f", 1, 1))
    assert f11 == cube_constants((1, 2, 3), {1: 1})
    f22 = fam.fn(tid("f", 2, 2))
    assert f22.moment(1, cube=1) == F(1, 2)
    assert f22.moment(1, cube=2) == 0
    assert f22.moment(1, cube=3) == 0
    assert tuple(f22.integral(c) for c in f22.domain) == (F(1, 2), F(0), F(0))


def test_g_term_exact_pieces():
    fam = build_three_kadets(3)
    g12 = fam.fn(tid("g", 1, 1, 2))
    assert fraction_terms(g12) == (
        (Box(1, ((2, Interval(F(1, 2), F(1))),)), F(-1)),
        (Box(2, ()), F(1, 2)),
        (Box(3, ((1, Interval(F(1, 2), F(1))),)), F(1)),
    )
    assert g12.evaluate(2, {}) == F(1, 2)
    assert g12.integral(2) == F(1, 2)
    assert g12.integral(3) == F(1, 2)
    assert g12.integral(1) == F(-1, 2)


def test_h_term_exact_pieces():
    fam = build_three_kadets(3)
    h123 = fam.fn(tid("h", 1, 1, 2, 3))
    assert fraction_terms(h123) == (
        (Box(2, ()), F(-1, 12)),
        (Box(3, ((1, Interval(F(1, 2), F(1))), (2, Interval(F(1, 3), F(1, 2))))), F(-1)),
    )
    assert h123.moment(1, cube=1) == 0
    assert h123.integral(2) == F(-1, 12)
    assert h123.integral(3) == F(-1, 12)
    assert h123.moment(1, cube=3) == F(1, 12)


def test_g_row_sums_are_zero_one_valued():
    fam = build_three_kadets(3)
    row = sum_functions([fam.fn(tid("g", 1, 1, j)) for j in (1, 2)])
    assert row.restrict(2) == constant((2,), 1)
    assert row.support_measure(2) == 1
    row2 = sum_functions([fam.fn(tid("g", 2, 1, j)) for j in (1, 2, 3)])
    assert row2.restrict(2) == indicator((2,), 2, {2: (0, F(1, 2))})
    assert row2.restrict(2).value_set() == frozenset({F(0), F(1)})


def test_paired_cube_integrals_agree_for_every_term():
    fam = build_three_kadets(3)
    for t in fam.term_ids():
        f = fam.fn(t)
        assert f.integral(2) == f.integral(3), str(t)


def test_three_kadets_level_sums_vanish():
    fam = build_three_kadets(2)
    total = sum_functions([fam.fn(t) for t in fam.term_ids()])
    assert total == StepFunction.zero((1, 2, 3))


# --- generic chain consistency ----------------------------------------------


@pytest.mark.parametrize("points,depth,sizes", [
    (2, 3, None), (3, 2, None), (4, 2, None), (5, 1, (1, 2, 2, 2, 2, 2)),
    (6, 1, (1, 2, 2, 2, 2, 2, 2))],
    ids=["kadets(3)", "three-kadets(2)", "multipoint(4, 2)", "multipoint(5, 1, sizes)",
         "multipoint(6, 1, sizes)"])
def test_shape_follows_the_point_count(points, depth, sizes):
    built = [build_multipoint(points, depth, sizes), Family(points, depth, sizes)]
    built += {2: [build_kadets(depth, sizes)], 3: [build_three_kadets(depth, sizes)]}.get(points, [])
    structure = {2: "kadets", 3: "three-kadets"}.get(points, "multipoint")
    for fam in built:
        assert len(set(fam.kinds)) == points
        assert fam.domain == tuple(range(1, 2 * points - 2))
        assert fam.structure == fam.flavor == structure
        assert fam.kinds == built[0].kinds
        # term_ids() walks the product of the index ranges of each (g, n)
        assert sum(math.prod(fam.index_ranges(g, n)) for g in range(points)
                   for n in range(1, depth + 1)) == fam.term_count()
        if fam.term_count() < 50_000:  # six points have 2,147,516,555
            ids = list(fam.term_ids())
            assert len(set(ids)) == len(ids) == fam.term_count()
            assert {t.kind for t in ids} == set(fam.kinds)
        for g, kind in enumerate(fam.kinds):
            first = TermId(kind, 1, next(fam.index_tuples(g, 1)))
            assert fam.fn(first).support_cubes() <= set(fam.domain)
        # a transform changes the flavor and nothing else of the shape
        shifted = Family(points, depth, sizes, transform=TransformSpec.zero(points - 1))
        assert shifted.flavor == "transformed"
        assert (shifted.structure, shifted.kinds, shifted.domain) == (
            structure, fam.kinds, fam.domain)


def test_multipoint_small_points_reuse_flavors():
    assert build_multipoint(2, 3).flavor == "kadets"
    assert build_multipoint(3, 3).flavor == "three-kadets"
    assert build_multipoint(4, 2).flavor == "multipoint"
    assert build_multipoint(4, 2).kinds == ("d0", "d1", "d2", "d3")


def test_extension_keeps_lower_cube_structure():
    # one more limit point adds a generation and keeps the lower cubes
    two = build_kadets(3)
    three = build_three_kadets(3)
    assert three.depth == 3
    for n, m in ((2, 1), (3, 2)):
        assert three.fn(tid("f", n, m)).restrict(1) == two.fn(tid("a", n, m)).restrict(1)
    for n, m, j in ((1, 1, 2), (2, 2, 3)):
        assert three.fn(tid("g", n, m, j)).restrict(1) == two.fn(tid("b", n, m, j)).restrict(1)
    four = build_multipoint(4, 2)
    assert four.points == 4 and four.depth == 2
    g = three.fn(tid("g", 2, 1, 3))
    d1 = four.fn(tid("d1", 2, 1, 3))
    for cube in (1, 2, 3):
        assert d1.restrict(cube) == g.restrict(cube)
    h = three.fn(tid("h", 1, 1, 2, 3))
    d2 = four.fn(tid("d2", 1, 1, 2, 3))
    for cube in (2, 3):
        assert d2.restrict(cube) == h.restrict(cube)
    # the extension adds positive pieces on the two new cubes
    assert d2.moment(1, cube=4) > 0
    assert d2.moment(1, cube=5) > 0
    assert h.moment(1, cube=2) == d2.moment(1, cube=2)


def test_last_generation_has_no_extension_pieces():
    four = build_multipoint(4, 2)
    d3 = four.fn(tid("d3", 1, 1, 2, 3, 4))
    assert d3.moment(1, cube=1) == 0
    assert d3.moment(1, cube=2) == 0
    assert d3.moment(1, cube=3) == 0
    assert d3.moment(1, cube=4) > 0
    assert d3.moment(1, cube=5) > 0


def test_formula_terms_are_already_canonical():
    four = build_multipoint(4, 2)
    samples = [tid("d0", 2, 1), tid("d1", 2, 2, 1), tid("d2", 1, 1, 2, 5),
               tid("d3", 1, 1, 2, 3, 40)]
    for t in samples:
        f = four.fn(t)
        assert fraction_terms(StepFunction(f.domain, fraction_terms(f))) == fraction_terms(f)


def test_multipoint_level_sums_vanish():
    four = build_multipoint(4, 1)
    total = sum_functions([four.fn(t) for t in four.term_ids() if t.level == 1])
    assert total == StepFunction.zero(four.domain)


def test_row_closure_under_last_generation():
    four = build_multipoint(4, 2)
    parent = four.fn(tid("d2", 1, 1, 2, 5))
    children = sum_functions(
        [four.fn(tid("d3", 1, 1, 2, 5, lam)) for lam in range(1, four.flat_size(2, 2) + 1)])
    combined = parent + children
    assert combined.moment(1, cube=4) == 0
    assert combined.moment(1, cube=5) == 0


def test_with_replaced_refuses_over_the_term_budget(monkeypatch):
    # the copy lists every term, so it is refused before the first one
    fam = build_multipoint(5, 1)
    assert fam.term_count() == 14_930_799

    def refuse(*args, **kwargs):
        raise AssertionError("a term was enumerated")

    for name in ("fn", "term_ids", "index_tuples", "section", "section_sum",
                 "reference_section"):
        monkeypatch.setattr(Family, name, refuse)
    with pytest.raises(ConfigError, match="has 14930799 terms, more than max_terms 5000000"):
        fam.with_replaced({})
    monkeypatch.undo()
    small = build_kadets(3)
    assert list(small.with_replaced({}).source.ids()) == list(small.term_ids())


# --- fault injection --------------------------------------------------------


def test_with_replaced_overrides_one_term():
    fam = build_kadets(2)
    bad = fam.fn(tid("b", 1, 1, 1)).scale(-1)
    poked = fam.with_replaced({tid("b", 1, 1, 1): bad})
    assert poked.fn(tid("b", 1, 1, 1)) == bad
    assert poked.fn(tid("b", 1, 1, 2)) == fam.fn(tid("b", 1, 1, 2))
    assert fam.fn(tid("b", 1, 1, 1)) != bad
    # a table of every term, with the substitute in place
    assert poked.source.ids() is not None and fam.source is None
    assert list(poked.source.ids()) == list(fam.term_ids())
    shifted = apply_transform(fam, TransformSpec.identity(1))
    poked = shifted.with_replaced({tid("b", 1, 1, 1): bad})
    assert poked.flavor == "transformed" and poked.transform == shifted.transform
    assert poked.fn(tid("a", 2, 2)) == shifted.fn(tid("a", 2, 2))


# --- cube averages and transforms -------------------------------------------


def test_cube_means_projection():
    fam = build_three_kadets(3)
    f21 = fam.fn(tid("f", 2, 1))
    assert tuple(f21.integral(c) for c in f21.domain) == (F(1, 2), 0, 0)
    c = cube_constants((1, 2, 3), {1: F(3), 2: F(-1, 2), 3: F(-1, 2)})
    assert tuple(c.integral(k) for k in c.domain) == (F(3), F(-1, 2), F(-1, 2))


def test_transform_zero_and_identity():
    fam = build_three_kadets(2)
    same = apply_transform(fam, TransformSpec.zero(2))
    for t in fam.term_ids():
        assert same.fn(t) == fam.fn(t)
    doubled = apply_transform(fam, TransformSpec.identity(2))
    shifted = doubled.fn(tid("f", 1, 1))
    assert shifted.evaluate(1, {}) == 2
    assert shifted.moment(1, cube=2) == 0
    g12 = doubled.fn(tid("g", 1, 1, 2))
    base = fam.fn(tid("g", 1, 1, 2))
    assert g12 == base + cube_constants((1, 2, 3), {1: F(-1, 2), 2: F(1, 2), 3: F(1, 2)})


def test_transform_validation():
    fam = build_three_kadets(2)
    with pytest.raises(ConfigError):
        apply_transform(fam, TransformSpec.identity(3))
    with pytest.raises(ConfigError):
        TransformSpec([[1, 0], [1]])
    with pytest.raises(ConfigError):
        TransformSpec([])
    t0 = apply_transform(fam, TransformSpec.zero(2))
    with pytest.raises(StructuralError):
        apply_transform(t0, TransformSpec.zero(2))
    broken = fam.with_replaced(
        {TermId("f", 1, (1,)): cube_constants((1, 2, 3), {2: 1})})
    with pytest.raises(StructuralError):
        apply_transform(broken, TransformSpec.zero(2))


def test_expected_sum_range():
    assert expected_sum_range(build_kadets(1)) == ((F(0),), (F(1),))
    assert expected_sum_range(build_three_kadets(1)) == (
        (0, 0, 0), (1, 0, 0), (1, 1, 1))
    pts = expected_sum_range(build_multipoint(4, 1))
    assert pts == (
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1))
    assert len(set(pts)) == 4
    assert sum(1 for p in pts if p[-1] == 1) == 1


def test_transformed_sum_range():
    fam = build_three_kadets(1)
    assert expected_sum_range(apply_transform(fam, TransformSpec.identity(2))) == (
        (0, 0, 0), (2, 0, 0), (2, 2, 2))
    squash = TransformSpec([[-1, 0], [0, 0]])
    pts = expected_sum_range(apply_transform(fam, squash))
    assert pts == ((0, 0, 0), (0, 0, 0), (0, 1, 1))
    assert len(set(pts)) == 2
