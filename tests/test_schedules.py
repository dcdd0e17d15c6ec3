"""Schedule construction and exact trace behavior.

The oracle for block structure is direct summation: a convergent block
must sum to the zero function on every cube, and the ramp must land
exactly on the advertised limit point.  The oracle for the divergent
checkpoints is the closed form 2*t*(1-t) with t = m/|M_n|, derived by
integrating the partial sum against the target by hand.
"""

import hashlib
from fractions import Fraction

import pytest

from sumrange.families import (
    ConfigError,
    StructuralError,
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
    expected_sum_range,
)
from sumrange.schedules import (
    run_trace,
    random_schedule,
    schedule_custom,
    schedule_divergent,
    schedule_point,
)
from sumrange.stepfn import cube_constants, sum_functions


def ids_of(sch):
    return list(sch.term_ids())


def block_sum(fam, block):
    return sum_functions([fam.fn(tid) for tid in block.ids], domain=fam.domain)


def marker(trace, block):
    """The marker row of `block` in `trace`."""
    return next(row for row in trace.markers() if row.block == block)


def test_sigma_order_frozen():
    sch = schedule_point(build_kadets(3), "sigma")
    first = [str(t) for t in ids_of(sch)[:4]]
    assert first == ["a^1(1)", "b^1(1,1)", "b^1(1,2)", "a^2(1)"]
    assert sch.label == "sigma"
    assert sch.term_count == build_kadets(3).term_count()


def test_tau_coverage():
    fam = build_kadets(3)
    sch = schedule_point(fam, "tau")
    ids = ids_of(sch)
    assert len(ids) == sch.term_count == 14
    wanted = {tid for tid in fam.term_ids()
              if tid.kind == "a" or tid.level <= 2}
    assert set(ids) == wanted
    blocks = list(sch.blocks())
    assert blocks[0].label == "ramp"
    assert [str(t) for t in blocks[0].ids] == ["a^1(1)"]
    # each later block is one head plus the column that cancels it
    assert [str(t) for t in blocks[1].ids] == ["a^2(1)", "b^1(1,1)"]


_THREE = {"p00": 0, "p10": 1, "p11": 2}


def test_point_blocks_sum_to_zero():
    fam = build_three_kadets(3)
    for name in ("p00", "p10", "p11"):
        sch = schedule_point(fam, name)
        blocks = list(sch.blocks())
        start = 0
        if blocks[0].label == "ramp":
            ramp_total = block_sum(fam, blocks[0])
            point = expected_sum_range(fam)[_THREE[name]]
            want = cube_constants(
                fam.domain, {c: point[ci] for ci, c in enumerate(fam.domain)})
            assert ramp_total == want
            start = 1
        for block in blocks[start:]:
            assert block_sum(fam, block).box_count() == 0


def test_p10_block_structure_frozen():
    fam = build_three_kadets(3)
    sch = schedule_point(fam, "p10")
    blocks = {b.label: b for b in sch.blocks()}
    got = [str(t) for t in blocks["(2,1)"].ids]
    assert got == ["f^2(1)", "g^1(1,1)"] + [f"h^1(1,1,{k})" for k in range(1, 7)]


def test_point_coverage_partition():
    # every term is used at most once, and exactly the advertised levels
    fam = build_three_kadets(3)
    for point in range(3):
        sch = schedule_point(fam, point)
        ids = ids_of(sch)
        assert len(ids) == len(set(ids)) == sch.term_count
        for g, kind in enumerate(fam.kinds):
            top = fam.depth - (g if g <= point else point)
            got = {t.level for t in ids if t.kind == kind}
            assert got == set(range(1, top + 1))


def test_sigma_trace_markers_zero():
    fam = build_kadets(4)
    sch = schedule_point(fam, "sigma")
    trace = run_trace(fam, sch)
    assert len(trace.rows) == sch.term_count
    for row in trace.markers():
        assert row.deviations == (Fraction(0),)
    bound_ok = [max(row.deviations) <= Fraction(2, row.level)
                for row in trace.rows if row.level is not None]
    assert all(bound_ok)
    assert trace.rows[0].deviations == (Fraction(1),)  # a^1(1) is the constant 1


def test_tau_trace_hits_target_after_ramp():
    fam = build_kadets(4)
    trace = run_trace(fam, schedule_point(fam, "tau"))
    ramp_rows = [row for row in trace.rows if row.block == "ramp"]
    assert ramp_rows[-1].is_marker and ramp_rows[-1].deviations == (Fraction(0),)
    assert trace.max_marker_deviation() == 0
    assert trace.final_deviations == (Fraction(0),)


def test_three_point_traces():
    fam = build_three_kadets(3)
    zero = (Fraction(0),) * 3
    for name in ("p00", "p10", "p11"):
        trace = run_trace(fam, schedule_point(fam, name))
        assert trace.max_marker_deviation() == 0
        assert trace.final_deviations == zero
        for row in trace.rows:
            if row.level is not None:
                assert max(row.deviations) <= Fraction(2, row.level)


def test_divergent_checkpoints_match_formula():
    fam = build_three_kadets(4)
    trace = run_trace(fam, schedule_divergent(fam))
    for n in range(1, 5):
        for m in range(1, n + 1):
            row = marker(trace, f"({n},{m})")
            theta = Fraction(m, n)
            assert row.deviations[0] == 0
            assert row.deviations[1] == 2 * theta * (1 - theta)
            assert row.deviations[2] == 0
    assert marker(trace, "(4,2)").deviations[1] == Fraction(1, 2)


def test_divergent_counts_and_guard():
    fam = build_three_kadets(3)
    sch = schedule_divergent(fam)
    ids = ids_of(sch)
    assert len(ids) == len(set(ids)) == sch.term_count
    by_kind = {k: {t.level for t in ids if t.kind == k} for k in "fgh"}
    assert by_kind == {"f": {1, 2, 3}, "g": {1, 2, 3}, "h": {1, 2}}
    with pytest.raises(StructuralError):
        schedule_divergent(build_kadets(3))


def test_blocks_mode_matches_steps_mode():
    fam = build_three_kadets(2)
    sch = schedule_point(fam, "p11")
    by_steps = run_trace(fam, sch, record="steps")
    by_blocks = run_trace(fam, sch, record="blocks")
    markers = by_steps.markers()
    assert len(markers) == len(by_blocks.rows)
    for a, b in zip(markers, by_blocks.rows):
        assert (a.step, a.term, a.block, a.deviations, a.box_counts) == \
            (b.step, b.term, b.block, b.deviations, b.box_counts)


def test_blocks_markers_equal_steps_markers():
    fam = build_three_kadets(3)
    for sch in [schedule_point(fam, name) for name in ("p00", "p10", "p11")] + [
            schedule_divergent(fam)]:
        by_blocks = run_trace(fam, sch, record="blocks")
        assert by_blocks.rows == by_blocks.markers()
        assert by_blocks.rows == run_trace(fam, sch, record="steps").markers(), sch.label


def digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


# sha256 of to_csv_lines() of blocks traces, pinned before blocks mode
# summed whole terms.  Point 3 needs depth 3, hence the small-sized
# multipoint(4, 3), whose size-1 first level also drops a coordinate.
BLOCKS_GOLDEN = {
    ("multipoint(4, 2)", 0): "0a35e6b97ce4775ea89da53bbb1861ef5017d24338b96cf60dc49f315e705959",
    ("multipoint(4, 2)", 1): "3f0354c19d72465ecb2192aa3ed9b686bab17c51a7daf77b4006f38f85d7726e",
    ("multipoint(4, 2)", 2): "4da72d0a93451a79e04cd35a11ae495116b585c8e939e9695202d0cad4e0f2c9",
    ("multipoint(4, 3, sizes)", 0):
        "1bd888e5fc7ae4a74dd04fb75653abf70de7839720754aea9b42fc906a448865",
    ("multipoint(4, 3, sizes)", 1):
        "15c5cc73f6124d37c7c69ee4cc41d630ae861d2d16491cfe92b6b1d1200d1c90",
    ("multipoint(4, 3, sizes)", 2):
        "3ae6aba0b399a6c630e87475c0c56f3bb107ff593ecefdc98fa975102d8df669",
    ("multipoint(4, 3, sizes)", 3):
        "a6200a2d9ac6a2894f3236d41243025905c049cd82c1151fd93c0d9a5fddb3f5",
    ("three-kadets(4)", "p00"): "3e60f61679d949124af2f805f9e5bbb4db9eb017413a5171c1016f62057eea2b",
    ("three-kadets(4)", "p10"): "03b2976b01fe6d4bbcacae569ae005d2fbaaea684055cc7860509fbac41694ba",
    ("three-kadets(4)", "p11"): "dc2eaad2bc4384f58c1c1c9fda8d99eb705c1e0ec7a496bec9e6545f0c2c98b4",
}


def test_blocks_traces_are_pinned():
    families = {
        "multipoint(4, 2)": build_multipoint(4, 2),
        "multipoint(4, 3, sizes)": build_multipoint(4, 3, sizes=(1, 2, 2, 2, 2, 2)),
        "three-kadets(4)": build_three_kadets(4),
    }
    for (name, point), want in BLOCKS_GOLDEN.items():
        fam = families[name]
        trace = run_trace(fam, schedule_point(fam, point), record="blocks")
        assert digest(trace.to_csv_lines()) == want, (name, point)


def test_point_blocks_are_runs_and_blocks_traces_build_one_id_per_row(monkeypatch):
    # a point block is its head and column members, then prefix runs of the
    # later generations; the blocks trace names only each row's last term
    import sumrange.schedules as schedules

    fam = build_multipoint(4, 2)
    blocks = {b.label: b for b in schedule_point(fam, 1).blocks()}
    assert blocks["ramp"].runs == ((0, 1, ()),)
    assert blocks["(2,1)"].runs == ((0, 2, (1,)), (1, 1, (1, 1)), (2, 1, (1, 1)), (3, 1, (1, 1)))
    assert blocks["(2,1)"].ids[:3] == (TermId("d0", 2, (1,)), TermId("d1", 1, (1, 1)),
                                       TermId("d2", 1, (1, 1, 1)))
    made = []
    monkeypatch.setattr(schedules, "TermId", lambda *a: made.append(a) or TermId(*a))
    for point in range(3):  # depth 2 reaches points 0..2
        sch = schedule_point(fam, point)
        assert sum(len(b.runs) for b in sch.blocks()) < sch.term_count
        assert made == []
        trace = run_trace(fam, sch, record="blocks")
        assert len(made) == len(trace.rows)
        made.clear()


def test_permutation_invariance():
    fam = build_three_kadets(2)
    lex = schedule_custom(fam, fam.term_ids())
    shuffled = random_schedule(fam, seed=11)
    assert sorted(ids_of(lex)) == sorted(ids_of(shuffled))
    a = run_trace(fam, lex).final_deviations
    b = run_trace(fam, shuffled).final_deviations
    assert a == b == (Fraction(0),) * 3


def test_custom_validation():
    fam = build_kadets(2)
    ids = list(fam.term_ids())
    with pytest.raises(ConfigError):
        schedule_custom(fam, ids + [ids[0]])
    with pytest.raises(ConfigError):
        schedule_custom(fam, ids[:-1])
    with pytest.raises(ConfigError):
        schedule_custom(fam, ids[:-1] + [TermId("a", 9, (1,))])


def test_schedule_guards():
    fam = build_kadets(2)
    with pytest.raises(StructuralError):
        schedule_point(build_three_kadets(2), "sigma")
    with pytest.raises(StructuralError):
        schedule_point(fam, "p00")
    with pytest.raises(ConfigError):
        schedule_point(fam, 5)
    with pytest.raises(ConfigError):
        schedule_point(build_kadets(1), 2)
    with pytest.raises(ConfigError):
        schedule_point(build_three_kadets(2), "p12")
    with pytest.raises(ConfigError):
        run_trace(fam, schedule_point(fam, "sigma"), record="rows")
    with pytest.raises(ConfigError):
        run_trace(fam, schedule_point(fam, "sigma"), p=0)
    with pytest.raises(ConfigError):
        run_trace(fam, schedule_point(fam, "sigma"), target=[1, 2, 3])


def test_higher_moments_never_exceed_first():
    fam = build_kadets(4)
    sch = schedule_point(fam, "sigma")
    base = run_trace(fam, sch, p=1)
    for p in (2, 3):
        trace = run_trace(fam, sch, p=p)
        for low, high in zip(trace.rows, base.rows):
            assert all(a <= b for a, b in zip(low.deviations, high.deviations))


def test_transformed_schedule_reaches_shifted_point():
    base = build_three_kadets(2)
    fam = apply_transform(base, TransformSpec.identity(2))
    for name in ("p00", "p10", "p11"):
        sch = schedule_point(fam, name)
        trace = run_trace(fam, sch, record="blocks")
        assert trace.final_deviations == (Fraction(0),) * 3
        assert sch.target == expected_sum_range(fam)[_THREE[name]]


def test_multipoint_schedules():
    fam = build_multipoint(4, 2)
    domain_zero = (Fraction(0),) * len(fam.domain)
    for point in range(4):
        if point > fam.depth:
            continue
        sch = schedule_point(fam, point)
        trace = run_trace(fam, sch, record="blocks")
        assert trace.final_deviations == domain_zero
        assert trace.max_marker_deviation() == 0


def test_csv_output():
    fam = build_kadets(2)
    trace = run_trace(fam, schedule_point(fam, "sigma"))
    lines = trace.to_csv_lines()
    assert lines[0].startswith("#")
    assert lines[1] == ("k,term_id,cube,deviation_num,deviation_den,"
                        "deviation_float,box_count,is_block_marker")
    assert lines[2] == "1,a^1(1),Q1,1,1,1.0,1,0"
    assert lines[2:] == trace.to_csv_lines()[2:]  # deterministic
    assert any(line.endswith(",1") for line in lines[2:])
