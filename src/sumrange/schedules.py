"""Rearrangement schedules and exact partial-sum traces.

A schedule fixes one traversal order for the truncated term set of a
family.  The convergent ones are organized in blocks: an optional ramp
whose partial sum lands exactly on the chosen limit point, then one
block per head term whose members cancel each other exactly, so the
running sum returns to the limit point at every block boundary.  The
divergent schedule instead pairs each head with child rows one level
down, which makes the running sum sweep away from and back toward a
point outside the attainable set.

A block is a sequence of runs (g, n, prefix): the terms of generation g
at level n whose index starts with `prefix`, in index order, which is
what `Family.section` yields.  A one-term run is a whole index.  A
point block is its head and column members, one run each, then every
later generation under each last member as one prefix run; the ramp is
whole (generation, level) runs.  `Block.ids` and `Schedule.term_ids`
list the term ids the runs stand for.  Traces read the runs through
`section` and build a `TermId` only for a row they write.

Traces record, per step or per block boundary, the exact per-cube
moment of (partial sum - target) as a `Fraction`, plus the number of
boxes in the canonical deviation, which measures how complicated the
partial sum is at that moment.

In steps mode each term is added to the running deviation cube by cube
and every step gets a row.  Only the cubes the term touches are
measured again; every other cube carries its moment and box count over
from the previous row, which is exact, since its deviation is the same
function.  In blocks mode the block's terms go whole
into one `ChunkedSum` over the family's domain, together with the
running deviation; its total is the deviation at the block's end.  The
canonical form is computed cube by cube, so restricting that total to a
cube (once per cube and block) gives the same per-cube function, moment
and box count as steps mode at the block's last term.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .families import (
    MAX_TERMS,
    ConfigError,
    Family,
    StructuralError,
    TermId,
    check_term_budget,
    cube_label,
    expected_sum_range,
)
from .stepfn import ChunkedSum, Rational, as_fraction, cube_constants


Run = tuple[int, int, tuple[int, ...]]   # (g, n, prefix); see the module docstring


class Block(NamedTuple):
    label: str
    level: int | None
    family: Family
    runs: tuple[Run, ...]

    @property
    def ids(self) -> tuple[TermId, ...]:
        """The block's term ids, run by run."""
        fam = self.family
        return tuple(TermId(fam.kinds[g], n, index) for g, n, prefix in self.runs
                     for index in fam.index_tuples(g, n, prefix))


class Schedule:
    """A labeled traversal of a family's terms, grouped into blocks."""

    def __init__(self, label: str, family: Family, target: tuple[Fraction, ...],
                 block_source, term_count: int):
        self.label = label
        self.family = family
        self.target = target
        self._block_source = block_source
        self._term_count = term_count

    def blocks(self) -> Iterator[Block]:
        return self._block_source()

    def term_ids(self) -> Iterator[TermId]:
        for block in self.blocks():
            yield from block.ids

    @property
    def term_count(self) -> int:
        return self._term_count

    def __repr__(self) -> str:
        return (f"Schedule({self.label!r}, {self.family.flavor}, "
                f"terms={self._term_count})")


def _as_target(fam: Family, values: Sequence[Rational]) -> tuple[Fraction, ...]:
    vals = tuple(as_fraction(v) for v in values)
    if len(vals) != len(fam.domain):
        raise ConfigError(
            f"target needs {len(fam.domain)} per-cube values, got {len(vals)}")
    return vals


# --- the convergent point schedules -----------------------------------------


# Named limit points: the name of a point schedule on one structure.
POINT_NAMES = {
    "sigma": ("kadets", 0),
    "tau": ("kadets", 1),
    "p00": ("three-kadets", 0),
    "p10": ("three-kadets", 1),
    "p11": ("three-kadets", 2),
}


def schedule_point(fam: Family, point: int | str) -> Schedule:
    """Blocks that converge to limit point number `point`, or to the
    point a name in `POINT_NAMES` stands for (the schedule then carries
    that name as its label).

    The ramp collects generation e at levels up to point-e; afterwards
    the block of head m at level n climbs through columns up to
    generation `point` and then sweeps the whole subtree below the
    matching group, so each block sums to zero on every cube.
    """
    label = f"point{point}"
    if isinstance(point, str):
        if point not in POINT_NAMES:
            raise ConfigError(f"unknown point name {point!r}; "
                              f"expected one of {sorted(POINT_NAMES)}")
        label, (structure, point) = point, POINT_NAMES[point]
        if fam.structure != structure:
            raise StructuralError(f"{label!r} needs the {structure} structure, "
                                  f"got {fam.structure!r}")
    r = fam.points
    if not 0 <= point <= r - 1:
        raise ConfigError(f"point must lie in 0..{r - 1}, got {point}")
    if fam.depth < point:
        raise ConfigError(
            f"depth {fam.depth} cannot reach point {point}; need depth >= {point}")
    target = expected_sum_range(fam)[point]

    def blocks() -> Iterator[Block]:
        if point >= 1:
            yield Block("ramp", None, fam, tuple((e, lev, ()) for e in range(point)
                                                 for lev in range(1, point - e + 1)))
        for n in range(point + 1, fam.depth + 1):
            for m in range(1, fam.sizes(n) + 1):
                yield Block(f"({n},{m})", n, fam, _point_block(fam, point, n, m))

    count = sum(fam.flat_size(e, lev)
                for e in range(point + 1)
                for lev in range(1, fam.depth - e + 1))
    count += sum(fam.flat_size(g, lev)
                 for g in range(point + 1, r)
                 for lev in range(1, fam.depth - point + 1))
    return Schedule(label, fam, target, blocks, count)


def _point_block(fam: Family, point: int, n: int, m: int) -> tuple[Run, ...]:
    """Head m at level n, the column members of generations 1..point, one
    run each, then every later generation under each last member as one
    prefix run."""
    out = [(0, n, (m,))]
    members: list[tuple[int, ...]] = [(m,)]
    for e in range(1, point + 1):
        lev = n - e
        flats = {fam.flat_index(e - 1, lev + 1, idx) for idx in members}
        members = [idx for idx in fam.index_tuples(e, lev) if idx[-1] in flats]
        out.extend((e, lev, idx) for idx in members)
    lev = n - point
    out.extend((g, lev, group) for group in members for g in range(point + 1, fam.points))
    return tuple(out)


# --- the divergent schedule -------------------------------------------------


def schedule_divergent(fam: Family) -> Schedule:
    """Heads with their child rows, plus the grandchild columns hanging
    under the previous level's rows.  Partial sums cross the gap between
    the head's own contribution and the lagging corrections, so the
    distance to (0, 1, 1) oscillates forever."""
    if fam.structure != "three-kadets":
        raise StructuralError(
            f"the divergent schedule needs the three-kind structure, got {fam.structure!r}")
    if fam.flavor == "transformed":
        raise StructuralError("the divergent schedule runs on untransformed families")
    target = (Fraction(0), Fraction(1), Fraction(1))

    def blocks() -> Iterator[Block]:
        for n in range(1, fam.depth + 1):
            for m in range(1, fam.sizes(n) + 1):
                runs = [(0, n, (m,)), (1, n, (m,))]
                if n >= 2:
                    for j in range(1, fam.sizes(n + 1) + 1):
                        kappa = fam.flat_index(1, n, (m, j))
                        runs.extend((2, n - 1, (mp, jp, kappa))
                                    for mp in range(1, fam.sizes(n - 1) + 1)
                                    for jp in range(1, fam.sizes(n) + 1))
                yield Block(f"({n},{m})", n, fam, tuple(runs))

    count = sum(fam.flat_size(0, lev) + fam.flat_size(1, lev)
                for lev in range(1, fam.depth + 1))
    count += sum(fam.flat_size(2, lev) for lev in range(1, fam.depth))
    return Schedule("divergent", fam, target, blocks, count)


# --- explicit and randomized orders -----------------------------------------


def _validated_full_order(fam: Family, order: Iterable[TermId]) -> tuple[TermId, ...]:
    given = tuple(order)
    seen = set()
    for tid in given:
        if tid in seen:
            raise ConfigError(f"duplicate term {tid} in custom order")
        seen.add(tid)
    wanted = set(fam.term_ids())
    unknown = seen - wanted
    if unknown:
        raise ConfigError(f"term {sorted(unknown)[0]} does not belong to this family")
    missing = wanted - seen
    if missing:
        raise ConfigError(f"custom order misses {len(missing)} terms, "
                          f"first {sorted(missing)[0]}")
    return given


def schedule_custom(fam: Family, order: Iterable[TermId],
                    label: str = "custom", *, max_terms: int = MAX_TERMS) -> Schedule:
    """An explicit order over the full truncation.  The full term set
    sums to zero, so the natural target is the origin.  Checking the
    order lists the family's terms, so a family of more than `max_terms`
    terms is refused first."""
    check_term_budget("family", fam.term_count(), max_terms)
    given = _validated_full_order(fam, order)
    target = tuple(Fraction(0) for _ in fam.domain)
    runs = tuple((fam.generation(tid.kind), tid.level, tid.index) for tid in given)

    def blocks() -> Iterator[Block]:
        yield Block(label, None, fam, runs)

    return Schedule(label, fam, target, blocks, len(given))


def random_schedule(fam: Family, seed: int, *, max_terms: int = MAX_TERMS) -> Schedule:
    """A seeded shuffle of the full truncation."""
    check_term_budget("family", fam.term_count(), max_terms)
    ids = list(fam.term_ids())
    random.Random(seed).shuffle(ids)
    return schedule_custom(fam, ids, label=f"shuffled-{seed}", max_terms=max_terms)


# --- traces -----------------------------------------------------------------


class TraceRow(NamedTuple):
    step: int
    term: TermId
    block: str
    level: int | None
    is_marker: bool
    deviations: tuple[Fraction, ...]
    box_counts: tuple[int, ...]


class Trace:
    """Per-cube deviation history of one schedule run."""

    def __init__(self, schedule: Schedule, target: tuple[Fraction, ...], p: int,
                 record: str, rows: list[TraceRow]):
        self.schedule = schedule
        self.family = schedule.family
        self.target = target
        self.p = p
        self.record = record
        self.rows = rows

    def markers(self) -> list[TraceRow]:
        return [row for row in self.rows if row.is_marker]

    @property
    def final_deviations(self) -> tuple[Fraction, ...]:
        return self.rows[-1].deviations

    def max_marker_deviation(self) -> Fraction:
        worst = Fraction(0)
        for row in self.markers():
            worst = max(worst, *row.deviations)
        return worst

    def max_box_count(self) -> int:
        return max(max(row.box_counts) for row in self.rows)

    def to_csv_lines(self) -> list[str]:
        out = [
            "# deviation_float is advisory; deviation_num/deviation_den are exact",
            "k,term_id,cube,deviation_num,deviation_den,deviation_float,box_count,is_block_marker",
        ]
        cubes = self.family.domain
        for row in self.rows:
            for ci, c in enumerate(cubes):
                d = row.deviations[ci]
                out.append(f"{row.step},{row.term},{cube_label(c)},"
                           f"{d.numerator},{d.denominator},{float(d)!r},"
                           f"{row.box_counts[ci]},{int(row.is_marker)}")
        return out


def run_trace(fam: Family, schedule: Schedule,
              target: Sequence[Rational] | None = None,
              p: int = 1, record: str = "steps", *,
              max_terms: int = MAX_TERMS) -> Trace:
    """Accumulate the schedule exactly, measuring moment-`p` deviations.

    With record="steps" every term gets a row; with record="blocks" the
    partial sum is only canonicalized and measured at block boundaries,
    which keeps very large schedules affordable.  A schedule of more than
    `max_terms` terms is refused before any term is built.
    """
    if schedule.family is not fam:
        raise ConfigError("schedule was built for a different family")
    if record not in ("steps", "blocks"):
        raise ConfigError(f"record must be 'steps' or 'blocks', got {record!r}")
    if not isinstance(p, int) or p < 1:
        raise ConfigError(f"moment order must be a positive integer, got {p!r}")
    check_term_budget(f"schedule {schedule.label}", schedule.term_count, max_terms)
    goal = schedule.target if target is None else _as_target(fam, target)
    cubes = fam.domain
    kinds = fam.kinds
    rows: list[TraceRow] = []
    step = 0

    if record == "steps":
        diffs = {c: cube_constants((c,), {c: -goal[ci]}) for ci, c in enumerate(cubes)}
        index = {c: ci for ci, c in enumerate(cubes)}
        devs = [diffs[c].moment(p) for c in cubes]
        boxes = [diffs[c].box_count() for c in cubes]
        for block in schedule.blocks():
            first = len(rows)
            for g, n, prefix in block.runs:
                for idx, fn in fam.section(g, n, prefix):
                    step += 1
                    for c, part in fn.split(fn.support_cubes()).items():
                        diff = diffs[c] = diffs[c] + part
                        devs[index[c]] = diff.moment(p)
                        boxes[index[c]] = diff.box_count()
                    rows.append(TraceRow(step, TermId(kinds[g], n, idx), block.label,
                                         block.level, False, tuple(devs), tuple(boxes)))
            if len(rows) > first:
                rows[-1] = rows[-1]._replace(is_marker=True)
    else:
        dev = cube_constants(cubes, {c: -goal[ci] for ci, c in enumerate(cubes)})
        for block in schedule.blocks():
            total = ChunkedSum(cubes)
            for g, n, prefix in block.runs:
                for idx, fn in fam.section(g, n, prefix):
                    step += 1
                    total.add(fn)
            total.add(dev)
            dev = total.total()
            per_cube = [dev.restrict(c) for c in cubes]
            rows.append(TraceRow(step, TermId(kinds[g], n, idx), block.label, block.level, True,
                                 tuple(f.moment(p) for f in per_cube),
                                 tuple(f.box_count() for f in per_cube)))
    if not rows:
        raise ConfigError("schedule has no terms")
    return Trace(schedule, goal, p, record, rows)
