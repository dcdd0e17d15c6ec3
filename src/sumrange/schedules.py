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
`Family.parts` (steps) or `Family.section_sum` (blocks) and build a
`TermId` only for a row that is read or written.

Traces record, per step or per block boundary, the exact per-cube
moment of (partial sum - target) as a `Fraction`, plus the number of
boxes in the canonical deviation, which measures how complicated the
partial sum is at that moment.

In steps mode the terms come cut by cube from `Family.parts`, each part
is added to its cube's running deviation, and every step gets a row.  A
formula term's part is one box, which `StepFunction.add` inserts into
the deviation's span lists.  Only the cubes the term touches are
measured again; every other cube carries its moment and box count over
from the previous row, which is exact, since its deviation is the same
function.  In blocks mode each run comes summed from `section_sum`, with
its term count and last index: a formula family sums a run in closed
form from its plan, one outer index at a time, and builds none of its
terms; a term source sums the run's terms one by one.  The runs' sums go
into one `ChunkedSum` over the family's domain, together with the
running deviation; its total is the deviation at the block's end.  The
canonical form is computed cube by cube and depends only on the
function, so the total's moment and box count on each cube are those
of steps mode at the block's last term.

A `Trace` is held by column, in both modes.  Each row keeps its step,
the generation and level of its term in `array('q')`s, the index tuple
that `section` yielded, and its block number; each cube keeps a list of
deviations, into which a carried-over cube appends the same `Fraction`
again, and an `array('q')` of box counts.  `Trace.rows` is a read-only
sequence that builds each `TraceRow` when it is read, and
`to_csv_lines` yields its lines from the columns, so a trace is written
without a second copy of it.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

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


class TraceRows(Sequence):
    """The rows of a trace, read-only.  Indexing and iteration build each
    `TraceRow` from the trace's columns when asked and keep none."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._steps)

    def __getitem__(self, i: int | slice) -> TraceRow | list[TraceRow]:
        idx = range(len(self))[i]
        if isinstance(idx, range):
            return [self._trace._row(j) for j in idx]
        return self._trace._row(idx)

    def __iter__(self) -> Iterator[TraceRow]:
        return map(self._trace._row, range(len(self)))


class Trace:
    """Per-cube deviation history of one schedule run, held by column:
    row i is step `_steps[i]`, the term of generation `_gens[i]` at level
    `_levels[i]` with index `_indices[i]`, in block `_block_of[i]` (a
    number into `_blocks`, of (label, level) pairs); its deviation and box
    count on cube number ci are `_deviations[ci][i]` and
    `_box_counts[ci][i]`.  A row is its block's marker when it is the
    block's last."""

    def __init__(self, schedule: Schedule, target: tuple[Fraction, ...], p: int,
                 record: str):
        self.schedule = schedule
        self.family = schedule.family
        self.target = target
        self.p = p
        self.record = record
        self._steps = array("q")
        self._gens = array("q")
        self._levels = array("q")
        self._indices: list[tuple[int, ...]] = []
        self._block_of = array("q")
        self._blocks: list[tuple[str, int | None]] = []
        cubes = len(self.family.domain)
        self._deviations: list[list[Fraction]] = [[] for _ in range(cubes)]
        self._box_counts = [array("q") for _ in range(cubes)]

    def _append(self, step: int, g: int, n: int, index: tuple[int, ...],
                deviations: Sequence[Fraction], box_counts: Sequence[int]) -> None:
        """One row, in the block after the last closed one."""
        self._steps.append(step)
        self._gens.append(g)
        self._levels.append(n)
        self._indices.append(index)
        self._block_of.append(len(self._blocks))
        for column, d in zip(self._deviations, deviations):
            column.append(d)
        for column, b in zip(self._box_counts, box_counts):
            column.append(b)

    def _close_block(self, block: Block) -> None:
        """Name the rows appended since the last closed block, if any."""
        if self._block_of and self._block_of[-1] == len(self._blocks):
            self._blocks.append((block.label, block.level))

    def _is_marker(self, i: int) -> bool:
        block_of = self._block_of
        return i + 1 == len(block_of) or block_of[i + 1] != block_of[i]

    def _row(self, i: int) -> TraceRow:
        label, level = self._blocks[self._block_of[i]]
        term = TermId(self.family.kinds[self._gens[i]], self._levels[i], self._indices[i])
        return TraceRow(self._steps[i], term, label, level, self._is_marker(i),
                        tuple(column[i] for column in self._deviations),
                        tuple(column[i] for column in self._box_counts))

    @property
    def rows(self) -> TraceRows:
        return TraceRows(self)

    def _marker_indices(self) -> Iterator[int]:
        return filter(self._is_marker, range(len(self._steps)))

    def markers(self) -> list[TraceRow]:
        return [self._row(i) for i in self._marker_indices()]

    @property
    def final_deviations(self) -> tuple[Fraction, ...]:
        return tuple(column[-1] for column in self._deviations)

    def max_marker_deviation(self) -> Fraction:
        worst = Fraction(0)
        for i in self._marker_indices():
            worst = max(worst, *(column[i] for column in self._deviations))
        return worst

    def max_box_count(self) -> int:
        return max(max(column) for column in self._box_counts)

    def to_csv_lines(self) -> Iterator[str]:
        """The trace as CSV lines, without line ends, made one at a time
        from the columns.  A row's `step,term,` text is formatted once, and
        a cube's deviation text once for each new deviation object, so a
        carried-over cube costs one line join."""
        yield "# deviation_float is advisory; deviation_num/deviation_den are exact"
        yield "k,term_id,cube,deviation_num,deviation_den,deviation_float,box_count,is_block_marker"
        kinds = self.family.kinds
        cubes = [(cube_label(c), devs, boxes) for c, devs, boxes
                 in zip(self.family.domain, self._deviations, self._box_counts)]
        shown: list[Fraction | None] = [None] * len(cubes)
        texts = [""] * len(cubes)
        for i, (step, g, n, index) in enumerate(
                zip(self._steps, self._gens, self._levels, self._indices)):
            head = f"{step},{TermId(kinds[g], n, index)},"
            tail = ",1" if self._is_marker(i) else ",0"
            for ci, (label, devs, boxes) in enumerate(cubes):
                d = devs[i]
                if d is not shown[ci]:
                    shown[ci] = d
                    texts[ci] = f"{label},{d.numerator},{d.denominator},{float(d)!r},"
                yield f"{head}{texts[ci]}{boxes[i]}{tail}"


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
    trace = Trace(schedule, goal, p, record)
    step = 0

    if record == "steps":
        diffs = {c: cube_constants((c,), {c: -goal[ci]}) for ci, c in enumerate(cubes)}
        index = {c: ci for ci, c in enumerate(cubes)}
        devs = [diffs[c].moment(p) for c in cubes]
        boxes = [diffs[c].box_count() for c in cubes]
        for block in schedule.blocks():
            for g, n, prefix in block.runs:
                for idx, parts, _ in fam.parts(g, n, prefix):
                    step += 1
                    for c, part in parts.items():
                        diff = diffs[c] = diffs[c] + part
                        devs[index[c]] = diff.moment(p)
                        boxes[index[c]] = diff.box_count()
                    trace._append(step, g, n, idx, devs, boxes)
            trace._close_block(block)
    else:
        dev = cube_constants(cubes, {c: -goal[ci] for ci, c in enumerate(cubes)})
        for block in schedule.blocks():
            total = ChunkedSum(cubes)
            for g, n, prefix in block.runs:
                run, count, idx = fam.section_sum(g, n, prefix)
                step += count
                total.add(run)
            total.add(dev)
            dev = total.total()
            trace._append(step, g, n, idx, [dev.moment(p, c) for c in cubes],
                          [dev.box_count(c) for c in cubes])
            trace._close_block(block)
    if not trace._steps:
        raise ConfigError("schedule has no terms")
    return trace
