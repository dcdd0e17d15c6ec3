"""Families of step functions whose rearranged series reach finitely many limits.

Every family here is an instance of one generation-chain model.  A family
with r generations lives on the union of cubes 1..2r-3 and contains, for
each level n up to the truncation depth, terms of generations 0..r-1:

* generation 0: the indicator of one cell of an equal partition of
  coordinate n on cube 1 (partition size |M_n|, default n);
* generation g >= 1: minus the product of two consecutive generation-(g-1)
  "cell indicators" (a two-coordinate box on cube 2g-1), plus a small
  constant correction on cube 2g-2 for g >= 2, plus, for g <= r-2, two
  positive pieces on cubes 2g and 2g+1 that make the next product step
  possible.

Index tuples flatten level by level: a generation-g index (i0, ..., ig) at
level n corresponds to cell (flat(i0..i_{g-1}) - 1) * s' + ig of a finer
partition, where s' is the generation-(g-1) cell count at level n+1.  All
row, column and cross-level cancellations used by the schedules are exact
consequences of these formulas.

Exactly: write s_h(n) for the generation-h cell count at level n (s_0(n)
= |M_n|, s_h(n) = s_{h-1}(n) * s_{h-1}(n+1)), F_k for the flat index of
the prefix (i0..ik) and C(i, s) for the cell [(i-1)/s, i/s).  Generation 0
is 1 on cube 1 where x_n is in C(i0, s_0(n)).  Generation g >= 1 is

* -1 on cube 2g-1 where x_n is in C(F_{g-1}, s_{g-1}(n)) and x_{n+1} in
  C(ig, s_{g-1}(n+1));
* for g >= 2, -1/(s_{g-1}(n+1) * s_{g-2}(n+1)) on cube 2g-2 where x_n is
  in C(F_{g-2}, s_{g-2}(n));
* for g <= r-2, 1/s_{g-1}(n+1) on cube 2g where x_n is in
  C(F_{g-1}, s_{g-1}(n)), and 1 on cube 2g+1 where x_n is in C(F_g, s_g(n)).

Term generation.  Everything above except the index tuple depends on
(g, n) alone, so a family keeps one plan per (g, n): the index ranges,
which are also the strides of the flat indices; the terms' lattice (the
lcm of the cell counts on each coordinate, and one value denominator);
and the pieces sorted by cube, each with its integer value on that
lattice and, per coordinate, which of F_0..F_g (or ig) it reads and the
factor from that cell count to the coordinate's denominator.  A piece
is the lattice box [(F-1)*factor, F*factor) on each coordinate it
reads.  One box per cube is canonical already, so the entries go into
the `StepFunction` unswept, on the plan's shared lattice.

Bulk readers take whole sections: `section(g, n, prefix)` yields the
terms of (g, n) whose index starts with `prefix`, in index order.  The
plan lookup and the check of the prefix happen once per section.  The
flat index F_{g-1} of the terms under a prefix runs over consecutive
values, so a prefix odometer steps it in an outer loop, derives
F_0..F_{g-2} and the index from it, and builds the boxes that read
them once; its inner loop steps ig and builds only the boxes that read
F_g or ig.  A whole index is a one-term section, and `fn(tid)` reads
one term that way.  A family with a term source asks it for the
section once the level and the prefix pass those checks: `Shifted`
shifts the section of a base, `TermTable` looks the terms up in index
order, and `serialize` has a source that parses them from a family file.

`parts(g, n, prefix)` is a section with each term also cut by cube,
each source cutting its own way: the formulas give one part per piece
of the plan, a part the odometer carried over from the term before
being the same object; a family file gives one per record's cube; the
`Shifted` and `TermTable` sources split each term.  `section` itself
builds no parts.

`section_sum(g, n, prefix)` is the sum of a section, with its term count
and last index.  The formulas give it in closed form from the plan, one
outer step of the odometer at a time: the inner loop's terms tile one
box per piece, so no term is built (the proof is in its docstring).  A
term source's section is summed term by term, so a replaced or shifted
term is in the sum as it is in the section.

Shape.  A family's shape follows from r and whether it carries an affine
transform, and `Family` alone derives it.  The classic two-kind family
(structure "kadets", kinds "a", "b", one cube, sum range {0, 1}) is the
r=2 case; the three-kind family (structure "three-kadets", kinds "f",
"g", "h", three cubes, three limits) is r=3; any other r is structure
"multipoint" with kinds "d0".."d{r-1}" and r limit points.  The flavor is
the structure, or "transformed" for a family shifted by an affine
transform acting on cube-wise averages.
"""

from __future__ import annotations

from itertools import product, repeat
import re
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .stepfn import ChunkedSum, StepFunction, _canonical, cube_constants


class ConfigError(ValueError):
    """Invalid build parameters (depth, sizes, matrix dimensions)."""


class StructuralError(ValueError):
    """A family lacks the structure an operation requires."""


# The largest number of terms an operation enumerates unless told otherwise;
# above criterion 8's 919,118, far below the 2.5e9 of multipoint(5, 2).
MAX_TERMS = 5_000_000


def check_term_budget(what: str, count: int, max_terms: int) -> None:
    """Refuse work over `count` terms when that is more than `max_terms`.
    Callers pass a closed-form count, so nothing is enumerated first."""
    if count > max_terms:
        raise ConfigError(f"{what} has {count} terms, more than max_terms {max_terms}")


# --- partition sizes --------------------------------------------------------


class IndexSizes:
    """Per-level partition sizes |M_n|.

    Accepts nothing (default |M_n| = n) or an explicit 1-indexed sequence.
    Which sizes a family can use is `size_problem`'s rule.
    """

    def __init__(self, spec: Sequence[int] | None = None):
        if spec is not None:
            spec = tuple(spec)
            for v in spec:
                # int(v) would truncate 2.5 and take True as 1
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ConfigError(f"partition sizes must be integers, got {v!r}")
        self._values = spec

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ConfigError(f"levels start at 1, got {n}")
        if self._values is None:
            return n
        if n > len(self._values):
            raise ConfigError(
                f"sizes defined only through level {len(self._values)}, need level {n}")
        return self._values[n - 1]

    def spec_list(self, last_level: int) -> list[int]:
        return [self(n) for n in range(1, last_level + 1)]


def size_problem(sizes: IndexSizes, depth: int, points: int) -> str | None:
    """Why `sizes` cannot carry a family of this depth and generation count,
    or None if they can.  Building a family and verifying it both apply
    this one rule.

    Terms of generation g at level n read sizes up to level n+g, so the
    construction reads levels 1..depth+points-1, where sizes must be
    positive and nondecreasing.  They must also grow over levels
    1..depth+1, the levels whose heads the verifier pairs with the heads
    one level down: a constant run has none of the cancellation geometry
    the schedules rely on.
    """
    vals = sizes.spec_list(depth + points - 1)
    if any(v < 1 for v in vals):
        return f"partition sizes must be positive, got {vals}"
    if any(b < a for a, b in zip(vals, vals[1:])):
        return f"partition sizes must be nondecreasing, got {vals}"
    if vals[depth] == vals[0]:
        return (f"partition sizes must grow over levels 1..{depth + 1}, "
                f"got constant {vals[0]} in {vals}")
    return None


# --- term identifiers -------------------------------------------------------


class TermId(NamedTuple):
    """One term of a family: kind, level, and index tuple."""

    kind: str
    level: int
    index: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}^{self.level}({','.join(map(str, self.index))})"


_TERM_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\^(\d+)\((\d+(?:,\d+)*)\)$")


def parse_term_id(text: str) -> TermId:
    m = _TERM_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad term id {text!r}; expected like 'b^2(1,3)'")
    kind, level, idx = m.groups()
    return TermId(kind, int(level), tuple(int(p) for p in idx.split(",")))


def cube_label(cube: int) -> str:
    return f"Q{cube}"


def parse_cube_label(text: str) -> int:
    m = re.match(r"^Q(\d+)$", text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"bad cube label {text!r}")
    return int(m.group(1))


# --- the family -------------------------------------------------------------

# A term of a section with its parts: (index, {cube: part}, term)
Parted = tuple[tuple[int, ...], dict[int, StepFunction], StepFunction]


class _Plan(NamedTuple):
    """The terms of one generation at one level, less their index.

    `ranges` are the index ranges; for k >= 1, ranges[k] is also the
    stride by which component k refines the prefix flat index.  Terms
    share the lattice `(dens, vden)`.  `parts` are sorted by cube, as
    (cube, ((coordinate, read, scale), ...), value): the box constrains
    the coordinate to [(r-1)*scale, r*scale) over its denominator, where r
    is the prefix flat index number `read` of the term's index (-1: the
    last component), and carries value/vden.
    """

    ranges: tuple[int, ...]
    dens: dict[int, int]
    vden: int
    parts: tuple[tuple[int, tuple[tuple[int, int, int], ...], int], ...]


# The chains with a name of their own, by generation count, and the kinds
# of their terms; every other chain is "multipoint", with kinds d0, d1, ...
_NAMED = {2: ("kadets", ("a", "b")), 3: ("three-kadets", ("f", "g", "h"))}


class Family:
    """An immutable indexed collection of step functions.

    Its shape follows from its generation count `points` alone: the cubes
    1..2*points-3 (`domain`), the `structure` ("kadets" for 2 points,
    "three-kadets" for 3, "multipoint" otherwise) and the `kinds` of its
    terms.  The `flavor` is "transformed" when the family carries a
    transform, and its structure otherwise.

    Terms come from the generation formulas on demand, or from a term
    `source`: a `Shifted` base (`apply_transform`), a `TermTable`
    (`load_family`, `with_replaced`) or the file of
    `serialize.sectioned_family`.  A source answers `section(fam, g, n,
    prefix)` for a checked level and prefix, and `ids()`: the ids it
    holds, unchecked against `term_ids()`, or None when they are proven.
    """

    def __init__(self, points: int, depth: int,
                 sizes: IndexSizes | Sequence[int] | None = None, *,
                 source=None,
                 transform: "TransformSpec | None" = None):
        if points < 2:
            raise ConfigError(f"point count must be at least 2, got {points}")
        if depth < 1:
            raise ConfigError(f"depth must be at least 1, got {depth}")
        self.points = points
        self.depth = depth
        self.sizes = sizes if isinstance(sizes, IndexSizes) else IndexSizes(sizes)
        problem = size_problem(self.sizes, depth, points)
        if problem is not None:
            raise ConfigError(problem)
        self.domain = tuple(range(1, 2 * points - 2))
        self._structure, self._kinds = _NAMED.get(points) or (
            "multipoint", tuple(f"d{g}" for g in range(points)))
        if transform is not None and transform.dim != points - 1:
            raise ConfigError(f"matrix dimension {transform.dim} != "
                              f"{points - 1} independent cube values")
        self.source = source
        self._transform = transform
        self._flat_sizes: dict[tuple[int, int], int] = {}
        self._plans: dict[tuple[int, int], _Plan] = {}

    # --- shape ---

    @property
    def structure(self) -> str:
        """The underlying construction, ignoring an applied transform."""
        return self._structure

    @property
    def flavor(self) -> str:
        return "transformed" if self._transform is not None else self._structure

    @property
    def kinds(self) -> tuple[str, ...]:
        return self._kinds

    @property
    def transform(self) -> "TransformSpec | None":
        return self._transform

    def generation(self, kind: str) -> int:
        try:
            return self._kinds.index(kind)
        except ValueError:
            raise KeyError(f"unknown kind {kind!r}; family has {self._kinds}") from None

    def flat_size(self, g: int, n: int) -> int:
        """Cell count of the generation-g partition at level n."""
        got = self._flat_sizes.get((g, n))
        if got is None:
            if g == 0:
                got = self.sizes(n)
            else:
                got = self.flat_size(g - 1, n) * self.flat_size(g - 1, n + 1)
            self._flat_sizes[g, n] = got
        return got

    def flat_index(self, g: int, n: int, index: tuple[int, ...]) -> int:
        """Position of a generation-g index tuple in its flat partition (1-based)."""
        if len(index) != g + 1:
            raise ValueError(f"generation {g} index needs {g + 1} components, got {index}")
        flat = index[0]
        for i in range(1, g + 1):
            flat = (flat - 1) * self.flat_size(i - 1, n + 1) + index[i]
        return flat

    def index_ranges(self, g: int, n: int) -> tuple[int, ...]:
        """Maximum of each index component for generation g at level n."""
        if g == 0:
            return (self.sizes(n),)
        out = [self.sizes(n), self.sizes(n + 1)]
        for i in range(2, g + 1):
            out.append(self.flat_size(i - 1, n + 1))
        return tuple(out)

    def index_tuples(self, g: int, n: int, prefix: tuple[int, ...] = ()
                     ) -> Iterator[tuple[int, ...]]:
        """The index tuples of generation g at level n that start with
        `prefix`, in order; the prefix is not checked."""
        ranges = self.index_ranges(g, n)[len(prefix):]
        return product(*[(i,) for i in prefix], *[range(1, top + 1) for top in ranges])

    def term_count(self) -> int:
        return sum(self.flat_size(g, n)
                   for n in range(1, self.depth + 1) for g in range(self.points))

    def term_ids(self) -> Iterator[TermId]:
        """All term ids in canonical order: level, then kind, then index."""
        for n in range(1, self.depth + 1):
            for g, kind in enumerate(self._kinds):
                for idx in self.index_tuples(g, n):
                    yield TermId(kind, n, idx)

    # --- term functions ---

    def _new_plan(self, g: int, n: int) -> _Plan:
        """Build and keep the plan of the terms of generation g at level n."""
        fs = self.flat_size
        # pieces as (cube, ((coordinate, read, cell count), ...), value
        # numerator, value denominator); read k >= 0 is the flat index of
        # the prefix (i0..ik), read -1 the last component ig
        parts = []
        if g == 0:
            parts.append((1, ((n, 0, fs(0, n)),), 1, 1))
        else:
            parts.append((2 * g - 1, ((n, g - 1, fs(g - 1, n)), (n + 1, -1, fs(g - 1, n + 1))),
                          -1, 1))
            if g >= 2:
                parts.append((2 * g - 2, ((n, g - 2, fs(g - 2, n)),),
                              -1, fs(g - 1, n + 1) * fs(g - 2, n + 1)))
        if 1 <= g <= self.points - 2:
            parts.append((2 * g, ((n, g - 1, fs(g - 1, n)),), 1, fs(g - 1, n + 1)))
            parts.append((2 * g + 1, ((n, g, fs(g, n)),), 1, 1))
        parts.sort(key=lambda part: part[0])
        # cell i of an equal partition into s cells is [i-1, i) over s; a
        # partition into one cell constrains nothing
        dens: dict[int, int] = {}
        for _, cells, _, _ in parts:
            for coord, _, size in cells:
                if size > 1:
                    dens[coord] = lcm(dens.get(coord, 1), size)
        vden = lcm(*(den for _, _, _, den in parts))
        plan = self._plans[g, n] = _Plan(
            self.index_ranges(g, n), dens, vden,
            tuple((cube, tuple((coord, read, dens[coord] // size)
                               for coord, read, size in cells if size > 1),
                   num * (vden // den))
                  for cube, cells, num, den in parts))
        return plan

    def _prefix_reads(self, g: int, n: int, prefix: tuple[int, ...]) -> tuple[_Plan, list[int]]:
        """The plan of (g, n) and the flat indices F_0.. of `prefix`, as
        `flat_index` gives them.  KeyError for a prefix outside the plan's
        ranges."""
        if not 0 <= g < self.points:
            raise KeyError(f"generation {g} outside 0..{self.points - 1}")
        plan = self._plans.get((g, n)) or self._new_plan(g, n)
        ranges = plan.ranges
        if len(prefix) <= len(ranges):
            reads = []
            flat = 1
            for i, top in zip(prefix, ranges):
                if not 1 <= i <= top:
                    break
                flat = (flat - 1) * top + i
                reads.append(flat)
            else:
                return plan, reads
        raise KeyError(f"index of {TermId(self._kinds[g], n, prefix)} outside ranges {ranges}")

    def section(self, g: int, n: int,
                prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        """(index, function) of every term of generation g at level n whose
        index starts with `prefix`, in index order.  The level and the
        prefix are checked at the call: KeyError, with `fn`'s text, for
        either outside the family's ranges."""
        if self._sourced(g, n, prefix):
            return self.source.section(self, g, n, prefix)
        return self.reference_section(g, n, prefix)

    def parts(self, g: int, n: int, prefix: tuple[int, ...] = ()) -> Iterator[Parted]:
        """`section` with each term cut by cube: (index, {cube: part}, term),
        the part on each cube the term touches, in cube order, being the
        term there as a function on that one cube."""
        if self._sourced(g, n, prefix):
            return self.source.parts(self, g, n, prefix)
        return self.reference_parts(g, n, prefix)

    def _sourced(self, g: int, n: int, prefix: tuple[int, ...]) -> bool:
        """Whether a section's terms come from the source; checks the
        level and, for a source, the prefix (the formulas check it)."""
        # a generation outside the family is _prefix_reads' KeyError
        if 0 <= g < self.points and not 1 <= n <= self.depth:
            raise KeyError(f"level of {TermId(self._kinds[g], n, prefix)} outside 1..{self.depth}")
        if self.source is None:
            return False
        self._prefix_reads(g, n, prefix)
        return True

    def reference_section(self, g: int, n: int,
                          prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        """`section` of the formula terms, at any level (past the
        truncation depth too), with no table or transform."""
        plan, reads = self._prefix_reads(g, n, prefix)
        if len(reads) > g:  # a whole index: one term
            reads.append(prefix[-1])
            return iter([(prefix, self._emit(plan, reads))])
        return self._odometer(plan, g, prefix, reads[-1] if reads else 1)

    def reference_parts(self, g: int, n: int, prefix: tuple[int, ...] = ()) -> Iterator[Parted]:
        """`parts` of the formula terms, at any level, checked at the call."""
        terms = self.reference_section(g, n, prefix)
        return self._parted(self._plans[g, n], terms)

    @staticmethod
    def _parted(plan: _Plan, terms: Iterator[tuple[tuple[int, ...], StepFunction]]
                ) -> Iterator[Parted]:
        """The terms of a plan with their parts: a plan has one piece per
        cube, so a term's entry i is its part on the cube of piece i.  An
        entry the odometer carries over from the term before keeps its
        part, the same object."""
        dens, vden, raw = plan.dens, plan.vden, StepFunction._raw
        cubes = [(cube,) for cube, _, _ in plan.parts]
        last: list = [(None, None)] * len(cubes)  # (entry, part) of the term before
        for index, f in terms:
            parts = {}
            for i, e in enumerate(f._entries):
                got = last[i]
                if got[0] is not e:
                    got = last[i] = (e, raw(cubes[i], (e,), dens, vden))
                parts[e[0]] = got[1]
            yield index, parts, f

    def _emit(self, plan: _Plan, reads: list[int]) -> StepFunction:
        """The formula term whose parts read `reads`: F_0..F_g, then ig."""
        entries = []
        for cube, cells, value in plan.parts:
            bounds = []
            for coord, k, scale in cells:
                hi = reads[k] * scale
                bounds.append((coord, hi - scale, hi))
            entries.append((cube, tuple(bounds), value))
        return StepFunction._raw(self.domain, tuple(entries), plan.dens, plan.vden)

    def _outer_steps(self, plan: _Plan, g: int, prefix: tuple[int, ...], flat: int
                     ) -> Iterator[tuple[tuple[int, ...], list]]:
        """The outer loop over the formula terms under a checked prefix,
        shorter than an index, of flat index `flat`.  It steps F_{g-1},
        which runs over consecutive values, and yields for each one the
        index components i0..i_{g-1} and, per piece of the plan, (cube,
        fixed, inner, value): `fixed` are the bounds that read
        F_0..F_{g-1}, and `inner` is the cell that reads F_g or ig, as
        (coordinate, first, scale) with F_g or ig = first + i at the inner
        loop's i-th term, or None for a piece that reads neither.  That
        cell is a piece's last: ig is read on coordinate n+1, after F_{g-1}
        on n, and a piece that reads F_g reads nothing else."""
        ranges = plan.ranges
        span = prod(ranges[len(prefix):g])
        for outer in range((flat - 1) * span + 1, flat * span + 1):
            # F_0..F_{g-1} of this outer flat index, and its index components
            reads, head = [outer] * g, [outer] * g
            for k in range(g - 1, 0, -1):
                up, i = divmod(reads[k] - 1, ranges[k])
                head[k] = i + 1
                reads[k - 1] = head[k - 1] = up + 1
            base = (outer - 1) * ranges[g]  # F_g = base + ig
            pieces = []
            for cube, cells, value in plan.parts:
                fixed, inner = [], None
                for coord, k, scale in cells:
                    if k < 0 or k == g:
                        inner = (coord, base if k == g else 0, scale)
                    else:
                        hi = reads[k] * scale
                        fixed.append((coord, hi - scale, hi))
                pieces.append((cube, tuple(fixed), inner, value))
            yield tuple(head), pieces

    def _odometer(self, plan: _Plan, g: int, prefix: tuple[int, ...], flat: int
                  ) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        """The formula terms under a checked prefix, shorter than an index,
        of flat index `flat`: the boxes that read only F_0..F_{g-1} are
        built once per outer step, and the inner loop steps ig and builds
        only the boxes that read F_g or ig."""
        dens, vden, domain = plan.dens, plan.vden, self.domain
        lasts = range(1, plan.ranges[g] + 1)
        tails = [(i,) for i in lasts]
        raw = StepFunction._raw
        for head, pieces in self._outer_steps(plan, g, prefix, flat):
            columns = []
            for cube, fixed, inner, value in pieces:
                if inner is None:
                    columns.append(repeat((cube, fixed, value)))
                else:
                    coord, first, scale = inner
                    columns.append([(cube, fixed + ((coord, (first + i - 1) * scale,
                                                     (first + i) * scale),), value)
                                    for i in lasts])
            for tail, entries in zip(tails, zip(*columns)):
                yield head + tail, raw(domain, entries, dens, vden)

    def section_sum(self, g: int, n: int, prefix: tuple[int, ...] = ()
                    ) -> tuple[StepFunction, int, tuple[int, ...]]:
        """(sum, count, last index) of `section(g, n, prefix)`, checked at
        the call as `section` is.

        A term source's section is summed term by term in a `ChunkedSum`.
        The formulas give the sum in closed form, one outer step of
        `_outer_steps` at a time.  With F_{g-1} fixed, the inner loop's
        `top` terms differ only in the cell that reads F_g = base + ig or
        ig: cells base+1..base+top, or 1..top, of one partition, each of
        `scale` lattice units.  So a piece that reads F_g is `top` disjoint
        boxes with one value that tile the one box [base*scale,
        (base+top)*scale) on that coordinate, a piece that reads ig tiles
        [0, top*scale) the same way, and a piece that reads neither is one
        box `top` times, which sums to value*top on that box.  These boxes
        sum to the section almost everywhere.  `_canonical` sweeps them
        cube by cube, and a canonical form depends only on the function, on
        any lattice, so the sum is the very function that a `ChunkedSum` of
        the terms gives, and every measurement of it is the same."""
        if self._sourced(g, n, prefix):
            total, count = ChunkedSum(self.domain), 0
            for last, f in self.source.section(self, g, n, prefix):
                total.add(f)
                count += 1
            return total.total(), count, last
        plan, reads = self._prefix_reads(g, n, prefix)
        if len(reads) > g:  # a whole index: one term
            reads.append(prefix[-1])
            return self._emit(plan, reads), 1, prefix
        top = plan.ranges[g]
        per_cube: dict[int, list] = {}
        for head, pieces in self._outer_steps(plan, g, prefix, reads[-1] if reads else 1):
            for cube, fixed, inner, value in pieces:
                if inner is None:
                    box = (fixed, value * top)
                else:
                    coord, first, scale = inner
                    box = (fixed + ((coord, first * scale, (first + top) * scale),), value)
                per_cube.setdefault(cube, []).append(box)
        total = StepFunction._raw(self.domain, _canonical(self.domain, per_cube, plan.dens),
                                  plan.dens, plan.vden)
        return total, prod(plan.ranges[len(prefix):]), head + (top,)

    def fn(self, tid: TermId) -> StepFunction:
        """The step function of one term."""
        g = self.generation(tid.kind)
        terms = self.section(g, tid.level, tid.index)
        if len(tid.index) != g + 1:
            raise KeyError(f"index of {tid} outside ranges {self.index_ranges(g, tid.level)}")
        return next(terms)[1]

    def with_replaced(self, subs: Mapping[TermId, StepFunction]) -> "Family":
        """A copy of this family with a `TermTable` source: every term of
        it, with the functions of `subs` in place of (or besides) its own.
        The copy lists every term, so a family of more than `MAX_TERMS`
        terms is refused first."""
        check_term_budget("family", self.term_count(), MAX_TERMS)
        table = {TermId(kind, n, index): f
                 for n in range(1, self.depth + 1) for g, kind in enumerate(self._kinds)
                 for index, f in self.section(g, n)}
        table.update(subs)
        return Family(self.points, self.depth, self.sizes, source=TermTable(table),
                      transform=self._transform)

    def __repr__(self) -> str:
        return (f"Family(flavor={self.flavor!r}, points={self.points}, "
                f"depth={self.depth}, terms={self.term_count()})")


# --- term sources -----------------------------------------------------------


class Shifted(NamedTuple):
    """The terms of `base`, each shifted by the family's transform of its
    paired cube averages.  Its ids are the base's, so proven."""

    base: Family

    def section(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        for index, f in self.base.section(g, n, prefix):
            shift = fam.transform.apply(paired_means(fam.points, f))
            yield index, f + y_constants(fam.points, fam.domain, shift)

    def parts(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]) -> Iterator[Parted]:
        return _split_section(self.section(fam, g, n, prefix))

    def ids(self) -> None:
        return None


class TermTable(NamedTuple):
    """Terms looked up by id in `table`, in index order.  Its ids are
    unproven: the table may miss a term of the family or hold others."""

    table: Mapping[TermId, StepFunction]

    def section(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        kind, table = fam.kinds[g], self.table
        for index in fam.index_tuples(g, n, prefix):
            f = table.get(TermId(kind, n, index))
            if f is None:
                raise KeyError(f"term {TermId(kind, n, index)} missing from the loaded table")
            yield index, f

    def parts(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]) -> Iterator[Parted]:
        return _split_section(self.section(fam, g, n, prefix))

    def ids(self) -> Iterable[TermId]:
        return self.table.keys()


def _split_section(terms: Iterable[tuple[tuple[int, ...], StepFunction]]) -> Iterator[Parted]:
    """The (index, {cube: part}, term) of each (index, term) of a section,
    cut by `StepFunction.split` on the cubes the term touches."""
    for index, f in terms:
        yield index, f.split(sorted(f.support_cubes())), f


# --- builders ---------------------------------------------------------------


def build_kadets(depth: int, sizes: IndexSizes | Sequence[int] | None = None) -> Family:
    """Two kinds a, b on one cube; the series can be rearranged to 0 or to 1."""
    return Family(2, depth, sizes)


def build_three_kadets(depth: int, sizes: IndexSizes | Sequence[int] | None = None) -> Family:
    """Three kinds f, g, h on three cubes; three reachable limits."""
    return Family(3, depth, sizes)


def build_multipoint(points: int, depth: int,
                     sizes: IndexSizes | Sequence[int] | None = None) -> Family:
    """A generation chain with the given number of reachable limits (>= 2)."""
    return Family(points, depth, sizes)


# --- cube averages and affine transforms ------------------------------------


def y_groups(points: int) -> tuple[tuple[int, ...], ...]:
    """Cubes grouped by shared constant value: cube 1 alone, then pairs."""
    groups: list[tuple[int, ...]] = [(1,)]
    for j in range(1, points - 1):
        groups.append((2 * j, 2 * j + 1))
    return tuple(groups)


def paired_means(points: int, f: StepFunction) -> tuple[Fraction, ...]:
    """Cube means collapsed along the pairing; callers must know the pairing holds."""
    return tuple(f.integral(group[0]) for group in y_groups(points))


def y_constants(points: int, domain: tuple[int, ...],
                values: Sequence[Fraction]) -> StepFunction:
    spread = {}
    for group, v in zip(y_groups(points), values):
        for c in group:
            spread[c] = v
    return cube_constants(domain, spread)


def point_to_y(points: int, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(point[group[0] - 1] for group in y_groups(points))


def y_to_point(points: int, y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (2 * points - 3)
    for group, v in zip(y_groups(points), y):
        for c in group:
            out[c - 1] = Fraction(v)
    return tuple(out)


class TransformSpec:
    """A square rational matrix acting on the paired cube averages."""

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise ConfigError("transform matrix must be square and non-empty")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vector) != self.dim:
            raise ConfigError(f"vector length {len(vector)} != matrix dimension {self.dim}")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.rows)

    @classmethod
    def zero(cls, dim: int) -> "TransformSpec":
        return cls([[0] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "TransformSpec":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def __eq__(self, other) -> bool:
        return isinstance(other, TransformSpec) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TransformSpec({[[str(x) for x in row] for row in self.rows]})"


def apply_transform(fam: Family, spec: TransformSpec, *,
                    max_terms: int = MAX_TERMS) -> Family:
    """Shift every term by the transform of its paired cube averages.
    Checking the pairing reads every term, so a family of more than
    `max_terms` terms is refused first."""
    if fam.flavor == "transformed":
        raise StructuralError("family already carries a transform")
    # built first: it refuses a matrix of another size before any term is read
    out = Family(fam.points, fam.depth, fam.sizes, source=Shifted(fam), transform=spec)
    check_term_budget("family", fam.term_count(), max_terms)
    for n in range(1, fam.depth + 1):
        for g, kind in enumerate(fam.kinds):
            for index, f in fam.section(g, n):
                for group in y_groups(fam.points):
                    if len({f.integral(c) for c in group}) > 1:
                        raise StructuralError(
                            f"term {TermId(kind, n, index)} breaks the cube pairing "
                            f"on {tuple(map(cube_label, group))}")
    return out


# --- advertised limits ------------------------------------------------------


def expected_sum_range(fam: Family) -> tuple[tuple[Fraction, ...], ...]:
    """The limit points the construction advertises, as per-cube constants."""
    base_points = tuple(
        tuple(Fraction(1 if c <= 2 * i - 1 else 0) for c in range(1, 2 * fam.points - 2))
        for i in range(fam.points))
    if fam.flavor != "transformed":
        return base_points
    out = []
    for p in base_points:
        y = point_to_y(fam.points, p)
        shifted = tuple(a + b for a, b in zip(y, fam.transform.apply(y)))
        out.append(y_to_point(fam.points, shifted))
    return tuple(out)
