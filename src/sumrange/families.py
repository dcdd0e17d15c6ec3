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
factor from that cell count to the coordinate's denominator.  `fn`
checks the index and computes F_0..F_g in one loop, then writes each
piece as the lattice box [(F-1)*factor, F*factor).  One box per cube is
canonical already, so the entries go into the `StepFunction` unswept.

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

import itertools
import re
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Sequence

from .stepfn import StepFunction, cube_constants


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

    Terms are produced from the generation formulas on demand.  A family
    with a `base` shifts the base's terms by the transform of their cube
    averages; one with a `table` (a loaded file, or `with_replaced`) reads
    its terms from the table.
    """

    def __init__(self, points: int, depth: int,
                 sizes: IndexSizes | Sequence[int] | None = None, *,
                 table: Mapping[TermId, StepFunction] | None = None,
                 base: "Family | None" = None,
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
        self._table = dict(table) if table is not None else None
        self._base = base
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

    def index_tuples(self, g: int, n: int) -> Iterator[tuple[int, ...]]:
        ranges = [range(1, top + 1) for top in self.index_ranges(g, n)]
        return itertools.product(*ranges)

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

    def _reads(self, g: int, n: int, index: tuple[int, ...]) -> tuple[_Plan, list[int]]:
        """The plan of (g, n) and what its parts read from `index`: the flat
        index of each prefix (i0..ik), as `flat_index` gives it, then the
        last component.  KeyError for an index outside the plan's ranges."""
        plan = self._plans.get((g, n)) or self._new_plan(g, n)
        ranges = plan.ranges
        if len(index) == len(ranges):
            reads = []
            flat = 1
            for i, top in zip(index, ranges):
                if not 1 <= i <= top:
                    break
                flat = (flat - 1) * top + i
                reads.append(flat)
            else:
                reads.append(index[-1])
                return plan, reads
        raise KeyError(f"index of {TermId(self._kinds[g], n, index)} outside ranges {ranges}")

    def _emit(self, g: int, n: int, index: tuple[int, ...]) -> StepFunction:
        """The formula term (g, n, index), on the lattice of its plan."""
        plan, reads = self._reads(g, n, index)
        entries = []
        for cube, cells, value in plan.parts:
            bounds = []
            for coord, k, scale in cells:
                hi = reads[k] * scale
                bounds.append((coord, hi - scale, hi))
            entries.append((cube, tuple(bounds), value))
        return StepFunction._raw(self.domain, tuple(entries), plan.dens, plan.vden)

    def fn(self, tid: TermId) -> StepFunction:
        """The step function of one term."""
        if self._table is not None:
            try:
                return self._table[tid]
            except KeyError:
                raise KeyError(f"term {tid} missing from the loaded table") from None
        g = self.generation(tid.kind)
        # reference_fn plans levels past the depth too, so check the level here
        if not 1 <= tid.level <= self.depth:
            raise KeyError(f"level of {tid} outside 1..{self.depth}")
        if self._base is not None:
            self._reads(g, tid.level, tid.index)  # this family's KeyError, whatever the base
            return _transformed_fn(self, self._base.fn(tid))
        return self._emit(g, tid.level, tid.index)

    def reference_fn(self, g: int, n: int, index: tuple[int, ...]) -> StepFunction:
        """Formula value for any level, including beyond the truncation
        depth, with no transform."""
        return self._emit(g, n, index)

    def with_replaced(self, subs: Mapping[TermId, StepFunction]) -> "Family":
        """A table-backed copy of this family: every term of it, with the
        functions of `subs` in place of (or besides) its own."""
        if self._table is not None:
            table = {**self._table, **subs}
        else:
            table = {tid: self.fn(tid) for tid in self.term_ids()}
            table.update(subs)
        return Family(self.points, self.depth, self.sizes, table=table,
                      transform=self._transform)

    @property
    def is_table_backed(self) -> bool:
        return self._table is not None

    def table_ids(self) -> Iterator[TermId]:
        if self._table is None:
            raise StructuralError("family has no explicit term table")
        return iter(self._table)

    def __repr__(self) -> str:
        return (f"Family(flavor={self.flavor!r}, points={self.points}, "
                f"depth={self.depth}, terms={self.term_count()})")


def _transformed_fn(fam: Family, base_fn: StepFunction) -> StepFunction:
    shift = fam.transform.apply(paired_means(fam.points, base_fn))
    return base_fn + y_constants(fam.points, fam.domain, shift)


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
    if spec.dim != fam.points - 1:
        raise ConfigError(
            f"matrix dimension {spec.dim} != {fam.points - 1} independent cube values")
    check_term_budget("family", fam.term_count(), max_terms)
    for tid in fam.term_ids():
        f = fam.fn(tid)
        for group in y_groups(fam.points):
            vals = {f.integral(c) for c in group}
            if len(vals) > 1:
                raise StructuralError(
                    f"term {tid} breaks the cube pairing on {tuple(map(cube_label, group))}")
    return Family(fam.points, fam.depth, fam.sizes, base=fam, transform=spec)


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
