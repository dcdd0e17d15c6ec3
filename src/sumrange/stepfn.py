"""Exact step functions on a finite union of infinite-dimensional unit cubes.

A step function here is a finite rational combination of indicator boxes.
Each box lives on one cube of the domain and constrains finitely many
coordinates to half-open rational subintervals [lo, hi) of the unit
interval; on unconstrained coordinates the box is free.  Values, endpoints
and every derived quantity (measure, moment, integral) are exact
`fractions.Fraction` numbers.

Representation: a function is stored on an integer lattice, made of one
denominator D_k for each coordinate k it constrains, one value
denominator V, and entries (cube, ((k, lo, hi), ...), v) of Python ints
that stand for the box with [lo/D_k, hi/D_k) on each listed coordinate
and the value v/V.  Sums, products and comparisons first bring their
operands onto one lattice (the lcm of the denominators, coordinate by
coordinate); an operand whose lattice is already that one is used as it
is.  The entries are the only representation: `Box` and `Interval` are
the constructor's input types, and measurements build a `Fraction` only
for the number they return.

Canonical form, per cube: boxes are pairwise disjoint, no box carries the
value 0, constraints spanning the whole unit interval are dropped, and
adjacent cells whose residual structure coincides are re-merged greedily
coordinate by coordinate (smallest coordinate outermost).  The canonical
form does not depend on the lattice it was computed on: a finer lattice
multiplies every endpoint of a coordinate by one factor, which keeps
their order and equalities, so the sweep cuts and merges in the same
places.  Two functions on the same domain therefore agree almost
everywhere iff their entries are equal once both are brought onto one
lattice, and ``==`` is exact a.e. equality.

The sweep (`_sweep`) canonicalizes any list of boxes: the raw boxes of
the constructor, of `multiply` and of the loader, and the n-ary sums of
`sum_functions`.  `add` has two operands that are canonical already, so
it merges their nested span lists instead (`_merge`): only the cells one
operand cuts or changes are rebuilt, and every other box of the other
operand is kept as the same entry.  Both give the same entries.

One box is canonical once its full-span constraints are dropped, so the
sweep returns a single entry directly: a cube holding one box, as in most
parts of loaded terms and of products, is never cut.  Predicates such as
`moment_is` and `is_product` decide exact equalities on the lattice
integers without building a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Rational = Union[Fraction, int, str]

_ZERO = Fraction(0)


class DomainError(ValueError):
    """Mismatched domains or a reference to a cube outside the domain."""


def as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Interval(NamedTuple):
    """Half-open rational interval [lo, hi) with 0 <= lo < hi <= 1."""

    lo: Fraction
    hi: Fraction


def make_interval(lo: Rational, hi: Rational) -> Interval:
    lo, hi = as_fraction(lo), as_fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise ValueError(f"bad interval [{lo}, {hi})")
    return Interval(lo, hi)


Bound = tuple[int, Interval]


class Box(NamedTuple):
    """A product cell: one cube plus interval constraints on finitely many coordinates."""

    cube: int
    bounds: tuple[Bound, ...]


def make_bounds(spec: Mapping[int, tuple[Rational, Rational]]) -> tuple[Bound, ...]:
    out = []
    for coord in sorted(spec):
        if coord < 1:
            raise ValueError(f"coordinate index must be >= 1, got {coord}")
        lo, hi = spec[coord]
        out.append((coord, make_interval(lo, hi)))
    return tuple(out)


# --- the integer lattice ----------------------------------------------------
#
# Lattice bounds are ((coord, lo, hi), ...) in increasing coordinate order;
# `dens` maps each coordinate to its denominator.  A lattice entry is
# (cube, bounds, value); the sweep works on (bounds, value) pairs of one cube.

LatticeBounds = tuple[tuple[int, int, int], ...]
Entry = tuple[int, LatticeBounds, int]


def _sweep(entries: list[tuple[LatticeBounds, int]], dens: Mapping[int, int]
           ) -> list[tuple[LatticeBounds, int]]:
    """Canonical form of the sum of `entries` (non-zero values, one cube).

    Recursive sweep over the smallest constrained coordinate.  Each level
    splits [0, D) at every breakpoint of that coordinate, canonicalizes the
    residual entries per cell (interpreting overlaps as sums), merges
    adjacent cells with identical residue, and drops the coordinate
    entirely when a single merged cell spans [0, D).  The output depends
    only on the pointwise function, not on the incoming box decomposition.

    A single entry is its own canonical form once its full-span
    constraints are dropped: that is what the sweep would compute, and most
    functions have one box per cube.
    """
    if len(entries) == 1:
        bounds, v = entries[0]
        return [(tuple([b for b in bounds if b[1] or b[2] != dens[b[0]]]), v)]
    if not entries:
        return []
    c = None
    for bounds, _ in entries:
        if bounds and (c is None or bounds[0][0] < c):
            c = bounds[0][0]
    if c is None:
        total = 0
        for _, v in entries:
            total += v
        return [((), total)] if total else []
    free: list[tuple[LatticeBounds, int]] = []
    cons: list[tuple[LatticeBounds, int]] = []
    leaf = True  # every residue below coordinate c is a constant
    for e in entries:
        b = e[0]
        if b and b[0][0] == c:
            cons.append(e)
            if len(b) > 1:
                leaf = False
        else:
            free.append(e)
            if b:
                leaf = False
    top = dens[c]
    if leaf:
        return _sweep_leaf(c, top, free, cons)
    cuts = {0, top}
    starts: dict[int, list[int]] = {}
    stops: dict[int, list[int]] = {}
    for i, (bounds, _) in enumerate(cons):
        _, lo, hi = bounds[0]
        cuts.add(lo)
        cuts.add(hi)
        starts.setdefault(lo, []).append(i)
        stops.setdefault(hi, []).append(i)
    points = sorted(cuts)
    active: dict[int, tuple[LatticeBounds, int]] = {}
    free_sub: list | None = None
    spans: list[tuple[int, int, list]] = []
    for j in range(len(points) - 1):
        p, q = points[j], points[j + 1]
        for i in stops.get(p, ()):
            active.pop(i, None)
        for i in starts.get(p, ()):
            bounds, v = cons[i]
            active[i] = (bounds[1:], v)
        if active:
            sub = _sweep(free + list(active.values()), dens)
        else:
            if free_sub is None:
                free_sub = _sweep(free, dens)
            sub = free_sub
        if spans and spans[-1][1] == p and spans[-1][2] == sub:
            spans[-1] = (spans[-1][0], q, sub)
        else:
            spans.append((p, q, sub))
    out: list[tuple[LatticeBounds, int]] = []
    for lo, hi, sub in spans:
        if not sub:
            continue
        if lo == 0 and hi == top:
            out.extend(sub)
        else:
            head = (c, lo, hi)
            for bounds, v in sub:
                out.append(((head,) + bounds, v))
    return out


def _sweep_leaf(c: int, top: int, free: list, cons: list) -> list[tuple[LatticeBounds, int]]:
    """The sweep's last coordinate: the value on each cell is a running sum."""
    delta = {0: 0, top: 0}
    for bounds, v in cons:
        _, lo, hi = bounds[0]
        delta[lo] = delta.get(lo, 0) + v
        delta[hi] = delta.get(hi, 0) - v
    points = sorted(delta)
    spans: list[list[int]] = []
    value = sum(v for _, v in free)
    for j in range(len(points) - 1):
        p = points[j]
        value += delta[p]
        if spans and spans[-1][2] == value:
            spans[-1][1] = points[j + 1]
        else:
            spans.append([p, points[j + 1], value])
    if len(spans) == 1:
        return [((), value)] if value else []
    return [(((c, lo, hi),), v) for lo, hi, v in spans if v]


def _runs(entries: Sequence[Entry], d: int) -> list[list]:
    """The spans of entries whose bounds all hold the same coordinate at
    position d: [lo, hi, rows, 1], rows the contiguous entries of the span."""
    runs: list[list] = []
    head = entries[0][1][d]
    start = 0
    for i, e in enumerate(entries):
        h = e[1][d]
        if h != head:
            runs.append([head[1], head[2], entries[start:i], 1])
            head, start = h, i
    runs.append([head[1], head[2], entries[start:], 1])
    return runs


def _rebased(entries: Sequence[Entry], d: int, head: LatticeBounds) -> list[Entry]:
    """The entries with their bounds before position d replaced by `head`."""
    return [(cube, head + b[d:], v) for cube, b, v in entries]


def _merge(a: Sequence[Entry], da: int, b: Sequence[Entry], db: int, dens: Mapping[int, int],
           prefix: LatticeBounds, keep_a: bool, keep_b: bool) -> list[Entry]:
    """Canonical entries of a + b, for canonical entries of one cube on
    the lattice `dens`, each list read from a bound position on.

    The entries of `a` stand for their bounds from position `da` on, those
    of `b` from `db` on, and the result's bounds are `prefix` followed by
    the sum's.  `keep_a` says that the bounds of `a` before `da` are
    `prefix`, so that an entry of `a` the sum leaves alone is returned as
    it is; `keep_b` likewise.

    Both lists have the sweep's nested structure: a list is one constant,
    or all its entries constrain the same coordinate first, the entries
    of each span of it contiguous, spans in increasing order.  With c the
    smaller of the two first coordinates, a list free on c counts as one
    span [0, D) holding the whole list.  The sum is cut at the union of
    both lists' span ends; a cell where both are active holds the merge of
    their sub-lists, a cell where one is active its sub-list, unchanged.
    Adjacent equal cells are joined and c is dropped when one cell spans
    [0, D), as the sweep does, so the result is the sweep's on the union
    of the entries.
    """
    ha, hb = a[0][1], b[0][1]
    ca = ha[da][0] if len(ha) > da else None
    cb = hb[db][0] if len(hb) > db else None
    if ca is None and cb is None:
        v = a[0][2] + b[0][2]
        return [(a[0][0], prefix, v)] if v else []
    c = ca if cb is None or (ca is not None and ca < cb) else cb
    top = dens[c]
    k = len(prefix)
    # a list free on c is one span holding the whole list
    runs_a = _runs(a, da) if ca == c else [[0, top, a, 0]]
    runs_b = _runs(b, db) if cb == c else [[0, top, b, 0]]
    na, nb = len(runs_a), len(runs_b)
    # cells [lo, hi, entries, side]: side is 1 or 2 while the cell is an
    # uncut span of a or b taken as it is; spans of one side never join
    cells: list[list] = []
    i = j = p = 0
    while p < top:
        while i < na and runs_a[i][1] <= p:
            i += 1
        while j < nb and runs_b[j][1] <= p:
            j += 1
        ra = runs_a[i] if i < na and runs_a[i][0] <= p else None
        rb = runs_b[j] if j < nb and runs_b[j][0] <= p else None
        q = top
        if i < na:
            x = runs_a[i][1] if ra is not None else runs_a[i][0]
            if x < q:
                q = x
        if j < nb:
            x = runs_b[j][1] if rb is not None else runs_b[j][0]
            if x < q:
                q = x
        side = 0
        if ra is not None and rb is not None:
            got = _merge(ra[2], da + ra[3], rb[2], db + rb[3], dens, prefix + ((c, p, q),),
                         keep_a and ra[3] and ra[0] == p and ra[1] == q,
                         keep_b and rb[3] and rb[0] == p and rb[1] == q)
            if not got:
                p = q
                continue
        elif ra is not None:
            if keep_a and ra[3] and ra[0] == p and ra[1] == q:
                got, side = ra[2], 1
            else:
                got = _rebased(ra[2], da + ra[3], prefix + ((c, p, q),))
        elif rb is not None:
            if keep_b and rb[3] and rb[0] == p and rb[1] == q:
                got, side = rb[2], 2
            else:
                got = _rebased(rb[2], db + rb[3], prefix + ((c, p, q),))
        else:
            p = q
            continue
        prev = cells[-1] if cells else None
        if (prev is not None and prev[1] == p and not (side and side == prev[3])
                and len(prev[2]) == len(got)
                and all(x[2] == y[2] and x[1][k + 1:] == y[1][k + 1:]
                        for x, y in zip(prev[2], got))):
            prev[2] = _rebased(prev[2], k + 1, prefix + ((c, prev[0], q),))
            prev[1] = q
            prev[3] = 0
        else:
            cells.append([p, q, got, side])
        p = q
    if len(cells) == 1 and cells[0][0] == 0 and cells[0][1] == top:
        return _rebased(cells[0][2], k + 1, prefix)
    out: list[Entry] = []
    for cell in cells:
        out.extend(cell[2])
    return out


def _value(v: int) -> int:
    return v


def _one(v: int) -> int:
    return 1


def _canonical(domain: tuple[int, ...], per_cube: Mapping[int, list],
               dens: Mapping[int, int]) -> tuple[Entry, ...]:
    """Canonical entries, in domain order, of (bounds, value) lists per cube."""
    out: list[Entry] = []
    for cube in domain:
        got = per_cube.get(cube)
        if got:
            for b, v in _sweep(got, dens):
                out.append((cube, b, v))
    return tuple(out)


def lattice_entries(domain: tuple[int, ...], boxes: list, lattices: dict | None = None
                    ) -> tuple[tuple[Entry, ...], dict[int, int], int]:
    """(entries, dens, vden) of the canonical sum of `boxes` on their lattice.

    A box is (cube, [(coord, lo_num, lo_den, hi_num, hi_den), ...] in
    increasing coordinate order, (num, den)), every denominator positive.
    Boxes of value 0 are dropped; the lattice is the lcm of the remaining
    denominators, coordinate by coordinate, so reduced ratios give the
    coarsest one, and any other gives the same canonical form.  With a
    `lattices` table, functions whose lattices are equal share its `dens`.
    """
    boxes = [b for b in boxes if b[2][0]]
    dens: dict[int, int] = {}
    vden = 1
    for _, bounds, (_, den) in boxes:
        vden = lcm(vden, den)
        for k, _, lo_den, _, hi_den in bounds:
            dens[k] = lcm(dens.get(k, 1), lo_den, hi_den)
    if lattices is not None:
        dens = lattices.setdefault(tuple(sorted(dens.items())), dens)
    per_cube: dict[int, list] = {}
    for cube, bounds, (num, den) in boxes:
        per_cube.setdefault(cube, []).append((
            tuple([(k, lo * (dens[k] // lo_den), hi * (dens[k] // hi_den))
                   for k, lo, lo_den, hi, hi_den in bounds]),
            num * (vden // den)))
    return _canonical(domain, per_cube, dens), dens, vden


def _join(fns: Iterable["StepFunction"]) -> tuple[dict[int, int], int]:
    """The coarsest lattice refining the lattice of every function."""
    dens: dict[int, int] = {}
    vden = 1
    seen: set[int] = set()
    for f in fns:
        if id(f._dens) not in seen:
            seen.add(id(f._dens))
            for c, d in f._dens.items():
                old = dens.get(c)
                if old is None:
                    dens[c] = d
                elif old != d:
                    dens[c] = lcm(old, d)
        if f._vden != vden:
            vden = lcm(vden, f._vden)
    return dens, vden


def _factors(own: Mapping[int, int], dens: Mapping[int, int]) -> dict[int, int]:
    """Per-coordinate factors taking lattice `own` to the finer `dens`."""
    return {c: dens[c] // d for c, d in own.items() if dens[c] != d}


def _rescaled(entries: tuple[Entry, ...], factors: Mapping[int, int], vf: int
              ) -> tuple[Entry, ...]:
    """Entries with coordinate c multiplied by factors[c] and values by vf."""
    if not factors:
        if vf == 1:
            return entries
        return tuple((cube, b, v * vf) for cube, b, v in entries)
    return tuple((cube, tuple((c, lo * factors[c], hi * factors[c]) if c in factors else (c, lo, hi)
                              for c, lo, hi in b), v * vf)
                 for cube, b, v in entries)


def _by_cube(entries: tuple[Entry, ...]) -> dict[int, tuple[Entry, ...]]:
    """The entries of each cube; canonical entries are grouped by cube."""
    if entries[0][0] == entries[-1][0]:
        return {entries[0][0]: entries}
    out: dict[int, tuple[Entry, ...]] = {}
    start = 0
    for i in range(1, len(entries) + 1):
        if i == len(entries) or entries[i][0] != entries[start][0]:
            out[entries[start][0]] = entries[start:i]
            start = i
    return out


def _intersect(a: LatticeBounds, b: LatticeBounds) -> LatticeBounds | None:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ca, lo_a, hi_a = a[i]
        cb, lo_b, hi_b = b[j]
        if ca < cb:
            out.append(a[i])
            i += 1
        elif cb < ca:
            out.append(b[j])
            j += 1
        else:
            lo = lo_a if lo_a > lo_b else lo_b
            hi = hi_a if hi_a < hi_b else hi_b
            if lo >= hi:
                return None
            out.append((ca, lo, hi))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class StepFunction:
    """Canonical rational step function on an ordered tuple of cubes."""

    __slots__ = ("_domain", "_entries", "_dens", "_vden", "_hash")

    def __init__(self, domain: Sequence[int], terms: Iterable[tuple[Box, Rational]] = ()):
        dom = tuple(int(c) for c in domain)
        if len(set(dom)) != len(dom) or not dom:
            raise DomainError(f"domain must be a non-empty tuple of distinct cubes, got {dom}")
        boxes = []
        for bx, value in terms:
            if bx.cube not in dom:
                raise DomainError(f"box on unknown cube {bx.cube}; domain is {dom}")
            value = as_fraction(value)
            boxes.append((bx.cube, [(c, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                                    for c, (lo, hi) in bx.bounds],
                          (value.numerator, value.denominator)))
        self._set(dom, *lattice_entries(dom, boxes))

    def _set(self, domain, entries, dens, vden) -> None:
        self._domain = domain
        self._entries = entries
        self._dens = dens
        self._vden = vden
        self._hash = None

    @classmethod
    def _raw(cls, domain: tuple[int, ...], entries: tuple[Entry, ...],
             dens: Mapping[int, int], vden: int) -> "StepFunction":
        # trusted constructor: the entries must already be canonical on the
        # lattice (dens, vden), which the function then shares, unchanged
        self = object.__new__(cls)
        self._set(domain, entries, dens, vden)
        return self

    @classmethod
    def _summed(cls, domain: tuple[int, ...], fns: Sequence["StepFunction"]) -> "StepFunction":
        """The canonical sum of functions on `domain`, on their joined lattice."""
        dens, vden = _join(fns)
        per_cube: dict[int, list] = {}
        factors: dict[int, dict[int, int]] = {}
        for f in fns:
            key = id(f._dens)
            if key not in factors:
                factors[key] = _factors(f._dens, dens)
            for cube, b, v in _rescaled(f._entries, factors[key], vden // f._vden):
                per_cube.setdefault(cube, []).append((b, v))
        return cls._raw(domain, _canonical(domain, per_cube, dens), dens, vden)

    @classmethod
    def zero(cls, domain: Sequence[int]) -> "StepFunction":
        return cls(domain, ())

    @property
    def domain(self) -> tuple[int, ...]:
        return self._domain

    @property
    def terms(self) -> tuple[Entry, ...]:
        """The canonical entries (cube, ((k, lo, hi), ...), v), as `_entries`.

        Kept only because the benchmark tracer takes the length of this
        property after each constructor call; it goes with that read.  Use
        `box_count()` instead."""
        return self._entries

    def box_count(self) -> int:
        """Number of boxes in the canonical form."""
        return len(self._entries)

    def support_cubes(self) -> frozenset[int]:
        """The cubes on which the function is not zero almost everywhere."""
        return frozenset({e[0] for e in self._entries})

    def _require_cube(self, cube: int) -> None:
        if cube not in self._domain:
            raise DomainError(f"cube {cube} not in domain {self._domain}")

    def _check_domain(self, other: "StepFunction") -> None:
        if self._domain != other._domain:
            raise DomainError(f"domain mismatch: {self._domain} vs {other._domain}")

    # --- algebra ---

    def add(self, other: "StepFunction") -> "StepFunction":
        self._check_domain(other)
        if not other._entries:
            return self
        if not self._entries:
            return other
        dens, vden = _join((self, other))
        mine = _by_cube(_rescaled(self._entries, _factors(self._dens, dens), vden // self._vden))
        theirs = _by_cube(_rescaled(other._entries, _factors(other._dens, dens),
                                    vden // other._vden))
        out: list[Entry] = []
        for cube in self._domain:
            a, b = mine.get(cube), theirs.get(cube)
            if a is None:
                if b is not None:
                    out.extend(b)
            elif b is None:
                out.extend(a)
            else:
                out.extend(_merge(a, 0, b, 0, dens, (), True, True))
        return StepFunction._raw(self._domain, tuple(out), dens, vden)

    def scale(self, c: Rational) -> "StepFunction":
        c = as_fraction(c)
        if c == 0:
            return StepFunction._raw(self._domain, (), {}, 1)
        if c == 1:
            return self
        # non-zero scaling keeps the canonical structure intact
        k = c.numerator
        entries = tuple((cube, b, v * k) for cube, b, v in self._entries)
        return StepFunction._raw(self._domain, entries, self._dens, self._vden * c.denominator)

    def multiply(self, other: "StepFunction") -> "StepFunction":
        self._check_domain(other)
        dens, _ = _join((self, other))
        mine: dict[int, list] = {}
        for cube, b, v in _rescaled(self._entries, _factors(self._dens, dens), 1):
            mine.setdefault(cube, []).append((b, v))
        per_cube: dict[int, list] = {}
        for cube, b2, v2 in _rescaled(other._entries, _factors(other._dens, dens), 1):
            for b1, v1 in mine.get(cube, ()):
                inter = _intersect(b1, b2)
                if inter is not None:
                    per_cube.setdefault(cube, []).append((inter, v1 * v2))
        return StepFunction._raw(self._domain, _canonical(self._domain, per_cube, dens), dens,
                                 self._vden * other._vden)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self.add(other)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self.add(other.scale(-1))

    def __neg__(self) -> "StepFunction":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self.multiply(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # --- measurements ---

    def _integrate(self, cube: int | None, weight) -> tuple[int, int]:
        """(total, common): the sum, over the boxes of one cube (or of all
        cubes), of weight(integer value) times the box measure is
        total / common, before division by any power of the value
        denominator.  The ratio is not reduced and no `Fraction` is built."""
        dens = self._dens
        total, common = 0, 1
        for cu, bounds, v in self._entries:
            if cube is None or cu == cube:
                num = weight(v)
                den = 1
                for c, lo, hi in bounds:
                    num *= hi - lo
                    den *= dens[c]
                if not total:  # nothing to rescale: start on this box's denominator
                    common = den
                elif den != common:
                    joint = lcm(common, den)
                    total *= joint // common
                    num *= joint // den
                    common = joint
                total += num
        return total, common

    def moment(self, p: int = 1, cube: int | None = None) -> Fraction:
        """Integral of |f|^p over the whole domain, or over one cube."""
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"moment order must be a positive integer, got {p!r}")
        if cube is not None:
            self._require_cube(cube)
        total, common = self._integrate(cube, abs if p == 1 else lambda v: abs(v) ** p)
        return Fraction(total, common * self._vden ** p) if total else _ZERO

    def integral(self, cube: int) -> Fraction:
        self._require_cube(cube)
        total, common = self._integrate(cube, _value)
        return Fraction(total, common * self._vden) if total else _ZERO

    def support_measure(self, cube: int) -> Fraction:
        total, common = self.support_ints(cube)
        return Fraction(total, common) if total else _ZERO

    def support_ints(self, cube: int) -> tuple[int, int]:
        """`support_measure(cube)` as an unreduced (numerator, denominator)
        pair of ints."""
        self._require_cube(cube)
        return self._integrate(cube, _one)

    # --- exact predicates on the lattice integers, building no Fraction ---

    def moment_is(self, value: Fraction | int) -> bool:
        """Whether `moment(1) == value`."""
        total, common = self._integrate(None, abs)
        return total * value.denominator == value.numerator * common * self._vden

    def same_integral(self, cube: int, other: int) -> bool:
        """Whether `integral(cube) == integral(other)`."""
        self._require_cube(cube)
        self._require_cube(other)
        total, common = self._integrate(cube, _value)
        total_o, common_o = self._integrate(other, _value)
        return total * common_o == total_o * common

    def takes_only(self, value: Fraction | int) -> bool:
        """Whether every box carries `value`: `term_values() <= {value}`."""
        want, den = value.numerator * self._vden, value.denominator
        for _, _, v in self._entries:
            if v * den != want:
                return False
        return True

    def is_product(self, a: "StepFunction", b: "StepFunction", c: Fraction | int = 1) -> bool:
        """Whether `self == c * a * b`.

        When all three are one box, the product is the intersection of the
        boxes of `a` and `b` with value c * va * vb: every constraint of a
        canonical box is proper, so the intersection drops none, and a
        canonical one-box `self` has positive measure, so it matches no
        empty intersection.  The boxes and values are compared directly.
        Otherwise the product is computed."""
        self._check_domain(a)
        self._check_domain(b)
        if not len(self._entries) == len(a._entries) == len(b._entries) == 1:
            return self == a.multiply(b).scale(c)
        (cube, bounds, v), = self._entries
        (cube_a, bounds_a, va), = a._entries
        (cube_b, bounds_b, vb), = b._entries
        if not (cube == cube_a == cube_b and v * a._vden * b._vden * c.denominator
                == c.numerator * va * vb * self._vden):
            return False
        # the intersection, each endpoint as [numerator, denominator]
        box: dict[int, list[int]] = {}
        for part, dens in ((bounds_a, a._dens), (bounds_b, b._dens)):
            for k, lo, hi in part:
                d = dens[k]
                got = box.get(k)
                if got is None:
                    box[k] = [lo, d, hi, d]
                    continue
                if lo * got[1] > got[0] * d:
                    got[0], got[1] = lo, d
                if hi * got[3] < got[2] * d:
                    got[2], got[3] = hi, d
        if len(box) != len(bounds):
            return False
        dens = self._dens
        for k, lo, hi in bounds:
            got = box.get(k)
            if got is None or lo * got[1] != got[0] * dens[k] or hi * got[3] != got[2] * dens[k]:
                return False
        return True

    def footprint(self) -> frozenset[tuple[int, int]]:
        """Set of (cube, coordinate) pairs the function actually depends on."""
        return frozenset({(cube, c) for cube, bounds, _ in self._entries for c, _, _ in bounds})

    def evaluate(self, cube: int, point: Mapping[int, Fraction]) -> Fraction:
        """The value at `point` of `cube`; a coordinate `point` omits is 0."""
        self._require_cube(cube)
        dens = self._dens
        total = 0
        for cu, bounds, v in self._entries:
            if cu == cube and all(lo <= point.get(c, 0) * dens[c] < hi for c, lo, hi in bounds):
                total += v
        return Fraction(total, self._vden)

    def restrict(self, cube: int) -> "StepFunction":
        """The same function viewed on a single cube of the domain."""
        self._require_cube(cube)
        return StepFunction._raw((cube,), tuple(e for e in self._entries if e[0] == cube),
                                 self._dens, self._vden)

    def split(self, cubes: Iterable[int]) -> dict[int, "StepFunction"]:
        """`restrict(k)` for each of `cubes`, by one pass over the boxes."""
        by: dict[int, list] = {}
        for k in cubes:
            self._require_cube(k)
            by[k] = []
        for entry in self._entries:
            got = by.get(entry[0])
            if got is not None:
                got.append(entry)
        return {k: StepFunction._raw((k,), tuple(got), self._dens, self._vden)
                for k, got in by.items()}

    def term_values(self, cube: int | None = None) -> frozenset[Fraction]:
        if cube is not None:
            self._require_cube(cube)
        values = {v for cu, _, v in self._entries if cube is None or cu == cube}
        return frozenset(Fraction(v, self._vden) for v in values)

    def value_set(self, cube: int | None = None) -> frozenset[Fraction]:
        """All values attained on a set of positive measure, including 0."""
        vals = set(self.term_values(cube))
        cubes = (cube,) if cube is not None else self._domain
        if any(self.support_measure(c) < 1 for c in cubes):
            vals.add(_ZERO)
        return frozenset(vals)

    def is_integer_valued(self) -> bool:
        return all(v % self._vden == 0 for _, _, v in self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self._domain != other._domain or len(self._entries) != len(other._entries):
            return False
        if self._dens == other._dens and self._vden == other._vden:
            return self._entries == other._entries
        dens, vden = _join((self, other))
        return (_rescaled(self._entries, _factors(self._dens, dens), vden // self._vden)
                == _rescaled(other._entries, _factors(other._dens, dens), vden // other._vden))

    def __hash__(self) -> int:
        # equal canonical forms on different lattices have the same cubes
        # and coordinates, entry for entry: only endpoints and values scale
        if self._hash is None:
            self._hash = hash((self._domain, tuple((cube, tuple([c for c, _, _ in bounds]))
                                                   for cube, bounds, _ in self._entries)))
        return self._hash

    def __repr__(self) -> str:
        return f"StepFunction(domain={self._domain}, boxes={len(self._entries)})"


# --- convenience constructors ----------------------------------------------


def indicator(domain: Sequence[int], cube: int, bounds: Mapping[int, tuple[Rational, Rational]],
              value: Rational = 1) -> StepFunction:
    return StepFunction(domain, [(Box(int(cube), make_bounds(bounds)), value)])


def constant(domain: Sequence[int], value: Rational) -> StepFunction:
    v = as_fraction(value)
    return StepFunction(domain, [(Box(int(c), ()), v) for c in domain])


def cube_constants(domain: Sequence[int], values: Mapping[int, Rational]) -> StepFunction:
    terms = []
    for c, v in values.items():
        if int(c) not in tuple(int(d) for d in domain):
            raise DomainError(f"cube {c} not in domain {tuple(domain)}")
        terms.append((Box(int(c), ()), v))
    return StepFunction(domain, terms)


def sum_functions(fns: Iterable[StepFunction], domain: Sequence[int] | None = None) -> StepFunction:
    """Exact sum of many functions, canonicalized once."""
    fns = list(fns)
    if domain is None:
        if not fns:
            raise ValueError("need a domain for an empty sum")
        domain = fns[0].domain
    dom = tuple(int(c) for c in domain)
    for f in fns:
        if f.domain != dom:
            raise DomainError(f"domain mismatch in sum: {f.domain} vs {dom}")
    if not fns:
        return StepFunction(dom, ())
    return StepFunction._summed(dom, fns)


# ChunkedSum folds its pending functions in every _CHUNK additions.  The
# chunk is small because the pending functions are what the cyclic
# garbage collector keeps scanning: each holds its entry tuples.  With a
# chunk of 4096 the blocks traces of multipoint(4, 3) set off 2,785 young
# and 23 full collections, with 128 only 495 and 4.  Best of six runs of
# those traces on a 2-vCPU host, in CPU seconds: 1.06 at 32, 1.01 at 64,
# 0.93 at 128, 1.05 at 256, 1.16 at 512 and 1.34 at 4096; smaller chunks
# fold the running total in more often.
_CHUNK = 128


class ChunkedSum:
    """Running sum of many functions, compacted every `_CHUNK` additions
    so memory stays bounded while long streams are folded in."""

    def __init__(self, domain: Sequence[int]):
        self._domain = tuple(int(c) for c in domain)
        self._pending: list[StepFunction] = []
        self._total: StepFunction | None = None

    def add(self, f: StepFunction) -> None:
        self._pending.append(f)
        if len(self._pending) >= _CHUNK:
            self._compact()

    def _compact(self) -> None:
        if self._total is not None:
            self._pending.append(self._total)
        self._total = sum_functions(self._pending, domain=self._domain)
        self._pending = []

    def total(self) -> StepFunction:
        self._compact()
        return self._total


class Tally:
    """Sum of many functions kept as each distinct function and its count.

    Σ f_j = Σ count·f, so `total` canonicalizes each distinct function
    once, however often it was added: the sum of a stream whose functions
    repeat costs its distinct functions, not its length."""

    def __init__(self, domain: Sequence[int]):
        self._domain = tuple(int(c) for c in domain)
        self._counts: dict[tuple, list] = {}

    def add(self, f: StepFunction) -> None:
        # equal entries on one lattice are one function; the lattice object
        # is held by f, so its id names it while f is counted here
        key = (id(f._dens), f._vden, f._entries)
        got = self._counts.get(key)
        if got is None:
            self._counts[key] = [f, 1]
        else:
            got[1] += 1

    def total(self) -> StepFunction:
        return sum_functions([f.scale(count) for f, count in self._counts.values()],
                             self._domain)
