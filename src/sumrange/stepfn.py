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
the constructor, of `multiply` and of the loader, the n-ary sums of
`sum_functions` and `ChunkedSum`, and every `add` of two multi-entry
operands, whose entries it sweeps together.  When one operand of `add`
is a single box on a one-cube domain, as each part of a formula term is,
the box is inserted into the other's nested span lists (`_insert`)
instead, which it walks by index ranges: spans the box does not reach
are kept as the same entries, cells are re-joined only at the box's two
edges, a box free on a coordinate is added under every span of it, and
the sum keeps its own lattice when that refines the box's.  The insert
gives the entries the sweep would.

One box is canonical once its full-span constraints are dropped, so the
sweep returns a single entry directly: a cube holding one box, as in most
parts of loaded terms and of products, is never cut.  `summary` measures
a function in one pass over its entries, and the predicates of
`Summary`, such as `moment_is` and `is_product`, decide exact equalities
on the lattice integers without building a `Fraction`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _rebased(entries: Sequence[Entry], d: int, head: LatticeBounds) -> list[Entry]:
    """The entries with their bounds before position d replaced by `head`."""
    return [(cube, head + b[d:], v) for cube, b, v in entries]


def _same_residue(x: Sequence[Entry], dx: int, y: Sequence[Entry], dy: int) -> bool:
    """Whether two cells hold the same function: equal values and bounds,
    those of `x` read from position dx on, those of `y` from dy on."""
    return len(x) == len(y) and all(a[2] == b[2] and a[1][dx:] == b[1][dy:]
                                    for a, b in zip(x, y))


def _head_lo(d: int):
    return lambda e: e[1][d][1]


def _head_hi(d: int):
    return lambda e: e[1][d][2]


def _span_end(entries: Sequence[Entry], s: int, j: int, d: int) -> int:
    """The end of the span that starts at entry s of entries[:j], read at
    bound position d: its entries share the bound there."""
    head = entries[s][1][d]
    t = s + 1
    stop = t + 8 if t + 8 < j else j  # a few steps, then a bisection
    while t < stop and entries[t][1][d] == head:
        t += 1
    if t == stop < j and entries[t][1][d] == head:
        t = bisect_right(entries, head[2], t + 1, j, key=_head_hi(d))
    return t


def _shift(entries: Sequence[Entry], i: int, j: int, d: int, v: int, dens: Mapping[int, int],
           prefix: LatticeBounds, keep: bool, out: list[Entry]) -> None:
    """`_insert` of a box that constrains nothing more: the constant v is
    added under every span and stands alone in the gaps, so no two cells
    join, and a constant that cancels leaves a gap."""
    cube, first, w = entries[i]
    if len(first) == d:  # a constant
        if w + v:
            out.append((cube, prefix, w + v))
        return
    c = first[d][0]
    gap = 0
    s = i
    while s < j:
        e = entries[s]
        b = e[1]
        head = b[d]
        if head[1] > gap:
            out.append((cube, prefix + ((c, gap, head[1]),), v))
        if len(b) == d + 1:  # a constant under this span
            if e[2] + v:
                out.append((cube, b if keep else prefix + (head,), e[2] + v))
            s += 1
        else:
            t = s + 1
            while t < j and entries[t][1][d] == head:
                t += 1
            _shift(entries, s, t, d + 1, v, dens, prefix + (head,), keep, out)
            s = t
        gap = head[2]
    if gap < dens[c]:
        out.append((cube, prefix + ((c, gap, dens[c]),), v))


def _insert(entries: Sequence[Entry], i: int, j: int, d: int, box: LatticeBounds, k: int,
            v: int, dens: Mapping[int, int], prefix: LatticeBounds, keep: bool,
            out: list[Entry]) -> None:
    """Append to `out` the canonical entries of entries[i:j] plus one box.

    entries[i:j] is a canonical, non-empty nested span list of one cube on
    the lattice `dens`, read from bound position d on; the box is box[k:]
    with value v, its constraints proper.  The result's bounds are
    `prefix` followed by the sum's, and `keep` says that the bounds of the
    entries before d are `prefix`, so that an entry the box leaves alone
    is appended as it is.  With c the smaller of the two first
    coordinates:

    - the box is free on c: it is added under every span of c, and in the
      gaps between them it stands alone.  No two cells join: adjacent
      spans differ, and still differ once the same box is added to both.
    - the list is free on c: it is cut at the box's ends, and the box is
      added to the middle piece.  Neither outer piece can join it.
    - both constrain c: spans outside [lo, hi) are kept, those it cuts
      lose their inner piece, which takes the box, and the gaps inside
      hold the box alone.  A cell can join its neighbor only at lo or at
      hi, and c is dropped when one cell then spans [0, D).
    """
    if k == len(box):
        _shift(entries, i, j, d, v, dens, prefix, keep, out)
        return
    cube, first, _ = entries[i]
    c, lo, hi = box[k]
    if len(first) == d or c < first[d][0]:  # the list is free on c
        if lo:
            out.extend(_rebased(entries[i:j], d, prefix + ((c, 0, lo),)))
        _insert(entries, i, j, d, box, k + 1, v, dens, prefix + (box[k],), False, out)
        if hi < dens[c]:
            out.extend(_rebased(entries[i:j], d, prefix + ((c, hi, dens[c]),)))
        return
    cs = first[d][0]
    if c > cs:  # the box is free on cs
        rest = box[k:]
        gap = 0
        s = i
        while s < j:
            head = entries[s][1][d]
            t = _span_end(entries, s, j, d)
            if head[1] > gap:
                out.append((cube, prefix + ((cs, gap, head[1]),) + rest, v))
            _insert(entries, s, t, d + 1, box, k, v, dens, prefix + (head,), keep, out)
            gap, s = head[2], t
        if gap < dens[cs]:
            out.append((cube, prefix + ((cs, gap, dens[cs]),) + rest, v))
        return
    rest = box[k + 1:]
    kp = len(prefix) + 1  # where a new entry's residue starts
    # the spans before a end at or before lo
    a = i
    if j - i > 8:
        a = bisect_right(entries, lo, i, j, key=_head_hi(d))
    else:
        while a < j and entries[a][1][d][2] <= lo:
            a += 1
    # the cells from lo to hi, [p, q, entries], all of them new entries
    cells: list[list] = []
    gap = lo
    s = a
    while s < j:
        head = entries[s][1][d]
        _, p, q = head
        if p >= hi:
            break
        t = _span_end(entries, s, j, d)
        if p < lo:
            cells.append([p, lo, _rebased(entries[s:t], d + 1, prefix + ((c, p, lo),))])
        elif p > gap:
            cells.append([gap, p, [(cube, prefix + ((c, gap, p),) + rest, v)]])
        x = lo if p < lo else p
        y = hi if q > hi else q
        got: list[Entry] = []
        _insert(entries, s, t, d + 1, box, k + 1, v, dens, prefix + ((c, x, y),),
                keep and x == p and y == q, got)
        if got:
            cells.append([x, y, got])
        if q > hi:
            cells.append([hi, q, _rebased(entries[s:t], d + 1, prefix + ((c, hi, q),))])
        gap = q
        s = t
    b = s  # the spans from b on start at or after hi
    if gap < hi:
        cells.append([gap, hi, [(cube, prefix + ((c, gap, hi),) + rest, v)]])
    # the span that ends at lo, and the one that starts at hi, may join
    # the cell beside it
    left, right = a, b
    if (cells and cells[0][0] == lo and a > i and entries[a - 1][1][d][2] == lo
            and entries[a - 1][2] == cells[0][2][-1][2]):
        head = entries[a - 1][1][d]
        start = a - 1
        if start > i and entries[start - 1][1][d] == head:
            start = bisect_left(entries, head[1], i, start - 1, key=_head_lo(d))
        if _same_residue(entries[start:a], d + 1, cells[0][2], kp):
            left = start
            cells[0][0] = head[1]
    if (cells and cells[-1][1] == hi and b < j and entries[b][1][d][1] == hi
            and entries[b][2] == cells[-1][2][0][2]):
        end = _span_end(entries, b, j, d)
        if _same_residue(entries[b:end], d + 1, cells[-1][2], kp):
            right = end
            cells[-1][1] = entries[b][1][d][2]
    if left == i and right == j and len(cells) == 1 and cells[0][0] == 0 and cells[0][1] == dens[c]:
        out.extend(_rebased(cells[0][2], kp, prefix))  # c is dropped
        return
    if i < left:
        out.extend(entries[i:left] if keep else _rebased(entries[i:left], d, prefix))
    for p, q, got in cells:
        if (p < lo and left < a) or (q > hi and right > b):  # a joined cell: a new head
            got = _rebased(got, kp, prefix + ((c, p, q),))
        out.extend(got)
    if right < j:
        out.extend(entries[right:j] if keep else _rebased(entries[right:j], d, prefix))


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


def _refines(dens: Mapping[int, int], own: Mapping[int, int]) -> bool:
    """Whether the lattice `dens` refines `own`, coordinate by coordinate."""
    for c, d in own.items():
        got = dens.get(c)
        if got is None or got % d:
            return False
    return True


def _factors(own: Mapping[int, int], dens: Mapping[int, int]) -> dict[int, int]:
    """Per-coordinate factors taking lattice `own` to the finer `dens`."""
    return {c: dens[c] // d for c, d in own.items() if dens[c] != d}


def _scaled(bounds: LatticeBounds, factors: Mapping[int, int]) -> LatticeBounds:
    """Bounds with coordinate c multiplied by factors[c]."""
    return tuple([(c, lo * factors[c], hi * factors[c]) if c in factors else (c, lo, hi)
                  for c, lo, hi in bounds])


def _rescaled(entries: tuple[Entry, ...], factors: Mapping[int, int], vf: int
              ) -> tuple[Entry, ...]:
    """Entries with coordinate c multiplied by factors[c] and values by vf."""
    if not factors:
        if vf == 1:
            return entries
        return tuple((cube, b, v * vf) for cube, b, v in entries)
    return tuple((cube, _scaled(b, factors), v * vf) for cube, b, v in entries)


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


class Summary(NamedTuple):
    """What exact checks read of a function `f`, from one pass over its
    entries: Σ|box| (`measure`, over `common`), Σ v·|box| (`integral`)
    and Σ |v|·|box| (`moment`, both over common·V), the values v, the
    coordinates and the cubes its boxes constrain and lie on, and `box`,
    its entry when it has exactly one.  The predicates below compare
    these lattice integers and build no `Fraction`."""

    measure: int
    integral: int
    moment: int
    common: int
    vden: int
    values: frozenset[int]
    coords: frozenset[int]
    cubes: frozenset[int]
    box: Entry | None
    f: "StepFunction"

    def moment_is(self, value: Fraction | int) -> bool:
        """Whether `f.moment(1) == value`."""
        return self.moment * value.denominator == value.numerator * self.common * self.vden

    def takes_only(self, value: Fraction | int) -> bool:
        """Whether every box carries `value`: `f.term_values() <= {value}`."""
        want, den = value.numerator * self.vden, value.denominator
        for v in self.values:
            if v * den != want:
                return False
        return True

    def same_integral(self, other: "Summary") -> bool:
        """Whether the integrals of `f` and `other.f` are equal."""
        return (self.integral * other.common * other.vden
                == other.integral * self.common * self.vden)

    def is_product(self, a: "Summary", b: "Summary", c: Fraction | int = 1) -> bool:
        """Whether `f == c * a.f * b.f`.

        When all three are one box, the product is the intersection of the
        boxes of `a` and `b` with value c * va * vb: every constraint of a
        canonical box is proper, so the intersection drops none, and a
        canonical one-box `f` has positive measure, so it matches no
        empty intersection.  The boxes and values are compared directly.
        Otherwise the product is computed."""
        f, fa, fb = self.f, a.f, b.f
        if self.box is None or a.box is None or b.box is None:
            return f == fa.multiply(fb).scale(c)
        cube, bounds, v = self.box
        cube_a, bounds_a, va = a.box
        cube_b, bounds_b, vb = b.box
        if not (cube == cube_a == cube_b and v * a.vden * b.vden * c.denominator
                == c.numerator * va * vb * self.vden):
            return False
        # the intersection, as (lo, lo's denominator, hi, hi's denominator)
        dens = fa._dens
        box = {k: (lo, dens[k], hi, dens[k]) for k, lo, hi in bounds_a}
        dens = fb._dens
        for k, lo, hi in bounds_b:
            d = dens[k]
            got = box.get(k)
            if got is None:
                box[k] = (lo, d, hi, d)
                continue
            lo_a, lo_d, hi_a, hi_d = got
            if lo * lo_d > lo_a * d:
                lo_a, lo_d = lo, d
            if hi * hi_d < hi_a * d:
                hi_a, hi_d = hi, d
            box[k] = (lo_a, lo_d, hi_a, hi_d)
        if len(box) != len(bounds):
            return False
        dens = f._dens
        for k, lo, hi in bounds:
            got = box.get(k)
            if got is None:
                return False
            d = dens[k]
            if lo * got[1] != got[0] * d or hi * got[3] != got[2] * d:
                return False
        return True


def _summary(fields: tuple) -> Summary:
    # the tuple constructor, without the keyword handling of Summary(...)
    return tuple.__new__(Summary, fields)


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

    def box_count(self, cube: int | None = None) -> int:
        """Number of boxes in the canonical form, or in its part on one cube."""
        if cube is None:
            return len(self._entries)
        self._require_cube(cube)
        return sum(1 for e in self._entries if e[0] == cube)

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
        if len(self._domain) == 1:
            if len(other._entries) == 1:
                return self._plus_box(other)
            if len(self._entries) == 1:
                return other._plus_box(self)
        return StepFunction._summed(self._domain, (self, other))

    def _plus_box(self, part: "StepFunction") -> "StepFunction":
        """self + part, for a part of one entry on the same one cube: the
        box is inserted into the entries (`_insert`), on this function's
        lattice when it refines the part's."""
        dens, vden, entries = self._dens, self._vden, self._entries
        pdens, pvden = part._dens, part._vden
        if (pdens is not dens and not _refines(dens, pdens)) or vden % pvden:
            dens, vden = _join((self, part))
            entries = _rescaled(entries, _factors(self._dens, dens), vden // self._vden)
        (_, box, v), = part._entries
        if pdens is not dens:
            factors = _factors(pdens, dens)
            if factors:
                box = _scaled(box, factors)
        out: list[Entry] = []
        _insert(entries, 0, len(entries), 0, box, 0, v * (vden // pvden), dens, (), True, out)
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
        self._require_cube(cube)
        total, common = self._integrate(cube, _one)
        return Fraction(total, common) if total else _ZERO

    def summary(self) -> Summary:
        """The `Summary` of this function, from one pass over its entries."""
        dens = self._dens
        entries = self._entries
        if len(entries) == 1:  # most parts of a term
            (cube, bounds, v), = entries
            num = den = 1
            for c, lo, hi in bounds:
                num *= hi - lo
                den *= dens[c]
            return _summary((num, v * num, abs(v) * num, den, self._vden, frozenset((v,)),
                             frozenset([c for c, _, _ in bounds]), frozenset((cube,)),
                             entries[0], self))
        measure = integral = moment = 0
        common = 1
        values, coords, cubes = set(), set(), set()
        for cube, bounds, v in entries:
            num = den = 1
            for c, lo, hi in bounds:
                num *= hi - lo
                den *= dens[c]
                coords.add(c)
            if not measure:  # nothing to rescale: start on this box's denominator
                common = den
            elif den != common:
                joint = lcm(common, den)
                up = joint // common
                measure, integral, moment = measure * up, integral * up, moment * up
                num *= joint // den
                common = joint
            measure += num
            integral += v * num
            moment += abs(v) * num
            values.add(v)
            cubes.add(cube)
        return _summary((measure, integral, moment, common, self._vden, frozenset(values),
                         frozenset(coords), frozenset(cubes), None, self))

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


# ChunkedSum canonicalizes what waits every _CHUNK additions.  What waits
# is bounds and values in lists, not functions, so the cyclic garbage
# collector has little to scan: summing the 181,652 terms of the four
# multipoint(4, 3) point schedules one by one, block by block, set off at
# most one collection at any chunk from 32 to 4096, where waiting
# functions set off 495 young collections at 128 and 2,785 at 4096.  The
# boxes that formula sections repeat or continue keep the lists short, so
# a compaction sweeps few boxes and fewer compactions win.  Best of six
# runs of those sums on a 2-vCPU host, in CPU seconds: 0.53 at 32, 0.39
# at 128, 0.36 at 512, 0.35 at 1024 and 0.35 at 4096.
_CHUNK = 1024


class ChunkedSum:
    """Running sum of many functions, compacted every `_CHUNK` additions
    so memory stays bounded while long streams are folded in.

    The terms added since the last compaction wait cube by cube as bounds
    and values on one lattice, the join of the lattices of everything
    added, and a compaction canonicalizes them together with the running
    total (`_canonical`).  Two shortcuts keep the waiting lists short for
    the sections of a formula family, whose terms come in index order:
    an entry that is the very object added last on its cube, from a
    function on the same lattice, adds its value to that one, and a box
    with the same value that continues the last one on its last
    coordinate is joined to it."""

    def __init__(self, domain: Sequence[int]):
        self._domain = tuple(int(c) for c in domain)
        self._dens: dict[int, int] = {}
        self._vden = 1
        # the lattice of the function added last, and its factors to ours
        self._source: tuple = (None, 0, {}, 1)
        self._total: StepFunction | None = None
        self._clear()

    def _clear(self) -> None:
        self._count = 0
        # per cube: [bounds, values, the entry added last]
        self._pending: dict[int, list] = {c: [[], [], None] for c in self._domain}

    def add(self, f: StepFunction) -> None:
        if f._domain != self._domain:
            raise DomainError(f"domain mismatch in sum: {f._domain} vs {self._domain}")
        self._put(f)
        self._count += 1
        if self._count >= _CHUNK:
            self._compact()

    def _put(self, f: StepFunction) -> None:
        """Let the entries of f wait, on the lattice."""
        if f._dens is not self._source[0] or f._vden != self._source[1]:
            self._lattice(f)
        _, _, factors, vf = self._source
        pending = self._pending
        for e in f._entries:
            slot = pending[e[0]]
            bounds, values, last = slot
            if e is last:
                values[-1] += e[2] * vf
                continue
            b = _scaled(e[1], factors) if factors else e[1]
            v = e[2] * vf
            if values and values[-1] == v and b:
                prev, end = bounds[-1], b[-1]
                if (len(prev) == len(b) and prev[-1][2] == end[1] and prev[-1][0] == end[0]
                        and prev[:-1] == b[:-1]):
                    bounds[-1] = b[:-1] + ((end[0], prev[-1][1], end[2]),)
                    slot[2] = None
                    continue
            slot[2] = e
            bounds.append(b)
            values.append(v)

    def _lattice(self, f: StepFunction) -> None:
        """Take f's lattice in: join it to the lattice, rescaling what
        waits, and note f's factors to the result."""
        if not _refines(self._dens, f._dens) or self._vden % f._vden:
            dens = dict(self._dens)
            for c, d in f._dens.items():
                dens[c] = lcm(dens.get(c, 1), d)
            vden = lcm(self._vden, f._vden)
            factors, vf = _factors(self._dens, dens), vden // self._vden
            for slot in self._pending.values():
                if factors:
                    slot[0] = [_scaled(b, factors) for b in slot[0]]
                slot[1] = [v * vf for v in slot[1]]
            self._dens, self._vden = dens, vden
        for slot in self._pending.values():
            slot[2] = None
        self._source = (f._dens, f._vden, _factors(f._dens, self._dens), self._vden // f._vden)

    def _compact(self) -> None:
        if self._total is not None:
            self._put(self._total)
        per_cube = {cube: list(zip(bounds, values))
                    for cube, (bounds, values, _) in self._pending.items()}
        self._total = StepFunction._raw(
            self._domain, _canonical(self._domain, per_cube, self._dens), self._dens, self._vden)
        self._clear()

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
        self._last: list = [None, 0]   # the [function, count] added to last

    def add(self, f: StepFunction) -> None:
        if f is self._last[0]:  # the same function again
            self._last[1] += 1
            return
        # equal entries on one lattice are one function; the lattice object
        # is held by f, so its id names it while f is counted here
        key = (id(f._dens), f._vden, f._entries)
        got = self._counts.get(key)
        if got is None:
            got = self._counts[key] = [f, 0]
        got[1] += 1
        self._last = got

    def total(self) -> StepFunction:
        return sum_functions([f.scale(count) for f, count in self._counts.values()],
                             self._domain)
