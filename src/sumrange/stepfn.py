"""Exact step functions on a finite union of infinite-dimensional unit cubes.

A step function here is a finite rational combination of indicator boxes.
Each box lives on one cube of the domain and constrains finitely many
coordinates to half-open rational subintervals [lo, hi) of the unit
interval; on unconstrained coordinates the box is free.  Values, endpoints
and every derived quantity (measure, moment, integral) are exact
`fractions.Fraction` numbers.

Canonical form, per cube: boxes are pairwise disjoint, no box carries the
value 0, constraints spanning the whole unit interval are dropped, and
adjacent cells whose residual structure coincides are re-merged greedily
coordinate by coordinate (smallest coordinate outermost).  Two functions
on the same domain agree almost everywhere iff their canonical term lists
are identical, so ``==`` is exact a.e. equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Rational = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DomainError(ValueError):
    """Mismatched domains or a reference to a cube outside the domain."""


def as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Interval(NamedTuple):
    """Half-open rational interval [lo, hi) with 0 <= lo < hi <= 1."""

    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi


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

    @property
    def measure(self) -> Fraction:
        m = _ONE
        for _, iv in self.bounds:
            m *= iv.length
        return m

    def contains(self, point: Mapping[int, Fraction]) -> bool:
        return all(iv.contains(point.get(coord, _ZERO)) for coord, iv in self.bounds)


def make_bounds(spec: Mapping[int, tuple[Rational, Rational]]) -> tuple[Bound, ...]:
    out = []
    for coord in sorted(spec):
        if coord < 1:
            raise ValueError(f"coordinate index must be >= 1, got {coord}")
        lo, hi = spec[coord]
        out.append((coord, make_interval(lo, hi)))
    return tuple(out)


# --- canonicalization -------------------------------------------------------
#
# Recursive sweep over the smallest constrained coordinate.  Each level
# splits [0,1) at every breakpoint of that coordinate, canonicalizes the
# residual entries per cell (interpreting overlaps as sums), merges adjacent
# cells with identical residue, and drops the coordinate entirely when a
# single merged cell spans [0,1).  The output depends only on the pointwise
# function, not on the incoming box decomposition.

Entry = tuple[tuple[Bound, ...], Fraction]


def _canon_entries(entries: Iterable[Entry]) -> list[Entry]:
    live = [e for e in entries if e[1] != 0]
    return _canon_rec(live)


def _canon_rec(entries: list[Entry]) -> list[Entry]:
    if not entries:
        return []
    c = None
    for bounds, _ in entries:
        if bounds and (c is None or bounds[0][0] < c):
            c = bounds[0][0]
    if c is None:
        total = _ZERO
        for _, v in entries:
            total += v
        return [] if total == 0 else [((), total)]
    free: list[Entry] = []
    cons: list[Entry] = []
    for e in entries:
        b = e[0]
        (cons if b and b[0][0] == c else free).append(e)
    cuts = {_ZERO, _ONE}
    starts: dict[Fraction, list[int]] = {}
    stops: dict[Fraction, list[int]] = {}
    for i, (bounds, _) in enumerate(cons):
        iv = bounds[0][1]
        cuts.add(iv.lo)
        cuts.add(iv.hi)
        starts.setdefault(iv.lo, []).append(i)
        stops.setdefault(iv.hi, []).append(i)
    points = sorted(cuts)
    active: dict[int, Entry] = {}
    free_sub: list[Entry] | None = None
    spans: list[tuple[Fraction, Fraction, list[Entry]]] = []
    for j in range(len(points) - 1):
        p, q = points[j], points[j + 1]
        for i in stops.get(p, ()):
            active.pop(i, None)
        for i in starts.get(p, ()):
            bounds, v = cons[i]
            active[i] = (bounds[1:], v)
        if active:
            sub = _canon_rec(free + list(active.values()))
        else:
            if free_sub is None:
                free_sub = _canon_rec(free)
            sub = free_sub
        if spans and spans[-1][1] == p and spans[-1][2] == sub:
            spans[-1] = (spans[-1][0], q, sub)
        else:
            spans.append((p, q, sub))
    out: list[Entry] = []
    for lo, hi, sub in spans:
        if not sub:
            continue
        if lo == 0 and hi == 1:
            out.extend(sub)
        else:
            head = (c, Interval(lo, hi))
            for bounds, v in sub:
                out.append(((head,) + bounds, v))
    return out


def _intersect_bounds(a: tuple[Bound, ...], b: tuple[Bound, ...]) -> tuple[Bound, ...] | None:
    out: list[Bound] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ca, iva = a[i]
        cb, ivb = b[j]
        if ca < cb:
            out.append(a[i])
            i += 1
        elif cb < ca:
            out.append(b[j])
            j += 1
        else:
            lo = max(iva.lo, ivb.lo)
            hi = min(iva.hi, ivb.hi)
            if lo >= hi:
                return None
            out.append((ca, Interval(lo, hi)))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class StepFunction:
    """Canonical rational step function on an ordered tuple of cubes."""

    __slots__ = ("_domain", "_terms", "_hash")

    def __init__(self, domain: Sequence[int], terms: Iterable[tuple[Box, Rational]] = ()):
        dom = tuple(int(c) for c in domain)
        if len(set(dom)) != len(dom) or not dom:
            raise DomainError(f"domain must be a non-empty tuple of distinct cubes, got {dom}")
        per_cube: dict[int, list[Entry]] = {c: [] for c in dom}
        for bx, value in terms:
            if bx.cube not in per_cube:
                raise DomainError(f"box on unknown cube {bx.cube}; domain is {dom}")
            per_cube[bx.cube].append((bx.bounds, as_fraction(value)))
        canonical: list[tuple[Box, Fraction]] = []
        for c in dom:
            for bounds, v in _canon_entries(per_cube[c]):
                canonical.append((Box(c, bounds), v))
        self._domain = dom
        self._terms = tuple(canonical)
        self._hash: int | None = None

    @classmethod
    def _raw(cls, domain: tuple[int, ...], terms: tuple[tuple[Box, Fraction], ...]) -> "StepFunction":
        # trusted constructor: terms must already be canonical
        self = object.__new__(cls)
        self._domain = domain
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def zero(cls, domain: Sequence[int]) -> "StepFunction":
        return cls(domain, ())

    @property
    def domain(self) -> tuple[int, ...]:
        return self._domain

    @property
    def terms(self) -> tuple[tuple[Box, Fraction], ...]:
        return self._terms

    def _require_cube(self, cube: int) -> None:
        if cube not in self._domain:
            raise DomainError(f"cube {cube} not in domain {self._domain}")

    def _check_domain(self, other: "StepFunction") -> None:
        if self._domain != other._domain:
            raise DomainError(f"domain mismatch: {self._domain} vs {other._domain}")

    # --- algebra ---

    def add(self, other: "StepFunction") -> "StepFunction":
        self._check_domain(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return StepFunction(self._domain, self._terms + other._terms)

    def scale(self, c: Rational) -> "StepFunction":
        c = as_fraction(c)
        if c == 0:
            return StepFunction._raw(self._domain, ())
        if c == 1:
            return self
        # non-zero scaling keeps the canonical structure intact
        return StepFunction._raw(self._domain, tuple((b, v * c) for b, v in self._terms))

    def multiply(self, other: "StepFunction") -> "StepFunction":
        self._check_domain(other)
        mine: dict[int, list[tuple[Box, Fraction]]] = {}
        for b, v in self._terms:
            mine.setdefault(b.cube, []).append((b, v))
        out: list[tuple[Box, Fraction]] = []
        for b2, v2 in other._terms:
            for b1, v1 in mine.get(b2.cube, ()):
                inter = _intersect_bounds(b1.bounds, b2.bounds)
                if inter is not None:
                    out.append((Box(b2.cube, inter), v1 * v2))
        return StepFunction(self._domain, out)

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

    def moment(self, p: int = 1, cube: int | None = None) -> Fraction:
        """Integral of |f|^p over the whole domain, or over one cube."""
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"moment order must be a positive integer, got {p!r}")
        if cube is not None:
            self._require_cube(cube)
        total = _ZERO
        for b, v in self._terms:
            if cube is None or b.cube == cube:
                total += abs(v) ** p * b.measure
        return total

    def sup_norm(self) -> Fraction:
        return max((abs(v) for _, v in self._terms), default=_ZERO)

    def integral(self, cube: int) -> Fraction:
        self._require_cube(cube)
        total = _ZERO
        for b, v in self._terms:
            if b.cube == cube:
                total += v * b.measure
        return total

    def support_measure(self, cube: int) -> Fraction:
        self._require_cube(cube)
        total = _ZERO
        for b, _ in self._terms:
            if b.cube == cube:
                total += b.measure
        return total

    def footprint(self) -> frozenset[tuple[int, int]]:
        """Set of (cube, coordinate) pairs the function actually depends on."""
        return frozenset((b.cube, coord) for b, _ in self._terms for coord, _ in b.bounds)

    def evaluate(self, cube: int, point: Mapping[int, Fraction]) -> Fraction:
        self._require_cube(cube)
        total = _ZERO
        for b, v in self._terms:
            if b.cube == cube and b.contains(point):
                total += v
        return total

    def restrict(self, cube: int) -> "StepFunction":
        """The same function viewed on a single cube of the domain."""
        self._require_cube(cube)
        return StepFunction._raw((cube,), tuple(t for t in self._terms if t[0].cube == cube))

    def with_domain(self, domain: Sequence[int]) -> "StepFunction":
        """Embed into a larger domain (zero on the added cubes)."""
        dom = tuple(int(c) for c in domain)
        if not set(self._domain) <= set(dom):
            raise DomainError(f"cannot embed domain {self._domain} into {dom}")
        per_cube = {c: [] for c in dom}
        for b, v in self._terms:
            per_cube[b.cube].append((b, v))
        terms = tuple(t for c in dom for t in per_cube[c])
        return StepFunction._raw(dom, terms)

    def term_values(self, cube: int | None = None) -> frozenset[Fraction]:
        if cube is not None:
            self._require_cube(cube)
        return frozenset(v for b, v in self._terms if cube is None or b.cube == cube)

    def value_set(self, cube: int | None = None) -> frozenset[Fraction]:
        """All values attained on a set of positive measure, including 0."""
        vals = set(self.term_values(cube))
        cubes = (cube,) if cube is not None else self._domain
        if any(self.support_measure(c) < 1 for c in cubes):
            vals.add(_ZERO)
        return frozenset(vals)

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for _, v in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self._domain == other._domain and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._domain, self._terms))
        return self._hash

    def __repr__(self) -> str:
        return f"StepFunction(domain={self._domain}, boxes={len(self._terms)})"


@lru_cache(maxsize=None)
def equal_cells(size: int) -> tuple[Interval, ...]:
    """The partition of [0,1) into `size` equal half-open cells."""
    if size < 1:
        raise ValueError(f"cell count must be positive, got {size}")
    return tuple(Interval(Fraction(i, size), Fraction(i + 1, size)) for i in range(size))


def cell(index: int, size: int) -> Interval:
    """Cell number `index` (1-based) of the equal partition into `size` cells."""
    if not 1 <= index <= size:
        raise ValueError(f"cell index {index} out of range 1..{size}")
    return equal_cells(size)[index - 1]


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


def step_on_coord(domain: Sequence[int], cube: int, coord: int,
                  pieces: Iterable[tuple[Rational, Rational, Rational]]) -> StepFunction:
    """Piecewise function of one coordinate: pieces are (lo, hi, value)."""
    terms = []
    for lo, hi, v in pieces:
        terms.append((Box(int(cube), make_bounds({coord: (lo, hi)})), v))
    return StepFunction(domain, terms)


def sum_functions(fns: Iterable[StepFunction], domain: Sequence[int] | None = None) -> StepFunction:
    """Exact sum of many functions, canonicalized once."""
    fns = list(fns)
    if domain is None:
        if not fns:
            raise ValueError("need a domain for an empty sum")
        domain = fns[0].domain
    dom = tuple(int(c) for c in domain)
    terms: list[tuple[Box, Fraction]] = []
    for f in fns:
        if f.domain != dom:
            raise DomainError(f"domain mismatch in sum: {f.domain} vs {dom}")
        terms.extend(f.terms)
    return StepFunction(dom, terms)


class ChunkedSum:
    """Running sum of many functions, compacted every `chunk` additions
    so memory stays bounded while long streams are folded in."""

    def __init__(self, domain: Sequence[int], chunk: int = 4096):
        self._domain = tuple(int(c) for c in domain)
        self._chunk = chunk
        self._pending: list[StepFunction] = []
        self._total: StepFunction | None = None

    def add(self, f: StepFunction) -> None:
        self._pending.append(f)
        if len(self._pending) >= self._chunk:
            self._compact()

    def _compact(self) -> None:
        if self._total is not None:
            self._pending.append(self._total)
        self._total = sum_functions(self._pending, domain=self._domain)
        self._pending = []

    def total(self) -> StepFunction:
        self._compact()
        return self._total
