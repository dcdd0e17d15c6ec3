"""Exact verification of every structural identity a family promises.

Each pair of consecutive generations (e, e+1) lives on one cube, where
heads partition the cube into equal 0/1 cells and tails are negated
products of consecutive-level heads that cancel their head by rows and
the next-level head by columns.  The bridge cubes 2e below the pair and
2e+2 above it carry the scaled pieces that couple one level to the next.

`CHECKS` lists every identity as one ordered table.  One runner walks
each (pair, level) unit once, fetching each of its terms once and
feeding the per-term checks and the row, column, level and coupling sums
together.  Every comparison is exact rational equality, never a tolerance.
The per-term checks compare lattice integers (`StepFunction.moment_is`,
`takes_only`, `same_integral`, `is_product`), so a passing term builds no
`Fraction`; witnesses are formatted from `Fraction`s only on failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .families import (
    MAX_TERMS,
    Family,
    StructuralError,
    TermId,
    check_term_budget,
    cube_label,
    size_problem,
)
from .stepfn import ChunkedSum, StepFunction, cube_constants, sum_functions

_FAIL_CAP = 25
# Columns are summed side by side, one small running sum each.
_COLUMN_CHUNK = 32


class AxiomCheck(NamedTuple):
    check: str
    scope: str
    passed: bool
    witness: str | None


class AxiomReport:
    """All recorded checks, with failure listing capped per check id."""

    def __init__(self):
        self.checks: list[AxiomCheck] = []
        self.suppressed: dict[str, int] = {}
        self._fail_counts: dict[str, int] = {}

    def record(self, check: str, scope: str, passed: bool, witness: str | None = None):
        if not passed:
            seen = self._fail_counts.get(check, 0)
            self._fail_counts[check] = seen + 1
            if seen >= _FAIL_CAP:
                self.suppressed[check] = self.suppressed.get(check, 0) + 1
                return
        self.checks.append(AxiomCheck(check, scope, passed, witness))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks) and not self.suppressed

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def counts(self) -> tuple[int, int]:
        failed = len(self.failures()) + sum(self.suppressed.values())
        return len(self.checks) + sum(self.suppressed.values()), failed

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"{mark} {c.check} [{c.scope}]"
            if c.witness:
                line += f": {c.witness}"
            out.append(line)
        for check, extra in sorted(self.suppressed.items()):
            out.append(f"FAIL {check}: {extra} further failures not listed")
        total, failed = self.counts()
        out.append(f"{'OK' if failed == 0 else 'FAILED'}: "
                   f"{total - failed}/{total} checks passed")
        return out

    def csv_lines(self) -> list[str]:
        out = ["check,scope,passed,witness"]
        for c in self.checks:
            witness = (c.witness or "").replace('"', "'")
            out.append(f'{c.check},"{c.scope}",{int(c.passed)},"{witness}"')
        return out


def _describe_diff(diff: StepFunction) -> str:
    bits = []
    for c in diff.domain:
        m = diff.moment(1, cube=c)
        if m != 0:
            bits.append(f"off by moment {m} on {cube_label(c)}")
    return "; ".join(bits[:3]) or "no difference"


# --- the table of checks ----------------------------------------------------

HEAD, TAIL, ROW, COLUMN, HEADS, TAILS, COUPLING = (
    "head", "tail", "row", "column", "heads", "tails", "coupling")
PAIR, MID, TAIL_MID = "pair", "mid", "tail_mid"


class _Item(NamedTuple):
    """What one check reads: a term's part on one cube (the whole term if
    the check reads no cube), or a row, column, level or coupling sum."""

    fn: StepFunction
    cube: int | None
    name: str | None          # None for a level sum, named by its check's scope
    whole: StepFunction | None = None    # the whole term
    cancel: StepFunction | None = None   # the head(s) a sum must cancel
    support: Fraction | None = None      # summed support measures of a level


class Check(NamedTuple):
    id: str
    on: str                   # HEAD, TAIL, ROW, COLUMN, HEADS, TAILS or COUPLING
    roles: tuple              # PAIR, MID, TAIL_MID; None reads the whole term
    ok: Callable[["_Unit", _Item], bool]
    witness: Callable[["_Unit", _Item], str]
    scope: str                # of the PASS row, formatted with the unit's fields


def _norm(want):
    return (lambda u, x: x.fn.moment_is(want(u)),
            lambda u, x: f"moment {x.fn.moment(1)} != {want(u)}")


def _coords(*shifts):
    return (lambda u, x: x.fn.footprint() <= {(x.cube, u.n + s) for s in shifts},
            lambda u, x: f"depends on {sorted(x.fn.footprint())}")


def _values(want):
    return (lambda u, x: x.fn.takes_only(want(u, x)),
            lambda u, x: f"values {sorted(x.fn.term_values())} != {{{want(u, x)}}}")


def _support(generation):
    return (lambda u, x: not _stray(u.fam, generation(u), x.fn),
            lambda u, x: f"support on {_stray(u.fam, generation(u), x.fn)}")


def _sums_to(value):
    return (lambda u, x: x.fn == cube_constants((x.cube,), {x.cube: value}),
            lambda u, x: _describe_diff(x.fn - cube_constants((x.cube,), {x.cube: value})))


def _measures_one(what):
    return (lambda u, x: x.support == 1, lambda u, x: f"{what} sum to {x.support}")


_CANCELS = (lambda u, x: x.fn == x.cancel.scale(-1),
            lambda u, x: _describe_diff(x.fn + x.cancel))
_PRODUCT = (lambda u, x: x.fn.is_product(*u.factors(), -1),
            lambda u, x: _describe_diff(x.fn + StepFunction.multiply(*u.factors())))
_PAIRED = (lambda u, x: x.whole.same_integral(x.cube, x.cube + 1),
           lambda u, x: (f"{x.whole.integral(x.cube)} on {cube_label(x.cube)} vs "
                         f"{x.whole.integral(x.cube + 1)} on {cube_label(x.cube + 1)}"))
_INDICATOR = (lambda u, x: x.fn.value_set() <= {0, 1},
              lambda u, x: f"values {sorted(x.fn.value_set())}")

_SCOPE = "level {n}, pair ({head},{tail}) on {qc}"
_BRIDGE = (MID, TAIL_MID)

# Table order is PASS-row order.  Entries sharing an id and a scope give
# one PASS row.
CHECKS = (
    Check("cell-norm", HEAD, (PAIR,), *_norm(lambda u: u.head_norm), _SCOPE),
    Check("single-coordinate", HEAD, (PAIR,), *_coords(0), _SCOPE),
    Check("zero-one-valued", HEAD, (PAIR,), *_values(lambda u, x: 1), _SCOPE),
    Check("partition-sums-to-one", HEADS, (PAIR,), *_sums_to(1), _SCOPE),
    Check("disjoint-cells", HEADS, (PAIR,), *_measures_one("cell measures"), _SCOPE),
    Check("product-structure", TAIL, (PAIR,), *_PRODUCT, _SCOPE),
    Check("pair-norm", TAIL, (PAIR,), *_norm(lambda u: u.tail_norm), _SCOPE),
    Check("two-coordinate", TAIL, (PAIR,), *_coords(0, 1), _SCOPE),
    Check("zero-minus-one-valued", TAIL, (PAIR,), *_values(lambda u, x: -1), _SCOPE),
    Check("cube-support", HEAD, (None,), *_support(lambda u: u.e), _SCOPE),
    Check("cube-support", TAIL, (None,), *_support(lambda u: u.e + 1), _SCOPE),
    Check("row-cancellation", ROW, (PAIR,), *_CANCELS, _SCOPE),
    Check("paired-integrals", TAIL, _BRIDGE, *_PAIRED, _SCOPE),
    Check("bridge-norm", TAIL, _BRIDGE, *_norm(lambda u: u.tail_norm), _SCOPE),
    Check("bridge-scaled-values", TAIL, _BRIDGE,
          *_values(lambda u, x: u.bridge_value[x.cube]), _SCOPE),
    Check("bridge-single-coordinate", TAIL, _BRIDGE, *_coords(0), _SCOPE),
    Check("bridge-row-cancellation", ROW, (MID,), *_CANCELS, _SCOPE),
    Check("bridge-row-indicator", ROW, (TAIL_MID,), *_INDICATOR, _SCOPE),
    Check("rows-sum-to-minus-one", TAILS, (PAIR,), *_sums_to(-1), _SCOPE),
    Check("disjoint-cells", TAILS, (PAIR,), *_measures_one("tail supports"),
          _SCOPE + " tails"),
    Check("bridge-sums-to-minus-one", TAILS, (MID,), *_sums_to(-1),
          "level {n}, {tail} on {qmid}"),
    Check("bridge-partition-sums-to-one", TAILS, (TAIL_MID,), *_sums_to(1),
          "level {n}, {tail} on {qtail_mid}"),
    Check("column-cancellation", COLUMN, (PAIR,), *_CANCELS, _SCOPE),
    # coupling groups exist only where a bridge lies below the pair
    Check("bridge-level-coupling", COUPLING, (MID, PAIR), *_CANCELS,
          "levels {n1}/{n}, {head}/{tail} on {qmid} and {qc}"),
)


def _stray(fam: Family, g: int, f: StepFunction) -> list[str]:
    """Cubes where f is not zero although generation g has no piece there."""
    allowed = {1} if g == 0 else {2 * g - 2, 2 * g - 1}
    if 1 <= g <= fam.points - 2:
        allowed.update({2 * g, 2 * g + 1})
    # a canonical box has positive measure: f is not zero on the cubes it has boxes on
    return [cube_label(c) for c in sorted(f.support_cubes() - allowed)]


# --- the verifier -----------------------------------------------------------


def verify_family(fam: Family, *, max_terms: int = MAX_TERMS) -> AxiomReport:
    """Run every applicable check on every level of the truncation; a
    family of more than `max_terms` terms is refused before any is read."""
    if fam.flavor == "transformed":
        raise StructuralError(
            "verification applies to untransformed families; verify the base instead")
    check_term_budget("family", fam.term_count(), max_terms)
    report = AxiomReport()
    _check_growth(fam, report)
    if fam.is_table_backed and not _check_table_complete(fam, report):
        # missing terms would make every later lookup fail; stop here
        return report
    for n in range(1, fam.depth + 1):
        for e in range(fam.points - 1):
            _verify_unit(_Unit(fam, e, n), report)
    return report


def _check_growth(fam: Family, report: AxiomReport) -> None:
    problem = size_problem(fam.sizes, fam.depth, fam.points)
    report.record("cell-count-growth", f"levels 1..{fam.depth + 1}", problem is None, problem)


def _check_table_complete(fam: Family, report: AxiomReport) -> bool:
    wanted = set(fam.term_ids())
    have = set(fam.table_ids())
    missing = wanted - have
    for tid in sorted(missing):
        report.record("table-complete", str(tid), False, "term missing from table")
    for tid in sorted(have - wanted):
        report.record("table-complete", str(tid), False, "unexpected term in table")
    if wanted == have:
        report.record("table-complete", f"{len(wanted)} terms", True)
    return not missing


def _term_fn(fam: Family, g: int, n: int, index: tuple[int, ...]) -> StepFunction:
    if n <= fam.depth:
        return fam.fn(TermId(fam.kinds[g], n, index))
    return fam.reference_fn(g, n, index)


def _idx(index: tuple[int, ...]) -> str:
    return "(" + ",".join(str(i) for i in index) + ")"


class _Unit:
    """Pair (e, e+1) at level n: its cubes, the constants its checks
    compare against, and the heads its tails are products of."""

    def __init__(self, fam: Family, e: int, n: int):
        self.fam, self.e, self.n = fam, e, n
        self.c = 1 if e == 0 else 2 * e + 1
        self.roles = {PAIR: self.c, None: None}
        if e >= 1:
            self.roles[MID] = 2 * e
        if e + 1 <= fam.points - 2:
            self.roles[TAIL_MID] = 2 * e + 2
        self.head, self.tail = fam.kinds[e], fam.kinds[e + 1]
        self.head_norm = Fraction(1, fam.flat_size(e, n))
        self.tail_norm = Fraction(1, fam.flat_size(e + 1, n))
        s_next = fam.flat_size(e, n + 1)
        self.bridge_value = {2 * e + 2: Fraction(1, s_next)}
        if e >= 1:
            self.bridge_value[2 * e] = Fraction(-1, s_next * fam.flat_size(e - 1, n + 1))
        self.fields = dict(n=n, n1=n + 1, head=self.head, tail=self.tail,
                           qc=cube_label(self.c), qmid=cube_label(2 * e),
                           qtail_mid=cube_label(2 * e + 2))
        # parts of each head by flat index, at level n and at level n+1
        self.heads: list[dict] = []
        self.next_heads = [self.parts(_term_fn(fam, e, n + 1, idx))
                           for idx in fam.index_tuples(e, n + 1)]
        self.row = self.column = 0           # where the tail being checked sits

    def parts(self, f: StepFunction) -> dict:
        return {k: f if k is None else f.restrict(k) for k in self.roles.values()}

    def factors(self) -> tuple[StepFunction, StepFunction]:
        """The row's head and the column's next-level head, on the pair cube:
        the tail there is minus their product."""
        return self.heads[self.row][self.c], self.next_heads[self.column][self.c]


def _verify_unit(u: _Unit, report: AxiomReport) -> None:
    fam, e, n = u.fam, u.e, u.n
    checks: dict[str, list] = {}
    scopes = [(ck.id, ck.scope.format(**u.fields)) for ck in CHECKS]
    for i, ck in enumerate(CHECKS):
        for role in ck.roles:
            if role in u.roles:
                checks.setdefault(ck.on, []).append((i, ck, u.roles[role]))
    seen: set[int] = set()
    failed: set[tuple[str, str]] = set()

    def judge(on: str, items: dict) -> None:
        """Run the `on` checks, each on the item of the cube it reads."""
        for i, ck, k in checks.get(on, ()):
            seen.add(i)
            x = items[k]
            if not ck.ok(u, x):
                failed.add(scopes[i])
                report.record(ck.id, where(i, k, x.name), False, ck.witness(u, x))

    def where(i: int, k: int | None, name: str | None) -> str:
        if name is None:  # a level sum, named by its check
            return scopes[i][1]
        return name if k is None else f"{name} on {cube_label(k)}"

    def sums(*kinds: str, chunk: int = 4096) -> dict[int, ChunkedSum]:
        return {k: ChunkedSum((k,), chunk) for on in kinds for _, _, k in checks.get(on, ())}

    def add(acc: dict, parts: dict, support: dict | None = None) -> None:
        for k, s in acc.items():
            s.add(parts[k])
        for k in support or ():
            support[k] += parts[k].support_measure(k)

    def term(g: int, on: str, idx: tuple[int, ...]) -> dict:
        parts = u.parts(_term_fn(fam, g, n, idx))
        name = f"{fam.kinds[g]}^{n}{_idx(idx)}"
        judge(on, {k: _Item(p, k, name, whole=parts[None]) for k, p in parts.items()})
        return parts

    def close(on: str, level: dict, support: dict) -> None:
        judge(on, {k: _Item(s.total(), k, None, support=support.get(k))
                   for k, s in level.items()})

    level = sums(HEADS)
    support = {u.c: 0}  # cell measures are checked on the pair cube
    for idx in fam.index_tuples(e, n):
        u.heads.append(term(e, HEAD, idx))
        add(level, u.heads[-1], support)
    close(HEADS, level, support)

    s_next = len(u.next_heads)
    columns = [sums(COLUMN, COUPLING, chunk=_COLUMN_CHUNK) for _ in range(s_next)]
    level = sums(TAILS)
    support = {u.c: 0}
    for t, idx in enumerate(fam.index_tuples(e + 1, n)):
        u.row, u.column = divmod(t, s_next)
        if u.column == 0:
            rows, row_name = sums(ROW), f"row {u.tail}^{n}{_idx(idx[:-1])}+*"
        parts = term(e + 1, TAIL, idx)
        add(rows, parts)
        add(columns[u.column], parts)
        add(level, parts, support)
        if u.column == s_next - 1:
            judge(ROW, {k: _Item(s.total(), k, row_name, cancel=u.heads[u.row][k])
                        for k, s in rows.items()})
    close(TAILS, level, support)

    # coupling group j' pairs the level-(n+1) heads whose last index is j'
    # with the level-n columns under them
    groups: dict[int, dict] = {}
    for j, (idx, column) in enumerate(zip(fam.index_tuples(e, n + 1), columns)):
        items = {k: _Item(s.total(), k, f"column {u.tail}^{n}(*,{j + 1})",
                          cancel=u.next_heads[j][k]) for k, s in column.items()}
        judge(COLUMN, items)
        if MID in u.roles:
            for k, x in items.items():
                groups.setdefault(idx[-1], {}).setdefault(k, []).append(x)
    for jp, group in sorted(groups.items()):
        name = f"column {jp} of level {n + 1} {u.head} vs level {n} {u.tail}"
        judge(COUPLING, {k: _Item(sum_functions([x.fn for x in xs], (k,)), k, name,
                                  cancel=sum_functions([x.cancel for x in xs], (k,)))
                         for k, xs in group.items()})

    for check, scope in dict.fromkeys(scopes[i] for i in sorted(seen)):
        if (check, scope) not in failed:
            report.record(check, scope, True)
