"""Exact verification of every structural identity a family promises.

Each pair of consecutive generations (e, e+1) lives on one cube, where
heads partition the cube into equal 0/1 cells and tails are negated
products of consecutive-level heads that cancel their head by rows and
the next-level head by columns.  The bridge cubes 2e below the pair and
2e+2 above it carry the scaled pieces that couple one level to the next.

`CHECKS` lists every identity as one ordered table.  One walk, by level
and then by pair, fetches each term once, already cut by cube: the
family's `parts` has each term's source cut it (a formula plan has one
piece per cube, a family file one record per cube and term).  The walk
keeps generation e at level n+1 from its use as next-level heads to its
uses as tails and heads, and never keeps the last generation.

Term checks read summaries, not parts.  Each part is measured once, in
one pass over its entries (`StepFunction.summary`: its integral, its
first moment and measure, its values, coordinates and cubes, and its one
box), and a part its source carried over from the term before, the same
object, keeps its summary.  Predicates compare the lattice integers of
the summaries, so a passing term builds no `Fraction`; a witness is
built from the part itself, and only for a failure.

Pair-cube sums follow from the proven products.  With h_r the heads, g_k
the next-level heads, H = Σ h_r and G = Σ g_k on the pair cube, a tail
t_rk that passed product-structure is exactly -h_r·g_k.  So with F_r and
F^k the failing tails of row r and column k, and R the rows holding one,

    row r    = -h_r·(G - Σ_{F_r} g_k) + Σ_{F_r} t_rk,
    column k = -(H - Σ_{F^k} h_r)·g_k + Σ_{F^k} t_rk,
    level    = Σ_r row r = -(H - Σ_R h_r)·G + Σ_R row r.

With no failing tail and H = G = 1 these are -h_r, -g_k and -1, and
pass unbuilt; else just these sums are built.  A coupling group sums its
columns: -Σ g_j if each passed.  Bridge sums stay canonical, but tails
share pieces there, so a `Tally` adds each distinct part once, times its
count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .families import (
    MAX_TERMS,
    Family,
    StructuralError,
    TermId,
    check_term_budget,
    cube_label,
    size_problem,
)
from .stepfn import StepFunction, Summary, Tally, cube_constants, sum_functions

_FAIL_CAP = 25


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


class Check(NamedTuple):
    id: str
    on: str                   # HEAD, TAIL, ROW, COLUMN, HEADS, TAILS or COUPLING
    roles: tuple              # PAIR, MID, TAIL_MID; None reads the whole term
    # a term check's ok takes (unit, the cube it reads or None for the
    # whole term, the `Summary` of each of the term's parts by cube), and
    # its witness (unit, that part or the whole term, the whole term); a
    # sum check's ok and witness take (unit, the sum, what it is compared
    # with)
    ok: Callable[["_Unit", object, object], bool]
    witness: Callable[["_Unit", StepFunction, object], str]
    scope: str                # of the PASS row, formatted with the unit's fields


def _norm(want):
    return (lambda u, k, sums: sums[k].moment_is(want(u)),
            lambda u, f, _: f"moment {f.moment(1)} != {want(u)}")


def _coords(*shifts):
    return (lambda u, k, sums: sums[k].coords <= u.near[shifts],
            lambda u, f, _: f"depends on {sorted(f.footprint())}")


def _values(want):
    return (lambda u, k, sums: sums[k].takes_only(want(u, k)),
            lambda u, f, _: f"values {sorted(f.term_values())} != {{{want(u, f.domain[0])}}}")


def _support(shift):
    # the term is of generation e + shift, with pieces on u.pieces[shift];
    # its parts lie on those cubes (the zero function where it has none)
    # and on each cube it has boxes on
    return (lambda u, _, sums: sums.keys() <= u.pieces[shift]
            or all(s.cubes <= u.pieces[shift] for s in sums.values()),
            lambda u, f, _: f"support on {_stray(u.fam, u.e + shift, f.support_cubes())}")


def _sums_to(value):
    return (lambda u, f, _: f == cube_constants(f.domain, {f.domain[0]: value}),
            lambda u, f, _: _describe_diff(f - cube_constants(f.domain, {f.domain[0]: value})))


def _measures_one(what):
    return (lambda u, f, measure: measure == 1,
            lambda u, f, measure: f"{what} sum to {measure}")


_CANCELS = (lambda u, f, cancel: f == cancel.scale(-1),
            lambda u, f, cancel: _describe_diff(f + cancel))
_PRODUCT = (lambda u, k, sums: sums[k].is_product(*u.factors, -1),
            lambda u, f, _: _describe_diff(f + u.factors[0].f.multiply(u.factors[1].f)))
# a bridge cube k is paired with cube k + 1
_PAIRED = (lambda u, k, sums: sums[k].same_integral(sums[k + 1]),
           lambda u, f, whole: " vs ".join(f"{whole.integral(k)} on {cube_label(k)}"
                                           for k in (f.domain[0], f.domain[0] + 1)))
_INDICATOR = (lambda u, f, _: f.value_set() <= {0, 1},
              lambda u, f, _: f"values {sorted(f.value_set())}")

_SCOPE = "level {n}, pair ({head},{tail}) on {qc}"
_BRIDGE = (MID, TAIL_MID)

# Table order is PASS-row order.  Entries sharing an id and a scope give
# one PASS row.
CHECKS = (
    Check("cell-norm", HEAD, (PAIR,), *_norm(lambda u: u.head_norm), _SCOPE),
    Check("single-coordinate", HEAD, (PAIR,), *_coords(0), _SCOPE),
    Check("zero-one-valued", HEAD, (PAIR,), *_values(lambda u, k: 1), _SCOPE),
    Check("partition-sums-to-one", HEADS, (PAIR,), *_sums_to(1), _SCOPE),
    Check("disjoint-cells", HEADS, (PAIR,), *_measures_one("cell measures"), _SCOPE),
    Check("product-structure", TAIL, (PAIR,), *_PRODUCT, _SCOPE),
    Check("pair-norm", TAIL, (PAIR,), *_norm(lambda u: u.tail_norm), _SCOPE),
    Check("two-coordinate", TAIL, (PAIR,), *_coords(0, 1), _SCOPE),
    Check("zero-minus-one-valued", TAIL, (PAIR,), *_values(lambda u, k: -1), _SCOPE),
    Check("cube-support", HEAD, (None,), *_support(0), _SCOPE),
    Check("cube-support", TAIL, (None,), *_support(1), _SCOPE),
    Check("row-cancellation", ROW, (PAIR,), *_CANCELS, _SCOPE),
    Check("paired-integrals", TAIL, _BRIDGE, *_PAIRED, _SCOPE),
    Check("bridge-norm", TAIL, _BRIDGE, *_norm(lambda u: u.tail_norm), _SCOPE),
    Check("bridge-scaled-values", TAIL, _BRIDGE,
          *_values(lambda u, k: u.bridge_value[k]), _SCOPE),
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
    # Coupling groups exist only where a bridge lies below the pair.  On the
    # pair cube a group is the sum of its columns and fails only with one of
    # them; that half stays because its PASS rows are in the pinned reports
    # and digests, and it builds no sum while its columns pass.
    Check("bridge-level-coupling", COUPLING, (MID, PAIR), *_CANCELS,
          "levels {n1}/{n}, {head}/{tail} on {qmid} and {qc}"),
)


def _pieces(fam: Family, g: int) -> range:
    """The cubes generation g has pieces on: 2g-2 .. 2g+1, the last
    generation's on 2g-2 and 2g-1, within the domain."""
    top = 2 * g + 1 if g <= fam.points - 2 else 2 * g - 1
    return range(max(2 * g - 2, 1), top + 1)


def _stray(fam: Family, g: int, cubes: Iterable[int]) -> list[str]:
    """Those of `cubes`, the cubes a term has boxes on, where generation g
    has no piece."""
    # a canonical box has positive measure: a term is not zero on the cubes it has boxes on
    return [cube_label(c) for c in sorted(cubes) if c not in _pieces(fam, g)]


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
    # a family with a term source checks the ids the source holds; missing
    # terms would make every later lookup fail, so stop there
    if fam.source is not None and not _check_table_complete(fam, report):
        return report
    pairs = range(fam.points - 1)
    level: dict[int, list] = {}   # generation -> its split terms at level n, kept
    for n in range(1, fam.depth + 1):
        ahead: dict[int, list] = {}
        for e in pairs:
            u = _Unit(fam, e, n)
            u.heads = level.pop(e, None) or list(_split(fam, e, n))
            u.next_heads = ahead[e] = list(_split(fam, e, n + 1))
            tails = level.get(e + 1) or _split(fam, e + 1, n)
            if e + 1 in pairs:
                level[e + 1] = tails = list(tails)
            _verify_unit(u, tails, report)
        level = ahead
    return report


def _check_growth(fam: Family, report: AxiomReport) -> None:
    problem = size_problem(fam.sizes, fam.depth, fam.points)
    report.record("cell-count-growth", f"levels 1..{fam.depth + 1}", problem is None, problem)


def _check_table_complete(fam: Family, report: AxiomReport) -> bool:
    held = fam.source.ids()
    missing = unexpected = ()
    # proven ids (a vetted file's were checked, in order, as it was read)
    # pass unread; held ones build no id sets: missing ids are lookups in
    # them, unexpected ids are judged by the family's shape, and only the
    # failures are sorted
    if held is not None:
        missing = sorted(tid for tid in fam.term_ids() if tid not in held)
        ranges = {(kind, n): fam.index_ranges(g, n)
                  for n in range(1, fam.depth + 1) for g, kind in enumerate(fam.kinds)}
        unexpected = sorted(tid for tid in held if not _is_term(tid, ranges))
    for tid in missing:
        report.record("table-complete", str(tid), False, "term missing from table")
    for tid in unexpected:
        report.record("table-complete", str(tid), False, "unexpected term in table")
    if not missing and not unexpected:
        report.record("table-complete", f"{fam.term_count()} terms", True)
    return not missing


def _is_term(tid, ranges: dict) -> bool:
    """Whether `tid` equals a term id of the family whose index ranges by
    (kind, level) are `ranges`."""
    if not isinstance(tid, tuple) or len(tid) != 3:
        return False
    kind, n, index = tid
    top = ranges.get((kind, n))
    return top is not None and isinstance(index, tuple) and len(index) == len(top) \
        and all(i in range(1, t + 1) for i, t in zip(index, top))


def _split(fam: Family, g: int, n: int) -> Iterator[tuple[dict, StepFunction]]:
    """Generation g at level n: each term's parts by cube, as its source
    cut them, and the term.  A cube the generation has a piece on, and
    the term no part, holds the zero function: every cube a check reads
    is one of those."""
    cubes = frozenset(_pieces(fam, g))
    zeros = {k: StepFunction.zero((k,)) for k in cubes}
    # the heads one level past the depth come from the formulas
    terms = fam.parts(g, n) if n <= fam.depth else fam.reference_parts(g, n)
    for _, parts, whole in terms:
        if parts.keys() != cubes:
            for k in cubes:
                if k not in parts:
                    parts[k] = zeros[k]
        yield parts, whole


def _through(total: StepFunction, is_one: bool, factor: StepFunction, bad: list) -> StepFunction:
    """-(total - Σ d)·factor + Σ x over (d, x) in `bad`; see the module docstring."""
    if is_one and not bad:
        return factor.scale(-1)
    rest = sum_functions([total] + [d.scale(-1) for d, _ in bad], total.domain)
    return sum_functions([rest.multiply(factor).scale(-1)] + [x for _, x in bad], total.domain)


class _Unit:
    """Pair (e, e+1) at level n: role cubes, constants, heads, next-level heads."""

    def __init__(self, fam: Family, e: int, n: int):
        self.fam, self.e, self.n = fam, e, n
        self.c = 1 if e == 0 else 2 * e + 1
        self.roles = {PAIR: self.c, None: None}
        s_next = fam.flat_size(e, n + 1)
        self.bridge_value = {2 * e + 2: Fraction(1, s_next)}
        if e >= 1:
            self.roles[MID] = 2 * e
            self.bridge_value[2 * e] = Fraction(-1, s_next * fam.flat_size(e - 1, n + 1))
        if e + 1 <= fam.points - 2:
            self.roles[TAIL_MID] = 2 * e + 2
        self.head, self.tail = fam.kinds[e], fam.kinds[e + 1]
        # the cubes heads (0) and tails (1) have pieces on
        self.pieces = {0: frozenset(_pieces(fam, e)), 1: frozenset(_pieces(fam, e + 1))}
        self.near = {(0,): frozenset((n,)), (0, 1): frozenset((n, n + 1))}   # for _coords
        self.head_norm = Fraction(1, fam.flat_size(e, n))
        self.tail_norm = Fraction(1, fam.flat_size(e + 1, n))
        self.fields = dict(n=n, n1=n + 1, head=self.head, tail=self.tail,
                           qc=cube_label(self.c), qmid=cube_label(2 * e),
                           qtail_mid=cube_label(2 * e + 2))
        self.heads: list[tuple] = []        # (parts, term), as are the next-level heads
        self.next_heads: list[tuple] = []
        # the summaries of the pair-cube parts of the row's head and the
        # column's next-level head: the tail being checked is minus their product
        self.factors: tuple[Summary, ...] = ()


def _verify_unit(u: _Unit, tails: Iterable[tuple], report: AxiomReport) -> None:
    fam, e, n, c = u.fam, u.e, u.n, u.c
    checks: dict[str, list] = {}
    scopes = [(ck.id, ck.scope.format(**u.fields)) for ck in CHECKS]
    for i, ck in enumerate(CHECKS):
        for role in ck.roles:
            if role in u.roles:
                checks.setdefault(ck.on, []).append((i, ck, u.roles[role]))
    seen = {i for on in (HEAD, TAIL) for i, _, _ in checks[on]}  # every unit has both
    failed: set[tuple[str, str]] = set()
    bridges = [u.roles[k] for k in _BRIDGE if k in u.roles]

    def fail(i: int, ck: Check, where: str, f: StepFunction, other) -> None:
        failed.add(scopes[i])
        report.record(ck.id, where, False, ck.witness(u, f, other))

    last: dict[int, tuple] = {}   # cube -> (part, its summary) of the term before

    def each(g: int, on: str, idx: tuple[int, ...], parts: dict, whole: StepFunction
             ) -> tuple[tuple[str, ...], dict]:
        """Run the `on` checks on one term: the ids of those that failed,
        and the summaries of its parts.  A part its source carried over
        from the term before keeps its summary."""
        sums = {}
        for k, p in parts.items():
            got = last.get(k)
            if got is None or got[0] is not p:
                got = last[k] = (p, p.summary())
            sums[k] = got[1]
        bad = ()
        for i, ck, k in checks[on]:
            if not ck.ok(u, k, sums):
                bad += (ck.id,)
                name = str(TermId(fam.kinds[g], n, idx))
                if k is None:
                    fail(i, ck, name, whole, whole)
                else:
                    fail(i, ck, f"{name} on {cube_label(k)}", parts[k], whole)
        return bad, sums

    def judge(on: str, name: str | None, items: dict) -> bool:
        """Whether the `on` checks pass on cube -> (sum, other) or None (proven)."""
        ok = True
        for i, ck, k in checks.get(on, ()):
            seen.add(i)
            if items[k] is not None and not ck.ok(u, *items[k]):
                ok = False
                fail(i, ck, scopes[i][1] if name is None else f"{name} on {cube_label(k)}",
                     *items[k])
        return ok

    # support measures are summed as ints, one sum per denominator
    support: dict[int, int] = {}
    head_sums = []
    for idx, (parts, whole) in zip(fam.index_tuples(e, n), u.heads):
        s = each(e, HEAD, idx, parts, whole)[1][c]
        head_sums.append(s)
        support[s.common] = support.get(s.common, 0) + s.measure
    heads_sum = sum_functions([h[c] for h, _ in u.heads], (c,))
    # passing, partition-sums-to-one proves H = 1; failing, the sums are built
    h_one = judge(HEADS, None, {c: (heads_sum, sum(Fraction(v, d) for d, v in support.items()))})

    next_sum = sum_functions([g[c] for g, _ in u.next_heads], (c,))
    next_sums = [g[c].summary() for g, _ in u.next_heads]
    g_one = next_sum == cube_constants((c,), {c: 1})
    level = {b: Tally((b,)) for b in bridges}
    # coupling group j' pairs the level-(n+1) heads whose last index is j'
    # with the level-n columns under them
    group_of = [idx[-1] for idx in fam.index_tuples(e, n + 1)]
    mid = u.roles.get(MID)
    groups = {j: Tally((mid,)) for j in sorted(set(group_of))} if mid else {}
    s_next = len(u.next_heads)
    support = {}
    bad_rows: list = []                 # (head, row sum) of the rows with a failing tail
    bad_columns: dict[int, list] = {}   # column -> (head, pair part) of its failing tails
    for t, (idx, (parts, whole)) in enumerate(zip(fam.index_tuples(e + 1, n), tails)):
        r, k = divmod(t, s_next)
        u.factors = (head_sums[r], next_sums[k])
        if k == 0:
            rows, row_bad = {b: Tally((b,)) for b in bridges}, []
        bad, sums = each(e + 1, TAIL, idx, parts, whole)
        if "product-structure" in bad:
            row_bad.append((u.next_heads[k][0][c], parts[c]))
            bad_columns.setdefault(k, []).append((u.heads[r][0][c], parts[c]))
        s = sums[c]
        support[s.common] = support.get(s.common, 0) + s.measure
        for b in bridges:
            rows[b].add(parts[b])
            level[b].add(parts[b])
        if mid:
            groups[group_of[k]].add(parts[mid])
        if k == s_next - 1:
            head = u.heads[r][0]
            # the head has no piece on the tail_mid cube, whose check reads no other
            items = {b: (rows[b].total(), head.get(b)) for b in bridges}
            items[c] = (_through(next_sum, g_one, head[c], row_bad), head[c])
            if row_bad:
                bad_rows.append((head[c], items[c][0]))
            judge(ROW, f"row {TermId(u.tail, n, idx[:-1])}+*", items)
    items = {b: (level[b].total(), None) for b in bridges}
    items[c] = (_through(heads_sum, h_one, next_sum, bad_rows),
                sum(Fraction(v, d) for d, v in support.items()))
    judge(TAILS, None, items)

    columns, failing = [], set()
    for k, (g, _) in enumerate(u.next_heads):
        columns.append(_through(heads_sum, h_one, g[c], bad_columns.get(k, [])))
        if not judge(COLUMN, f"column {u.tail}^{n}(*,{k + 1})", {c: (columns[k], g[c])}):
            failing.add(k)
    for jp, tally in groups.items():
        ks = [k for k, j in enumerate(group_of) if j == jp]
        items = {mid: (tally.total(),
                       sum_functions([u.next_heads[k][0][mid] for k in ks], (mid,))),
                 c: None}
        if failing.intersection(ks):
            items[c] = (sum_functions([columns[k] for k in ks], (c,)),
                        sum_functions([u.next_heads[k][0][c] for k in ks], (c,)))
        judge(COUPLING, f"column {jp} of level {n + 1} {u.head} vs level {n} {u.tail}", items)

    for check, scope in dict.fromkeys(scopes[i] for i in sorted(seen)):
        if (check, scope) not in failed:
            report.record(check, scope, True)
