"""Text formats for families, their step functions, and transform matrices.

Rationals are written as "numerator/denominator" strings, never floats.
Family files are JSON with one term per line, keys in a fixed order and a
deterministic term order (level, kind, index), so the same family always
serializes to identical bytes.  Writes go to a temporary file in the
target directory and are renamed into place.

The codec works on the integer lattice of `stepfn`.  The writer formats
each record's text straight from a function's entries, byte for byte as
`json.dumps(sort_keys=True)` formats the record, with each endpoint lo/D_k
and value v/V reduced as `Fraction` reduces it, so the bytes are those of
its `Fraction` terms.  The reader parses each "n/d" to reduced ints and
validates every box (0 <= lo < hi <= 1, coordinates >= 1 and named once,
cubes in the domain), then hands the ints to `stepfn.lattice_entries`, the
lattice constructor `StepFunction` itself uses; terms with equal lattices
share one `dens` dict.  No `Fraction` is built per box, except to format
an error message.  `load_family` pauses the cyclic garbage collector while
it builds its table, which holds no cycles, and restores the caller's
setting after.

`load_family` streams the writer's layout: a header line ending
`,"terms":[`, one term record per line (each after the first led by a
comma), then a closing `]}` line and the end of the file.  It holds one
line at a time, so its peak memory is about the table it returns.  A file
that does not open with that header line, such as a one-line or a
pretty-printed dump of the same document, is read whole with one
`json.loads`.  Both layouts go through one header check and one
term-record parser.  The header check builds the family from the points,
depth, sizes and (for a transformed family) matrix, and refuses a header
whose flavor, structure, kinds or cubes are not that family's.  The
header's closed-form term count is checked against `max_terms` before
any term is parsed, and the records are counted against it as they are
read.

`verify --family` keeps no table: `sectioned_family` checks the header
and the budget as `load_family` does, then makes one pass over the term
lines of a file in the writer's layout that reads only the id at the end
of each record.  If the ids are exactly the family's `term_ids()`, in
order, followed by the closing line and the end of the file, the file
is the family's term source, with proven ids: a section is read by
seeking to its first line, and each record there is parsed once, straight
to the term's parts by cube.  Any other file (a transformed family,
another layout, missing, extra, duplicate or reordered terms, a file cut
short) gives None, and the caller falls back to `load_family`, as it
does on any error the walk meets.

The section reader has a fast path for the writer's syntax.  A term
line whose box records are each one JSON object with no space, escape
or control character splits at its '},{' separators.  Each record's
text is parsed and validated once, as the JSON path validates it, and
kept in a cache of at most `_PIECE_CACHE` texts per cube, which drops a
cube's texts when it is full: repeated bridge records stay, and a cube
whose records are all distinct costs a bounded amount.  A term with one
box of non-zero value on each cube it touches takes each box, with its
full-span bounds dropped and rescaled onto the term's lattice, as that
cube's canonical entry, which is what `lattice_entries` computes; every
other term goes through it.  Any other line is decoded as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import re
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm, prod
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

from .families import (
    MAX_TERMS,
    ConfigError,
    Family,
    Parted,
    TermId,
    TermTable,
    TransformSpec,
    check_term_budget,
    cube_label,
    parse_cube_label,
)
from .stepfn import StepFunction, lattice_entries

FAMILY_FORMAT = "sumrange-family-1"
MATRIX_FORMAT = "sumrange-matrix-1"

_FRAC_RE = re.compile(r"(-?\d+)/(\d+)")
_COORD_RE = re.compile(r"\d+")
# the end of the writer's header line, and its closing line
_TERMS_OPEN = ',"terms":[\n'
_TERMS_CLOSE = "]}\n"
_decode = json.JSONDecoder().raw_decode
# A sectioned family parses its records this many at a time: runs of
# parsing and runs of checking go faster than the two taken in turns
# term by term.  The sectioned verify of multipoint(4, 2), in CPU seconds
# on a 2-vCPU host, medians of five fresh processes, in two sittings:
# term by term 0.394 and 0.395; in batches of 32, 0.351; 64, 0.343;
# 128, 0.333 and 0.364; 512, 0.354 and 0.374; 2048, 0.363.
_PARSE_BATCH = 128
# The reader keeps the parsed box records of at most this many distinct
# texts per cube.  Bridge parts repeat from term to term, so a few dozen
# hold them all; the parts of the last cube are all distinct, and that
# cube's texts are dropped each time it reaches the bound.
_PIECE_CACHE = 128


class ParseError(ValueError):
    """A file is not a well-formed serialized object."""


def _ratio(text) -> tuple[int, int]:
    """The rational 'num/den' as reduced ints (num, den), den > 0."""
    m = _FRAC_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ParseError(f"bad rational {text!r}; expected 'num/den'")
    num, den = int(m[1]), int(m[2])
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def _json_int(value, field: str) -> int:
    """A JSON integer; a float, boolean or string is refused, not truncated."""
    if type(value) is not int:
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def _ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) as 'num/den', reduced as `Fraction` reduces it."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def frac_to_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def text_to_frac(text) -> Fraction:
    return Fraction(*_ratio(text))


# --- step functions ---------------------------------------------------------


class _Writer:
    """Formats box lists straight from the integer lattice.

    The text is what `json.dumps(sort_keys=True, separators=(",", ":"))`
    makes of the records {"box": {coord: [lo, hi]}, "cube", "value"}, so
    coordinates are in string order ("10" before "9").  Each bound and
    value is formatted once per distinct (ints, denominator)."""

    def __init__(self):
        self._bounds: dict[tuple[int, int, int, int], str] = {}
        self._values: dict[tuple[int, int], str] = {}

    def boxes(self, f: StepFunction) -> str:
        """The JSON text of the box records of f."""
        dens, vden = f._dens, f._vden
        bound_texts, value_texts = self._bounds, self._values
        out = []
        for cube, bounds, v in f._entries:
            if bounds and bounds[-1][0] >= 10:  # bounds are in int order
                bounds = sorted(bounds, key=lambda b: str(b[0]))
            parts = []
            for c, lo, hi in bounds:
                d = dens[c]
                text = bound_texts.get((c, lo, hi, d))
                if text is None:
                    text = bound_texts[c, lo, hi, d] = \
                        f'"{c}":["{_ratio_text(lo, d)}","{_ratio_text(hi, d)}"]'
                parts.append(text)
            value = value_texts.get((v, vden))
            if value is None:
                value = value_texts[v, vden] = _ratio_text(v, vden)
            out.append(f'{{"box":{{{",".join(parts)}}},"cube":"Q{cube}","value":"{value}"}}')
        return f"[{','.join(out)}]"


def _bound(coord, pair, ratio) -> tuple[int, int, int, int, int]:
    """(k, lo_num, lo_den, hi_num, hi_den) of one box constraint, validated."""
    if not _COORD_RE.fullmatch(str(coord)):
        raise ParseError(f"bad coordinate index {coord!r}")
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"interval for coordinate {coord} must be [lo, hi]")
    k = int(coord)
    (lo, lo_den), (hi, hi_den) = ratio(pair[0]), ratio(pair[1])
    if k < 1:
        raise ParseError(f"coordinate index must be >= 1, got {k}")
    if not (lo >= 0 and lo * hi_den < hi * lo_den and hi <= hi_den):
        raise ParseError(f"bad interval [{Fraction(lo, lo_den)}, {Fraction(hi, hi_den)})")
    return k, lo, lo_den, hi, hi_den


class _Reader:
    """Parses box lists straight onto the integer lattice.

    Each rational, cube label and box constraint is parsed and validated
    once per distinct text.  Functions whose lattices are equal share one
    `dens` dict, so sums and comparisons of them skip the rescale.  A term
    line of a vetted file is read by `record`, through the fast path of
    the module docstring where it can; a part equal to the term before's
    in its place, on the same lattice, is that term's object."""

    def __init__(self):
        self._ratios: dict[str, tuple[int, int]] = {}
        self._cubes: dict[str, int] = {}
        self._bounds: dict[tuple, tuple[int, int, int, int, int]] = {}
        self._lattices: dict[tuple, dict[int, int]] = {}
        self._pieces: dict[str, tuple] = {}      # box record text -> parsed box
        self._held: dict[int, list[str]] = {}    # cube -> its texts in _pieces
        self._bound_texts: dict[str, tuple] = {}     # constraint text -> bound
        self._tails: dict[str, tuple] = {}    # '},"cube":...' text -> (cube, value)
        self._term_lattices: dict[tuple, tuple] = {}   # box lattice keys -> (dens, vden)
        self._last: list = []   # per position: (box, lattice, entry, part) of the term before

    def ratio(self, text) -> tuple[int, int]:
        got = self._ratios.get(text) if isinstance(text, str) else None
        if got is None:
            got = self._ratios[text] = _ratio(text)
        return got

    def cube(self, label) -> int:
        got = self._cubes.get(label) if isinstance(label, str) else None
        if got is None:
            got = self._cubes[label] = parse_cube_label(label)
        return got

    def bound(self, coord, pair) -> tuple[int, int, int, int, int]:
        # only a list of two strings is cached, so no other shape of
        # `pair` can hit the entry of a valid one
        if type(pair) is list and len(pair) == 2 and type(pair[0]) is str \
                and type(pair[1]) is str:
            key = (coord, pair[0], pair[1])
            got = self._bounds.get(key)
            if got is None:
                got = self._bounds[key] = _bound(coord, pair, self.ratio)
            return got
        return _bound(coord, pair, self.ratio)

    def box(self, box_obj) -> tuple[int, list, tuple[int, int]]:
        """(cube, [(coord, lo_num, lo_den, hi_num, hi_den), ...] in
        coordinate order, value) of one box record, validated."""
        if not isinstance(box_obj, dict):
            raise ParseError(f"box record must be an object, got {type(box_obj).__name__}")
        try:
            cube = self.cube(box_obj["cube"])
            raw = box_obj["box"]
            value = self.ratio(box_obj["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad box record: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError("box constraints must be an object")
        bounds = [self.bound(coord, pair) for coord, pair in raw.items()]
        if len(bounds) > 1:
            bounds.sort()
            for a, b in zip(bounds, bounds[1:]):
                if a[0] == b[0]:
                    raise ParseError(f"coordinate {a[0]} constrained twice in one box")
        return cube, bounds, value

    def boxes(self, box_objs: list, domain: tuple[int, ...]) -> list:
        """The validated boxes of a list of box records on `domain`."""
        boxes = [self.box(b) for b in box_objs]
        for cube, _, _ in boxes:
            if cube not in domain:
                raise ParseError(f"box on unknown cube {cube}; domain is {domain}")
        return boxes

    def entries(self, boxes: list, domain: tuple[int, ...]) -> tuple:
        """`lattice_entries` of validated boxes, on lattices shared through
        this reader."""
        return lattice_entries(domain, boxes, self._lattices)

    def record(self, line: str, lead: str, ids: str, domain: tuple[int, ...], where: str
               ) -> tuple[dict[int, StepFunction], StepFunction]:
        """The parts by cube and the function of one term line, led by
        `lead` and ended by its id fields `ids`.  ValueError for a line
        that is not one term record, ParseError for a bad record."""
        head = lead + '{"boxes":['
        if line.startswith(head) and line.endswith(ids):
            got = self._read(line[len(head):len(line) - len(ids)], domain)
            if got is not None:
                return got
        _, boxes = _term(_record(line, lead), self, domain, where)
        return _with_parts(domain, *self.entries(boxes, domain))

    def _read(self, text: str, domain: tuple[int, ...]
              ) -> tuple[dict[int, StepFunction], StepFunction] | None:
        """The parts and the function of the box records `text`, the
        inside of a term's "boxes" list, or None unless every record is in
        the writer's form.  Each record is then one JSON object, so the
        list splits at its '},{' separators."""
        boxes = []
        direct = True   # one box of non-zero value a cube, in cube order
        if text:
            if text[0] != "{" or text[-1] != "}":
                return None
            pieces, last = self._pieces, 0
            for piece in text[1:-1].split("},{"):
                got = pieces.get(piece) or self._piece(piece, domain)
                if got is None:
                    return None
                if got[0] <= last or not got[2][0]:
                    direct = False
                last = got[0]
                boxes.append(got)
        if not direct:
            return _with_parts(domain, *self.entries(
                [(cube, [b[1] for b in bounds], value) for cube, bounds, value, _ in boxes],
                domain))
        # each box, rescaled onto the lattice of `lattice_entries` with its
        # full-span bounds dropped, is its cube's canonical entry
        key = tuple([box[3] for box in boxes])
        lattice = self._term_lattices.get(key) or self._term_lattice(key, boxes)
        dens, vden = lattice
        last_parts = self._last
        if len(last_parts) < len(boxes):
            last_parts.extend([(None,)] * (len(boxes) - len(last_parts)))
        raw = StepFunction._raw
        entries, parts = [], {}
        for i, box in enumerate(boxes):
            got = last_parts[i]
            if got[0] is not box or got[1] is not lattice:
                cube, bounds, (num, den), _ = box
                entry = (cube, tuple([(k, lo * (dens[k] // lo_den), hi * (dens[k] // hi_den))
                                      for _, (k, lo, lo_den, hi, hi_den), kept in bounds if kept]),
                         num * (vden // den))
                got = last_parts[i] = (box, lattice, entry, raw((cube,), (entry,), dens, vden))
            entries.append(got[2])
            parts[got[2][0]] = got[3]
        return parts, raw(domain, tuple(entries), dens, vden)

    def _term_lattice(self, key: tuple, boxes: list) -> tuple[dict[int, int], int]:
        """The lattice (dens, vden) `lattice_entries` gives boxes of non-zero
        value, kept under `key`, the keys of their lattices."""
        dens: dict[int, int] = {}
        vden = 1
        for _, bounds, (_, den), _ in boxes:
            vden = lcm(vden, den)
            for _, (k, _, lo_den, _, hi_den), _ in bounds:
                dens[k] = lcm(dens.get(k, 1), lo_den, hi_den)
        got = self._term_lattices[key] = (
            self._lattices.setdefault(tuple(sorted(dens.items())), dens), vden)
        return got

    def _piece(self, text: str, domain: tuple[int, ...]) -> tuple | None:
        """The box of one record's text, braces stripped, kept in the
        cache: (cube, its constraints in coordinate order as `_bound_text`
        gives them, value, the key of its lattice: the value denominator,
        then (coordinate, denominator) per constraint).  None unless the
        text is the writer's form '"box":{"k":["lo","hi"],...},"cube":
        "Q..","value":"n/d"' of a valid box on `domain` that names no
        coordinate twice."""
        end = text.find('},"cube":"')
        if end < 0 or not text.startswith('"box":{'):
            return None
        inner, known = text[7:end], self._bound_texts
        if inner and inner[-1] != "]":
            return None
        try:
            cube, value = self._tails.get(text[end:]) or self._tail(text[end:])
            # the constraints '"k":["lo","hi"]', joined by ','
            bounds = [known.get(bound) or self._bound_text(bound)
                      for bound in inner[:-1].split("],")] if inner else []
        except ValueError:  # ParseError too
            return None
        if cube not in domain:
            return None
        last = 0
        for b in bounds:
            if b[0][0] <= last:  # out of coordinate order
                bounds.sort()
                for a, b in zip(bounds, bounds[1:]):
                    if a[0][0] == b[0][0]:
                        return None
                break
            last = b[0][0]
        got = (cube, bounds, value, (value[1], *[b[0] for b in bounds]))
        held = self._held.setdefault(cube, [])
        if len(held) == _PIECE_CACHE:
            for old in held:
                del self._pieces[old]
            held.clear()
        held.append(text)
        self._pieces[text] = got
        return got

    def _tail(self, text: str) -> tuple[int, tuple[int, int]]:
        """(cube, value) of a box record's text from its '},"cube":"Q..",
        "value":"n/d"'; ValueError for another text."""
        # with no escape or control character in it, the text splits at
        # '"' into its strings (odd places) and the syntax between them
        t = text.split('"')
        if "\\" in text or not text.isprintable() or len(t) != 9 \
                or t[0::2] != ["},", ":", ",", ":", ""] or t[1] != "cube" or t[5] != "value":
            raise ValueError(f"not the end of a box record: {text!r}")
        got = self._tails[text] = (self.cube(t[3]), self.ratio(t[7]))
        return got

    def _bound_text(self, text: str) -> tuple:
        """((coordinate, its denominator), the bound as `bound` gives it,
        whether it is kept: it does not span [0, 1)) of one constraint's
        text '"k":["lo","hi"'; ValueError for another text.  The regular
        expressions of `bound` admit no escape or control character."""
        t = text.split('"')
        if len(t) != 7 or t[0::2] != ["", ":[", ",", ""]:
            raise ValueError(f"not a constraint: {text!r}")
        bound = k, lo, lo_den, hi, hi_den = self.bound(t[1], [t[3], t[5]])
        got = self._bound_texts[text] = ((k, lcm(lo_den, hi_den)), bound, lo != 0 or hi != hi_den)
        return got


def _with_parts(domain: tuple[int, ...], entries: tuple, dens: dict[int, int], vden: int
            ) -> tuple[dict[int, StepFunction], StepFunction]:
    """The parts by cube and the function of canonical entries, which
    are in cube order."""
    raw = StepFunction._raw
    by: dict[int, list] = {}
    for entry in entries:
        by.setdefault(entry[0], []).append(entry)
    return ({cube: raw((cube,), tuple(got), dens, vden) for cube, got in by.items()},
            raw(domain, entries, dens, vden))


# --- families ---------------------------------------------------------------


def family_to_lines(fam: Family) -> Iterator[str]:
    """The serialized family, line by line, terms in canonical order."""
    sizes = fam.sizes.spec_list(fam.depth + fam.points - 1)
    head = {
        "cubes": [cube_label(c) for c in fam.domain],
        "depth": fam.depth,
        "flavor": fam.flavor,
        "format": FAMILY_FORMAT,
        "kinds": list(fam.kinds),
        "points": fam.points,
        "sizes": sizes,
    }
    if fam.flavor == "transformed":
        head["matrix"] = [[frac_to_text(x) for x in row] for row in fam.transform.rows]
        head["structure"] = fam.structure
    head_text = json.dumps(head, sort_keys=True, separators=(",", ":"))
    yield head_text[:-1] + _TERMS_OPEN
    writer = _Writer()
    lead = ""
    for n in range(1, fam.depth + 1):
        for g, kind in enumerate(fam.kinds):
            tail = f'"kind":{json.dumps(kind)},"level":{n}}}\n'
            for index, f in fam.section(g, n):
                yield (f'{lead}{{"boxes":{writer.boxes(f)},'
                       f'"index":[{",".join(map(str, index))}],{tail}')
                lead = ","
    yield _TERMS_CLOSE


def dump_family(fam: Family, path: str | Path, *, max_terms: int = MAX_TERMS) -> None:
    """Write the family file; a family of more than `max_terms` terms is
    refused before anything is written."""
    check_term_budget("family", fam.term_count(), max_terms)
    atomic_write_lines(path, family_to_lines(fam))


def load_family(path: str | Path, *, max_terms: int = MAX_TERMS) -> Family:
    """Read a family file; one whose header counts more than `max_terms`
    terms is refused before any term is parsed."""
    where = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if first.endswith(_TERMS_OPEN):
                head = _header(_json_loads(first[:-1] + "]}", where), where)
                return _filled(head, _term_lines(fh, where), where, max_terms)
            text = first + fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text: {exc}") from exc
    obj = _json_loads(text, where)
    return _filled(_header(obj, where), obj["terms"], where, max_terms)


def _json_loads(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: not valid JSON: {exc}") from exc


def _term_lines(fh: TextIO, where: str) -> Iterator:
    """The decoded term records that follow the writer's header line: one
    per line, each after the first led by ',', then ']}' and the end."""
    lead = ""
    for n, line in enumerate(fh, 2):
        if line in (_TERMS_CLOSE, _TERMS_CLOSE[:-1]):
            if fh.read(1):
                raise ParseError(f"{where}: data after the closing ']}}' on line {n}")
            return
        try:
            rec = _record(line, lead)
        except ValueError as exc:  # a json.JSONDecodeError too
            raise ParseError(f"{where}: line {n} is not a term record: {exc}") from exc
        yield rec
        lead = ","
    raise ParseError(f"{where}: ends before the closing ']}}'")


def _record(line: str, lead: str):
    """The decoded record of one term line: `lead`, one JSON value, '\\n'."""
    if not line.startswith(lead):
        raise ValueError("expected a leading ','")
    rec, end = _decode(line, len(lead))
    if line[end:] != "\n":
        raise ValueError(f"expected the end of the line at column {end + 1}")
    return rec


def _header(obj, where: str) -> Family:
    """The family, without its terms, that a file's header fields describe.
    Its shape comes from `Family`; a header that names another is refused."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: family file must hold a JSON object")
    try:
        if obj["format"] != FAMILY_FORMAT:
            raise ParseError(f"{where}: unknown format {obj['format']!r}")
        flavor = obj["flavor"]
        points = _json_int(obj["points"], f"{where}: points")
        depth = _json_int(obj["depth"], f"{where}: depth")
        sizes = [_json_int(v, f"{where}: sizes") for v in obj["sizes"]]
        shape = {"flavor": flavor, "kinds": tuple(obj["kinds"]),
                 "cubes": tuple(parse_cube_label(c) for c in obj["cubes"])}
        if not isinstance(obj["terms"], list):
            raise ParseError(f"{where}: 'terms' must be a list")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{where}: missing or malformed field: {exc}") from exc
    transform = None
    if flavor == "transformed":
        shape["structure"] = obj.get("structure")
        try:
            transform = TransformSpec(
                [[text_to_frac(x) for x in row] for row in obj["matrix"]])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"{where}: bad matrix: {exc}") from exc
    try:
        fam = Family(points, depth, sizes, transform=transform)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    want = {"flavor": fam.flavor, "structure": fam.structure, "kinds": fam.kinds,
            "cubes": fam.domain}
    for field, got in shape.items():
        if got != want[field]:
            raise ParseError(f"{where}: {field} {got!r} does not match a family of "
                             f"{points} points, which has {want[field]!r}")
    return fam


def _filled(head: Family, records: Iterable, where: str, max_terms: int) -> Family:
    """The family `head` with its table parsed from the term records.  A
    header count over `max_terms` is refused before any record is read,
    and so are more than `max_terms` records as they arrive."""
    check_term_budget("family", head.term_count(), max_terms)
    table: dict[TermId, StepFunction] = {}
    reader = _Reader()
    # the table holds no cycles, and the cyclic collector's full passes,
    # one at every quarter of growth, would walk all of it for nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        for rec in records:
            tid, boxes = _term(rec, reader, head.domain, where)
            fn = StepFunction._raw(head.domain, *reader.entries(boxes, head.domain))
            if tid in table:
                raise ParseError(f"{where}: duplicate term {tid}")
            if len(table) == max_terms:
                raise ConfigError(f"{where} has more than max_terms {max_terms} term records")
            table[tid] = fn
    finally:
        if enabled:
            gc.enable()
    return Family(head.points, head.depth, head.sizes, source=TermTable(table),
                  transform=head.transform)


def _term(rec, reader: _Reader, domain: tuple[int, ...], where: str
          ) -> tuple[TermId, list]:
    """The id and the validated boxes of one decoded term record."""
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: term record must be an object")
    try:
        tid = TermId(rec["kind"], _json_int(rec["level"], "level"),
                     tuple(_json_int(i, "index") for i in rec["index"]))
        boxes = rec["boxes"]
        if not isinstance(boxes, list):
            raise ParseError("'boxes' must be a list")
        return tid, reader.boxes(boxes, domain)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise ParseError(f"{where}: term {rec.get('kind')}: {exc}") from exc
        raise ParseError(f"{where}: malformed term record: {exc}") from exc


# --- one section at a time --------------------------------------------------


def sectioned_family(path: str | Path, *, max_terms: int = MAX_TERMS) -> Family | None:
    """The untransformed family of a file in the writer's layout whose term
    lines carry exactly its `term_ids()`, in order, with no table: its
    `section(g, n)` seeks to the section's first line and parses each
    record there once, through the one term-record parser.  The header
    and the term budget are checked as `load_family` checks them.  None
    for any other file, which is `load_family`'s to read."""
    where = str(path)
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.endswith(_TERMS_OPEN.encode()) or b"\r" in first:
            return None
        fam = _header(_json_loads(first[:-1].decode() + "]}", where), where)
        check_term_budget("family", fam.term_count(), max_terms)
        if fam.transform is not None:
            return None
        offsets = _section_offsets(fh, fam, len(first))
    if offsets is None:
        return None
    return Family(fam.points, fam.depth, fam.sizes, source=_FileSections(path, offsets))


def _section_offsets(fh: BinaryIO, fam: Family, at: int) -> dict[tuple[int, int], int] | None:
    """The byte offset of each section's first line, found from the id
    fields alone, if the term lines from offset `at` carry exactly
    `fam.term_ids()` in order, in the writer's layout, and are followed
    by the closing ']}' line and the end of the file; else None.  The id
    at the end of a record line is the record's, since a JSON object keeps
    the last value of a repeated key.  A line holding '\\r', which a
    text-mode read would split, is refused too."""
    offsets = {}
    lead = b'{"boxes":['
    lines = iter(fh)
    for n in range(1, fam.depth + 1):
        for g in range(fam.points):
            offsets[g, n] = at
            for ids in _id_fields(fam, g, n, ()):
                line = next(lines, b"")
                # the id fields from the ',' that leads them
                if not (line.startswith(lead) and line.endswith(ids[1:].encode())) \
                        or b"\r" in line:
                    return None
                at += len(line)
                lead = b',{"boxes":['
    if next(lines, b"") not in (_TERMS_CLOSE.encode(), _TERMS_CLOSE[:-1].encode()) \
            or fh.read(1):
        return None
    return offsets


def _id_fields(fam: Family, g: int, n: int, prefix: tuple[int, ...]) -> Iterator[str]:
    """The id fields '],"index":[...],"kind":...,"level":n}\\n' that end
    the writer's line of each term of (g, n) under `prefix`, in index
    order: a head for each run of the last index component, which runs
    fastest, and one of the section's tails."""
    ranges = fam.index_ranges(g, n)
    end = f'],"kind":{json.dumps(fam.kinds[g])},"level":{n}}}\n'
    if len(prefix) == len(ranges):  # one term
        yield f'],"index":[{",".join(map(str, prefix))}{end}'
        return
    tails = [f"{i}{end}" for i in range(1, ranges[-1] + 1)]
    for head in product(*[(i,) for i in prefix],
                        *[range(1, top + 1) for top in ranges[len(prefix):-1]]):
        head = f'],"index":[{"".join(f"{i}," for i in head)}'
        for tail in tails:
            yield head + tail


class _FileSections:
    """The term source of a family file whose term lines `_section_offsets`
    has vetted, so its ids are proven: each section read opens the file,
    seeks to the section, skips to the first term under the prefix and
    reads the terms in index order, each record straight to its parts,
    `_PARSE_BATCH` at a time."""

    def __init__(self, path: str | Path, offsets: dict[tuple[int, int], int]):
        self.path, self.offsets = path, offsets
        self.reader = _Reader()

    def ids(self) -> None:
        return None

    def section(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], StepFunction]]:
        for index, _, f in self.parts(fam, g, n, prefix):
            yield index, f

    def parts(self, fam: Family, g: int, n: int, prefix: tuple[int, ...]) -> Iterator[Parted]:
        where, record, domain = str(self.path), self.reader.record, fam.domain
        # the terms under a prefix are consecutive, `count` of them from `start`
        ranges = fam.index_ranges(g, n)
        start, count = 0, prod(ranges[len(prefix):])
        for i, top in zip(prefix, ranges):
            start = start * top + i - 1
        start *= count
        lead = "" if (g, n, start) == (0, 1, 0) else ","
        with open(self.path, "rb") as fh:
            fh.seek(self.offsets[g, n])
            lines = islice(fh, start, start + count)
            keys = zip(fam.index_tuples(g, n, prefix), _id_fields(fam, g, n, prefix))
            while batch := list(islice(lines, _PARSE_BATCH)):
                parsed = []
                for line, (index, ids) in zip(batch, keys):
                    parts, f = record(line.decode(), lead, ids, domain, where)
                    parsed.append((index, parts, f))
                    lead = ","
                yield from parsed


# --- matrices ---------------------------------------------------------------


def dump_matrix(spec: TransformSpec, path: str | Path) -> None:
    obj = {
        "format": MATRIX_FORMAT,
        "rows": [[frac_to_text(x) for x in row] for row in spec.rows],
    }
    atomic_write_lines(path, [json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"])


def load_matrix(path: str | Path) -> TransformSpec:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MATRIX_FORMAT:
        raise ParseError(f"{path}: not a matrix file")
    try:
        return TransformSpec([[text_to_frac(x) for x in row] for row in obj["rows"]])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{path}: bad matrix: {exc}") from exc


# --- atomic writes ----------------------------------------------------------


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write the lines to a temporary file beside `path`, then rename it
    into place.  A path that cannot be written is a ConfigError, and no
    temporary file is left behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()
