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
an error message.

`load_family` streams the writer's layout: a header line ending
`,"terms":[`, one term record per line (each after the first led by a
comma), then a closing `]}` line and the end of the file.  It holds one
line at a time, so its peak memory is about the table it returns.  A file
that does not open with that header line, such as a one-line or a
pretty-printed dump of the same document, is read whole with one
`json.loads`.  Both layouts go through one header check and one
term-record parser.  The header check builds the family from the points,
depth, sizes and (for a transformed family) matrix, and refuses a header
whose flavor, structure, kinds or cubes are not that family's.  The header's closed-form term count is checked
against `max_terms` before any term is parsed, and the records are
counted against it as they are read.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .families import (
    MAX_TERMS,
    ConfigError,
    Family,
    TermId,
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
    `dens` dict, so sums and comparisons of them skip the rescale."""

    def __init__(self):
        self._ratios: dict[str, tuple[int, int]] = {}
        self._cubes: dict[str, int] = {}
        self._bounds: dict[tuple, tuple[int, int, int, int, int]] = {}
        self._lattices: dict[tuple, dict[int, int]] = {}

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

    def stepfn(self, box_objs: list, domain: tuple[int, ...]) -> StepFunction:
        """The canonical function of a list of box records (overlaps add)."""
        boxes = [self.box(b) for b in box_objs]
        for cube, _, _ in boxes:
            if cube not in domain:
                raise ParseError(f"box on unknown cube {cube}; domain is {domain}")
        return StepFunction._raw(domain, *lattice_entries(domain, boxes, self._lattices))


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
            if not line.startswith(lead):
                raise ValueError("expected a leading ','")
            rec, end = _decode(line, len(lead))
            if line[end:] != "\n":
                raise ValueError(f"expected the end of the line at column {end + 1}")
        except ValueError as exc:  # a json.JSONDecodeError too
            raise ParseError(f"{where}: line {n} is not a term record: {exc}") from exc
        yield rec
        lead = ","
    raise ParseError(f"{where}: ends before the closing ']}}'")


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
    for rec in records:
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: term record must be an object")
        try:
            tid = TermId(rec["kind"], _json_int(rec["level"], "level"),
                         tuple(_json_int(i, "index") for i in rec["index"]))
            boxes = rec["boxes"]
            if not isinstance(boxes, list):
                raise ParseError("'boxes' must be a list")
            fn = reader.stepfn(boxes, head.domain)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise ParseError(f"{where}: term {rec.get('kind')}: {exc}") from exc
            raise ParseError(f"{where}: malformed term record: {exc}") from exc
        if tid in table:
            raise ParseError(f"{where}: duplicate term {tid}")
        if len(table) == max_terms:
            raise ConfigError(f"{where} has more than max_terms {max_terms} term records")
        table[tid] = fn
    return Family(head.points, head.depth, head.sizes, table=table, transform=head.transform)


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
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
