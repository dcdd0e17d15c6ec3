"""Text formats for step functions, families and transform matrices.

Rationals are written as "numerator/denominator" strings, never floats.
Family files are JSON with one term per line, keys in a fixed order and a
deterministic term order (level, kind, index), so the same family always
serializes to identical bytes.  Writes go to a temporary file in the
target directory and are renamed into place.

The codec works on the integer lattice of `stepfn`.  The writer formats
each endpoint lo/D_k and value v/V straight from a function's entries,
reduced as `Fraction` reduces, so the bytes are those of its `Fraction`
terms.  The reader parses each "n/d" to reduced ints and validates every
box (0 <= lo < hi <= 1, coordinates >= 1 and named once, cubes in the
domain); it drops zero values, puts the term on the lcm lattice of its
own endpoints and value denominators, and canonicalizes it there.  Terms
with equal lattices share one `dens` dict.  No `Fraction` is built per
box, except to format an error message.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Iterator

from .families import (
    MAX_TERMS,
    Family,
    IndexSizes,
    TermId,
    TransformSpec,
    check_term_budget,
    cube_label,
    kinds_for,
    parse_cube_label,
)
from .stepfn import StepFunction, _canonical

FAMILY_FORMAT = "sumrange-family-1"
MATRIX_FORMAT = "sumrange-matrix-1"

_FLAVORS = ("kadets", "three-kadets", "multipoint", "transformed")
_FRAC_RE = re.compile(r"(-?\d+)/(\d+)")
_COORD_RE = re.compile(r"\d+")


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


def _ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) as 'num/den', reduced as `Fraction` reduces it."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def frac_to_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def text_to_frac(text) -> Fraction:
    return Fraction(*_ratio(text))


# --- step functions ---------------------------------------------------------


def _boxes_to_obj(f: StepFunction) -> list[dict]:
    """The box records of f, formatted from its lattice entries."""
    dens, vden = f._dens, f._vden
    return [{"box": {str(c): [_ratio_text(lo, dens[c]), _ratio_text(hi, dens[c])]
                     for c, lo, hi in bounds},
             "cube": cube_label(cube),
             "value": _ratio_text(v, vden)}
            for cube, bounds, v in f._entries]


def stepfn_to_obj(f: StepFunction) -> dict:
    return {"boxes": _boxes_to_obj(f), "domain": [cube_label(c) for c in f.domain]}


class _Reader:
    """Parses box lists straight onto the integer lattice.

    Each rational and cube label is parsed once per distinct text.
    Functions whose lattices are equal share one `dens` dict, so sums and
    comparisons of them skip the rescale."""

    def __init__(self):
        self._ratios: dict[str, tuple[int, int]] = {}
        self._cubes: dict[str, int] = {}
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
        bounds = []
        seen = set()
        for coord, pair in raw.items():
            if not _COORD_RE.fullmatch(str(coord)):
                raise ParseError(f"bad coordinate index {coord!r}")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ParseError(f"interval for coordinate {coord} must be [lo, hi]")
            k = int(coord)
            if k in seen:
                raise ParseError(f"coordinate {k} constrained twice in one box")
            seen.add(k)
            bounds.append((k, *self.ratio(pair[0]), *self.ratio(pair[1])))
        bounds.sort()
        for k, lo, lo_den, hi, hi_den in bounds:
            if k < 1:
                raise ParseError(f"coordinate index must be >= 1, got {k}")
            if not (lo >= 0 and lo * hi_den < hi * lo_den and hi <= hi_den):
                raise ParseError(
                    f"bad interval [{Fraction(lo, lo_den)}, {Fraction(hi, hi_den)})")
        return cube, bounds, value

    def stepfn(self, box_objs: list, domain: tuple[int, ...]) -> StepFunction:
        """The canonical function of a list of box records (overlaps add)."""
        boxes = [self.box(b) for b in box_objs]
        for cube, _, _ in boxes:
            if cube not in domain:
                raise ParseError(f"box on unknown cube {cube}; domain is {domain}")
        boxes = [b for b in boxes if b[2][0]]
        dens: dict[int, int] = {}
        vden = 1
        for _, bounds, (_, den) in boxes:
            vden = lcm(vden, den)
            for k, _, lo_den, _, hi_den in bounds:
                dens[k] = lcm(dens.get(k, 1), lo_den, hi_den)
        key = tuple(sorted(dens.items()))
        dens = self._lattices.setdefault(key, dens)
        per_cube: dict[int, list] = {}
        for cube, bounds, (num, den) in boxes:
            per_cube.setdefault(cube, []).append((
                tuple((k, lo * (dens[k] // lo_den), hi * (dens[k] // hi_den))
                      for k, lo, lo_den, hi, hi_den in bounds),
                num * (vden // den)))
        return StepFunction._raw(domain, _canonical(domain, per_cube, dens), dens, vden)


def stepfn_from_obj(obj, domain: tuple[int, ...] | None = None) -> StepFunction:
    if not isinstance(obj, dict) or "boxes" not in obj:
        raise ParseError("step function record needs a 'boxes' list")
    if domain is None:
        try:
            domain = tuple(parse_cube_label(c) for c in obj["domain"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad step function domain: {exc}") from exc
    if not isinstance(obj["boxes"], list):
        raise ParseError("'boxes' must be a list")
    if not domain or len(set(domain)) != len(domain):
        raise ParseError(f"domain must be a non-empty tuple of distinct cubes, got {domain}")
    try:
        return _Reader().stepfn(obj["boxes"], domain)
    except ParseError:
        raise
    except ValueError as exc:  # such as an integer too long to convert
        raise ParseError(str(exc)) from exc


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
    yield head_text[:-1] + ',"terms":[\n'
    first = True
    for tid in fam.term_ids():
        record = {
            "boxes": _boxes_to_obj(fam.fn(tid)),
            "index": list(tid.index),
            "kind": tid.kind,
            "level": tid.level,
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        yield line + "\n" if first else "," + line + "\n"
        first = False
    yield "]}\n"


def dump_family(fam: Family, path: str | Path, *, max_terms: int = MAX_TERMS) -> None:
    """Write the family file; a family of more than `max_terms` terms is
    refused before anything is written."""
    check_term_budget("family", fam.term_count(), max_terms)
    atomic_write_lines(path, family_to_lines(fam))


def load_family(path: str | Path) -> Family:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return family_from_obj(obj, str(path))


def family_from_obj(obj, where: str = "<data>") -> Family:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: family file must hold a JSON object")
    try:
        if obj["format"] != FAMILY_FORMAT:
            raise ParseError(f"{where}: unknown format {obj['format']!r}")
        flavor = obj["flavor"]
        points = int(obj["points"])
        depth = int(obj["depth"])
        sizes = [int(v) for v in obj["sizes"]]
        cubes = tuple(parse_cube_label(c) for c in obj["cubes"])
        kinds = tuple(obj["kinds"])
        terms = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{where}: missing or malformed field: {exc}") from exc
    if flavor not in _FLAVORS:
        raise ParseError(f"{where}: unknown flavor {flavor!r}")
    structure = flavor
    transform = None
    if flavor == "transformed":
        structure = obj.get("structure")
        if structure not in _FLAVORS[:3]:
            raise ParseError(f"{where}: transformed family needs a base structure")
        try:
            transform = TransformSpec(
                [[text_to_frac(x) for x in row] for row in obj["matrix"]])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"{where}: bad matrix: {exc}") from exc
    wanted_points = {"kadets": 2, "three-kadets": 3}.get(structure)
    if wanted_points is not None and points != wanted_points:
        raise ParseError(f"{where}: structure {structure!r} implies {wanted_points} points")
    if structure == "multipoint" and points < 4:
        raise ParseError(f"{where}: multipoint files need at least 4 points")
    if kinds != kinds_for(structure, points):
        raise ParseError(f"{where}: kinds {kinds} do not match flavor {flavor!r}")
    if cubes != tuple(range(1, 2 * points - 2)):
        raise ParseError(f"{where}: cube list does not match {points} points")
    if not isinstance(terms, list):
        raise ParseError(f"{where}: 'terms' must be a list")
    table: dict[TermId, StepFunction] = {}
    reader = _Reader()
    for rec in terms:
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: term record must be an object")
        try:
            tid = TermId(rec["kind"], int(rec["level"]),
                         tuple(int(i) for i in rec["index"]))
            boxes = rec["boxes"]
            if not isinstance(boxes, list):
                raise ParseError("'boxes' must be a list")
            fn = reader.stepfn(boxes, cubes)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise ParseError(f"{where}: term {rec.get('kind')}: {exc}") from exc
            raise ParseError(f"{where}: malformed term record: {exc}") from exc
        if tid in table:
            raise ParseError(f"{where}: duplicate term {tid}")
        table[tid] = fn
    try:
        return Family(flavor, points, depth, IndexSizes(sizes), table=table,
                      transform=transform,
                      structure=None if structure == flavor else structure)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


# --- matrices ---------------------------------------------------------------


def dump_matrix(spec: TransformSpec, path: str | Path) -> None:
    obj = {
        "format": MATRIX_FORMAT,
        "rows": [[frac_to_text(x) for x in row] for row in spec.rows],
    }
    atomic_write_lines(path, [json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"])


def load_matrix(path: str | Path) -> TransformSpec:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
