"""Text formats for step functions, families and transform matrices.

Rationals are written as "numerator/denominator" strings, never floats.
Family files are JSON with one term per line, keys in a fixed order and a
deterministic term order (level, kind, index), so the same family always
serializes to identical bytes.  Writes go to a temporary file in the
target directory and are renamed into place.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
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
from .stepfn import Box, StepFunction, make_bounds

FAMILY_FORMAT = "sumrange-family-1"
MATRIX_FORMAT = "sumrange-matrix-1"

_FLAVORS = ("kadets", "three-kadets", "multipoint", "transformed")
_FRAC_RE = re.compile(r"^-?\d+/\d+$")


class ParseError(ValueError):
    """A file is not a well-formed serialized object."""


def frac_to_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def text_to_frac(text) -> Fraction:
    if not isinstance(text, str) or not _FRAC_RE.match(text):
        raise ParseError(f"bad rational {text!r}; expected 'num/den'")
    num, den = text.split("/")
    if den == "0":
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den))


# --- step functions ---------------------------------------------------------


def stepfn_to_obj(f: StepFunction) -> dict:
    return {
        "boxes": [_box_to_obj(box, value) for box, value in f.terms],
        "domain": [cube_label(c) for c in f.domain],
    }


def _box_to_obj(box: Box, value: Fraction) -> dict:
    return {
        "box": {str(coord): [frac_to_text(iv.lo), frac_to_text(iv.hi)]
                for coord, iv in box.bounds},
        "cube": cube_label(box.cube),
        "value": frac_to_text(value),
    }


def _term_entry(box_obj) -> tuple:
    if not isinstance(box_obj, dict):
        raise ParseError(f"box record must be an object, got {type(box_obj).__name__}")
    try:
        cube = parse_cube_label(box_obj["cube"])
        raw = box_obj["box"]
        value = text_to_frac(box_obj["value"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad box record: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("box constraints must be an object")
    spec = {}
    for coord, pair in raw.items():
        if not re.match(r"^\d+$", str(coord)):
            raise ParseError(f"bad coordinate index {coord!r}")
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"interval for coordinate {coord} must be [lo, hi]")
        spec[int(coord)] = (text_to_frac(pair[0]), text_to_frac(pair[1]))
    try:
        return Box(cube, make_bounds(spec)), value
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


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
    try:
        return StepFunction(domain, [_term_entry(b) for b in obj["boxes"]])
    except ParseError:
        raise
    except ValueError as exc:
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
            "boxes": [_box_to_obj(box, value) for box, value in fam.fn(tid).terms],
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
    for rec in terms:
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: term record must be an object")
        try:
            tid = TermId(rec["kind"], int(rec["level"]),
                         tuple(int(i) for i in rec["index"]))
            fn = stepfn_from_obj({"boxes": rec["boxes"]}, domain=cubes)
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
