"""Round trips, byte stability and corruption handling for the text formats."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from sumrange.families import (
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
)
from sumrange.serialize import (
    ParseError,
    dump_family,
    dump_matrix,
    family_to_lines,
    frac_to_text,
    load_family,
    load_matrix,
    stepfn_from_obj,
    stepfn_to_obj,
    text_to_frac,
)
from sumrange.stepfn import Box, StepFunction, indicator, make_bounds
from test_stepfn import assert_canonical_shape, random_raw

F = Fraction


def test_fraction_text():
    assert frac_to_text(F(-1, 2)) == "-1/2"
    assert frac_to_text(F(3)) == "3/1"
    assert text_to_frac("-1/2") == F(-1, 2)
    assert text_to_frac("4/6") == F(2, 3)
    for bad in ("1", "1/0", "1/00", "1/2\n", "0.5", "1/-2", "a/b", 7, None, "1 / 2"):
        with pytest.raises(ParseError):
            text_to_frac(bad)


def test_stepfn_roundtrip():
    f = indicator((1, 2), 1, {2: (0, F(1, 2)), 5: (F(1, 3), F(2, 3))}, value=F(-3, 7))
    g = indicator((1, 2), 2, {1: (F(1, 4), 1)})
    obj = stepfn_to_obj(f + g)
    assert obj["domain"] == ["Q1", "Q2"]
    back = stepfn_from_obj(obj)
    assert back == f + g
    assert stepfn_from_obj(json.loads(json.dumps(obj))) == f + g
    zero = StepFunction.zero((1,))
    assert stepfn_from_obj(stepfn_to_obj(zero)) == zero


def test_stepfn_object_shape():
    f = indicator((1,), 1, {2: (0, F(1, 2))}, value=-1)
    obj = stepfn_to_obj(f)
    assert obj["boxes"] == [
        {"box": {"2": ["0/1", "1/2"]}, "cube": "Q1", "value": "-1/1"}
    ]


def test_stepfn_parse_errors():
    good = {"domain": ["Q1"], "boxes": [
        {"box": {"2": ["0/1", "1/2"]}, "cube": "Q1", "value": "1/1"}]}
    stepfn_from_obj(good)
    cases = [
        {"domain": ["Q1"]},
        {"domain": ["X1"], "boxes": []},
        {"domain": ["Q1"], "boxes": "nope"},
        {"domain": ["Q1"], "boxes": [{"cube": "Q1", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {}, "cube": "Q2", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {"x": ["0/1", "1/2"]}, "cube": "Q1", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {"2": ["1/2", "1/2"]}, "cube": "Q1", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {"2": ["0/1"]}, "cube": "Q1", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {"2": ["0/1", "3/2"]}, "cube": "Q1", "value": "1/1"}]},
        {"domain": ["Q1"], "boxes": [{"box": {}, "cube": "Q1", "value": "0.5"}]},
        {"domain": ["Q1"], "boxes": [{"box": {}, "cube": "Q1", "value": "1/00"}]},
        {"domain": ["Q1"], "boxes": [{"box": {}, "cube": 1, "value": "1/1"}]},
    ]
    for obj in cases:
        with pytest.raises(ParseError):
            stepfn_from_obj(obj)
    # one coordinate named twice, the second time with a leading zero
    twice = {"domain": ["Q1"], "boxes": [
        {"box": {"2": ["0/1", "1/2"], "02": ["1/2", "1/1"]}, "cube": "Q1", "value": "1/1"}]}
    with pytest.raises(ParseError, match="coordinate 2 "):
        stepfn_from_obj(twice)


def test_family_roundtrip(tmp_path):
    fam = build_three_kadets(2)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    loaded = load_family(path)
    assert loaded.flavor == "three-kadets"
    assert loaded.depth == 2
    assert loaded.points == 3
    assert loaded.is_table_backed
    assert sorted(loaded.table_ids()) == sorted(fam.term_ids())
    for tid in fam.term_ids():
        assert loaded.fn(tid) == fam.fn(tid)


def test_family_bytes_are_stable(tmp_path):
    fam = build_kadets(3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_family(fam, a)
    dump_family(build_kadets(3), b)
    assert a.read_bytes() == b.read_bytes()
    # a term per line, valid JSON overall
    obj = json.loads(a.read_text())
    assert obj["format"] == "sumrange-family-1"
    assert obj["cubes"] == ["Q1"]
    assert obj["sizes"] == [1, 2, 3, 4]
    assert len(obj["terms"]) == fam.term_count()


def test_transformed_family_roundtrip(tmp_path):
    fam = apply_transform(build_three_kadets(1), TransformSpec([["-1/1", "0/1"], ["0/1", "0/1"]]))
    path = tmp_path / "t.json"
    dump_family(fam, path)
    loaded = load_family(path)
    assert loaded.flavor == "transformed"
    assert loaded.structure == "three-kadets"
    assert loaded.transform == fam.transform
    for tid in fam.term_ids():
        assert loaded.fn(tid) == fam.fn(tid)


def test_family_corruption(tmp_path):
    fam = build_kadets(1)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    text = path.read_text()

    def reject(mutated, name):
        p = tmp_path / name
        p.write_text(mutated)
        with pytest.raises(ParseError):
            load_family(p)

    reject(text[: len(text) // 2], "truncated.json")
    reject(text.replace('"sumrange-family-1"', '"other-1"'), "fmt.json")
    reject(text.replace('"flavor":"kadets"', '"flavor":"weird"'), "flavor.json")
    reject(text.replace('"kinds":["a","b"]', '"kinds":["f","g"]'), "kinds.json")
    reject(text.replace('"1/2"', '"x/2"', 1), "frac.json")
    reject(text.replace('"sizes":[1,2]', '"sizes":[1]'), "sizes.json")
    obj = json.loads(text)
    obj["terms"].append(dict(obj["terms"][0]))
    reject(json.dumps(obj), "dup.json")
    reject("[1,2,3]", "notobj.json")
    with pytest.raises(ParseError):
        load_family(tmp_path / "missing.json")


def test_loaded_value_corruption_survives_parse(tmp_path):
    # verification, not parsing, is responsible for catching wrong values
    fam = build_kadets(1)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    text = path.read_text().replace('"value":"-1/1"', '"value":"-2/1"')
    path.write_text(text)
    loaded = load_family(path)
    bad = loaded.fn(TermId("b", 1, (1, 1)))
    assert max(abs(v) for v in bad.term_values()) == 2


def test_matrix_roundtrip(tmp_path):
    spec = TransformSpec([[F(1, 2), F(-1)], [F(0), F(3)]])
    path = tmp_path / "m.json"
    dump_matrix(spec, path)
    assert load_matrix(path) == spec
    (tmp_path / "bad.json").write_text('{"format":"sumrange-matrix-1","rows":[["1/2"],["0/1","1/1"]]}')
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "bad.json")
    (tmp_path / "notm.json").write_text('{"rows":[]}')
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "notm.json")


def test_atomic_write_leaves_no_temp(tmp_path):
    fam = build_kadets(1)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    dump_family(fam, path)
    assert [p.name for p in tmp_path.iterdir()] == ["fam.json"]


def test_lines_stream_matches_file(tmp_path):
    fam = build_kadets(2)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    assert "".join(family_to_lines(fam)) == path.read_text()


# --- the lattice codec against the Fraction parse ----------------------------


def fraction_parse(obj) -> StepFunction:
    """The reference: every rational through `Fraction`, then the constructor."""
    domain = tuple(int(c[1:]) for c in obj["domain"])
    terms = [(Box(int(b["cube"][1:]), make_bounds(
                 {int(k): (text_to_frac(lo), text_to_frac(hi)) for k, (lo, hi) in b["box"].items()})),
              text_to_frac(b["value"]))
             for b in obj["boxes"]]
    return StepFunction(domain, terms)


def box_record(cube, bounds, value, rng, least=1):
    """A box record with each rational written over a random multiple, at
    least `least`, of its denominator."""
    def text(x):
        m = rng.randint(least, least + 2)
        return f"{x.numerator * m}/{x.denominator * m}"
    return {"box": {str(k): [text(lo), text(hi)] for k, (lo, hi) in bounds.items()},
            "cube": f"Q{cube}", "value": text(value)}


ADVERSARIAL = {
    "overlapping": [(1, {2: (F(0), F(2, 3))}, F(1)), (1, {2: (F(1, 3), F(1))}, F(-1, 2)),
                    (1, {2: (F(1, 3), F(2, 3)), 3: (F(0), F(1, 4))}, F(5))],
    "unreduced": [(1, {1: (F(1, 2), F(3, 4))}, F(1, 2)), (1, {1: (F(1, 3), F(1))}, F(-3))],
    "zero-values": [(1, {1: (F(0), F(1, 5))}, F(0)), (2, {4: (F(1, 7), F(1))}, F(3)),
                    (2, {}, F(0))],
    "full-span": [(1, {1: (F(0), F(1)), 2: (F(1, 2), F(1))}, F(1)), (2, {3: (F(0), F(1))}, F(-2))],
    "cancelling": [(1, {1: (F(0), F(1, 2))}, F(1)), (1, {1: (F(0), F(1, 4))}, F(-1)),
                   (1, {1: (F(1, 4), F(1, 2))}, F(-1))],
    "empty": [],
}


@pytest.mark.parametrize("case", [*ADVERSARIAL, *(f"random-{seed}" for seed in range(40))])
def test_lattice_parse_matches_fraction_parse(case):
    rng = random.Random(case)
    dom = (1, 2)
    if case in ADVERSARIAL:
        raw = ADVERSARIAL[case]
    else:  # the instances of test_stepfn.py's oracle test of the same seed
        raw = random_raw(random.Random(int(case[len("random-"):])), dom)
    least = 2 if case == "unreduced" else 1
    obj = {"domain": ["Q1", "Q2"], "boxes": [box_record(c, b, v, rng, least) for c, b, v in raw]}
    got, want = stepfn_from_obj(obj), fraction_parse(obj)
    # the reader and the constructor share their lattice step, so the
    # canonical shape is checked on its own
    assert_canonical_shape(got)
    assert got == want
    assert got.terms == want.terms
    # and written back from the lattice, as the Fraction terms write
    assert stepfn_to_obj(got) == {
        "boxes": [{"box": {str(k): [frac_to_text(iv.lo), frac_to_text(iv.hi)]
                           for k, iv in box.bounds},
                   "cube": f"Q{box.cube}", "value": frac_to_text(v)} for box, v in want.terms],
        "domain": ["Q1", "Q2"]}


def test_loaded_terms_share_their_lattices(tmp_path):
    path = tmp_path / "m.family"
    dump_family(build_multipoint(4, 2), path)
    loaded = load_family(path)
    fns = [loaded.fn(tid) for tid in loaded.table_ids()]
    objects = {id(f._dens) for f in fns}
    lattices = {tuple(sorted(f._dens.items())) for f in fns}
    assert len(objects) == len(lattices)


# sha256 of the family files, pinned from the writer that formatted the
# `Fraction` terms; the writer formats from the lattice now.
FAMILY_DIGESTS = {
    "kadets(4)": "d2f5ef873e6f85b0234e4bda81a9d8a436db6af8423603da563fdee0f6052749",
    "three-kadets(3)": "9edaa58470b6dc681ad824dc3400d43445210ae5597e8d09daa2557c3f86df33",
    "multipoint(4, 1)": "c075e9801b70a39f9b2ad6f50c27a38a32eb7f41914249ddcb07ec89ae49cbe5",
}


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_bytes_are_pinned(name):
    fam = {"kadets(4)": lambda: build_kadets(4), "three-kadets(3)": lambda: build_three_kadets(3),
           "multipoint(4, 1)": lambda: build_multipoint(4, 1)}[name]()
    data = "".join(family_to_lines(fam)).encode()
    assert hashlib.sha256(data).hexdigest() == FAMILY_DIGESTS[name]


@pytest.mark.parametrize("field,mutate", [
    ("depth", lambda obj: obj.update(depth=2.9)),
    ("depth", lambda obj: obj.update(depth=2.0)),
    ("points", lambda obj: obj.update(points="2")),
    ("points", lambda obj: obj.update(points=True)),
    ("sizes", lambda obj: obj.update(sizes=[1.5] + obj["sizes"][1:])),
    ("sizes", lambda obj: obj.update(sizes=["1"] + obj["sizes"][1:])),
    ("level", lambda obj: obj["terms"][0].update(level=1.2)),
    ("level", lambda obj: obj["terms"][0].update(level="1")),
    ("index", lambda obj: obj["terms"][0].update(index=[1.9])),
    ("index", lambda obj: obj["terms"][0].update(index=[True])),
], ids=["depth-float", "depth-float-whole", "points-string", "points-bool", "sizes-float",
        "sizes-string", "level-float", "level-string", "index-float", "index-bool"])
def test_loader_refuses_non_integer_numbers(tmp_path, field, mutate):
    # int() would truncate these, and the file would load and verify clean
    path = tmp_path / "fam.json"
    dump_family(build_kadets(2), path)
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=f"{field} must be an integer"):
        load_family(path)
