"""Round trips, byte stability and corruption handling for the text formats."""

import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from sumrange.families import (
    ConfigError,
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
)
from sumrange.serialize import (
    ParseError,
    _Reader,
    dump_family,
    dump_matrix,
    family_to_lines,
    frac_to_text,
    load_family,
    load_matrix,
    text_to_frac,
)
from sumrange.stepfn import Box, StepFunction, indicator, lattice_entries, make_bounds
from test_stepfn import assert_canonical_shape, fraction_terms, random_raw

F = Fraction


def test_fraction_text():
    assert frac_to_text(F(-1, 2)) == "-1/2"
    assert frac_to_text(F(3)) == "3/1"
    assert text_to_frac("-1/2") == F(-1, 2)
    assert text_to_frac("4/6") == F(2, 3)
    for bad in ("1", "1/0", "1/00", "1/2\n", "0.5", "1/-2", "a/b", 7, None, "1 / 2"):
        with pytest.raises(ParseError):
            text_to_frac(bad)


# Box records go through the one family reader: as the boxes of the first
# term of a small family file.


def family_obj(build=build_kadets) -> dict:
    """The document of the family file of build(1)."""
    return json.loads("".join(family_to_lines(build(1))))


def load_obj(tmp_path, obj):
    return load_family(write_text(tmp_path, "fam.family", streamed(obj)))


def load_boxes(tmp_path, boxes) -> StepFunction:
    """The function that `boxes` load to as the first term of kadets(1)."""
    obj = family_obj()
    obj["terms"][0]["boxes"] = boxes
    return load_obj(tmp_path, obj).fn(TermId("a", 1, (1,)))


def test_stepfn_roundtrip(tmp_path):
    dom = (1, 2, 3)
    f = indicator(dom, 1, {2: (0, F(1, 2)), 5: (F(1, 3), F(2, 3))}, value=F(-3, 7))
    g = indicator(dom, 2, {1: (F(1, 4), 1)})
    fam = build_three_kadets(1)
    first = TermId("f", 1, (1,))
    for h in (f + g, StepFunction.zero(dom)):
        text = "".join(family_to_lines(fam.with_replaced({first: h})))
        assert json.loads(text)["cubes"] == ["Q1", "Q2", "Q3"]
        for layout, other in layouts(json.loads(text)).items():
            loaded = load_family(write_text(tmp_path, layout, other))
            assert loaded.fn(first) == h
            assert "".join(family_to_lines(loaded)) == text


def test_stepfn_object_shape():
    f = indicator((1,), 1, {2: (0, F(1, 2))}, value=-1)
    first = TermId("a", 1, (1,))
    text = "".join(family_to_lines(build_kadets(1).with_replaced({first: f})))
    assert json.loads(text)["terms"][0] == {
        "boxes": [{"box": {"2": ["0/1", "1/2"]}, "cube": "Q1", "value": "-1/1"}],
        "index": [1], "kind": "a", "level": 1}


def test_stepfn_parse_errors(tmp_path):
    good = [{"box": {"2": ["0/1", "1/2"]}, "cube": "Q1", "value": "1/1"}]
    assert load_boxes(tmp_path, good) == indicator((1,), 1, {2: (0, F(1, 2))})
    cases = [
        "nope",
        [{"cube": "Q1", "value": "1/1"}],
        [{"box": {}, "cube": "Q2", "value": "1/1"}],
        [{"box": {"x": ["0/1", "1/2"]}, "cube": "Q1", "value": "1/1"}],
        [{"box": {"2": ["1/2", "1/2"]}, "cube": "Q1", "value": "1/1"}],
        [{"box": {"2": ["0/1"]}, "cube": "Q1", "value": "1/1"}],
        [{"box": {"2": ["0/1", "3/2"]}, "cube": "Q1", "value": "1/1"}],
        [{"box": {}, "cube": "Q1", "value": "0.5"}],
        [{"box": {}, "cube": "Q1", "value": "1/00"}],
        [{"box": {}, "cube": 1, "value": "1/1"}],
    ]
    for boxes in cases:
        with pytest.raises(ParseError):
            load_boxes(tmp_path, boxes)
    # a term record without boxes, and the domain: cubes that are not
    # labels, repeated, or none
    obj = family_obj()
    del obj["terms"][0]["boxes"]
    with pytest.raises(ParseError):
        load_obj(tmp_path, obj)
    for cubes in (["X1"], ["Q1", "Q1"], []):
        with pytest.raises(ParseError):
            load_obj(tmp_path, {**family_obj(), "cubes": cubes})
    # one coordinate named twice, the second time with a leading zero
    twice = [{"box": {"2": ["0/1", "1/2"], "02": ["1/2", "1/1"]}, "cube": "Q1", "value": "1/1"}]
    with pytest.raises(ParseError, match="coordinate 2 "):
        load_boxes(tmp_path, twice)


# through a file a tuple is a JSON array, as the list is
@pytest.mark.parametrize("pair", [["0/1", "1/2", "1/1"], {"0/1": "1/2"}, ("0/1", "1/2", "1/1")],
                         ids=["longer-list", "object", "longer-tuple"])
def test_interval_shape_is_checked_after_a_cached_interval(tmp_path, pair):
    # the reader validates each distinct interval once; an interval of
    # another shape with the same texts must not pass as that one
    boxes = [{"box": {"2": ["0/1", "1/2"]}, "cube": "Q1", "value": "1/1"},
             {"box": {"2": pair}, "cube": "Q1", "value": "1/1"}]
    with pytest.raises(ParseError, match="must be \\[lo, hi\\]"):
        load_boxes(tmp_path, boxes)


def test_family_roundtrip(tmp_path):
    fam = build_three_kadets(2)
    path = tmp_path / "fam.json"
    dump_family(fam, path)
    loaded = load_family(path)
    assert loaded.flavor == "three-kadets"
    assert loaded.depth == 2
    assert loaded.points == 3
    assert loaded.source.ids() is not None
    assert sorted(loaded.source.ids()) == sorted(fam.term_ids())
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


def streamed(obj) -> str:
    """A family document in the writer's layout, formatted with `json.dumps`:
    the header line, one term per line and the closing line."""
    def dumps(x):
        return json.dumps(x, sort_keys=True, separators=(",", ":"))
    head = dumps({k: v for k, v in obj.items() if k != "terms"})
    return "".join([head[:-1] + ',"terms":[\n',
                    *(("," if i else "") + dumps(t) + "\n" for i, t in enumerate(obj["terms"])),
                    "]}\n"])


def layouts(obj) -> dict[str, str]:
    """One family document as the writer lays it out, on one line and indented."""
    return {"streamed": streamed(obj), "one-line": json.dumps(obj),
            "indented": json.dumps(obj, indent=2)}


def family_corruptions() -> dict[str, str]:
    """Kadets(1) family files that `load_family` refuses, by name: each
    mutation, and each that is a JSON object again in every layout."""
    fam = build_kadets(1)
    text = "".join(family_to_lines(fam))
    out = {}

    def reject(mutated, name):
        out[name] = mutated
        try:
            obj = json.loads(mutated)
        except ValueError:
            return
        if isinstance(obj, dict):  # and the same document in every layout
            for layout, other in layouts(obj).items():
                out[f"{name}-{layout}"] = other

    for layout, whole in layouts(json.loads(text)).items():
        reject(whole[: len(whole) // 2], f"truncated-{layout}.json")
    reject(text.replace('"sumrange-family-1"', '"other-1"'), "fmt.json")
    reject(text.replace('"flavor":"kadets"', '"flavor":"weird"'), "flavor.json")
    reject(text.replace('"kinds":["a","b"]', '"kinds":["f","g"]'), "kinds.json")
    reject(text.replace('"1/2"', '"x/2"', 1), "frac.json")
    reject(text.replace('"sizes":[1,2]', '"sizes":[1]'), "sizes.json")
    # a shape other than the one the point count gives
    reject(text.replace('"flavor":"kadets"', '"flavor":"multipoint"'), "flavor-points.json")
    reject(text.replace('"kinds":["a","b"]', '"kinds":["d0","d1"]'), "kinds-points.json")
    reject(text.replace('"cubes":["Q1"]', '"cubes":["Q1","Q2","Q3"]'), "cubes.json")
    shifted = "".join(family_to_lines(apply_transform(fam, TransformSpec.zero(1))))
    assert ',"structure":"kadets",' in shifted
    reject(shifted.replace(',"structure":"kadets"', ""), "no-structure.json")
    for other in ("three-kadets", "multipoint", "transformed"):
        reject(shifted.replace('"structure":"kadets"', f'"structure":"{other}"'),
               f"structure-{other}.json")
    # a matrix whose size is not the point count less one
    assert '"matrix":[["0/1"]]' in shifted
    reject(shifted.replace('"matrix":[["0/1"]]', '"matrix":[["0/1","0/1"],["0/1","0/1"]]'),
           "matrix-size.json")
    obj = json.loads(text)
    obj["terms"].append(dict(obj["terms"][0]))
    reject(json.dumps(obj), "dup.json")
    reject("[1,2,3]", "notobj.json")
    return out


def test_family_corruption(tmp_path):
    for name, mutated in family_corruptions().items():
        with pytest.raises(ParseError):
            load_family(write_text(tmp_path, name, mutated))
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


def fraction_parse(boxes, domain) -> StepFunction:
    """The reference: every rational through `Fraction`, then the constructor."""
    terms = [(Box(int(b["cube"][1:]), make_bounds(
                 {int(k): (text_to_frac(lo), text_to_frac(hi)) for k, (lo, hi) in b["box"].items()})),
              text_to_frac(b["value"]))
             for b in boxes]
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
def test_lattice_parse_matches_fraction_parse(tmp_path, case):
    rng = random.Random(case)
    dom = (1, 2)
    if case in ADVERSARIAL:
        raw = ADVERSARIAL[case]
    else:  # the instances of test_stepfn.py's oracle test of the same seed
        raw = random_raw(random.Random(int(case[len("random-"):])), dom)
    least = 2 if case == "unreduced" else 1
    boxes = [box_record(c, b, v, rng, least) for c, b, v in raw]
    obj = family_obj(build_three_kadets)  # cubes 1, 2, 3
    obj["terms"][0]["boxes"] = boxes
    loaded = load_obj(tmp_path, obj)
    got, want = loaded.fn(TermId("f", 1, (1,))), fraction_parse(boxes, loaded.domain)
    # the reader and the constructor share their lattice step, so the
    # canonical shape is checked on its own
    assert_canonical_shape(got)
    assert got == want and hash(got) == hash(want)
    assert fraction_terms(got) == fraction_terms(want)
    # and written back from the lattice, as the Fraction terms write
    written = json.loads("".join(family_to_lines(loaded)))["terms"][0]["boxes"]
    assert written == [{"box": {str(k): [frac_to_text(iv.lo), frac_to_text(iv.hi)]
                                for k, iv in box.bounds},
                        "cube": f"Q{box.cube}", "value": frac_to_text(v)}
                       for box, v in fraction_terms(want)]


# --- the section reader's fast path against lattice_entries -----------------

# Box records in the writer's syntax, with the forms a canonical record
# never has: each case as (cube, {coordinate: (lo, hi)}, value) boxes, in
# the order the record lists them and each box's coordinates in the order
# its object lists them
FAST_PATH = {
    "one box a cube": [(1, {2: (F(1, 3), F(2, 3))}, F(1)), (2, {}, F(-1, 12)),
                       (3, {1: (F(0), F(1, 2)), 2: (F(1, 6), F(1, 3))}, F(5, 7))],
    "multi-box": [(1, {2: (F(0), F(1, 3))}, F(1)), (1, {3: (F(1, 2), F(1))}, F(2)),
                  (3, {1: (F(1, 4), F(1, 2))}, F(-1))],
    "overlapping": ADVERSARIAL["overlapping"],
    "unsorted keys": [(1, {3: (F(0), F(1, 2)), 2: (F(1, 4), F(1))}, F(1)),
                      (2, {12: (F(1, 3), F(1)), 9: (F(0), F(1, 9))}, F(-2))],
    "zero values": ADVERSARIAL["zero-values"],
    "unreduced": ADVERSARIAL["unreduced"] + [(3, {2: (F(1, 6), F(5, 6))}, F(-1, 3))],
    "full-span": ADVERSARIAL["full-span"] + [(3, {4: (F(0), F(1))}, F(1, 2))],
    "merging": [(1, {2: (F(0), F(1, 2))}, F(1)), (1, {2: (F(1, 2), F(1))}, F(1)),
                (2, {1: (F(0), F(1, 3)), 3: (F(0), F(1, 2))}, F(2)),
                (2, {1: (F(1, 3), F(1)), 3: (F(0), F(1, 2))}, F(2))],
    "cubes out of order": [(3, {1: (F(0), F(1, 2))}, F(1)), (1, {2: (F(1, 2), F(1))}, F(1))],
}


def records_text(boxes) -> str:
    """The inside of a term's "boxes" list: the records joined as the writer joins them."""
    return ",".join(json.dumps(b, separators=(",", ":")) for b in boxes)


@pytest.mark.parametrize("case", [*FAST_PATH, *(f"random-{seed}" for seed in range(24))])
def test_section_reader_matches_lattice_entries(case):
    # entry for entry and lattice for lattice, the parts being the
    # entries of each cube on that lattice; read twice, the second time
    # from the cache of parsed records
    rng = random.Random(case)
    dom = (1, 2, 3)
    if case in FAST_PATH:
        raw = FAST_PATH[case]
    else:  # the instances of test_stepfn.py's oracle test of the same seed
        raw = random_raw(random.Random(int(case[len("random-"):])), (1, 2))
    boxes = [box_record(c, b, v, rng, 2 if case == "unreduced" else 1) for c, b, v in raw]
    reader = _Reader()
    want, dens, vden = lattice_entries(dom, reader.boxes(boxes, dom))
    for _ in range(2):
        parts, whole = reader._read(records_text(boxes), dom)
        assert whole._entries == want
        assert whole._dens == dens and whole._vden == vden
        assert {k: (p.domain, p._entries, p._dens, p._vden) for k, p in parts.items()} == {
            k: ((k,), tuple(e for e in want if e[0] == k), dens, vden)
            for k in dict.fromkeys(e[0] for e in want)}
    assert reader._pieces  # the records were read in the writer's syntax


@pytest.mark.parametrize("text", [
    '{"box": {},"cube":"Q1","value":"1/1"}',          # a space
    '{"box":{},"cube":"\\u0051\\u0031","value":"1/1"}',   # an escape
    '{"box":{},"cube":"Q1","value":"1/1","note":1}',  # another key
    '{"cube":"Q1","box":{},"value":"1/1"}',           # keys in another order
    '{"box":{"2":["0/1","1/2"]]},"cube":"Q1","value":"1/1"}',
    '{"box":{"2":["0/1","1/2"],"2":["1/2","1/1"]},"cube":"Q1","value":"1/1"}',
    '{"box":{},"cube":"Q1","value":"1/1"} ',
])
def test_other_record_syntax_is_left_to_json(text):
    # a record the fast path does not read as the writer's syntax is
    # decoded as JSON, whatever it holds
    assert _Reader()._read(text, (1, 2, 3)) is None


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the cyclic collector is paused while the table is built, and the
    # caller's setting comes back after a clean load and a refused one
    good = write_text(tmp_path, "good.family", "".join(family_to_lines(build_three_kadets(2))))
    lines = good.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace('"value":"', '"value":"x', 1)
    bad = write_text(tmp_path, "bad.family", "".join(lines))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_family(good).term_count() == 95
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError, match="bad rational"):
            load_family(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def multipoint_file(tmp_path_factory):
    """The family file of multipoint(4, 2): 18,239 terms, 3.4 MiB."""
    path = tmp_path_factory.mktemp("families") / "m.family"
    dump_family(build_multipoint(4, 2), path)
    return path


def test_loaded_terms_share_their_lattices(multipoint_file):
    loaded = load_family(multipoint_file)
    fns = [loaded.fn(tid) for tid in loaded.source.ids()]
    objects = {id(f._dens) for f in fns}
    lattices = {tuple(sorted(f._dens.items())) for f in fns}
    assert len(objects) == len(lattices)


# sha256 of the family files, pinned from the writer that formatted the
# `Fraction` terms; the writer formats from the lattice now.
FAMILY_DIGESTS = {
    "kadets(4)": "d2f5ef873e6f85b0234e4bda81a9d8a436db6af8423603da563fdee0f6052749",
    "three-kadets(3)": "9edaa58470b6dc681ad824dc3400d43445210ae5597e8d09daa2557c3f86df33",
    "multipoint(4, 1)": "c075e9801b70a39f9b2ad6f50c27a38a32eb7f41914249ddcb07ec89ae49cbe5",
    # a box whose keys sort "10" before "9", and matrix entries in the header
    "kadets(9)": "75168c2226fe46015f3cb1a5eee5ececb858b93f3b3390d78d6bb256f05aeeb6",
    "three-kadets(2) transformed":
        "26a965cb9c2da82ba122edd2c458f9715496b2e18c2b3a37d26129b9d53c6939",
}
PINNED = {
    "kadets(4)": lambda: build_kadets(4),
    "three-kadets(3)": lambda: build_three_kadets(3),
    "multipoint(4, 1)": lambda: build_multipoint(4, 1),
    "kadets(9)": lambda: build_kadets(9),
    "three-kadets(2) transformed": lambda: apply_transform(
        build_three_kadets(2), TransformSpec([["-1/2", "1/3"], ["0/1", "2/1"]])),
}


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_bytes_are_pinned(name):
    data = "".join(family_to_lines(PINNED[name]())).encode()
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


# --- the streamed reader ----------------------------------------------------


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_truncated_streamed_files_are_refused(tmp_path):
    # cut at the start and in the middle of a line; each load parses the
    # whole cut, so the lines are sampled: the first and last twelve
    # (header, first terms, last terms, closing line) and every tenth
    text = "".join(family_to_lines(build_multipoint(4, 1)))
    ends = list(itertools.accumulate(map(len, text.splitlines(keepends=True))))
    starts = [0, *ends[:-1]]
    path = tmp_path / "cut.family"
    for i, (a, b) in enumerate(zip(starts, ends)):
        if i < 12 or i >= len(ends) - 12 or i % 10 == 0:
            for cut in (a, (a + b) // 2):
                path.write_text(text[:cut])
                with pytest.raises(ParseError):
                    load_family(path)
    path.write_text(text[:-1])  # the closing line may lack its newline
    assert sum(1 for _ in load_family(path).source.ids()) == 879


@pytest.mark.parametrize("extra", ["\n", " ", "]}\n", ',{"x":1}\n', "x"],
                         ids=["newline", "space", "closing", "record", "text"])
def test_data_after_the_closing_line_is_refused(tmp_path, extra):
    text = "".join(family_to_lines(build_kadets(2)))
    with pytest.raises(ParseError, match="after the closing"):
        load_family(write_text(tmp_path, "k.family", text + extra))


def test_non_utf8_bytes_are_a_parse_error(tmp_path):
    text = "".join(family_to_lines(build_kadets(2)))
    for layout, other in layouts(json.loads(text)).items():
        path = tmp_path / layout
        data = other.encode()
        path.write_bytes(data[:-20] + b"\xff" + data[-20:])
        with pytest.raises(ParseError, match="not UTF-8"):
            load_family(path)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_layout_loads_the_same_table(tmp_path, name):
    text = "".join(family_to_lines(PINNED[name]()))
    # the writer formats records directly; json.dumps is the reference
    assert streamed(json.loads(text)) == text
    loaded = {layout: load_family(write_text(tmp_path, layout, other))
              for layout, other in layouts(json.loads(text)).items()}
    want = loaded.pop("streamed")
    ids = list(want.source.ids())
    for fam in loaded.values():
        assert list(fam.source.ids()) == ids
        assert fam.transform == want.transform and fam.structure == want.structure
        for tid in ids:
            a, b = want.fn(tid), fam.fn(tid)
            assert (a._entries, a._dens, a._vden) == (b._entries, b._dens, b._vden)


def test_load_refuses_over_budget_before_reading_terms(tmp_path):
    fam = build_kadets(3)  # 26 terms
    text = "".join(family_to_lines(fam))
    head, *terms, close = text.splitlines(keepends=True)
    garbage = {"streamed": "".join([head, *("garbage\n" for _ in terms), close]),
               "one-line": json.dumps({**json.loads(text), "terms": ["garbage"] * 26})}
    for layout, other in garbage.items():
        path = write_text(tmp_path, layout, other)
        with pytest.raises(ConfigError, match="has 26 terms, more than max_terms 25"):
            load_family(path, max_terms=25)
        with pytest.raises(ParseError):
            load_family(path, max_terms=26)
    # records past the header's count load up to the budget, for the
    # verifier's table-complete check to report
    extra = [',{"boxes":[],"index":[%d],"kind":"a","level":9}\n' % i for i in (1, 2)]
    for layout, other in layouts(json.loads("".join([head, *terms, *extra, close]))).items():
        path = write_text(tmp_path, layout, other)
        assert sum(1 for _ in load_family(path, max_terms=28).source.ids()) == 28
        with pytest.raises(ConfigError, match="more than max_terms 27 term records"):
            load_family(path, max_terms=27)


def test_load_peak_memory_is_near_the_table(multipoint_file):
    # the whole-document read peaked at 3.5x the loaded table on this file
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fam = load_family(multipoint_file)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam.term_count() == 18239
    assert peak - before <= 1.25 * (kept - before)
