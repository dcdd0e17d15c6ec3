"""`verify --family` on a file in the writer's layout reads it one section
at a time, with no term table, and says exactly what the table path says.

Every case runs `cli.main(["verify", "--family", ...])` twice: as it
stands, and with the section reader switched off, so that `load_family`
and the verifier over its table decide.  The exit code, stdout, stderr
and report CSV bytes must match.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest

from sumrange import cli, serialize
from sumrange.families import (
    ConfigError,
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
)
from sumrange.serialize import family_to_lines, load_family
from sumrange.verify import verify_family
from test_serialize import family_corruptions, layouts


def text_of(fam) -> str:
    return "".join(family_to_lines(fam))


def verify(tmp_path, capsys, path, *flags):
    """(exit code, stdout, stderr, report CSV bytes or None) of one verify."""
    csv = tmp_path / "report.csv"
    csv.unlink(missing_ok=True)
    code = cli.main(["verify", "--family", str(path), "--out", str(csv), *flags])
    out, err = capsys.readouterr()
    return code, out, err, csv.read_bytes() if csv.exists() else None


def both_paths(tmp_path, capsys, monkeypatch, path, *flags):
    """The outcome of the section path, the outcome of the table path, and
    whether the first called `load_family`."""
    loads = []

    def counted(*args, **kwargs):
        loads.append(args)
        return load_family(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cli, "load_family", counted)
        streamed = verify(tmp_path, capsys, path, *flags)
    with monkeypatch.context() as m:
        m.setattr(cli, "sectioned_family", lambda *args, **kwargs: None)
        table = verify(tmp_path, capsys, path, *flags)
    return streamed, table, bool(loads)


def lines_of(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def kadets2_lines() -> list[str]:
    return lines_of(text_of(build_kadets(2)))


def swapped(lines, i, j):
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def reordered_keys(line: str) -> str:
    lead = line[:1] if line.startswith(",") else ""
    rec = json.loads(line[len(lead):])
    return lead + json.dumps({k: rec[k] for k in ("level", "kind", "index", "boxes")},
                             separators=(",", ":")) + "\n"


def transformed_text() -> str:
    return text_of(apply_transform(build_three_kadets(2),
                                   TransformSpec([["1/2", "-1/3"], ["0/1", "1/2"]])))


def unreduced(x: Fraction) -> str:
    return f"{2 * x.numerator}/{2 * x.denominator}"


def noncanonical_boxes(boxes: list) -> list:
    """Box records of the same function in the forms a canonical record
    never has: each box cut into two adjacent halves that merge again,
    the first half as two overlapping boxes that add, a full-span bound
    on coordinate 7, coordinates in decreasing order, every ratio over
    twice its denominator, and a box of value zero at the end."""
    out = []
    for box in boxes:
        bounds = {int(k): (Fraction(lo), Fraction(hi)) for k, (lo, hi) in box["box"].items()}
        value = Fraction(box["value"])
        halves = [bounds]
        if bounds:
            k = max(bounds)
            lo, hi = bounds[k]
            halves = [{**bounds, k: (lo, (lo + hi) / 2)}, {**bounds, k: ((lo + hi) / 2, hi)}]
        for i, half in enumerate(halves):
            half = {**half, 7: (Fraction(0), Fraction(1))}
            for v in ([value / 2, value / 2] if i == 0 else [value]):
                out.append({"box": {str(c): [unreduced(lo), unreduced(hi)]
                                    for c, (lo, hi) in sorted(half.items(), reverse=True)},
                            "cube": box["cube"], "value": unreduced(v)})
    out.append({"box": {"1": ["0/2", "2/4"]}, "cube": "Q1", "value": "0/3"})
    return out


def noncanonical_text(fam) -> str:
    """The family file of `fam` with each term's records rewritten by
    `noncanonical_boxes`, its id fields as the writer wrote them."""
    head, *lines, close = lines_of(text_of(fam))
    out = [head]
    for line in lines:
        lead = line[:1] if line.startswith(",") else ""
        rec = json.loads(line[len(lead):])
        rec["boxes"] = noncanonical_boxes(rec["boxes"])
        out.append(lead + json.dumps(rec, separators=(",", ":")) + "\n")
    return "".join(out + [close])


# Files the section path reads itself, clean or with a fault the verifier
# (not the parser) must find
SECTIONED = {
    "kadets(3)": lambda: text_of(build_kadets(3)),
    "three-kadets(2)": lambda: text_of(build_three_kadets(2)),
    "multipoint(4, 1)": lambda: text_of(build_multipoint(4, 1)),
    "value corruption": lambda: text_of(build_kadets(1)).replace(
        '"value":"-1/1"', '"value":"-2/1"'),
    # a key the parser ignores, as the table path does
    "extra key": lambda: "".join(
        line.replace('],"index":[', '],"note":1,"index":[') for line in kadets2_lines()),
    "non-canonical records": lambda: noncanonical_text(build_multipoint(4, 1)),
    # an object keeps the last value of a repeated key: the id at the end
    "repeated id keys": lambda: "".join(
        line.replace('],"index":[', '],"index":[9],"kind":"z","level":7,"index":[')
        for line in kadets2_lines()),
}

# Files whose term lines are not exactly the family's ids, in order, in the
# writer's layout, or that the parser refuses: the table path decides
FALLBACK = {
    "missing line": lambda: "".join(kadets2_lines()[:3] + kadets2_lines()[4:]),
    "extra line": lambda: "".join(kadets2_lines()[:-1] + [
        ',{"boxes":[],"index":[9],"kind":"a","level":1}\n', kadets2_lines()[-1]]),
    "duplicate line": lambda: "".join(kadets2_lines()[:4] + kadets2_lines()[3:]),
    "swapped lines": lambda: "".join(swapped(kadets2_lines(), 3, 4)),
    "swapped first lines": lambda: "".join(swapped(kadets2_lines(), 1, 2)),
    "reordered keys": lambda: "".join(
        kadets2_lines()[:3] + [reordered_keys(kadets2_lines()[3])] + kadets2_lines()[4:]),
    "one-line": lambda: layouts(json.loads(text_of(build_three_kadets(2))))["one-line"],
    "indented": lambda: layouts(json.loads(text_of(build_three_kadets(2))))["indented"],
    "transformed": transformed_text,
    "transformed, bad term": lambda: transformed_text().replace('"value":"', '"value":"x', 1),
    "two records on one line": lambda: "".join(
        kadets2_lines()[:3] + [kadets2_lines()[3][:-1] + kadets2_lines()[4]]
        + kadets2_lines()[5:]),
    "no closing line": lambda: "".join(kadets2_lines()[:-1]),
    "data after the closing line": lambda: text_of(build_kadets(2)) + "\n",
    # a text-mode read splits lines at '\r'
    "crlf": lambda: text_of(build_kadets(2)).replace("\n", "\r\n"),
    "cr in a record": lambda: text_of(build_kadets(2)).replace('"box":', '\r"box":', 1),
    "bad fraction late": lambda: text_of(build_multipoint(4, 1))[::-1].replace(
        '"1/1"'[::-1], '"1/0"'[::-1], 1)[::-1],
    "not utf-8": None,
}


@pytest.mark.parametrize("name", sorted(SECTIONED))
def test_sectioned_files_match_the_table_path(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.family"
    path.write_text(SECTIONED[name]())
    streamed, table, loaded = both_paths(tmp_path, capsys, monkeypatch, path)
    assert streamed == table
    assert not loaded
    assert streamed[0] in (0, 1) and streamed[3] is not None


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_other_files_fall_back_to_the_table_path(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.family"
    if FALLBACK[name] is None:
        data = text_of(build_kadets(2)).encode()
        path.write_bytes(data[:-40] + b"\xff" + data[-40:])
    else:
        path.write_text(FALLBACK[name](), newline="")
    streamed, table, loaded = both_paths(tmp_path, capsys, monkeypatch, path)
    assert streamed == table
    assert loaded


def test_corrupt_files_match_the_table_path(tmp_path, capsys, monkeypatch):
    for name, text in family_corruptions().items():
        path = tmp_path / name
        path.write_text(text)
        streamed, table, _ = both_paths(tmp_path, capsys, monkeypatch, path)
        assert streamed == table, name
        assert streamed[0] == 3, name
    path = tmp_path / "missing.family"
    streamed, table, _ = both_paths(tmp_path, capsys, monkeypatch, path)
    assert streamed == table and streamed[0] == 3


def test_max_terms_match_the_table_path(tmp_path, capsys, monkeypatch):
    clean = tmp_path / "k.family"
    clean.write_text(text_of(build_kadets(3)))  # 26 terms
    head, *terms, close = lines_of(clean.read_text())
    garbage = tmp_path / "g.family"
    garbage.write_text("".join([head, *("garbage\n" for _ in terms), close]))
    for path, budget, code in ((clean, "25", 2), (clean, "26", 0),
                               (garbage, "25", 2), (garbage, "26", 3)):
        streamed, table, _ = both_paths(tmp_path, capsys, monkeypatch, path,
                                        "--max-terms", budget)
        assert streamed == table
        assert streamed[0] == code
    # the budget is checked against the header before any term line is read
    with pytest.raises(ConfigError, match="26 terms, more than max_terms 25"):
        serialize.sectioned_family(garbage, max_terms=25)


@pytest.fixture(scope="module")
def multipoint_file(tmp_path_factory):
    """The family file of multipoint(4, 2): 18,239 terms."""
    path = tmp_path_factory.mktemp("families") / "m.family"
    path.write_text(text_of(build_multipoint(4, 2)))
    return path


def test_multipoint_file_matches_the_table_path(multipoint_file, tmp_path, capsys, monkeypatch):
    streamed, table, loaded = both_paths(tmp_path, capsys, monkeypatch, multipoint_file)
    assert streamed == table
    assert not loaded
    assert streamed[1].endswith("OK: 130/130 checks passed\n")


def test_each_record_is_parsed_once(multipoint_file, capsys, monkeypatch):
    # every term line a section reads goes through `_Reader.record`, which
    # parses it straight to its parts
    parsed = []
    record = serialize._Reader.record

    def counted(self, *args):
        parsed.append(1)
        return record(self, *args)

    def refused(*args, **kwargs):
        raise AssertionError("load_family called")

    monkeypatch.setattr(serialize._Reader, "record", counted)
    monkeypatch.setattr(cli, "load_family", refused)
    monkeypatch.setattr(serialize, "load_family", refused)
    assert cli.main(["verify", "--family", str(multipoint_file)]) == 0
    capsys.readouterr()
    assert len(parsed) == build_multipoint(4, 2).term_count() == 18_239


def test_parsed_records_are_kept_per_cube_within_the_bound(multipoint_file, monkeypatch):
    # a repeated bridge record is parsed once; the records of the last
    # cube are all distinct, and that cube keeps at most the bound of them
    parsed = []
    piece = serialize._Reader._piece
    monkeypatch.setattr(serialize._Reader, "_piece",
                        lambda self, *args: parsed.append(1) or piece(self, *args))
    fam = serialize.sectioned_family(multipoint_file)
    assert verify_family(fam).ok
    reader = fam.source.reader
    records = multipoint_file.read_text().count('{"box":')
    assert len(parsed) < 0.55 * records
    assert all(len(texts) <= serialize._PIECE_CACHE for texts in reader._held.values())
    assert len(reader._pieces) == sum(map(len, reader._held.values())) < records / 20


def test_sectioned_verify_peaks_under_an_eighth_of_the_table(multipoint_file, capsys):
    # the peak measured 0.062 of the table (2-vCPU host, Python 3.11.7);
    # the bound is about twice that, so a peak 2.5x as large fails
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = load_family(multipoint_file)
        kept = tracemalloc.get_traced_memory()[0] - before
        del fam
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = cli.main(["verify", "--family", str(multipoint_file)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= kept / 8


def test_sections_under_a_prefix_are_read_from_the_file(tmp_path):
    built = build_three_kadets(2)
    path = tmp_path / "f.family"
    path.write_text(text_of(built))
    fam = serialize.sectioned_family(path)
    # a vetted file's ids are proven: exactly the family's
    assert fam.source is not None and fam.source.ids() is None
    assert list(fam.term_ids()) == list(built.term_ids())
    for n in range(1, built.depth + 1):
        for g, kind in enumerate(built.kinds):
            for index in built.index_tuples(g, n):
                for k in range(len(index) + 1):
                    want = list(built.section(g, n, index[:k]))
                    assert list(fam.section(g, n, index[:k])) == want
                assert fam.fn(TermId(kind, n, index)) == built.fn(TermId(kind, n, index))
    with pytest.raises(KeyError, match="outside ranges"):
        fam.section(1, 1, (1, 9))
