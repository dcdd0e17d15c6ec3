"""End-to-end CLI behavior: exit codes, file outputs, determinism.

Commands run in-process through main(argv) so the tests see the same
code paths as the installed console script without subprocess cost.
"""

import os
import signal
import subprocess
import sys
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import pytest

from sumrange import cli
from sumrange.cli import main
from sumrange.families import (
    TermId,
    TransformSpec,
    apply_transform,
    build_kadets,
    build_multipoint,
    build_three_kadets,
    expected_sum_range,
)
from sumrange.schedules import run_trace, schedule_point
from sumrange.serialize import dump_family, dump_matrix, load_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build ------------------------------------------------------------------


def test_build_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.family", tmp_path / "b.family"
    code, out, _ = run(capsys, "build", "--flavor", "kadets", "--levels", "3",
                       "--out", str(a))
    assert code == 0
    assert "26 terms" in out
    assert run(capsys, "build", "--flavor", "kadets", "--levels", "3",
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_sizes_the_verifier_would(tmp_path, capsys):
    out_file = tmp_path / "m.family"
    code, _, err = run(capsys, "build", "--flavor", "multipoint", "--r", "6",
                       "--levels", "1", "--sizes", "1,1,1,1,1,2", "--out", str(out_file))
    assert code == 2
    assert "grow over levels 1..2" in err
    assert not out_file.exists()


def test_max_terms_flag(tmp_path, capsys):
    out_file = tmp_path / "m.family"
    code, _, err = run(capsys, "build", "--flavor", "multipoint", "--r", "5",
                       "--levels", "2", "--out", str(out_file))
    assert code == 2
    assert "2503268159 terms, more than max_terms 5000000" in err
    assert not out_file.exists()
    small = ("--flavor", "kadets", "--levels", "3")
    code, _, err = run(capsys, "build", *small, "--max-terms", "25", "--out", str(out_file))
    assert code == 2 and "26 terms" in err
    assert run(capsys, "build", *small, "--max-terms", "26", "--out", str(out_file))[0] == 0
    assert run(capsys, "verify", "--family", str(out_file), "--max-terms", "25")[0] == 2
    assert run(capsys, "verify", "--family", str(out_file), "--max-terms", "26")[0] == 0
    for schedule in ("sigma", "random"):
        assert run(capsys, "trace", *small, "--schedule", schedule, "--max-terms", "25")[0] == 2
    assert run(capsys, "trace", *small, "--max-terms", "0")[0] == 2


def test_max_terms_is_checked_before_any_term_line(tmp_path, capsys):
    out_file = tmp_path / "k.family"
    assert run(capsys, "build", "--flavor", "kadets", "--levels", "3",
               "--out", str(out_file))[0] == 0
    head, *terms, close = out_file.read_text().splitlines(keepends=True)
    out_file.write_text("".join([head, *("garbage\n" for _ in terms), close]))
    code, _, err = run(capsys, "verify", "--family", str(out_file), "--max-terms", "25")
    assert code == 2 and "26 terms, more than max_terms 25" in err
    assert run(capsys, "verify", "--family", str(out_file), "--max-terms", "26")[0] == 3
    code, _, err = run(capsys, "trace", "--family", str(out_file), "--max-terms", "25")
    assert code == 2 and "26 terms, more than max_terms 25" in err


def test_build_multipoint_lists_cubes(tmp_path, capsys):
    out_file = tmp_path / "m.family"
    code, out, _ = run(capsys, "build", "--flavor", "multi", "--levels", "1",
                       "--r", "4", "--out", str(out_file))
    assert code == 0
    assert "cubes Q1, Q2, Q3, Q4, Q5" in out


def test_build_needs_out(capsys):
    code, _, err = run(capsys, "build", "--flavor", "kadets", "--levels", "2")
    assert code == 2
    assert "--out" in err


def test_build_rejects_unknown_flavor(capsys):
    code, _, err = run(capsys, "build", "--flavor", "mystery", "--out", "x")
    assert code == 2
    assert "flavor" in err


# --- verify -----------------------------------------------------------------


def test_verify_clean_family(tmp_path, capsys):
    fam_file = tmp_path / "k.family"
    csv_file = tmp_path / "report.csv"
    run(capsys, "build", "--flavor", "kadets", "--levels", "2",
        "--out", str(fam_file))
    code, out, _ = run(capsys, "verify", "--family", str(fam_file),
                       "--out", str(csv_file))
    assert code == 0
    assert "OK:" in out
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "check,scope,passed,witness"
    assert all(",1," in line or line.endswith(',1,""') or ',1,"' in line
               for line in lines[1:])


def test_verify_tampered_value_fails(tmp_path, capsys):
    fam = build_kadets(2)
    tid = TermId("a", 1, (1,))
    bad = fam.with_replaced({tid: fam.fn(tid).scale(2)})
    path = tmp_path / "bad.family"
    dump_family(bad, path)
    code, out, _ = run(capsys, "verify", "--family", str(path))
    assert code == 1
    assert "FAIL cell-norm [a^1(1) on Q1]" in out


def test_verify_corrupt_file(tmp_path, capsys):
    path = tmp_path / "broken.family"
    good = tmp_path / "good.family"
    run(capsys, "build", "--flavor", "kadets", "--levels", "1",
        "--out", str(good))
    path.write_bytes(good.read_bytes()[:100])
    code, _, err = run(capsys, "verify", "--family", str(path))
    assert code == 3
    assert "broken.family" in err


def test_verify_zero_denominator_is_a_parse_error(tmp_path, capsys):
    good = tmp_path / "good.family"
    run(capsys, "build", "--flavor", "kadets", "--levels", "1", "--out", str(good))
    text = good.read_text()
    assert '"1/2"' in text
    path = tmp_path / "zero.family"
    path.write_text(text.replace('"1/2"', '"1/00"', 1))
    code, _, err = run(capsys, "verify", "--family", str(path))
    assert code == 3
    assert "zero denominator in '1/00'" in err


_SIGTERM_MID_WRITE = """
import os, signal, sys
from sumrange import cli, serialize

lines = serialize.family_to_lines

def stopped_after_first_line(fam):
    it = lines(fam)
    yield next(it)
    os.kill(os.getpid(), signal.SIGTERM)
    yield from it

serialize.family_to_lines = stopped_after_first_line
sys.exit(cli.main(["build", "--flavor", "kadets", "--levels", "2", "--out", sys.argv[1]]))
"""


def test_sigterm_mid_write_leaves_no_temp_file(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parent.parent / "src")]
                                        + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", _SIGTERM_MID_WRITE, str(tmp_path / "k.family")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 128 + signal.SIGTERM, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, mine)
    try:
        assert run(capsys, "build", "--flavor", "kadets", "--levels", "1",
                   "--out", str(tmp_path / "k.family"))[0] == 0
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_verify_missing_file_and_flag(tmp_path, capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys, "verify", "--family", str(tmp_path / "nope"))[0] == 3


def test_verify_rejects_transformed(tmp_path, capsys):
    matrix = tmp_path / "t.matrix"
    dump_matrix(TransformSpec.identity(1), matrix)
    fam_file = tmp_path / "t.family"
    code, _, _ = run(capsys, "transform", "--flavor", "kadets", "--levels", "2",
                     "--matrix", str(matrix), "--out", str(fam_file))
    assert code == 0
    code, _, err = run(capsys, "verify", "--family", str(fam_file))
    assert code == 2
    assert "untransformed" in err


# --- trace ------------------------------------------------------------------


def test_trace_summary_and_csv(tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run(capsys, "trace", "--flavor", "kadets", "--levels", "3",
                       "--schedule", "sigma", "--out", str(csv_a))
    assert code == 0
    assert "max marker deviation 0" in out
    assert "box count peak" in out
    run(capsys, "trace", "--flavor", "kadets", "--levels", "3",
        "--schedule", "sigma", "--out", str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    lines = csv_a.read_text().splitlines()
    assert lines[1] == ("k,term_id,cube,deviation_num,deviation_den,"
                        "deviation_float,box_count,is_block_marker")
    assert lines[2] == "1,a^1(1),Q1,1,1,1.0,1,0"


def test_trace_blocks_mode_is_sparser(tmp_path, capsys):
    steps, blocks = tmp_path / "s.csv", tmp_path / "b.csv"
    run(capsys, "trace", "--flavor", "kadets", "--levels", "3",
        "--schedule", "sigma", "--out", str(steps))
    run(capsys, "trace", "--flavor", "kadets", "--levels", "3",
        "--schedule", "sigma", "--record", "blocks", "--out", str(blocks))
    assert len(blocks.read_text().splitlines()) < len(steps.read_text().splitlines())


def test_trace_schedule_flavor_mismatch(capsys):
    code, _, err = run(capsys, "trace", "--flavor", "three-kadets",
                       "--levels", "2", "--schedule", "sigma")
    assert code == 2
    assert "structure" in err


def test_trace_unknown_schedule_and_record(capsys):
    assert run(capsys, "trace", "--schedule", "waltz")[0] == 2
    assert run(capsys, "trace", "--record", "sometimes")[0] == 2
    assert run(capsys, "trace", "--p", "0")[0] == 2


def test_trace_custom_order(tmp_path, capsys):
    order = tmp_path / "order.txt"
    fam = build_kadets(2)
    order.write_text("# full truncation, as built\n"
                     + "\n".join(str(t) for t in fam.term_ids()) + "\n")
    code, out, _ = run(capsys, "trace", "--flavor", "kadets", "--levels", "2",
                       "--schedule", "custom", "--order", str(order))
    assert code == 0
    assert "final (0)" in out


def test_trace_custom_order_errors(tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text("a^1(1)\nnot-a-term\n")
    code, _, err = run(capsys, "trace", "--flavor", "kadets", "--levels", "1",
                       "--schedule", "custom", "--order", str(order))
    assert code == 3
    assert "order.txt:2" in err
    fam = build_kadets(1)
    order.write_text("\n".join(str(t) for t in list(fam.term_ids())[1:]) + "\n")
    code, _, err = run(capsys, "trace", "--flavor", "kadets", "--levels", "1",
                       "--schedule", "custom", "--order", str(order))
    assert code == 2
    code, _, _ = run(capsys, "trace", "--flavor", "kadets", "--levels", "1",
                     "--schedule", "custom")
    assert code == 2


def test_trace_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "trace", "--flavor", "kadets", "--levels", "2",
                         "--schedule", "random", "--seed", "11", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run(capsys, "trace", "--flavor", "kadets", "--levels", "2",
        "--schedule", "random", "--seed", "12", "--out", str(c))
    assert c.read_bytes() != a.read_bytes()


# --- config files -----------------------------------------------------------


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# three-point run\nflavor = three-kadets\nlevels = 2\n"
                   "schedule = p10\n")
    code, out, _ = run(capsys, "trace", "--config", str(cfg))
    assert code == 0
    assert "schedule p10" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("flavor = three-kadets\nlevels = 2\nschedule = p10\n")
    code, out, _ = run(capsys, "trace", "--config", str(cfg),
                       "--schedule", "p11")
    assert code == 0
    assert "schedule p11" in out


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levles = 3\n")
    code, _, err = run(capsys, "trace", "--config", str(cfg))
    assert code == 2
    assert "levles" in err


def test_config_rejects_bad_line_and_missing_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just words\n")
    assert run(capsys, "trace", "--config", str(cfg))[0] == 2
    assert run(capsys, "trace", "--config", str(tmp_path / "absent.cfg"))[0] == 2


@pytest.mark.parametrize("flag, argv, want", [
    ("--matrix", ("transform", "--flavor", "kadets", "--levels", "2"), 3),
    ("--order", ("trace", "--flavor", "kadets", "--levels", "1", "--schedule", "custom"), 3),
    ("--config", ("trace",), 2),
], ids=["matrix", "order", "config"])
def test_input_files_that_are_not_utf8_are_refused(flag, argv, want, tmp_path, capsys):
    # a parse error (3) or a configuration error (2), never the exit 1 of
    # a failed check, and one error line instead of a traceback
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("levels = 2 # défaut\n".encode("latin-1"))
    code, _, err = run(capsys, *argv, flag, str(bad))
    assert code == want
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert "not UTF-8" in err


# --- lemmas -----------------------------------------------------------------


def test_lemmas_csv_schema(tmp_path, capsys):
    csv_file = tmp_path / "suite.csv"
    code, out, _ = run(capsys, "lemmas", "--suite", "cross-variable",
                       "--cases", "20", "--out", str(csv_file))
    assert code == 0
    assert "OK: 20 cases across 1 suites" in out
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "suite,case,hypothesis_ok,conclusion_ok,witness"
    assert len(lines) == 21
    assert lines[1].startswith("cross-variable,case-0,1,1,")


def test_lemmas_parallel_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["lemmas", "--cases", "15", "--seed", "7"]
    assert run(capsys, *base, "--jobs", "1", "--out", str(serial))[0] == 0
    assert run(capsys, *base, "--jobs", "2", "--out", str(parallel))[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_text().count("\n") == 1 + 15 + 15 + 22 + 2


class _InlinePool:
    """Runs submitted work in this process and records `max_workers`."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_start_no_more_workers_than_tasks(tmp_path, capsys, monkeypatch):
    # a pool forks all of its workers at the first submit
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    assert run(capsys, "lemmas", "--cases", "5", "--jobs", "64")[0] == 0
    matrix = tmp_path / "m.matrix"
    dump_matrix(TransformSpec.identity(2), matrix)
    assert run(capsys, "transform", "--flavor", "three-kadets", "--levels", "2",
               "--matrix", str(matrix), "--jobs", "64")[0] == 0
    assert _InlinePool.sizes == [4, 3]


def test_lemmas_unknown_suite(capsys):
    code, _, err = run(capsys, "lemmas", "--suite", "zorn")
    assert code == 2
    assert "zorn" in err


# --- transform --------------------------------------------------------------


def test_transform_identity_doubles_limits(tmp_path, capsys):
    matrix = tmp_path / "m.matrix"
    dump_matrix(TransformSpec.identity(2), matrix)
    code, out, _ = run(capsys, "transform", "--flavor", "three-kadets",
                       "--levels", "2", "--matrix", str(matrix))
    assert code == 0
    assert "p11: limit (2, 2, 2) reached" in out
    assert "distinct limits: 3 of 3" in out


def test_transform_rank_deficient_collapses_limits(tmp_path, capsys):
    matrix = tmp_path / "m.matrix"
    dump_matrix(TransformSpec([[-1, 0], [0, 0]]), matrix)
    code, out, _ = run(capsys, "transform", "--flavor", "three-kadets",
                       "--levels", "2", "--matrix", str(matrix), "--jobs", "2")
    assert code == 0
    assert "distinct limits: 2 of 3" in out


def test_transform_writes_loadable_family(tmp_path, capsys):
    matrix = tmp_path / "m.matrix"
    out_file = tmp_path / "t.family"
    dump_matrix(TransformSpec.zero(1), matrix)
    code, out, _ = run(capsys, "transform", "--flavor", "kadets", "--levels", "2",
                       "--matrix", str(matrix), "--out", str(out_file))
    assert code == 0
    assert "sigma: limit (0) reached" in out and "tau: limit (1) reached" in out
    assert out_file.exists()


def test_transform_wrong_limit_is_a_miss(tmp_path, capsys, monkeypatch):
    # the advertised limits no longer match the schedules' targets
    real = cli.expected_sum_range
    monkeypatch.setattr(cli, "expected_sum_range",
                        lambda fam: tuple(tuple(v + 1 for v in p) for p in real(fam)))
    matrix = tmp_path / "m.matrix"
    dump_matrix(TransformSpec.identity(1), matrix)
    code, out, _ = run(capsys, "transform", "--flavor", "kadets", "--levels", "2",
                       "--matrix", str(matrix), "--jobs", "1")
    assert code == 1
    assert "sigma: limit (1) MISSED" in out
    assert "tau: limit (3) MISSED" in out


def test_transform_serial_builds_the_family_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.apply_transform

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "apply_transform", counted)
    matrix = tmp_path / "m.matrix"
    dump_matrix(TransformSpec.identity(2), matrix)
    code, out, _ = run(capsys, "transform", "--flavor", "three-kadets",
                       "--levels", "2", "--matrix", str(matrix), "--jobs", "1")
    assert code == 0
    assert out.count(" reached") == 3
    assert len(calls) == 1


def test_transform_errors(tmp_path, capsys):
    assert run(capsys, "transform", "--flavor", "kadets", "--levels", "2")[0] == 2
    matrix = tmp_path / "wide.matrix"
    dump_matrix(TransformSpec.identity(1), matrix)
    code, _, err = run(capsys, "transform", "--flavor", "three-kadets",
                       "--levels", "2", "--matrix", str(matrix))
    assert code == 2
    assert "dimension" in err
    bad = tmp_path / "bad.matrix"
    bad.write_text("{}")
    assert run(capsys, "transform", "--flavor", "kadets", "--levels", "2",
               "--matrix", str(bad))[0] == 3


# Transformed families written by `transform --out`, with the flags that
# build the base and the base's convergent point schedules.
TRANSFORMED = {
    "kadets(2)": (lambda: build_kadets(2), ("--flavor", "kadets", "--levels", "2"),
                  ("sigma", "tau")),
    "three-kadets(2)": (lambda: build_three_kadets(2),
                        ("--flavor", "three-kadets", "--levels", "2"), ("p00", "p10", "p11")),
    "multipoint(4, 1)": (lambda: build_multipoint(4, 1),
                         ("--flavor", "multipoint", "--r", "4", "--levels", "1"),
                         (0, 1)),
}


@pytest.fixture(params=sorted(TRANSFORMED))
def transformed_file(request, tmp_path, capsys):
    """(built transformed family, its file written by `transform --out`,
    its schedule names)"""
    build, flags, schedules = TRANSFORMED[request.param]
    base = build()
    d = base.points - 1
    spec = TransformSpec([[Fraction(1, 2) if j == i else Fraction(-1, 3) if j == i + 1 else 0
                           for j in range(d)] for i in range(d)])
    matrix, path = tmp_path / "t.matrix", tmp_path / "t.family"
    dump_matrix(spec, matrix)
    code, out, _ = run(capsys, "transform", *flags, "--matrix", str(matrix), "--out", str(path))
    assert code == 0, out
    return apply_transform(base, spec), path, schedules


def test_transformed_file_keeps_its_shape(transformed_file, tmp_path, capsys):
    fam, path, _ = transformed_file
    loaded = load_family(path)
    assert (loaded.flavor, loaded.structure, loaded.kinds) == (fam.flavor, fam.structure, fam.kinds)
    assert len(list(loaded.term_ids())) == loaded.term_count() == fam.term_count()
    assert set(loaded.term_ids()) == set(loaded.table_ids())
    again = tmp_path / "again.family"
    code, out, err = run(capsys, "build", "--family", str(path), "--out", str(again))
    assert code == 0, err
    assert again.read_bytes() == path.read_bytes()


def test_transformed_file_traces_to_its_limits(transformed_file, tmp_path, capsys):
    fam, path, schedules = transformed_file
    assert expected_sum_range(load_family(path)) == expected_sum_range(fam)
    csv = tmp_path / "trace.csv"
    zero = "(" + ", ".join("0" for _ in fam.domain) + ")"
    for point in schedules:
        name = point if isinstance(point, str) else f"point{point}"
        code, out, err = run(capsys, "trace", "--family", str(path), "--schedule", name,
                             "--record", "blocks", "--out", str(csv))
        assert code == 0, err
        assert f"final {zero}," in out
        want = run_trace(fam, schedule_point(fam, point), record="blocks").to_csv_lines()
        assert csv.read_text() == "".join(line + "\n" for line in want)


def test_transformed_file_with_a_matrix_of_another_size_is_refused(tmp_path, capsys):
    # a three-kadets file needs a 2x2 matrix; a 1x1 one is a bad file, not bad flags
    matrix, path = tmp_path / "t.matrix", tmp_path / "t.family"
    dump_matrix(TransformSpec.identity(2), matrix)
    assert run(capsys, "transform", "--flavor", "three-kadets", "--levels", "2",
               "--matrix", str(matrix), "--out", str(path))[0] == 0
    text = path.read_text()
    assert '"matrix":[["1/1","0/1"],["0/1","1/1"]]' in text
    path.write_text(text.replace('"matrix":[["1/1","0/1"],["0/1","1/1"]]', '"matrix":[["1/2"]]'))
    code, _, err = run(capsys, "trace", "--family", str(path), "--schedule", "p00")
    assert code == 3
    assert "matrix dimension 1 != 2 independent cube values" in err


# --- parser plumbing --------------------------------------------------------


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_bad_numeric_flag(capsys):
    code, _, err = run(capsys, "trace", "--levels", "three")
    assert code == 2
    assert "integer" in err
