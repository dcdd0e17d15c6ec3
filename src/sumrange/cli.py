"""Command line front end.

Exit codes: 0 success, 1 a verification or suite failure, 2 a
configuration problem, 3 a file that could not be parsed, 143 a run
stopped by SIGTERM (which unwinds, so no temporary file is left behind).

Every flag can also be supplied through `--config FILE`, a flat
key=value text file whose keys match the flag names; explicit flags
win.  All outputs are deterministic for a fixed config and seed, and
files are written atomically.
"""

from __future__ import annotations

import argparse
import re
import signal
import sys
import threading
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from . import analysis
from .families import (
    MAX_TERMS,
    ConfigError,
    Family,
    StructuralError,
    apply_transform,
    build_multipoint,
    cube_label,
    expected_sum_range,
    parse_term_id,
)
from .schedules import (
    POINT_NAMES,
    Schedule,
    random_schedule,
    run_trace,
    schedule_custom,
    schedule_divergent,
    schedule_point,
)
from .serialize import (
    ParseError,
    atomic_write_lines,
    dump_family,
    load_family,
    load_matrix,
    sectioned_family,
)
from .stepfn import DomainError, as_fraction
from .verify import verify_family


class RunConfig(NamedTuple):
    flavor: str = "kadets"
    levels: int = 4
    r: int = 4
    sizes: tuple[int, ...] | None = None
    schedule: str = "sigma"
    target: tuple[Fraction, ...] | None = None
    p: int = 1
    seed: int = 7
    cases: int = 500
    jobs: int = 1
    out: str | None = None
    family: str | None = None
    matrix: str | None = None
    order: str | None = None
    record: str = "steps"
    suite: str = "all"
    max_terms: int = MAX_TERMS


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(_int(part) for part in text.replace(",", " ").split())


def _target(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(as_fraction(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad target {text!r}: {exc}") from exc


_FIELD_PARSERS = {
    "flavor": str,
    "levels": _int,
    "r": _int,
    "sizes": _sizes,
    "schedule": str,
    "target": _target,
    "p": _int,
    "seed": _int,
    "cases": _int,
    "jobs": _int,
    "out": str,
    "family": str,
    "matrix": str,
    "order": str,
    "record": str,
    "suite": str,
    "max_terms": _int,
}


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 text: {exc}") from exc
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = _FIELD_PARSERS[key](value.strip())
    return out


def _merge(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = cfg._replace(**_read_config(args.config))
    overrides = {}
    for name in RunConfig._fields:
        raw = getattr(args, name, None)
        if raw is not None:
            overrides[name] = _FIELD_PARSERS[name](raw)
    cfg = cfg._replace(**overrides)
    if cfg.flavor == "multi":
        cfg = cfg._replace(flavor="multipoint")
    if cfg.flavor not in ("kadets", "three-kadets", "multipoint"):
        raise ConfigError(f"unknown flavor {cfg.flavor!r}")
    if cfg.record not in ("steps", "blocks"):
        raise ConfigError(f"record must be steps or blocks, got {cfg.record!r}")
    if cfg.suite != "all" and cfg.suite not in analysis.SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; pick from {tuple(analysis.SUITES)}")
    for name in ("levels", "p", "cases", "jobs", "max_terms"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    return cfg


def _load_or_build(cfg: RunConfig):
    if cfg.family:
        return load_family(cfg.family, max_terms=cfg.max_terms)
    if cfg.flavor == "multipoint":
        return build_multipoint(cfg.r, cfg.levels, cfg.sizes)
    return Family(2 if cfg.flavor == "kadets" else 3, cfg.levels, cfg.sizes)


def _write_lines(path: str, lines) -> None:
    """Write the lines, each as it comes, with a line end added."""
    atomic_write_lines(path, (line + "\n" for line in lines))


# --- commands ---------------------------------------------------------------


def cmd_build(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ConfigError("build needs --out FILE")
    fam = _load_or_build(cfg)
    dump_family(fam, cfg.out, max_terms=cfg.max_terms)
    cubes = ", ".join(cube_label(c) for c in fam.domain)
    print(f"wrote {cfg.out}: {fam.structure} depth {fam.depth}, "
          f"{fam.term_count()} terms, cubes {cubes}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.family:
        raise ConfigError("verify needs --family FILE")
    # a file in the writer's layout holding exactly the family's terms in
    # order is verified a section at a time, with no table; every other
    # file, and every error on the way, is the table path's to decide
    try:
        fam = sectioned_family(cfg.family, max_terms=cfg.max_terms)
        report = None if fam is None else verify_family(fam, max_terms=cfg.max_terms)
    except (OSError, ValueError, KeyError):  # ParseError, ConfigError and the like
        report = None
    if report is None:
        fam = load_family(cfg.family, max_terms=cfg.max_terms)
        report = verify_family(fam, max_terms=cfg.max_terms)
    for line in report.lines():
        print(line)
    if cfg.out:
        _write_lines(cfg.out, report.csv_lines())
    return 0 if report.ok else 1


def _make_schedule(fam, cfg: RunConfig) -> Schedule:
    label = cfg.schedule
    if label in POINT_NAMES:
        return schedule_point(fam, label)
    if label == "divergent":
        return schedule_divergent(fam)
    if label == "custom":
        return schedule_custom(fam, _read_order(cfg.order), max_terms=cfg.max_terms)
    if label == "random":
        return random_schedule(fam, cfg.seed, max_terms=cfg.max_terms)
    match = re.fullmatch(r"point(\d+)", label)
    if match:
        return schedule_point(fam, int(match.group(1)))
    raise ConfigError(
        f"unknown schedule {label!r}; known: sigma, tau, p00, p10, p11, "
        "divergent, point<i>, custom, random")


def _read_order(path: str) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    ids = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.append(parse_term_id(line))
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: {exc}") from exc
    return ids


def _fmt_point(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def cmd_trace(cfg: RunConfig) -> int:
    if cfg.schedule == "custom" and not cfg.order:
        raise ConfigError("schedule custom needs --order FILE")
    fam = _load_or_build(cfg)
    sch = _make_schedule(fam, cfg)
    trace = run_trace(fam, sch, target=cfg.target, p=cfg.p, record=cfg.record,
                      max_terms=cfg.max_terms)
    if cfg.out:
        _write_lines(cfg.out, trace.to_csv_lines())
    print(f"schedule {sch.label}: {sch.term_count} terms in "
          f"{len(trace.markers())} blocks, max marker deviation "
          f"{trace.max_marker_deviation()}, final "
          f"{_fmt_point(trace.final_deviations)}, box count peak "
          f"{trace.max_box_count()}")
    return 0


def cmd_lemmas(cfg: RunConfig) -> int:
    names = list(analysis.SUITES) if cfg.suite == "all" else [cfg.suite]
    if cfg.jobs > 1:
        # imported only here, as its modules would add to every command's
        # start-up; the pool starts all its workers at the first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(names))) as pool:
            futures = [pool.submit(analysis.run_suite, n, cfg.cases, cfg.seed) for n in names]
            reports = [f.result() for f in futures]
    else:
        reports = [analysis.run_suite(n, cfg.cases, cfg.seed) for n in names]
    for report in reports:
        for line in report.lines():
            print(line)
    if cfg.out:
        _write_lines(cfg.out, chain(["suite,case,hypothesis_ok,conclusion_ok,witness"],
                                    (f"{r.name},{row}" for r in reports
                                     for row in r.csv_lines()[1:])))
    ok = all(r.ok for r in reports)
    total = sum(len(r.cases) for r in reports)
    print(f"{'OK' if ok else 'FAILED'}: {total} cases across {len(reports)} suites")
    return 0 if ok else 1


def _convergent_schedules(fam) -> list[Schedule]:
    names = [name for name, (structure, _) in POINT_NAMES.items()
             if structure == fam.structure]
    if names:
        return [schedule_point(fam, name) for name in names]
    return [schedule_point(fam, i) for i in range(fam.points) if i <= fam.depth]


def _trace_point(fam, sch: Schedule, max_terms: int
                 ) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Trace one convergent schedule of a transformed family; the result
    is strings of rationals, so that it can cross a process boundary."""
    trace = run_trace(fam, sch, record="blocks", max_terms=max_terms)
    final = tuple(str(d) for d in trace.final_deviations)
    return sch.label, tuple(str(x) for x in sch.target), final


def _transform_point(payload) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Worker: rebuild the transformed family, then trace one of its
    convergent schedules."""
    cfg, index = payload
    fam = apply_transform(_load_or_build(cfg), load_matrix(cfg.matrix),
                          max_terms=cfg.max_terms)
    return _trace_point(fam, _convergent_schedules(fam)[index], cfg.max_terms)


def cmd_transform(cfg: RunConfig) -> int:
    if not cfg.matrix:
        raise ConfigError("transform needs --matrix FILE")
    spec = load_matrix(cfg.matrix)
    base = _load_or_build(cfg)
    fam = apply_transform(base, spec, max_terms=cfg.max_terms)
    if cfg.out:
        dump_family(fam, cfg.out, max_terms=cfg.max_terms)
        print(f"wrote {cfg.out}: transformed {base.structure} depth {fam.depth}")
    schedules = _convergent_schedules(fam)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # as in cmd_lemmas

        payloads = [(cfg, i) for i in range(len(schedules))]
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(payloads))) as pool:
            results = list(pool.map(_transform_point, payloads))
    else:
        results = [_trace_point(fam, sch, cfg.max_terms) for sch in schedules]
    shifted = expected_sum_range(fam)
    ok = True
    limits = []
    for (label, target, final), point in zip(results, shifted):
        target = tuple(Fraction(t) for t in target)
        # a schedule that reaches a limit other than the advertised one misses it
        hit = target == point and all(Fraction(d) == 0 for d in final)
        ok = ok and hit
        limits.append(target)
        status = "reached" if hit else "MISSED"
        print(f"{label}: limit {_fmt_point(point)} {status}")
    print(f"distinct limits: {len(set(limits))} of {len(limits)}")
    return 0 if ok else 1


def cmd_demo(cfg: RunConfig) -> int:
    from .acceptance import run_all

    results = run_all()
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    print("OK: all criteria passed" if ok else "FAILED: see lines above")
    return 0 if ok else 1


_HANDLERS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "trace": cmd_trace,
    "lemmas": cmd_lemmas,
    "transform": cmd_transform,
    "demo": cmd_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--config", metavar="FILE", help="flat key=value config; flags override")
    add("--flavor", metavar="NAME",
        help="kadets, three-kadets, or multipoint (alias: multi)")
    add("--levels", metavar="L", help="construction depth, at least 1")
    add("--r", metavar="R", help="number of limit points for multipoint")
    add("--sizes", metavar="N1,N2,...", help="index set sizes per level")
    add("--schedule", metavar="NAME",
        help="sigma, tau, p00, p10, p11, divergent, point<i>, custom, random")
    add("--target", metavar="V1,V2,...", help="per-cube target, rationals")
    add("--p", metavar="P", help="moment order for traces")
    add("--seed", metavar="N", help="seed for random schedules and suites")
    add("--cases", metavar="N", help="case count for seeded suites")
    add("--out", metavar="FILE", help="output file")
    add("--jobs", metavar="N", help="parallel workers for lemmas and transform")
    add("--family", metavar="FILE", help="load a family file instead of building")
    add("--matrix", metavar="FILE", help="transform matrix file")
    add("--order", metavar="FILE", help="term-id file for schedule custom")
    add("--record", metavar="MODE", help="trace granularity: steps or blocks")
    add("--suite", metavar="NAME",
        help="all, cross-variable, fiber, near-constancy, or drift")
    add("--max-terms", metavar="N",
        help=f"refuse work over more terms than this (default {MAX_TERMS})")

    parser = argparse.ArgumentParser(
        prog="sumrange",
        description="Build, verify, and rearrange series of step functions "
                    "with exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common], help="build a family file")
    sub.add_parser("verify", parents=[common], help="check every axiom of a family file")
    sub.add_parser("trace", parents=[common], help="run a schedule and export the trace")
    sub.add_parser("lemmas", parents=[common], help="run the lemma property suites")
    sub.add_parser("transform", parents=[common],
                   help="apply an affine transform and recheck all limits")
    sub.add_parser("demo", parents=[common], help="run the full acceptance battery")
    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # SIGTERM's default action skips every `finally`; as SystemExit it
    # unwinds, and `atomic_write_lines` removes its temporary file.  Only
    # the main thread may set a handler.
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        cfg = _merge(args)
        return _HANDLERS[args.command](cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, StructuralError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if in_main:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
