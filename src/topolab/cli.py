"""Command-line surface: analyze, compactify, reflect, check, corpus, export-dot.

Exit codes: 0 when everything passes, 1 when any check fails, 2 on invalid
input (malformed files, unknown suites or faults, out-of-bounds requests).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .corpus import MAX_POINTS, enumerate_spaces
from .errors import InvalidInput, TopolabError
from .filters import CLOSED_PRIME, OPEN_PRIME, ULTRA, lift_space, unit
from .reflectors import REFLECT_OPS
from .reports import CheckReport
from .serialization import (
    dumps,
    lifted_dot,
    lifted_sidecar_to_json,
    load_space,
    map_to_json,
    space_to_json,
    specialization_dot,
)
from .spaces import classify, mask_to_points
from .suites import FAULTS, SUITES, RunBounds, run_suite

MONAD_KINDS = {"sigma": OPEN_PRIME, "pcf": CLOSED_PRIME, "ultra": ULTRA}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="Finite-scale workbench for filter-space monads, "
        "separation reflectors, and frame coreflections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a space file")
    analyze.add_argument("space", help="path to a space JSON file")

    compactify = sub.add_parser(
        "compactify", help="apply a filter-space construction to a space file"
    )
    compactify.add_argument("space")
    compactify.add_argument(
        "--monad", choices=sorted(MONAD_KINDS), default="sigma",
        help="which filter space to build (default: sigma)",
    )
    compactify.add_argument("--out", default=None, help="output directory")

    reflect = sub.add_parser("reflect", help="apply a separation reflector")
    reflect.add_argument("space")
    reflect.add_argument(
        "--via", choices=sorted(REFLECT_OPS), default="t0",
        help="which reflection to apply (default: t0)",
    )
    reflect.add_argument("--out", default=None)

    check = sub.add_parser("check", help="run a named check suite")
    check.add_argument(
        "--suite", default="all",
        help=f"suite id or 'all'; known: {', '.join(sorted(SUITES))}",
    )
    check.add_argument("--max-points", type=int, default=RunBounds.max_points, metavar="N")
    check.add_argument(
        "--epi-cap", type=int, default=RunBounds.epi_cap, metavar="N",
        help="codomain size bound for epimorphism quantification",
    )
    check.add_argument(
        "--map-points", type=int, default=None, metavar="N",
        help="size bound for the spaces of map-quantified checks; at most "
        f"--max-points and --epi-cap (default: the smallest of {RunBounds.map_points}, "
        "--max-points and --epi-cap)",
    )
    check.add_argument(
        "--inject-fault", default=None, metavar="ID",
        help=f"known faults: {', '.join(sorted(FAULTS))}",
    )

    corpus = sub.add_parser("corpus", help="enumerate the space corpus")
    corpus.add_argument("--max-points", type=int, default=4, metavar="N")
    corpus.add_argument("--up-to-homeo", action="store_true", default=False)

    dot = sub.add_parser("export-dot", help="emit specialization digraphs in DOT")
    dot.add_argument("space")
    dot.add_argument("--monad", choices=sorted(MONAD_KINDS), default="sigma")
    dot.add_argument("--out", default=None, help="output file")

    return parser


def _profile_lines(space) -> list[str]:
    profile = classify(space)
    irr = ", ".join(
        "{" + ",".join(map(str, mask_to_points(g))) + "}"
        for g in profile.irreducible_closed_sets
    )
    return [
        f"points: {space.n}",
        f"opens: {len(space.opens)}",
        f"T0: {profile.is_T0}",
        f"weakly sober: {profile.is_weakly_sober}",
        f"sober: {profile.is_sober}",
        f"stable: {profile.is_stable}",
        f"locally compact: {profile.is_locally_compact}",
        f"salbany: {profile.is_salbany}",
        f"stably compact: {profile.is_stably_compact}",
        f"hausdorff: {profile.is_hausdorff}",
        f"irreducible closed sets: {irr}",
    ]


def cmd_analyze(args) -> int:
    space = load_space(args.space)
    for line in _profile_lines(space):
        print(line)
    return 0


@contextmanager
def _writing(path: Path):
    """Report a failed write of ``path`` as bad input, the mirror of ``cannot read``."""
    try:
        yield
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _write_results(args, tag: str, documents: dict, result) -> None:
    """Write ``<stem>.<tag>.<key>.json`` per document, then profile the result space."""
    src = Path(args.space)
    out = Path(args.out) if args.out else src.parent
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    for key, data in documents.items():
        path = out / f"{src.stem}.{tag}.{key}.json"
        with _writing(path):
            path.write_text(dumps(data), encoding="utf-8")
        print(f"wrote {path}")
    print(f"result points: {result.n}")
    for line in _profile_lines(result):
        print("  " + line)


def cmd_compactify(args) -> int:
    space = load_space(args.space)
    kind = MONAD_KINDS[args.monad]
    lifted = lift_space(kind, space)
    e = unit(kind, space)
    documents = {
        "space": space_to_json(lifted.space),
        "unit": map_to_json(e),
        "points": lifted_sidecar_to_json(lifted),
    }
    _write_results(args, args.monad, documents, lifted.space)
    print(f"unit injective (embedding iff input is T0): {e.is_injective}")
    return 0


def cmd_reflect(args) -> int:
    space = load_space(args.space)
    reflected, r = REFLECT_OPS[args.via](space)
    documents = {"space": space_to_json(reflected), "map": map_to_json(r)}
    _write_results(args, args.via, documents, reflected)
    return 0


def cmd_check(args) -> int:
    map_points = args.map_points
    if map_points is None:
        map_points = min(RunBounds.map_points, args.max_points, args.epi_cap)
    bounds = RunBounds(
        max_points=args.max_points,
        map_points=map_points,
        epi_cap=args.epi_cap,
        fault=args.inject_fault,
    )
    reports: list[CheckReport] = run_suite(args.suite, bounds)
    for report in reports:
        print(report.line())
    failures = sum(1 for r in reports if not r.ok)
    print(f"checks: {len(reports)}  failures: {failures}")
    return 1 if failures else 0


def cmd_corpus(args) -> int:
    if not 1 <= args.max_points <= MAX_POINTS:
        raise InvalidInput(f"max_points must lie in 1..{MAX_POINTS}, got {args.max_points}")
    total = 0
    for n in range(1, args.max_points + 1):
        spaces = enumerate_spaces(n, args.up_to_homeo)
        total += len(spaces)
        label = "classes" if args.up_to_homeo else "labeled topologies"
        print(f"n={n}: {len(spaces)} {label}")
    print(f"total: {total}")
    return 0


def cmd_export_dot(args) -> int:
    space = load_space(args.space)
    kind = MONAD_KINDS[args.monad]
    lifted = lift_space(kind, space)
    text = specialization_dot(space) + lifted_dot(lifted, name=f"lifted_{args.monad}")
    out = Path(args.out) if args.out else Path(args.space).with_suffix(".dot")
    with _writing(out):
        out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "compactify": cmd_compactify,
    "reflect": cmd_reflect,
    "check": cmd_check,
    "corpus": cmd_corpus,
    "export-dot": cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except TopolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
