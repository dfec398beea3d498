"""Command-line front end.

Subcommands: compute (sumset + size + bound), bound (formula values only),
check (inverse verdict), verify and extremal (exhaustive runs). Text output
uses the same set grammar as input so results pipe back in; --json or the
SUMSET_LAB_FORMAT environment variable switches to JSON.

Exit status: 0 success, 1 usage or input error, 2 when verify detects a
bound violation or an inverse inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds
from .engine import SumsetKind, union_bitmap
# not called here: bench/spans.HOOKS wraps this name on this module
from .engine import union_sumset  # noqa: F401
from .errors import SumsetError
from .intset import format_set, parse_hset, parse_intset, sign_reduce
from .structure import check_inverse
from .verifier import (
    DEFAULT_CASE_CAP,
    DEFAULT_PAIR_CAP,
    REPORT_VERSION,
    SearchSpace,
    ZeroMode,
    encode_json,
    find_extremal,
    verify,
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; status 2 is reserved for detected inconsistencies
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_span(text: str) -> tuple[int, int]:
    """LO..HI or a single N (LO = HI = N); argparse names the flag on error."""
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None


def _kinds_from(flag: str) -> tuple[SumsetKind, ...]:
    if flag == "both":
        return (SumsetKind.ORDINARY, SumsetKind.RESTRICTED)
    return (SumsetKind(flag),)


def _wants_json(args) -> bool:
    if args.json:
        return True
    return os.environ.get("SUMSET_LAB_FORMAT", "text").strip().lower() == "json"


def _add_pair_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-A", "--set-a", required=True, metavar="EXPR",
                        help="base set, e.g. '1,2,5' or '1..10' or '3*0..4'")
    parser.add_argument("-H", "--set-h", required=True, metavar="EXPR",
                        help="multiplicity set, same grammar")
    parser.add_argument("--kind", choices=["ordinary", "restricted", "both"],
                        default="both")
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--universe", type=int, required=True, metavar="N",
                        help="universe bound: A within [1,N], or {0}+[1,N-1] with zero")
    parser.add_argument("--k", type=_parse_span, required=True, metavar="LO..HI",
                        help="cardinality range for A")
    parser.add_argument("--hmax", type=int, required=True, metavar="M",
                        help="multiplicities drawn from [1,M]")
    parser.add_argument("--r", type=_parse_span, default=None, metavar="LO..HI",
                        help="cardinality range for H (default 1..hmax)")
    parser.add_argument("--kind", choices=["ordinary", "restricted", "both"],
                        default="both")
    parser.add_argument("--zero-mode", choices=["without", "with", "both"],
                        default="without")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: available parallelism)")
    parser.add_argument("--cap", type=int, default=DEFAULT_PAIR_CAP,
                        help="hard cap on the enumeration count")
    parser.add_argument("--case-cap", type=int, default=DEFAULT_CASE_CAP,
                        help="stored equality cases per report list")
    parser.add_argument("--json", action="store_true", help="emit JSON")


_ZERO_MODES = {
    "without": ZeroMode.WITHOUT,
    "with": ZeroMode.WITH,
    "both": ZeroMode.BOTH,
}


def _space_from(args) -> SearchSpace:
    space = SearchSpace(
        universe_max=args.universe,
        k_range=args.k,
        h_max=args.hmax,
        r_range=args.r if args.r is not None else (1, args.hmax),
        kinds=_kinds_from(args.kind),
        zero_mode=_ZERO_MODES[args.zero_mode],
    )
    # an empty run would pass vacuously
    if space.enumeration_count() == 0:
        raise ValueError(
            "the search space holds no pairs; check --universe, --k, --r and --hmax"
        )
    return space


def _cmd_compute(args) -> int:
    A = parse_intset(args.set_a)
    H = parse_hset(args.set_h)
    kinds = _kinds_from(args.kind)
    results = []
    for kind in kinds:
        # sized by popcount and printed from its bits: the guard already
        # holds every sum in int64, and no sum is decoded one by one
        sumset = union_bitmap(A, H, kind)
        size = len(sumset)
        try:
            report = bounds.bound_report(A, H, kind, size)
        except SumsetError as exc:
            report = None
            note = str(exc)
        entry = {
            "kind": kind.value,
            "sumset": sumset.text,
            "size": size,
        }
        if report is not None:
            entry.update(
                bound=report.bound_value,
                formula=report.formula.identifier if report.formula else None,
                equality=report.is_equality,
                hypotheses_met=report.hypotheses_met,
                reason=report.reason,
            )
        else:
            entry.update(bound=None, formula=None, equality=None,
                         hypotheses_met=False, reason=note)
        results.append(entry)
    payload = {"a": format_set(A), "h": format_set(H), "results": results}
    if _wants_json(args):
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(f"A: {payload['a']}")
        print(f"H: {payload['h']}")
        for entry in results:
            line = (
                f"{entry['kind']}: sumset={entry['sumset']} size={entry['size']}"
                f" bound={entry['bound']} formula={entry['formula']}"
                f" equality={_yn(entry['equality'])}"
            )
            if entry["reason"]:
                line += f" note={entry['reason']!r}"
            print(line)
    return 0


def _cmd_bound(args) -> int:
    A = parse_intset(args.set_a)
    H = parse_hset(args.set_h)
    work, _ = sign_reduce(A)
    zero_in = work.elements[0] == 0
    results = []
    for kind in _kinds_from(args.kind):
        outcome = bounds.catalog_bound(kind, len(work), H, zero_in)
        results.append(
            {
                "kind": kind.value,
                "bound": outcome.value if outcome.applicable else None,
                "formula": outcome.formula.identifier if outcome.formula else None,
                "applicable": outcome.applicable,
                "reason": outcome.reason,
            }
        )
    payload = {"k": len(A), "h": format_set(H), "results": results}
    if _wants_json(args):
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for entry in results:
            if entry["applicable"]:
                print(f"{entry['kind']}: bound={entry['bound']} formula={entry['formula']}")
            else:
                print(f"{entry['kind']}: no applicable bound ({entry['reason']})")
    return 0


def _cmd_check(args) -> int:
    A = parse_intset(args.set_a)
    H = parse_hset(args.set_h)
    verdicts = [check_inverse(A, H, kind) for kind in _kinds_from(args.kind)]
    if _wants_json(args):
        payload = {
            "a": format_set(A),
            "h": format_set(H),
            "verdicts": [v.to_dict() for v in verdicts],
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(f"A: {format_set(A)}")
        print(f"H: {format_set(H)}")
        for v in verdicts:
            print(
                f"{v.kind.value}: size={v.computed_size} bound={v.bound_value}"
                f" equality={_yn(v.equality_holds)} hypotheses={_yn(v.hypotheses_hold)}"
                f" structure={_yn(v.structure_matches)} consistent={_yn(v.consistent)}"
            )
            for reason in v.reasons:
                print(f"  - {reason}")
    return 0


def _cmd_verify(args) -> int:
    space = _space_from(args)
    report = verify(space, workers=args.workers, pair_cap=args.cap,
                    case_cap=args.case_cap)
    if _wants_json(args):
        print(report.to_json())
        print(f"wall time: {report.wall_time_seconds:.2f}s", file=sys.stderr)
    else:
        d = space.to_dict()
        print(
            f"space: universe={d['universe_max']} k={d['k_range'][0]}..{d['k_range'][1]}"
            f" hmax={d['h_max']} r={d['r_range'][0]}..{d['r_range'][1]}"
            f" kinds={','.join(d['kinds'])} zero-mode={d['zero_mode']}"
        )
        print(f"pairs checked: {report.pairs_checked} (expected {report.enumeration_count})")
        print(f"bound violations: {report.bound_violation_count}")
        print(f"equality cases: {report.equality_case_count}")
        print(f"allowed nonstructured equalities: {report.allowed_nonstructured_count}")
        print(f"inverse inconsistencies: {report.inverse_inconsistency_count}")
        print(f"wall time: {report.wall_time_seconds:.2f}s")
        print(f"result: {'PASS' if report.clean else 'FAIL'}")
    return 0 if report.clean else 2


def _cmd_extremal(args) -> int:
    space = _space_from(args)
    groups = find_extremal(space, workers=args.workers, pair_cap=args.cap,
                           case_cap=args.case_cap)
    if _wants_json(args):
        # each group's cases are spliced from their pairs, as to_json does
        payload = {"version": REPORT_VERSION, "space": space.to_dict(), "groups": groups}
        print(encode_json(payload))
    else:
        for group in groups:
            print(f"k={group['k']} r={group['r']} kind={group['kind']}:"
                  f" {len(group['cases'])} equality cases")
            for case in group["cases"]:
                print(f"  A={case['a']} H={case['h']} size={case['size']}"
                      f" structured={_yn(case['structure_matches'])}")
    return 0


def _yn(value) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call and reused: parse_args keeps no state
    # between calls, and _wants_json reads SUMSET_LAB_FORMAT on each one
    parser = _Parser(prog="sumset-lab",
                     description="Sumset sizes, lower bounds, and exhaustive checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a union sumset and its bound")
    _add_pair_flags(p_compute)
    p_compute.set_defaults(func=_cmd_compute)

    p_bound = sub.add_parser("bound", help="print formula values only")
    _add_pair_flags(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_check = sub.add_parser("check", help="run the inverse structure check")
    _add_pair_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="exhaustively verify a search space")
    _add_space_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_extremal = sub.add_parser("extremal", help="list equality cases by (k, r, kind)")
    _add_space_flags(p_extremal)
    p_extremal.set_defaults(func=_cmd_extremal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SumsetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # bit vectors span max - min of each sumset, which int64 alone does not bound
        print("error: sumset too wide to allocate its bit vector", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
