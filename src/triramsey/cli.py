"""Command-line front end.

Exit codes: 0 success (or verdict true), 1 verdict false (a forbidden set
was found, the oracle disagreed, or a probe cell disagreed), 2 usage or
input errors or a dead worker process, 3 a run hit a resource cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .defect import sparse_bound_witness
from .driver import CAPPED, RunLimits, checkpoint_resume, compute_number, probe_conjecture
from .enumeration import ProblemSpec, find_forbidden_set, level_at
from .errors import TriramseyError
from .formats import graph6_decode, graph6_encode, render_report
from .graphs import build_graph, set_members
from .oracle import brute_membership, enumerate_all_triangle_free, matches_up_to_isomorphism

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a cpuset or ``taskset`` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triramsey",
        description="Defective Ramsey numbers and sparse-set thresholds "
                    "in triangle-free graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, required=True, help="defect parameter")
        p.add_argument("--i", type=int, default=None,
                       help="forbidden dense-set size; omit for sparse-only mode")
        p.add_argument("--j", type=int, required=True, help="forbidden sparse-set size")

    def add_workers_argument(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=_usable_cpus(),
                       help="processes that compute, this one included; N > 1 forks "
                            "N - 1 helpers at the first step with two or more tasks "
                            "(default: the CPUs this process may use)")

    p = sub.add_parser("compute", help="run the full search and print the number")
    add_spec_arguments(p)
    p.add_argument("--max-order", type=int, default=RunLimits.max_order)
    add_workers_argument(p)
    p.add_argument("--max-level-cardinality", type=int,
                   default=RunLimits.max_level_cardinality)
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="directory receiving one level file per completed level")
    p.add_argument("--resume", type=Path, default=None,
                   help="level file to continue from")

    p = sub.add_parser("check", help="test one graph for forbidden sets")
    p.add_argument("--graph", required=True, help="graph6 line")
    add_spec_arguments(p)

    p = sub.add_parser("bound", help="recoloring lower-bound witness")
    p.add_argument("--graph", required=True, help="graph6 line")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("probe-conjecture",
                       help="compare T_k(k+i) against k+2i-1 for 2 <= i <= k")
    p.add_argument("--k-max", type=int, required=True)
    add_workers_argument(p)

    p = sub.add_parser("encode", help="edge list tokens -> graph6")
    p.add_argument("tokens", nargs="*",
                   help="order followed by endpoint pairs; stdin when omitted")

    p = sub.add_parser("decode", help="graph6 -> edge list tokens")
    p.add_argument("lines", nargs="*", help="graph6 lines; stdin when omitted")

    p = sub.add_parser("oracle-verify",
                       help="compare one enumeration level against brute force")
    p.add_argument("--n", type=int, required=True)
    add_spec_arguments(p)

    return parser


def _cmd_compute(args) -> int:
    spec = ProblemSpec(k=args.k, j=args.j, i=args.i)
    limits = RunLimits(max_order=args.max_order,
                       max_level_cardinality=args.max_level_cardinality,
                       worker_count=args.workers,
                       checkpoint_dir=args.checkpoint)
    if args.resume is not None:
        report = checkpoint_resume(spec, args.resume, limits)
    else:
        report = compute_number(spec, limits)
    print(render_report(report))
    for g in report.extremals:
        print(graph6_encode(g))
    return EXIT_CAPPED if report.status == CAPPED else EXIT_OK


def _format_set(mask: int) -> str:
    return " ".join(str(v) for v in set_members(mask))


def _cmd_check(args) -> int:
    spec = ProblemSpec(k=args.k, j=args.j, i=args.i)
    g = graph6_decode(args.graph)
    verdict = find_forbidden_set(g, spec)
    if verdict is None:
        detail = f"triangle-free, no {spec.k}-sparse {spec.j}-set"
        if spec.i is not None:
            detail += f", no {spec.k}-dense {spec.i}-set"
        print(f"member: {detail}")
        return EXIT_OK
    kind, mask = verdict
    if kind == "triangle":
        print(f"triangle found: {_format_set(mask)}")
    elif kind == "sparse":
        print(f"{spec.k}-sparse {spec.j}-set found: {_format_set(mask)}")
    else:
        print(f"{spec.k}-dense {spec.i}-set found: {_format_set(mask)}")
    return EXIT_FALSE


def _cmd_bound(args) -> int:
    g = graph6_decode(args.graph)
    witness = sparse_bound_witness(g, args.k)
    print(f"{args.k}-sparse set of size {witness.bit_count()}: {_format_set(witness)}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    cells = probe_conjecture(args.k_max, RunLimits(worker_count=args.workers))
    all_agree = True
    for c in cells:
        witness = "yes" if c.bipartite_witness_found else "no"
        verdict = "agree" if c.agrees else "DISAGREE"
        all_agree = all_agree and c.agrees
        print(f"k={c.k} i={c.i} value={c.value} expected={c.expected} "
              f"extremal-count={c.extremal_count} bipartite-witness={witness} {verdict}")
    return EXIT_OK if all_agree else EXIT_FALSE


def _cmd_encode(args) -> int:
    raw = " ".join(args.tokens) if args.tokens else sys.stdin.read()
    tokens = [int(t) for t in raw.split()]
    if not tokens:
        raise ValueError("encode needs an order followed by endpoint pairs")
    if len(tokens) % 2 == 0:
        raise ValueError("unpaired edge endpoint in input")
    order = tokens[0]
    pairs = list(zip(tokens[1::2], tokens[2::2]))
    print(graph6_encode(build_graph(order, pairs)))
    return EXIT_OK


def _cmd_decode(args) -> int:
    lines = args.lines if args.lines else sys.stdin.read().split()
    for line in lines:
        g = graph6_decode(line)
        tokens = [str(g.order)]
        for u, v in g.edges():
            tokens.append(str(u))
            tokens.append(str(v))
        print(" ".join(tokens))
    return EXIT_OK


def _cmd_oracle_verify(args) -> int:
    spec = ProblemSpec(k=args.k, j=args.j, i=args.i)
    produced = level_at(spec, args.n).graphs()
    expected = [g for g in enumerate_all_triangle_free(args.n)
                if brute_membership(g, spec.k, spec.j, spec.i)]
    ok = matches_up_to_isomorphism(produced, expected)
    print(f"order {args.n}: enumerator {len(produced)}, oracle {len(expected)}: "
          f"{'match' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_FALSE


_COMMANDS = {
    "compute": _cmd_compute,
    "check": _cmd_check,
    "bound": _cmd_bound,
    "probe-conjecture": _cmd_probe,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "oracle-verify": _cmd_oracle_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TriramseyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenExecutor as exc:
        checkpoint = getattr(args, "checkpoint", None)
        where = ("no --checkpoint directory was given, so a rerun starts over"
                 if checkpoint is None else
                 f"resume from the last level file in --checkpoint {checkpoint}")
        print(f"error: a worker process died ({exc}); {where}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
