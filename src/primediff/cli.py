"""Command-line surface: every constructor, the oracle, and the verifier.

Every command prints through `_emit`: plain output is one space-separated
vertex sequence per line (2-factor cycles joined with `|`), written a fixed
number of vertices at a time; `--json` prints one object with "ok": true
(`verify`: its verdict), byte-stable for identical inputs.  Only the
requested form is built.  Exit codes: 0 success; 1 for a domain error, whose
class names its `code`, for running out of memory (`resource_limit`) and for
a `verify` violation; 2 for a usage error.  Each failure but argparse's own
prints {"error": code, "detail": {...}} on stderr.  A reader that closes
stdout early ends the run with exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import Infeasible, NotFound, PrimeDiffError
from .factors import two_factor
from .generators import cycle_diff23, cycle_two_primes, edge_disjoint_cycles, path_diff23, two_prime_cycles
from .graphs import DisjointFamily, Interval, TwoFactorWitness, verify, witness_from_json, witness_to_json
from .oracle import brute_hamilton_path, brute_infeasible_pairs
from .paths import (
    hamilton_cycle,
    hamilton_cycle_through_edge,
    hamilton_path,
    infeasible_pairs,
)
from .primes import prime_arithmetic_progression


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pair(text: str) -> tuple[int, int]:
    a, b = map(int, text.split(","))
    return a, b


def _lengths(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


# Vertices per piece of plain output, so no line is ever held whole.
_CHUNK = 1 << 16


def _plain(w):
    """The plain line of `w`, one per family member, in pieces of at most `_CHUNK` vertices."""
    for m in w.cycles if isinstance(w, DisjointFamily) else (w,):
        for i, c in enumerate(m.cycles if isinstance(m, TwoFactorWitness) else (m.sequence,)):
            if i:
                yield " | "
            for j in range(0, len(c), _CHUNK):
                yield (" " if j else "") + " ".join(map(str, c[j : j + _CHUNK]))
        yield "\n"


def _emit(as_json: bool, obj, text) -> int:
    """Print `{"ok": true, **obj()}` or write the pieces of `text()`; only that form is built."""
    if as_json:
        print(_dumps({"ok": True, **obj()}))
    else:
        sys.stdout.writelines(text())
    return 0


def _one(w):
    return (lambda: witness_to_json(w)), (lambda: _plain(w))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primediff",
        description="Witness-producing constructions on prime difference graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit witness JSON")
    order = argparse.ArgumentParser(add_help=False, parents=[common])
    order.add_argument("n", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("path", parents=[order], help="Hamilton path between two endpoints")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)

    sp = sub.add_parser("cycle", parents=[order], help="Hamilton cycle, optionally through an edge")
    sp.add_argument("--through", type=_pair, metavar="A,B", help="required edge")

    sp = sub.add_parser("two-factor", parents=[order], help="disjoint cycle cover with given lengths")
    sp.add_argument("--lengths", type=_lengths, required=True, metavar="L1,L2,...")

    sp = sub.add_parser("diff23", parents=[order], help="Hamilton cycle (or path) with differences 2 and 3 only")
    sp.add_argument("--path", action="store_true", dest="as_path")

    sp = sub.add_parser("two-prime", parents=[order], help="cycle stepping by the primes of a decomposition n = p + q")
    sp.add_argument("--pair", type=_pair, metavar="P,Q", help="one decomposition (default: all)")

    sub.add_parser("disjoint", parents=[order], help="edge-disjoint Hamilton cycle family")

    sp = sub.add_parser("ap", parents=[common], help="smallest k-term prime arithmetic progression")
    sp.add_argument("k", type=int)
    sp.add_argument("--limit", type=int, default=10_000, help="cap on first term and difference")

    sp = sub.add_parser("exceptions", parents=[order], help="endpoint pairs with no Hamilton path")
    sp.add_argument("--oracle", action="store_true", help="brute-force view instead of constructor view")
    sp.add_argument("--max-order", type=int, default=None)

    sp = sub.add_parser("oracle-path", parents=[order], help="brute-force Hamilton path search")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("--max-order", type=int, default=None)

    sub.add_parser("verify", parents=[common], help="check witness JSON from standard input")

    return parser


def _cmd_verify(args) -> int:
    try:
        obj = json.loads(sys.stdin.read())
    except RecursionError:
        raise ValueError("witness JSON is nested too deeply") from None
    w = witness_from_json(obj)
    v = verify(w)
    verdict = {"ok": True} if v else {"ok": False, "reason": v.reason}
    line = "ok\n" if v else f"violation: {v.reason}\n"
    _emit(args.json, lambda: {**witness_to_json(w), **verdict}, lambda: [line])
    if not v:
        print(_dumps({"error": v.reason, "detail": v.detail or {}}), file=sys.stderr)
        return 1
    return 0


def _output(args):
    """The (JSON object, plain text) thunks that `_emit` prints for a command."""
    cmd = args.command
    if cmd == "path":
        return _one(hamilton_path(args.n, args.a, args.b))
    if cmd == "cycle":
        if args.through is None:
            return _one(hamilton_cycle(args.n))
        return _one(hamilton_cycle_through_edge(args.n, args.through))
    if cmd == "two-factor":
        return _one(two_factor(args.n, args.lengths))
    if cmd == "diff23":
        return _one(path_diff23(args.n) if args.as_path else cycle_diff23(args.n))
    if cmd == "two-prime":
        if args.pair is not None:
            return _one(cycle_two_primes(args.n, args.pair))
        return _one(two_prime_cycles(args.n))
    if cmd == "disjoint":
        return _one(edge_disjoint_cycles(args.n))
    if cmd == "ap":
        ap = prime_arithmetic_progression(args.k, args.limit)
        if ap is None:
            raise NotFound(
                f"no {args.k}-term prime progression with first term and difference at most {args.limit}"
            )
        return (lambda: {"progression": list(ap)}), (lambda: [" ".join(map(str, ap)) + "\n"])
    if cmd == "exceptions":
        if args.oracle:
            pairs = sorted(brute_infeasible_pairs(args.n, max_order=args.max_order))
        else:
            pairs = sorted(infeasible_pairs(args.n))
        return (lambda: {"pairs": [list(p) for p in pairs]}), (lambda: (f"({a},{b})\n" for a, b in pairs))
    if cmd == "oracle-path":
        w = brute_hamilton_path(Interval(1, args.n), (args.a, args.b), max_order=args.max_order)
        if w is None:
            raise Infeasible(
                f"no Hamilton path between {args.a} and {args.b} at order {args.n}",
                n=args.n,
                endpoints=(args.a, args.b),
            )
        return _one(w)
    raise AssertionError(f"unhandled command {cmd!r}")


def _fail(code: str, message: str, detail: dict | None = None, status: int = 1) -> int:
    print(_dumps({"error": code, "detail": {"message": message, **(detail or {})}}), file=sys.stderr)
    return status


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _emit(args.json, *_output(args))
    except PrimeDiffError as e:
        return _fail(e.code, str(e), e.detail)
    except MemoryError:
        return _fail("resource_limit", f"{args.command}: out of memory")
    except ValueError as e:
        return _fail("usage", str(e), status=2)


def main(argv=None) -> None:
    try:
        status = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the
        # interpreter's last flush of the buffered rest stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
