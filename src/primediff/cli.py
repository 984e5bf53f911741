"""Command-line surface: every constructor, the oracle, and the verifier.

Plain output is space-separated vertex sequences (2-factor cycles joined
with `|`); `--json` emits the witness schema plus {"ok": bool}, byte-stable
for identical inputs.  Exit codes: 0 success, 1 infeasible, verification
violation or resource limit (machine-readable reason on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConstructionError,
    Infeasible,
    NonEdge,
    NotFound,
    OrderCapExceeded,
)
from .factors import two_factor
from .generators import cycle_diff23, cycle_two_primes, edge_disjoint_cycles, path_diff23
from .graphs import Interval, TwoFactorWitness, verify, witness_from_json, witness_to_json
from .oracle import brute_hamilton_path, brute_infeasible_pairs
from .paths import (
    hamilton_cycle,
    hamilton_cycle_through_edge,
    hamilton_path,
    infeasible_pairs,
)
from .primes import prime_arithmetic_progression, prime_pair_decompositions


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return int(parts[0]), int(parts[1])


def _lengths(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _plain(w) -> str:
    if isinstance(w, TwoFactorWitness):
        return " | ".join(" ".join(map(str, c)) for c in w.cycles)
    return " ".join(map(str, w.sequence))


def _emit_witness(w, as_json: bool) -> int:
    if as_json:
        print(_dumps({**witness_to_json(w), "ok": True}))
    else:
        print(_plain(w))
    return 0


def _emit_witnesses(ws, as_json: bool, extra: dict | None = None) -> int:
    if as_json:
        obj = {"ok": True, "witnesses": [witness_to_json(w) for w in ws]}
        if extra:
            obj.update(extra)
        print(_dumps(obj))
    else:
        for w in ws:
            print(_plain(w))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primediff",
        description="Witness-producing constructions on prime difference graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit witness JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("path", parents=[common], help="Hamilton path between two endpoints")
    sp.add_argument("n", type=int)
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)

    sp = sub.add_parser("cycle", parents=[common], help="Hamilton cycle, optionally through an edge")
    sp.add_argument("n", type=int)
    sp.add_argument("--through", type=_pair, metavar="A,B", help="required edge")

    sp = sub.add_parser("two-factor", parents=[common], help="disjoint cycle cover with given lengths")
    sp.add_argument("n", type=int)
    sp.add_argument("--lengths", type=_lengths, required=True, metavar="L1,L2,...")

    sp = sub.add_parser("diff23", parents=[common], help="Hamilton cycle (or path) with differences 2 and 3 only")
    sp.add_argument("n", type=int)
    sp.add_argument("--path", action="store_true", dest="as_path")

    sp = sub.add_parser("two-prime", parents=[common], help="cycle stepping by the primes of a decomposition n = p + q")
    sp.add_argument("n", type=int)
    sp.add_argument("--pair", type=_pair, metavar="P,Q", help="one decomposition (default: all)")

    sp = sub.add_parser("disjoint", parents=[common], help="edge-disjoint Hamilton cycle family")
    sp.add_argument("n", type=int)

    sp = sub.add_parser("ap", parents=[common], help="smallest k-term prime arithmetic progression")
    sp.add_argument("k", type=int)
    sp.add_argument("--limit", type=int, default=10_000, help="cap on first term and difference")

    sp = sub.add_parser("exceptions", parents=[common], help="endpoint pairs with no Hamilton path")
    sp.add_argument("n", type=int)
    sp.add_argument("--oracle", action="store_true", help="brute-force view instead of constructor view")
    sp.add_argument("--max-order", type=int, default=None)

    sp = sub.add_parser("oracle-path", parents=[common], help="brute-force Hamilton path search")
    sp.add_argument("n", type=int)
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
    if args.json:
        out = {**witness_to_json(w), "ok": bool(v)}
        if not v:
            out["reason"] = v.reason
        print(_dumps(out))
    else:
        print("ok" if v else f"violation: {v.reason}")
    if not v:
        print(_dumps({"error": v.reason, "detail": v.detail or {}}), file=sys.stderr)
        return 1
    return 0


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "path":
        return _emit_witness(hamilton_path(args.n, args.a, args.b), args.json)
    if cmd == "cycle":
        if args.through is None:
            return _emit_witness(hamilton_cycle(args.n), args.json)
        return _emit_witness(hamilton_cycle_through_edge(args.n, args.through), args.json)
    if cmd == "two-factor":
        return _emit_witness(two_factor(args.n, args.lengths), args.json)
    if cmd == "diff23":
        w = path_diff23(args.n) if args.as_path else cycle_diff23(args.n)
        return _emit_witness(w, args.json)
    if cmd == "two-prime":
        if args.pair is not None:
            return _emit_witness(cycle_two_primes(args.n, args.pair), args.json)
        pairs = prime_pair_decompositions(args.n)
        if not pairs:
            raise NotFound(f"no prime pair decompositions of {args.n}")
        return _emit_witnesses([cycle_two_primes(args.n, pr) for pr in pairs], args.json)
    if cmd == "disjoint":
        fam = edge_disjoint_cycles(args.n)
        return _emit_witnesses(fam.cycles, args.json, {"sources": list(fam.sources)})
    if cmd == "ap":
        ap = prime_arithmetic_progression(args.k, args.limit)
        if ap is None:
            raise NotFound(
                f"no {args.k}-term prime progression with first term and difference at most {args.limit}"
            )
        if args.json:
            print(_dumps({"ok": True, "progression": list(ap)}))
        else:
            print(" ".join(map(str, ap)))
        return 0
    if cmd == "exceptions":
        if args.oracle:
            pairs = sorted(brute_infeasible_pairs(args.n, max_order=args.max_order))
        else:
            pairs = sorted(infeasible_pairs(args.n))
        if args.json:
            print(_dumps({"ok": True, "pairs": [list(p) for p in pairs]}))
        else:
            for a, b in pairs:
                print(f"({a},{b})")
        return 0
    if cmd == "oracle-path":
        w = brute_hamilton_path(
            Interval(1, args.n), (args.a, args.b), max_order=args.max_order
        )
        if w is None:
            raise Infeasible(
                f"no Hamilton path between {args.a} and {args.b} at order {args.n}",
                n=args.n,
                endpoints=(args.a, args.b),
            )
        return _emit_witness(w, args.json)
    if cmd == "verify":
        return _cmd_verify(args)
    raise AssertionError(f"unhandled command {cmd!r}")


def _domain_error(code: str, message: str, detail: dict | None) -> int:
    payload = {"error": code, "detail": {"message": message, **(detail or {})}}
    print(_dumps(payload), file=sys.stderr)
    return 1


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except Infeasible as e:
        return _domain_error("infeasible", str(e), e.detail)
    except NonEdge as e:
        return _domain_error("non_edge", str(e), None)
    except NotFound as e:
        return _domain_error("not_found", str(e), None)
    except OrderCapExceeded as e:
        return _domain_error("order_cap_exceeded", str(e), {"order": e.order, "cap": e.cap})
    except ConstructionError as e:
        return _domain_error("construction_error", str(e), None)
    except MemoryError:
        return _domain_error("resource_limit", f"{args.command}: out of memory", None)
    except ValueError as e:
        print(_dumps({"error": "usage", "detail": {"message": str(e)}}), file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
