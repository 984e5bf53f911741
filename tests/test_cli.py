"""CLI surface: outputs, exit codes, JSON stability, verify round-trips."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primediff
from primediff.cli import run
from primediff.factors import two_factor
from primediff.generators import edge_disjoint_cycles
from primediff.graphs import NOT_PERMUTATION, TwoFactorWitness, Verdict, verify_edge_disjoint, witness_to_json
from primediff.paths import hamilton_cycle_through_edge, hamilton_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text: str) -> None:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_path_plain(capsys):
    code, out, err = invoke(capsys, "path", "9", "4", "5")
    assert code == 0
    assert out == "4 1 3 8 6 9 7 2 5\n"
    assert err == ""


def test_path_orientation_follows_arguments(capsys):
    _, fwd, _ = invoke(capsys, "path", "9", "4", "5")
    _, bwd, _ = invoke(capsys, "path", "9", "5", "4")
    assert bwd.split() == fwd.split()[::-1]


def test_exceptions_output(capsys):
    code, out, _ = invoke(capsys, "exceptions", "8")
    assert code == 0
    assert out == "(4,5)\n"
    code, out, _ = invoke(capsys, "exceptions", "9")
    assert code == 0 and out == ""


def test_exceptions_oracle_view_agrees(capsys):
    _, cons, _ = invoke(capsys, "exceptions", "7")
    _, brute, _ = invoke(capsys, "exceptions", "7", "--oracle")
    assert cons == brute == "(3,4)\n(4,5)\n"


def test_infeasible_two_factor_exit_code(capsys):
    code, out, err = invoke(capsys, "two-factor", "6", "--lengths", "3,3")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "infeasible"
    assert "detail" in payload


def test_two_factor_plain_uses_bar_separator(capsys):
    code, out, _ = invoke(capsys, "two-factor", "7", "--lengths", "3,4")
    assert code == 0
    assert out == "1 3 6 | 2 5 7 4\n"


def joined(w) -> str:
    """The plain line as one string: vertices by spaces, 2-factor cycles by bars."""
    if isinstance(w, TwoFactorWitness):
        return " | ".join(" ".join(map(str, c)) for c in w.cycles)
    return " ".join(map(str, w.sequence))


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize(
    "argv, build",
    [
        (("path", "40", "3", "17"), lambda: [hamilton_path(40, 3, 17)]),
        (("cycle", "40", "--through", "5,10"), lambda: [hamilton_cycle_through_edge(40, (5, 10))]),
        (("two-factor", "40", "--lengths", "3,4,5,28"), lambda: [two_factor(40, (3, 4, 5, 28))]),
        (("disjoint", "40"), lambda: edge_disjoint_cycles(40).cycles),
    ],
)
def test_plain_output_in_chunks_matches_joined_lines(argv, build, chunk, capsys, monkeypatch):
    monkeypatch.setattr("primediff.cli._CHUNK", chunk)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == "".join(joined(w) + "\n" for w in build())


def test_json_shape_and_ok_flag(capsys):
    code, out, _ = invoke(capsys, "path", "9", "1", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["kind"] == "path"
    assert obj["lo"] == 1 and obj["hi"] == 9
    assert len(obj["sequences"]) == 1


def test_json_byte_stable(capsys):
    runs = [invoke(capsys, "disjoint", "30", "--json")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [invoke(capsys, "two-factor", "19", "--lengths", "3,4,5,7", "--json")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_cycle_and_through(capsys):
    code, out, _ = invoke(capsys, "cycle", "12")
    assert code == 0 and len(out.split()) == 12
    code, out, _ = invoke(capsys, "cycle", "12", "--through", "3,8")
    assert code == 0
    code, _, err = invoke(capsys, "cycle", "12", "--through", "3,7")
    assert code == 1
    assert json.loads(err)["error"] == "non_edge"


def test_diff23_variants(capsys):
    code, out, _ = invoke(capsys, "diff23", "10")
    assert code == 0 and out == "6 3 1 4 2 5 8 10 7 9\n"
    code, out, _ = invoke(capsys, "diff23", "8", "--path")
    assert code == 0 and out == "8 6 3 1 4 2 5 7\n"
    code, _, err = invoke(capsys, "diff23", "8")
    assert code == 1 and json.loads(err)["error"] == "infeasible"


def test_two_prime_all_and_single(capsys):
    code, out, _ = invoke(capsys, "two-prime", "16")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # 3+13 and 5+11
    code, out, _ = invoke(capsys, "two-prime", "9", "--pair", "2,7")
    assert code == 0 and out == "1 3 5 7 9 2 4 6 8\n"
    code, _, err = invoke(capsys, "two-prime", "11")
    assert code == 1 and json.loads(err)["error"] == "not_found"


def test_ap_command(capsys):
    code, out, _ = invoke(capsys, "ap", "4")
    assert code == 0 and out == "5 11 17 23\n"
    code, out, _ = invoke(capsys, "ap", "3", "--json")
    assert json.loads(out) == {"ok": True, "progression": [3, 5, 7]}
    code, _, err = invoke(capsys, "ap", "6", "--limit", "20")
    assert code == 1 and json.loads(err) == {
        "error": "not_found",
        "detail": {"message": "no 6-term prime progression with first term and difference at most 20"},
    }
    code, out, err = invoke(capsys, "ap", "12")
    assert code == 1 and out == "" and json.loads(err)["error"] == "not_found"
    code, out, err = invoke(capsys, "ap", "200000")  # ruled out before any sieve is built
    assert code == 1 and out == "" and json.loads(err)["error"] == "not_found"


def test_memory_error_is_resource_limit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("primediff.cli.brute_hamilton_path", exhausted)
    code, out, err = invoke(capsys, "oracle-path", "30", "1", "2", "--max-order", "40")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "resource_limit",
        "detail": {"message": "oracle-path: out of memory"},
    }


@pytest.mark.parametrize(
    "argv",
    [("path", "100000", "1", "2"), ("path", "100000", "1", "2", "--json"), ("verify", "--json")],
    ids=" ".join,
)
def test_closed_stdout_ends_quietly(argv):
    # A console run whose reader takes a few bytes of a 10^5-vertex witness
    # and closes the pipe while the command is still writing.
    src = str(Path(primediff.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "primediff.cli", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if argv[0] == "verify":
        proc.stdin.write(json.dumps(witness_to_json(hamilton_path(100000, 1, 2))).encode())
    proc.stdin.close()
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# What a child process imports beyond the interpreter's own start-up: the
# modules it has after the import or the run, less those it had before, so
# that site hooks do not count.
NEW_MODULES = """
import json, runpy, sys
before = set(sys.modules)
if sys.argv[1:]:
    try:
        runpy.run_module("primediff.cli", run_name="__main__")
    except SystemExit:
        pass
else:
    import primediff
sys.stderr.write(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("argv", [(), ("path", "9", "4", "5")], ids=["import primediff", "primediff.cli path 9 4 5"])
def test_no_dataclasses_inspect_or_ast_on_import(argv):
    # dataclasses alone pulls in inspect, ast, dis and tokenize, most of the
    # package's import time.
    src = str(Path(primediff.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NEW_MODULES, *argv], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stderr))
    assert "primediff.graphs" in new
    assert proc.stdout == (b"4 1 3 8 6 9 7 2 5\n" if argv else b"")
    assert not new & {"dataclasses", "inspect", "ast"}


def test_oracle_path_command(capsys):
    code, out, _ = invoke(capsys, "oracle-path", "9", "4", "5")
    assert code == 0
    seq = [int(v) for v in out.split()]
    assert seq[0] == 4 and seq[-1] == 5 and sorted(seq) == list(range(1, 10))
    code, _, err = invoke(capsys, "oracle-path", "8", "4", "5")
    assert code == 1 and json.loads(err)["error"] == "infeasible"
    code, _, err = invoke(capsys, "oracle-path", "30", "1", "2")
    assert code == 1 and json.loads(err)["error"] == "order_cap_exceeded"
    code, out, _ = invoke(capsys, "oracle-path", "23", "1", "2", "--max-order", "23")
    assert code == 0 and len(out.split()) == 23


@pytest.mark.parametrize(
    "argv",
    [["oracle-path", "30", "1", "2"], ["exceptions", "30", "--oracle"]],
    ids=["oracle-path", "exceptions"],
)
def test_oracle_path_past_the_cap_in_bounded_memory(capsys, monkeypatch, argv):
    # Order 30 in a child process limited to 256 MiB of address space.  A
    # subset DP, with reach sets of 2^28 or 2^29 bits per vertex, would need
    # 2 to 4 GB and end in `resource_limit`; the path search, one endpoint
    # pair at a time for the infeasible pairs, needs a few KiB.
    resource = pytest.importorskip("resource")
    limit = 256 << 20
    src = str(Path(primediff.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "primediff.cli", *argv, "--max-order", "40", "--json"],
        capture_output=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "exceptions":
        assert proc.stdout == b'{"ok":true,"pairs":[]}\n'
        return
    feed(monkeypatch, proc.stdout.decode())
    code, out, _ = invoke(capsys, "verify")
    assert code == 0 and out == "ok\n"


def test_usage_errors(capsys):
    code, _, _ = invoke(capsys, "path", "9", "4")  # missing argument
    assert code == 2
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2
    code, _, err = invoke(capsys, "path", "4", "1", "2")  # below supported order
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    code, _, _ = invoke(capsys, "two-factor", "7", "--lengths", "3;4")
    assert code == 2
    code, _, err = invoke(capsys, "exceptions", "-5", "--oracle")
    assert code == 2
    assert json.loads(err)["detail"]["message"] == "order must be nonnegative, got -5"
    code, out, err = invoke(capsys, "ap", "3", "--limit", "-5")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "usage",
        "detail": {"message": "search limit must be nonnegative, got -5"},
    }


def test_verify_ok(capsys, monkeypatch):
    feed(monkeypatch, '{"kind":"cycle","lo":1,"hi":5,"sequences":[[1,4,2,5,3]]}')
    code, out, err = invoke(capsys, "verify")
    assert code == 0 and out == "ok\n" and err == ""


def test_verify_violation(capsys, monkeypatch):
    feed(monkeypatch, '{"kind":"path","lo":1,"hi":5,"sequences":[[1,2,4,5,3]]}')
    code, out, err = invoke(capsys, "verify")
    assert code == 1
    assert out == "violation: NonPrimeDifference\n"
    assert json.loads(err)["error"] == "NonPrimeDifference"


def test_verify_json_output(capsys, monkeypatch):
    feed(monkeypatch, '{"kind":"path","lo":1,"hi":5,"sequences":[[1,4,2,5,3]]}')
    code, out, _ = invoke(capsys, "verify", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["ok"] is True and obj["kind"] == "path"


def test_verify_malformed_input(capsys, monkeypatch):
    feed(monkeypatch, "this is not json")
    code, _, err = invoke(capsys, "verify")
    assert code == 2 and json.loads(err)["error"] == "usage"
    feed(monkeypatch, '{"kind":"path","lo":1,"hi":5}')
    code, _, err = invoke(capsys, "verify")
    assert code == 2 and json.loads(err)["error"] == "usage"


def test_verify_deeply_nested_json_is_usage(capsys, monkeypatch):
    feed(monkeypatch, "[" * 100_000)
    code, out, err = invoke(capsys, "verify")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_verify_names_a_huge_kind_briefly(capsys, monkeypatch):
    # A 7.9 MB kind is named in a few dozen bytes, not echoed to stderr.
    feed(monkeypatch, json.dumps({"kind": list(range(10**6)), "lo": 1, "hi": 3, "sequences": [[1, 3, 2]]}))
    code, out, err = invoke(capsys, "verify")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"
    assert len(err.encode()) < 1000, len(err)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind":"path","lo":true,"hi":5,"sequences":[[1,4,2,5,3]]}',
        '{"kind":"path","lo":1,"hi":5,"sequences":[[1,4,2,5,true]]}',
    ],
    ids=["bool-bound", "bool-vertex"],
)
def test_verify_rejects_json_booleans(text, capsys, monkeypatch):
    feed(monkeypatch, text)
    code, out, err = invoke(capsys, "verify", "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ("path", "9", "4", "5"),
        ("cycle", "12",),
        ("cycle", "12", "--through", "5,10"),
        ("two-factor", "19", "--lengths", "3,4,5,7"),
        ("diff23", "25"),
        ("diff23", "25", "--path"),
        ("two-prime", "9", "--pair", "2,7"),
        ("oracle-path", "10", "2", "9"),
        *(("disjoint", n) for n in ("5", "6", "20", "30", "1000")),
        ("two-prime", "16"),
    ],
)
def test_emitted_witnesses_round_trip_through_verify(argv, capsys, monkeypatch):
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    feed(monkeypatch, out)
    code, out2, _ = invoke(capsys, "verify")
    assert code == 0 and out2 == "ok\n"
    # `verify --json` echoes the bytes it read, families included, with "ok" as printed.
    feed(monkeypatch, out)
    assert invoke(capsys, "verify", "--json") == (0, out, "")


FAMILY_MEMBER = '{"hi":5,"kind":"cycle","lo":1,"sequences":[[1,4,2,5,3]]}'
# The same cycle reversed and rotated, so it shares every edge.
SAME_EDGES = '{"hi":5,"kind":"cycle","lo":1,"sequences":[[1,3,5,2,4]]}'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"witnesses":[]}', "witnesses must be a nonempty list"),
        ('{"witnesses":{}}', "witnesses must be a nonempty list"),
        ('{"witnesses":[%s],"sources":"a"}' % FAMILY_MEMBER, "sources must be a list of strings"),
        ('{"witnesses":[%s,{"hi":5,"kind":"path","lo":1,"sequences":[[1,4,2,5,3]]}]}' % FAMILY_MEMBER,
         "family members must be cycle witnesses"),
        ('{"witnesses":[{"witnesses":[%s]}]}' % FAMILY_MEMBER, "family members must be cycle witnesses"),
    ],
    ids=["empty", "object", "sources-not-list", "path-member", "nested-family"],
)
def test_verify_rejects_malformed_families(text, message, capsys, monkeypatch):
    feed(monkeypatch, text)
    code, out, err = invoke(capsys, "verify", "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": {"message": message}}


def test_verify_names_a_family_s_shared_edge(capsys, monkeypatch):
    # Member 0 again: the detail is the one verify_edge_disjoint gives.
    obj = json.loads(invoke(capsys, "disjoint", "30", "--json")[1])
    obj["witnesses"].append(obj["witnesses"][0])
    feed(monkeypatch, json.dumps(obj))
    code, out, err = invoke(capsys, "verify")
    fam = edge_disjoint_cycles(30)
    v = verify_edge_disjoint(fam.cycles + fam.cycles[:1])
    assert (code, out) == (1, "violation: SharedEdge\n")
    assert err == '{"detail":{"cycles":[0,4],"edge":[10,17]},"error":"SharedEdge"}\n'
    assert json.loads(err)["detail"] == json.loads(json.dumps(v.detail))


def test_multi_witness_round_trip(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "disjoint", "20", "--json")
    assert code == 0
    for w in json.loads(out)["witnesses"]:
        feed(monkeypatch, json.dumps(w))
        code, out2, _ = invoke(capsys, "verify")
        assert code == 0 and out2 == "ok\n"


# Pinned sweep: exact stdout, stderr and exit code, byte for byte.  Each row
# carries its own id, so a second row with the argv of another renames neither.
CYCLE_60_THROUGH_20_27 = (
    "20,18,16,14,12,10,8,6,3,1,4,2,5,7,9,11,13,15,17,19,21,23,25,22,24,26,28,30,32,34,"
    "36,38,40,42,44,46,48,50,52,54,57,59,56,58,60,55,53,51,49,47,45,43,41,39,37,35,33,31,29,27"
)
PINNED_SWEEP = [
    pytest.param(("path", "9", "4", "5", "--json"), None, 0,
        '{"hi":9,"kind":"path","lo":1,"ok":true,"sequences":[[4,1,3,8,6,9,7,2,5]]}\n', "",
        id="path 9 4 5 --json"),
    pytest.param(("path", "7", "4", "5"), None, 1, "",
        '{"detail":{"endpoints":[4,5],"message":"no Hamilton path between 4 and 5 at order 7","n":7},'
        '"error":"infeasible"}\n', id="path 7 4 5"),
    pytest.param(("cycle", "60", "--through", "20,27", "--json"), None, 0,
        '{"hi":60,"kind":"cycle","lo":1,"ok":true,"sequences":[[' + CYCLE_60_THROUGH_20_27 + "]]}\n", "",
        id="cycle 60 --through 20,27 --json"),
    pytest.param(("two-factor", "19", "--lengths", "3,4,5,7", "--json"), None, 0,
        '{"hi":19,"kind":"two_factor","lo":1,"ok":true,'
        '"sequences":[[1,3,6],[2,5,7,4],[8,10,12,9,11],[13,18,15,17,14,19,16]]}\n', "",
        id="two-factor 19 --lengths 3,4,5,7 --json"),
    pytest.param(("diff23", "30", "--path", "--json"), None, 0,
        '{"hi":30,"kind":"path","lo":1,"ok":true,"sequences":[[30,28,26,24,22,20,18,16,14,12,10,8,6,'
        '3,1,4,2,5,7,9,11,13,15,17,19,21,23,25,27,29]]}\n', "", id="diff23 30 --path --json"),
    pytest.param(("verify", "--json"), '{"kind":"cycle","lo":1,"hi":4,"sequences":[[2,4,1,3]]}', 1,
        '{"hi":4,"kind":"cycle","lo":1,"ok":false,"reason":"NonPrimeDifference","sequences":[[2,4,1,3]]}\n',
        '{"detail":{"difference":1,"position":3},"error":"NonPrimeDifference"}\n', id="verify --json"),
    pytest.param(("verify",), '{"kind":"two_factor","lo":1,"hi":7,"sequences":[[1,3,6],[2,4,5,7]]}', 1,
        "violation: NonPrimeDifference\n",
        '{"detail":{"cycle":1,"difference":1,"position":1},"error":"NonPrimeDifference"}\n', id="verify"),
    pytest.param(("verify", "--json"), '{"sources":["pair:2,3","again"],"witnesses":[%s,%s]}' % (FAMILY_MEMBER, SAME_EDGES), 1,
        '{"ok":false,"reason":"SharedEdge","sources":["pair:2,3","again"],"witnesses":[%s,%s]}\n'
        % (FAMILY_MEMBER, SAME_EDGES),
        '{"detail":{"cycles":[0,1],"edge":[1,4]},"error":"SharedEdge"}\n', id="verify --json < family"),
    pytest.param(("two-prime", "16"), None, 0,
        "1 4 7 10 13 16 3 6 9 12 15 2 5 8 11 14\n1 6 11 16 5 10 15 4 9 14 3 8 13 2 7 12\n", "",
        id="two-prime 16"),
    pytest.param(("two-prime", "16", "--json"), None, 0,
        '{"ok":true,"witnesses":[{"hi":16,"kind":"cycle","lo":1,"sequences":[[1,4,7,10,13,16,3,6,9,12,15,2,5,8,11,14]]},'
        '{"hi":16,"kind":"cycle","lo":1,"sequences":[[1,6,11,16,5,10,15,4,9,14,3,8,13,2,7,12]]}]}\n', "",
        id="two-prime 16 --json"),
    pytest.param(("two-prime", "9", "--pair", "2,7", "--json"), None, 0,
        '{"hi":9,"kind":"cycle","lo":1,"ok":true,"sequences":[[1,3,5,7,9,2,4,6,8]]}\n', "",
        id="two-prime 9 --pair 2,7 --json"),
    pytest.param(("disjoint", "20"), None, 0,
        "1 8 15 2 9 16 3 10 17 4 11 18 5 12 19 6 13 20 7 14\n11 9 7 5 2 4 1 3 6 8 10 12 14 16 19 17 20 18 15 13\n", "",
        id="disjoint 20"),
    pytest.param(("disjoint", "20", "--json"), None, 0,
        '{"ok":true,"sources":["pair:7,13","diff23"],"witnesses":['
        '{"hi":20,"kind":"cycle","lo":1,"sequences":[[1,8,15,2,9,16,3,10,17,4,11,18,5,12,19,6,13,20,7,14]]},'
        '{"hi":20,"kind":"cycle","lo":1,"sequences":[[11,9,7,5,2,4,1,3,6,8,10,12,14,16,19,17,20,18,15,13]]}]}\n', "",
        id="disjoint 20 --json"),
    pytest.param(("ap", "6"), None, 0, "7 37 67 97 127 157\n", "", id="ap 6"),
    pytest.param(("ap", "6", "--json"), None, 0, '{"ok":true,"progression":[7,37,67,97,127,157]}\n', "",
        id="ap 6 --json"),
    pytest.param(("ap", "12"), None, 1, "",
        '{"detail":{"message":"no 12-term prime progression with first term and difference at most 10000"},'
        '"error":"not_found"}\n', id="ap 12"),
    pytest.param(("exceptions", "8"), None, 0, "(4,5)\n", "", id="exceptions 8"),
    pytest.param(("exceptions", "8", "--json"), None, 0, '{"ok":true,"pairs":[[4,5]]}\n', "",
        id="exceptions 8 --json"),
    pytest.param(("exceptions", "9"), None, 0, "", "", id="exceptions 9"),
    pytest.param(("exceptions", "7", "--oracle", "--json"), None, 0, '{"ok":true,"pairs":[[3,4],[4,5]]}\n', "",
        id="exceptions 7 --oracle --json"),
    pytest.param(("oracle-path", "12", "3", "4", "--json"), None, 0,
        '{"hi":12,"kind":"path","lo":1,"ok":true,"sequences":[[3,1,6,8,5,2,7,10,12,9,11,4]]}\n', "",
        id="oracle-path 12 3 4 --json"),
    pytest.param(("oracle-path", "8", "4", "5"), None, 1, "",
        '{"detail":{"endpoints":[4,5],"message":"no Hamilton path between 4 and 5 at order 8","n":8},'
        '"error":"infeasible"}\n', id="oracle-path 8 4 5"),
    pytest.param(("cycle", "9", "--through", "1,5"), None, 1, "",
        '{"detail":{"message":"|1 - 5| = 4 is not prime"},"error":"non_edge"}\n', id="cycle 9 --through 1,5"),
    pytest.param(("oracle-path", "23", "1", "2"), None, 1, "",
        '{"detail":{"cap":22,"message":"order 23 exceeds brute-force cap 22","order":23},'
        '"error":"order_cap_exceeded"}\n', id="oracle-path 23 1 2"),
    pytest.param(("oracle-path", "9", "1", "1"), None, 2, "",
        '{"detail":{"message":"bad endpoints (1, 1) for Interval(lo=1, hi=9)"},"error":"usage"}\n',
        id="oracle-path 9 1 1"),
    pytest.param(("path", "4", "1", "2"), None, 2, "",
        '{"detail":{"message":"order 4 below the supported range (n >= 5)"},"error":"usage"}\n',
        id="path 4 1 2"),
    pytest.param(("path", "9", "1", "2"), "fail-self-checks", 1, "",
        '{"detail":{"message":"PathWitness self-check failed: NotPermutation None"},"error":"construction_error"}\n',
        id="path 9 1 2"),
]


@pytest.mark.parametrize("argv, stdin, code, out, err", PINNED_SWEEP)
def test_pinned_sweep(argv, stdin, code, out, err, capsys, monkeypatch):
    """`stdin` is the text fed to the command, or "fail-self-checks" to make
    every constructor's self-check reject its witness.  The oracle runs at
    its default cap."""
    monkeypatch.delenv("ORACLE_MAX_ORDER", raising=False)
    if stdin == "fail-self-checks":
        monkeypatch.setattr("primediff.graphs.verify", lambda w, **claims: Verdict(False, NOT_PERMUTATION))
    elif stdin is not None:
        feed(monkeypatch, stdin)
    assert invoke(capsys, *argv) == (code, out, err)


def test_disjoint_output_is_pinned(capsys):
    """SHA-256 of the concatenated `disjoint n --json` stdout, odd and even n apart."""
    digests = {0: hashlib.sha256(), 1: hashlib.sha256()}
    for n in [*range(5, 601), 999, 1000, 2999, 3000]:
        code, out, err = invoke(capsys, "disjoint", str(n), "--json")
        assert (code, err) == (0, "")
        digests[n % 2].update(out.encode())
    assert digests[1].hexdigest() == "6bdba93a8afc643acff33a931ea50cffc295c0d2beaf41067edc1e581e3b348e"
    assert digests[0].hexdigest() == "8d73def480e3e70749a1ff7505f8a5832c33dde541437b4435be55e78cfcd706"
