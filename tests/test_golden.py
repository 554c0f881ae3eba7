"""Pinned `check --format json` and `find` output.

Every certificate under tests/data is checked under each built-in strategy,
plus the stream loop under its pattern file.  Exit code, stdout and stderr
must match tests/data/golden_verdicts.json byte for byte, so a change to
term representation, problem generation or solving that alters a verdict,
a count, the report order or the chosen evidence shows up here.  Files are
named relative to tests/data, which keeps paths out of the pinned text.

`find` runs on every system under tests/data at depths 0-8, from two given
start terms, on a system whose rules have variant left-hand sides, and on 50
seeded random systems (every other one with a variant left-hand side added);
tests/data/golden_find.json pins each run's exit code, certificate count and
the sha256 of its stdout, so a change to the search, its deduplication or
the JSON writer that alters a single byte shows up here.

Regenerate a table only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_verdicts.json
    PYTHONPATH=src python tests/test_golden.py find > tests/data/golden_find.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from genlib import golden_find_systems, render_trs
from loopcert import Context, StrategySpec, decide_loop, find_loops, parse_trs, validate_loop
from loopcert import formats
from loopcert.cli import main
from loopcert.deciders import STRATEGIES

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_verdicts.json"
GOLDEN_FIND = DATA / "golden_find.json"

# Starts f(x,y) and f(y,x) are variants: the second adds no certificate.
VARIANT_TRS = """(VAR x y)
(RULES
  f(x,y) -> h(f(y,x),s(x))
  f(y,x) -> f(s(x),y)
  h(x,f(x,y)) -> f(y,x)
)
"""

LOOPS = {
    "factorial_loop.json": "factorial.trs",
    "factorial_inner_loop.json": "factorial.trs",
    "factorial_par_inner_loop.json": "factorial.trs",
    "factorial_par_outer_loop.json": "factorial.trs",
    "collapse_loop.json": "collapse.trs",
    "shift_loop.json": "shift.trs",
    "stream_loop.json": "stream.trs",
    "growing_loop.json": "growing.trs",
}


def cases():
    for loop, trs in LOOPS.items():
        for strategy in sorted(set(STRATEGIES) - {"forbidden"}):
            yield loop, trs, strategy
    yield "stream_loop.json", "stream.trs", "forbidden:stream_patterns.txt"


def run_case(loop: str, trs: str, strategy: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "check", "--trs", trs, "--loop", loop,
            "--strategy", strategy, "--format", "json",
        ])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def current_table() -> dict:
    return {f"{loop} {strategy}": run_case(loop, trs, strategy)
            for loop, trs, strategy in cases()}


def test_check_output_matches_the_pinned_table(monkeypatch):
    monkeypatch.chdir(DATA)
    golden = json.loads(GOLDEN.read_text())
    table = current_table()
    assert sorted(table) == sorted(golden)
    for key, got in table.items():
        assert got == golden[key], key


def test_deciding_the_pinned_table_hashes_no_context(monkeypatch):
    # Problems are keyed on D's hole position, not on D: a context hashed
    # anywhere on the decision path would end a case with exit 4 here.
    def unhashable(self):
        raise AssertionError(f"context {self} hashed")

    monkeypatch.setattr(Context, "__hash__", unhashable)
    monkeypatch.chdir(DATA)
    assert current_table() == json.loads(GOLDEN.read_text())


def test_verdict_documents_hold_only_json_types(monkeypatch):
    # json.dumps renders a bool or a float without complaint.  Every verdict
    # document of the pinned table and of found loops holds only strs, ints,
    # None, lists and dicts with str keys.
    docs = []
    real = formats.verdict_to_document
    monkeypatch.setattr(formats, "verdict_to_document", lambda v: docs.append(real(v)) or docs[-1])
    monkeypatch.chdir(DATA)
    golden = current_table()
    for name, depth in (("factorial.trs", 6), ("collapse.trs", 8)):
        trs = parse_trs(Path(name).read_text())
        for cert in find_loops(trs, depth=depth):
            loop = validate_loop(trs, cert)
            for strategy in ("leftmost", "innermost", "outermost", "max-parallel"):
                docs.append(real(decide_loop(trs, loop, StrategySpec(strategy))))
    assert len(docs) == sum(row["exit"] != 3 for row in golden.values()) + 4 * (93 + 34)
    stack = docs[:]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack += v
        elif type(v) is dict:
            assert all(type(k) is str for k in v), v
            stack += v.values()
        else:
            assert v is None or type(v) in (str, int), repr(v)


def find_cases(tmp: Path):
    """(name, find arguments) pairs; generated systems are written under tmp."""
    for trs in sorted(p.name for p in DATA.glob("*.trs")):
        for depth in range(9):
            yield f"{trs} depth {depth}", ["--trs", trs, "--depth", str(depth)]
    for start, depth in (("fact(x,y)", "6"), ("fact(s(x),s(y))", "7")):
        argv = ["--trs", "factorial.trs", "--start", start, "--depth", depth]
        yield f"factorial.trs start {start}", argv
    variant = tmp / "variant.trs"
    variant.write_text(VARIANT_TRS)
    for depth in ("4", "6"):
        yield f"variant depth {depth}", ["--trs", str(variant), "--depth", depth]
    for seed, trs, depth in golden_find_systems():
        path = tmp / f"random{seed}.trs"
        path.write_text(render_trs(trs))
        yield f"random {seed} depth {depth}", ["--trs", str(path), "--depth", str(depth)]


def run_find(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["find", *argv])
    text = out.getvalue()
    return {
        "exit": code,
        "certificates": len(json.loads(text)),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def current_find_table(tmp: Path) -> dict:
    return {name: run_find(argv) for name, argv in find_cases(tmp)}


def test_find_output_matches_the_pinned_table(monkeypatch, tmp_path):
    monkeypatch.chdir(DATA)
    golden = json.loads(GOLDEN_FIND.read_text())
    table = current_find_table(tmp_path)
    assert sorted(table) == sorted(golden)
    for key, got in table.items():
        assert got == golden[key], key


if __name__ == "__main__":
    os.chdir(DATA)
    if sys.argv[1:] == ["find"]:
        with tempfile.TemporaryDirectory() as tmp:
            table = current_find_table(Path(tmp))
    else:
        table = current_table()
    json.dump(table, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
