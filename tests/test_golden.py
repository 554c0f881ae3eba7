"""Pinned `check --format json` output for the whole file corpus.

Every certificate under tests/data is checked under each built-in strategy,
plus the stream loop under its pattern file.  Exit code, stdout and stderr
must match tests/data/golden_verdicts.json byte for byte, so a change to
term representation, problem generation or solving that alters a verdict,
a count, the report order or the chosen evidence shows up here.  Files are
named relative to tests/data, which keeps paths out of the pinned text.

Regenerate the table only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_verdicts.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from loopcert.cli import main
from loopcert.deciders import STRATEGY_NAMES

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_verdicts.json"

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
        for strategy in sorted(STRATEGY_NAMES - {"forbidden"}):
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


if __name__ == "__main__":
    os.chdir(DATA)
    json.dump(current_table(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
