"""Command-line behavior: exit codes, strategy arguments, and determinism.

Most cases drive main() in-process; byte-level determinism across hash
seeds runs the installed module in subprocesses.
"""

import json
import os
import subprocess
import sys

import loopcert.cli
from loopcert import InternalError, parse_loop_certificate, parse_term, validate_loop
from loopcert.cli import main

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check(capsys, data_dir, trs, loop, strategy, *extra):
    return run(
        capsys,
        "check",
        "--trs", str(data_dir / trs),
        "--loop", str(data_dir / loop),
        "--strategy", strategy,
        *extra,
    )


# ---------------------------------------------------------------------------
# Exit codes


def test_yes_exits_zero(capsys, data_dir):
    code, out, err = check(
        capsys, data_dir, "factorial.trs", "factorial_loop.json",
        "leftmost-outermost",
    )
    assert code == EXIT_YES
    assert out.startswith("YES: loop under strategy leftmost-outermost")
    assert err == ""


def test_no_exits_one(capsys, data_dir):
    code, out, _ = check(
        capsys, data_dir, "factorial.trs", "factorial_inner_loop.json", "outermost"
    )
    assert code == EXIT_NO
    assert out.startswith("NO: not a loop under strategy outermost")


def test_unknown_exits_two(capsys, stalled_files):
    trs, loop = stalled_files
    code, out, err = check(capsys, trs.parent, trs.name, loop.name, "outermost")
    assert (code, err) == (EXIT_UNKNOWN, "")
    assert out.startswith("UNKNOWN: undecided for strategy outermost")
    assert "    stopped: exponent bound 64 reached\n" in out


def test_solver_terms_past_the_depth_limit_exit_two(capsys, tmp_path):
    # The image of x is 150 levels deep, so the open matching problem's
    # state nests about 150 levels deeper per exponent, past what the
    # recursive term walks handle before its exponent bound of 6.
    deep = "s(" * 150 + "x" + ")" * 150
    (tmp_path / "deep.trs").write_text(
        f"(VAR x y z w)\n(RULES\n  f(x,y,z) -> h(g(x,y),f({deep},s(z),s(y)))\n"
        "  g(w,w) -> w\n)\n"
    )
    (tmp_path / "deep.json").write_text(json.dumps({
        "start": "f(x,y,z)",
        "steps": [[{"pos": [], "rule": 0}]],
        "context": "h(g(x,y),[])",
        "subst": {"x": deep, "y": "s(z)", "z": "s(y)"},
    }))
    code, out, err = check(
        capsys, tmp_path, "deep.trs", "deep.json", "leftmost", "--format", "json"
    )
    assert (code, err) == (EXIT_UNKNOWN, "")
    doc = json.loads(out)
    assert doc["verdict"] == "unknown"
    assert [p["stopped"] for p in doc["open_problems"]] == ["term depth limit reached"]


def write_deep_loop(tmp_path, depth):
    """A loop whose substitution binds x to s^depth(x); under leftmost its
    witness binds w to s^(2 depth)(x), and level 3 violates at step 1."""
    deep = "s(" * depth + "x" + ")" * depth
    (tmp_path / "deep.trs").write_text(
        f"(VAR x y z w v)\n(RULES\n  f(x,y,z) -> h(g(x,y),f({deep},s(y),z))\n"
        "  g(w,s(s(v))) -> v\n)\n"
    )
    (tmp_path / "deep.json").write_text(json.dumps({
        "start": "f(x,y,z)",
        "steps": [[{"pos": [], "rule": 0}]],
        "context": "h(g(x,y),[])",
        "subst": {"x": deep, "y": "s(y)"},
    }))


def test_a_decided_verdict_renders_at_any_depth(capsys, tmp_path):
    # The witness binds w to s^300(x), deeper than a recursive renderer
    # reaches, so a decided no must still print instead of exiting 3.
    write_deep_loop(tmp_path, 150)
    code, out, err = check(capsys, tmp_path, "deep.trs", "deep.json", "leftmost")
    assert (code, err) == (EXIT_NO, "")
    assert "concrete violation at unrolling level 3, step 1" in out
    code, out, err = check(
        capsys, tmp_path, "deep.trs", "deep.json", "leftmost", "--format", "json"
    )
    assert (code, err) == (EXIT_NO, "")
    evidence = json.loads(out)["evidence"]
    assert evidence["witness"] == {"n": 2}
    assert evidence["confirmed"] == {"level": 3, "step": 1}


def test_a_deep_violation_is_confirmed(capsys, tmp_path):
    # Level 3 of this loop holds terms 904 and 1,205 levels deep; building
    # and checking them must take one interpreter frame per term level.
    write_deep_loop(tmp_path, 300)
    code, out, err = check(capsys, tmp_path, "deep.trs", "deep.json", "leftmost")
    assert (code, err) == (EXIT_NO, "")
    assert "concrete violation at unrolling level 3, step 1" in out
    code, out, err = check(
        capsys, tmp_path, "deep.trs", "deep.json", "leftmost", "--format", "json"
    )
    assert (code, err) == (EXIT_NO, "")
    assert json.loads(out)["evidence"]["confirmed"] == {"level": 3, "step": 1}


def test_find_rewrites_with_a_deep_right_hand_side(capsys, tmp_path):
    # Rewriting instantiates the 500-deep right-hand side; the result is
    # larger than --max-size, so the search ends without a loop.
    trs_file = tmp_path / "deep.trs"
    trs_file.write_text("(VAR x)\n(RULES f(x) -> " + "g(" * 500 + "f(x)" + ")" * 500 + ")\n")
    code, out, err = run(capsys, "find", "--trs", str(trs_file), "--depth", "2")
    assert (code, out, err) == (EXIT_NO, "[]\n", "")


def test_unknown_strategy_exits_three(capsys, data_dir):
    code, out, err = check(
        capsys, data_dir, "factorial.trs", "factorial_loop.json", "bogus"
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: unknown strategy 'bogus'; expected one of ")


def test_missing_file_exits_three(capsys, data_dir):
    code, _, err = check(
        capsys, data_dir, "nonesuch.trs", "factorial_loop.json", "leftmost"
    )
    assert code == EXIT_INVALID
    assert "nonesuch.trs" in err


def test_shape_mismatch_exits_three(capsys, data_dir):
    code, _, err = check(
        capsys, data_dir, "factorial.trs", "factorial_par_inner_loop.json",
        "leftmost",
    )
    assert code == EXIT_INVALID
    assert "single-redex" in err


def test_bad_strategy_files_exit_three(capsys, data_dir, tmp_path):
    # A replacement map with a non-ASCII digit, and a pattern that can never
    # match because it gives inf two arguments.
    cases = {
        "context-sensitive:": ("inf: ²\n", "error: bad argument index '²' (line 1, column 6)\n"),
        "forbidden:": (
            "inf(x,y) @ eps : h\n",
            "error: inf used with 2 arguments, expected 1 (line 1, column 1)\n",
        ),
    }
    for prefix, (text, message) in cases.items():
        path = tmp_path / "strategy.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = check(
            capsys, data_dir, "stream.trs", "stream_loop.json", prefix + str(path)
        )
        assert (code, out, err) == (EXIT_INVALID, "", message)


def both_commands(data_dir, trs_file):
    loop = str(data_dir / "factorial_loop.json")
    yield ["check", "--trs", str(trs_file), "--loop", loop, "--strategy", "leftmost"]
    yield ["find", "--trs", str(trs_file)]


def test_bad_system_files_exit_three(capsys, data_dir, tmp_path):
    # An arity conflict is located at its symbol; a name declared a variable
    # after the rules that used it as a symbol is refused for the whole file.
    cases = {
        "(VAR x) (RULES f(x) -> f(x,x))\n":
            "error: f used with 2 arguments, expected 1 (line 1, column 24)\n",
        "(RULES f(x) -> x) (VAR x)\n":
            "error: 'x' is declared as a variable but used as a symbol\n",
    }
    path = tmp_path / "bad.trs"
    for text, message in cases.items():
        path.write_text(text)
        for argv in both_commands(data_dir, path):
            assert run(capsys, *argv) == (EXIT_INVALID, "", message)


def test_bad_certificate_steps_name_their_location(capsys, data_dir, tmp_path):
    # The second step is bad, or its second redex is; the location leads the message.
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    cases = (
        ([{"pos": [1], "rule": 8}, {"pos": [1], "rule": 99}],
         "error: step 2, redex 2: rule index 99 out of range for a 12-rule system\n"),
        ([{"pos": [1], "rule": 8}, {"pos": [0], "rule": 8}],
         'error: step 2, redex 2: each redex must be {"pos": [indices >= 1],'
         ' "rule": index}\n'),
        ([], "error: step 2: each step must be a nonempty list of redexes\n"),
        ([{"pos": [9, 9], "rule": 8}],
         "error: step 2: no position 9.9 in if(eq(x,y),s(0),times(fact(s(x),y),s(x)))\n"),
    )
    path = tmp_path / "bad.json"
    for step, message in cases:
        doc["steps"][1] = step
        path.write_text(json.dumps(doc))
        code, out, err = check(capsys, data_dir, "factorial.trs", path, "leftmost")
        assert (code, out, err) == (EXIT_INVALID, "", message)


def test_non_utf8_input_exits_three(capsys, data_dir, tmp_path):
    latin1 = tmp_path / "latin1.trs"
    latin1.write_bytes(b"(RULES caf\xe9 -> b)\n")
    for argv in both_commands(data_dir, latin1):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: input is not UTF-8 text: ")
        assert err.count("\n") == 1


def test_deeply_nested_input_exits_three(capsys, data_dir, tmp_path):
    deep = tmp_path / "deep.trs"
    deep.write_text("(VAR x)\n(RULES f(x) -> " + "g(" * 3000 + "x" + ")" * 3000 + ")\n")
    for argv in both_commands(data_dir, deep):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "error: input nests too deeply to process\n"


def test_internal_error_exits_four_with_a_traceback(capsys, data_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("witness failed recheck")

    monkeypatch.setattr(loopcert.cli, "decide_loop", broken)
    code, out, err = check(
        capsys, data_dir, "factorial.trs", "factorial_loop.json", "leftmost"
    )
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("InternalError: witness failed recheck\n")


# ---------------------------------------------------------------------------
# Options


def test_bound_flag_reaches_the_solver(capsys, data_dir, stalled_files):
    trs, loop = stalled_files
    code, out, _ = check(
        capsys, trs.parent, trs.name, loop.name, "outermost",
        "--bound", "4", "--format", "json",
    )
    assert code == EXIT_UNKNOWN
    doc = json.loads(out)
    assert doc["verdict"] == "unknown"
    assert doc["bound"] == 4
    assert [p["stopped"] for p in doc["open_problems"]] == ["exponent bound 4 reached"]

    # Matching problems carry their own exponent bound: --bound 4 still
    # finds shift's witness at 9.
    for extra in (("--bound", "4"), ()):
        code, out, _ = check(
            capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost",
            "--format", "json", *extra,
        )
        assert code == EXIT_NO
        assert json.loads(out)["evidence"]["witness"] == {"n": 9}


def test_bound_caps_the_context_exponent_only(capsys, tmp_path):
    # The pattern sits below s^3 and f over g^8: the least witness is
    # m = 2, k = 5, past --bound 4 in m + k but not in m.
    trs, loop = tmp_path / "pump.trs", tmp_path / "pump.json"
    patterns = tmp_path / "patterns.txt"
    trs.write_text("(VAR x y) (RULES f(x) -> s(f(g(x))))\n")
    loop.write_text(json.dumps({
        "start": "f(x)", "steps": [[{"pos": [], "rule": 0}]],
        "context": "s([])", "subst": {"x": "g(x)"},
    }))
    patterns.write_text("s(s(s(f(" + "g(" * 8 + "y" + ")" * 8 + ")))) @ eps : b\n")
    code, out, _ = check(
        capsys, tmp_path, trs.name, loop.name, f"forbidden:{patterns}",
        "--bound", "4",
    )
    assert code == EXIT_NO
    assert "  witness: m=2, k=5, sigma={y/x}\n" in out
    assert "concrete violation at unrolling level 8, step 1" in out


def test_negative_numeric_options_exit_three(capsys, data_dir, tmp_path):
    for flag in ("--bound",):
        code, out, err = check(
            capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost", flag, "-5"
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"error: argument {flag}: must be nonnegative, got -5\n"
    for flag in ("--depth", "--max-size"):
        code, out, err = run(
            capsys, "find", "--trs", str(data_dir / "shift.trs"), flag, "-2"
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"error: argument {flag}: must be nonnegative, got -2\n"
    code, _, err = check(
        capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost", "--bound", "x"
    )
    assert code == EXIT_INVALID
    assert "invalid int value: 'x'" in err


def test_removed_options_exit_three(capsys, data_dir):
    # The replay depth comes from the witness, and find only writes JSON.
    code, out, err = check(
        capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost", "--unroll", "3"
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: unrecognized arguments: --unroll 3\n"
    code, out, err = run(
        capsys, "find", "--trs", str(data_dir / "factorial.trs"), "--format", "json"
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: unrecognized arguments: --format json\n"


def test_forbidden_pattern_strategy_from_file(capsys, data_dir):
    code, out, _ = check(
        capsys, data_dir, "stream.trs", "stream_loop.json",
        f"forbidden:{data_dir / 'stream_patterns.txt'}", "--format", "json",
    )
    assert code == EXIT_NO
    doc = json.loads(out)
    assert doc["evidence"]["instance"]["family"] == "pattern-here"
    assert doc["evidence"]["witness"] == {"n": 0}


def test_restricted_strategy_from_file(capsys, data_dir, tmp_path):
    lhss = tmp_path / "restricted.trs"
    lhss.write_text("(VAR x)\n(RULES chk(x) -> false)\n")
    code, out, _ = check(
        capsys, data_dir, "factorial.trs", "factorial_loop.json",
        f"q-restricted:{lhss}", "--format", "json",
    )
    assert code == EXIT_NO
    assert json.loads(out)["evidence"]["instance"]["step"] == 4


def test_context_sensitive_strategy_from_file(capsys, data_dir, tmp_path):
    replacement = tmp_path / "mu.txt"
    replacement.write_text("times:\n")
    code, out, _ = check(
        capsys, data_dir, "factorial.trs", "factorial_loop.json",
        f"context-sensitive:{replacement}", "--format", "json",
    )
    assert code == EXIT_NO
    doc = json.loads(out)
    assert doc["evidence"]["instance"]["family"] == "pattern-here"
    assert doc["evidence"]["instance"]["step"] == 1


# ---------------------------------------------------------------------------
# Finding loops


def test_find_then_check_round_trip(capsys, data_dir, tmp_path):
    code, out, _ = run(
        capsys,
        "find",
        "--trs", str(data_dir / "factorial.trs"),
        "--depth", "6",
        "--start", "fact(x,y)",
    )
    assert code == EXIT_YES
    docs = json.loads(out)
    wanted = [
        d for d in docs
        if d["context"] == "times([],s(x))" and d["subst"] == {"x": "s(x)"}
    ]
    assert wanted

    cert_file = tmp_path / "found.json"
    cert_file.write_text(json.dumps(wanted[0]))
    code, out, _ = run(
        capsys,
        "check",
        "--trs", str(data_dir / "factorial.trs"),
        "--loop", str(cert_file),
        "--strategy", "leftmost-outermost",
    )
    assert code == EXIT_YES
    assert out.startswith("YES")


def test_find_reports_nothing_with_exit_one(capsys, tmp_path):
    terminating = tmp_path / "flat.trs"
    terminating.write_text("(RULES a -> b)\n")
    code, out, _ = run(capsys, "find", "--trs", str(terminating))
    assert code == EXIT_NO
    assert out == "[]\n"


def test_find_emits_valid_certificates(capsys, tmp_path):
    trs_file = tmp_path / "self.trs"
    trs_file.write_text("(VAR x)\n(RULES f(x) -> f(f(x)))\n")
    code, out, _ = run(capsys, "find", "--trs", str(trs_file), "--depth", "2")
    assert code == EXIT_YES
    docs = json.loads(out)
    assert docs

    from loopcert import parse_trs

    trs = parse_trs(trs_file.read_text())
    closings = set()
    for doc in docs:
        cert = parse_loop_certificate(json.dumps(doc), trs)
        validate_loop(trs, cert)
        closings.add((doc["context"], tuple(doc["subst"].items())))
    assert ("f([])", ()) in closings


# ---------------------------------------------------------------------------
# Determinism across interpreter hash seeds


def run_module(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-m", "loopcert", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_output_bytes_do_not_depend_on_hash_seed(data_dir):
    argv = [
        "check",
        "--trs", str(data_dir / "factorial.trs"),
        "--loop", str(data_dir / "factorial_inner_loop.json"),
        "--strategy", "innermost",
        "--format", "json",
    ]
    first = run_module(argv, "0")
    second = run_module(argv, "1")
    assert first.returncode == second.returncode == EXIT_YES
    assert first.stdout == second.stdout

    argv = ["find", "--trs", str(data_dir / "factorial.trs"), "--depth", "5"]
    first = run_module(argv, "0")
    second = run_module(argv, "1")
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
