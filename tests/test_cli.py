"""Command-line behavior: exit codes, strategy arguments, and determinism.

Most cases drive main() in-process; byte-level determinism across hash
seeds runs the installed module in subprocesses.
"""

import json
import os
import subprocess
import sys

import genlib
import loopcert.cli
from loopcert import problems
from loopcert import (
    InternalError,
    StrategySpec,
    exponent_bound,
    parse_loop_certificate,
    parse_term,
    parse_trs,
    step_problems,
    validate_loop,
)
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


def test_unknown_exits_two(capsys, monkeypatch, stalled_files):
    # The size limit is the one cause of unknown: stalled's slices
    # s^(m+1)(f(y,y)), m = 0..2, have 4, 5 and 6 nodes, past a limit of 5.
    trs, loop = stalled_files
    monkeypatch.setattr(problems, "MAX_TERM_SIZE", 5)
    code, out, err = check(capsys, trs.parent, trs.name, loop.name, "outermost")
    assert (code, err) == (EXIT_UNKNOWN, "")
    assert out.startswith("UNKNOWN: undecided for strategy outermost")
    assert "    problem: s(s(s(f(y,y)))) matches s(s(b)) under {x/y}\n" in out
    assert "    stopped: state size limit reached\n" in out


def test_an_open_slice_past_the_size_limit_prints_abbreviated(capsys, tmp_path):
    # Slice 16 of s^17(y) against f(x) -> s(f(d(x,x))) holds d(x,x) 2^16 times
    # over: its 131,088 nodes once printed as 328 KB.  Both formats now print
    # its root and node count, and the exit code stays unknown.
    (tmp_path / "pump.trs").write_text("(VAR x y)\n(RULES\n  f(x) -> s(f(d(x,x)))\n)\n")
    (tmp_path / "pump.json").write_text(json.dumps({
        "start": "f(x)",
        "steps": [[{"pos": [], "rule": 0}]],
        "context": "s([])",
        "subst": {"x": "d(x,x)"},
    }))
    (tmp_path / "pattern.txt").write_text("s(" * 17 + "y" + ")" * 17 + " @ eps : b\n")
    strategy = f"forbidden:{tmp_path / 'pattern.txt'}"
    code, out, err = check(capsys, tmp_path, "pump.trs", "pump.json", strategy)
    assert (code, err) == (EXIT_UNKNOWN, "")
    assert len(out.encode()) < 4096
    assert "    problem: <s(...): 131088 nodes> matches s(s(" in out
    code, out, err = check(capsys, tmp_path, "pump.trs", "pump.json", strategy, "--format", "json")
    assert (code, err) == (EXIT_UNKNOWN, "")
    assert len(out.encode()) < 4096
    [pair] = json.loads(out)["open_problems"][0]["problem"]["pairs"]
    assert pair["subject"] == "<s(...): 131088 nodes>"


def write_open_loop(tmp_path, depth):
    """A loop whose substitution binds x to s^depth(x); under leftmost its one
    hard problem, g(x,y) against g(w,w) at position 1, nests about depth
    levels deeper per exponent up to its exponent bound of 6."""
    deep = "s(" * depth + "x" + ")" * depth
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


def test_solver_terms_below_the_depth_limit_answer_yes(capsys, tmp_path):
    # Up to s^510, whose rule puts x 512 levels deep, the solver refutes the
    # hard problem at its exponent bound, and the brute-force oracle finds no
    # witness up to that bound either.
    for depth in (150, 250, 510):
        write_open_loop(tmp_path, depth)
        code, out, err = check(capsys, tmp_path, "deep.trs", "deep.json", "leftmost")
        assert (code, err) == (EXIT_YES, "")
        assert out.startswith("YES: loop under strategy leftmost")
        trs = parse_trs((tmp_path / "deep.trs").read_text())
        loop = validate_loop(
            trs, parse_loop_certificate((tmp_path / "deep.json").read_text(), trs)
        )
        [problem] = [
            i.problem
            for i in step_problems(loop, trs, StrategySpec("leftmost"))
            if (i.family, i.position, i.rule_index) == ("left-context", (1,), 1)
        ]
        assert exponent_bound(problem) == 6
        assert genlib.brute_force_check(problem, 6) is None


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


def test_a_violation_past_the_replay_depth_exits_one(capsys, tmp_path):
    # The closing comparison of validate_loop meets terms 343 levels deep,
    # and level 3 of the replay holds terms over 1,000 levels deep.
    write_deep_loop(tmp_path, 340)
    code, out, err = check(
        capsys, tmp_path, "deep.trs", "deep.json", "leftmost", "--format", "json"
    )
    assert (code, err) == (EXIT_NO, "")
    evidence = json.loads(out)["evidence"]
    assert evidence["witness"]["n"] == 2
    assert evidence["confirmed"] == {"level": 3, "step": 1}


def test_a_pattern_violation_past_its_n0_is_confirmed(capsys, tmp_path):
    # The pattern sits n0 = 8 levels out, past the cap a replay of
    # witness n = 0 plus the step count alone would give.
    trs, loop = tmp_path / "s.trs", tmp_path / "s.json"
    patterns = tmp_path / "patterns.txt"
    trs.write_text("(VAR x) (RULES f(x) -> s(f(x)))\n")
    loop.write_text(json.dumps({
        "start": "f(x)", "steps": [[{"pos": [], "rule": 0}]], "context": "s([])", "subst": {},
    }))
    patterns.write_text("s(" * 8 + "f(x)" + ")" * 8 + " @ 1.1.1.1.1.1.1.1 : h\n")
    strategy = f"forbidden:{patterns}"
    code, out, err = check(capsys, tmp_path, trs.name, loop.name, strategy)
    assert (code, err) == (EXIT_NO, "")
    assert "n0 8" in out and "  witness: n=0, sigma={}\n" in out
    assert "concrete violation at unrolling level 8, step 1" in out
    code, out, _ = check(capsys, tmp_path, trs.name, loop.name, strategy, "--format", "json")
    assert code == EXIT_NO
    assert json.loads(out)["evidence"]["confirmed"] == {"level": 8, "step": 1}


def test_find_keeps_deep_terms_that_max_size_allows(capsys, tmp_path):
    # Every rewritten term is hashed into the visited set.
    trs_file = tmp_path / "deep.trs"
    trs_file.write_text("(VAR x)\n(RULES f(x) -> " + "g(" * 300 + "f(x)" + ")" * 300 + ")\n")
    code, out, err = run(
        capsys, "find", "--trs", str(trs_file), "--depth", "2", "--max-size", "100000"
    )
    assert (code, err) == (EXIT_YES, "")
    assert [len(c["steps"]) for c in json.loads(out)] == [1, 2]


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
    # A replacement map with a non-ASCII digit, a pattern that can never
    # match because it gives inf two arguments, a pattern position with a
    # 0 index, and a Q rule that gives the binary cons one argument.
    cases = (
        (
            "context-sensitive:",
            "inf: ²\n",
            "error: unexpected character '²' (line 1, column 6)\n",
        ),
        (
            "forbidden:",
            "inf(x,y) @ eps : h\n",
            "error: inf used with 2 arguments, expected 1 (line 1, column 1)\n",
        ),
        (
            "forbidden:",
            "inf(x) @ 0 : h\n",
            "error: position indices start at 1: '0' (line 1, column 10)\n",
        ),
        (
            "q-restricted:",
            "(VAR x)\n(RULES cons(x) -> x)\n",
            "error: cons used with 1 arguments, expected 2 (line 2, column 8)\n",
        ),
    )
    for prefix, text, message in cases:
        path = tmp_path / "strategy.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = check(
            capsys, data_dir, "stream.trs", "stream_loop.json", prefix + str(path)
        )
        assert (code, out, err) == (EXIT_INVALID, "", message)


def test_strategy_files_need_a_name(capsys, data_dir):
    for prefix in ("forbidden:", "context-sensitive:", "q-restricted:"):
        code, out, err = check(capsys, data_dir, "stream.trs", "stream_loop.json", prefix)
        message = f"error: strategy {prefix} needs a file name: {prefix}<file>\n"
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
        "(VAR x)(RULES f(x(a)) -> a)\n":
            "error: variable 'x' cannot take arguments (line 1, column 17)\n",
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


def test_a_substitution_that_is_not_an_object_exits_three(capsys, data_dir, tmp_path):
    doc = json.loads((data_dir / "factorial_loop.json").read_text())
    doc["subst"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = check(capsys, data_dir, "factorial.trs", path, "leftmost")
    message = "error: subst must be an object mapping variables to terms\n"
    assert (code, out, err) == (EXIT_INVALID, "", message)


def test_non_utf8_input_exits_three(capsys, data_dir, tmp_path):
    latin1 = tmp_path / "latin1.trs"
    latin1.write_bytes(b"(RULES caf\xe9 -> b)\n")
    for argv in both_commands(data_dir, latin1):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: input is not UTF-8 text: ")
        assert err.count("\n") == 1


def module_env(**overrides):
    """The environment for a subprocess that imports this loopcert package."""
    src = os.path.dirname(os.path.dirname(loopcert.cli.__file__))
    return dict(os.environ, PYTHONPATH=src, **overrides)


def test_inputs_are_read_as_utf8_whatever_the_locale(data_dir, tmp_path):
    # Under the C locale with UTF-8 mode off, the locale's encoding is ASCII;
    # stderr is UTF-8 so that the message can be compared as text.
    env = module_env(LC_ALL="C", PYTHONUTF8="0", PYTHONIOENCODING="utf-8")
    utf8 = tmp_path / "utf8.trs"
    utf8.write_bytes("(VAR x)\n(RULES\n  f\u00e9(x) -> x\n)\n".encode("utf-8"))
    latin1 = tmp_path / "latin1.trs"
    latin1.write_bytes(b"(RULES caf\xe9 -> b)\n")
    cases = {
        utf8: "error: unexpected character '\u00e9' (line 3, column 4)\n",
        latin1: "error: input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9",
    }
    for trs_file, message in cases.items():
        for argv in both_commands(data_dir, trs_file):
            got = subprocess.run(
                [sys.executable, "-m", "loopcert", *argv],
                capture_output=True, encoding="utf-8", env=env,
            )
            assert (got.returncode, got.stdout) == (EXIT_INVALID, "")
            assert got.stderr.startswith(message)


def test_import_generates_no_code():
    # No dataclass, typing or pathlib machinery is loaded to import the program.
    script = (
        "import loopcert.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"
    )
    got = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=module_env()
    )
    assert (got.returncode, got.stdout, got.stderr) == (0, "[]\n", "")


def tower(depth, inner="x"):
    return "g(" * depth + inner + ")" * depth


def test_deeply_nested_input_exits_three(capsys, data_dir, tmp_path):
    # Just past the limit x sits 513 levels deep, and far past it 3,000;
    # either way the application at depth 512 is located.
    deep = tmp_path / "deep.trs"
    message = "error: term nests deeper than 512 levels (line 2, column 1040)\n"
    for rhs in (tower(512, "f(x)"), tower(3000)):
        deep.write_text("(VAR x)\n(RULES f(x) -> " + rhs + ")\n")
        for argv in both_commands(data_dir, deep):
            assert run(capsys, *argv) == (EXIT_INVALID, "", message)


def test_system_terms_at_the_limit_are_read(capsys, tmp_path):
    # In f(x) -> g^511(f(x)) x sits 512 levels deep, the most a term may nest.
    rule = "f(x) -> " + tower(511, "f(x)")
    (tmp_path / "tower.trs").write_text(f"(VAR x)\n(RULES {rule})\n")
    (tmp_path / "tower.json").write_text(json.dumps({
        "start": "f(x)",
        "steps": [[{"pos": [], "rule": 0}]],
        "context": tower(511, "[]"),
        "subst": {},
    }))
    code, out, err = check(capsys, tmp_path, "tower.trs", "tower.json", "leftmost")
    assert (code, err) == (EXIT_YES, "")
    code, out, err = run(
        capsys, "find", "--trs", str(tmp_path / "tower.trs"), "--depth", "2",
        "--max-size", "100000",
    )
    assert (code, err) == (EXIT_YES, "")
    assert [len(c["steps"]) for c in json.loads(out)] == [1, 2]


def write_tower_loop(tmp_path, start):
    """f(x) -> g(f(x)) with a certificate from *start*, closing with g([])."""
    (tmp_path / "tower.trs").write_text("(VAR x)\n(RULES f(x) -> g(f(x)))\n")
    (tmp_path / "tower.json").write_text(json.dumps({
        "start": start,
        "steps": [[{"pos": [], "rule": 0}]],
        "context": "g([])",
        "subst": {},
    }))


def test_certificate_terms_nest_to_the_limit(capsys, tmp_path):
    # The error names its field, and its location counts within the string.
    write_tower_loop(tmp_path, "f(" + tower(511) + ")")
    code, out, err = check(capsys, tmp_path, "tower.trs", "tower.json", "leftmost")
    assert (code, err) == (EXIT_YES, "")
    write_tower_loop(tmp_path, "f(" + tower(512) + ")")
    assert check(capsys, tmp_path, "tower.trs", "tower.json", "leftmost") == (
        EXIT_INVALID,
        "",
        "error: start: term nests deeper than 512 levels (line 1, column 1025)\n",
    )


def test_start_terms_nest_to_the_limit(capsys, tmp_path):
    write_tower_loop(tmp_path, "f(x)")
    argv = ["find", "--trs", str(tmp_path / "tower.trs"), "--depth", "1"]
    argv += ["--max-size", "1000", "--start"]
    code, out, err = run(capsys, *argv, "f(" + tower(511) + ")")
    assert (code, err) == (EXIT_YES, "")
    assert len(json.loads(out)) == 1
    assert run(capsys, *argv, "f(" + tower(512) + ")") == (
        EXIT_INVALID, "", "error: term nests deeper than 512 levels (line 1, column 1025)\n"
    )


def test_pattern_file_terms_nest_to_the_limit(capsys, tmp_path):
    # A forbidden pattern and a q-restricted left-hand side of depth 512 are
    # read; at 513 each file is refused at its location.
    write_tower_loop(tmp_path, "f(x)")
    cases = {
        "forbidden:": ("f({}) @ eps : h\n", "line 1, column 1025"),
        "q-restricted:": ("(VAR x)\n(RULES f({}) -> x)\n", "line 2, column 1032"),
    }
    path = tmp_path / "strategy.txt"
    for prefix, (text, where) in cases.items():
        path.write_text(text.format(tower(511)))
        code, out, err = check(capsys, tmp_path, "tower.trs", "tower.json", prefix + str(path))
        assert (code, err) == (EXIT_YES, "")
        path.write_text(text.format(tower(512)))
        assert check(capsys, tmp_path, "tower.trs", "tower.json", prefix + str(path)) == (
            EXIT_INVALID, "", f"error: term nests deeper than 512 levels ({where})\n"
        )


def test_deeply_nested_certificate_exits_three(capsys, tmp_path):
    # The JSON reader itself recurses per level of nesting.
    write_tower_loop(tmp_path, "f(x)")
    (tmp_path / "tower.json").write_text("[" * 100_000 + "]" * 100_000)
    assert check(capsys, tmp_path, "tower.trs", "tower.json", "leftmost") == (
        EXIT_INVALID, "", "error: certificate nests too deeply\n"
    )


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
    # --bound is still read as a count, but no solver takes a bound any more:
    # every problem is decided exactly, so --bound 4 changes no output byte.
    # Stalled answers yes; shift's witness is n = 9, past 4.
    stalled, stalled_loop = stalled_files
    cases = [
        (stalled.parent, stalled.name, stalled_loop.name, "outermost", EXIT_YES),
        (data_dir, "shift.trs", "shift_loop.json", "leftmost", EXIT_NO),
    ]
    for where, trs, loop, strategy, want in cases:
        for fmt in ("text", "json"):
            plain = check(capsys, where, trs, loop, strategy, "--format", fmt)
            assert plain[0] == want
            assert check(capsys, where, trs, loop, strategy, "--format", fmt, "--bound", "4") == plain
    code, out, _ = check(
        capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost",
        "--format", "json", "--bound", "4",
    )
    assert code == EXIT_NO
    doc = json.loads(out)
    assert "bound" not in doc
    assert doc["evidence"]["witness"] == {"n": 9}


def test_bound_caps_the_context_exponent_only(capsys, tmp_path):
    # The pattern sits below s^3 and f over g^8: the least witness is
    # m = 2, k = 5, past 4 in m + k.  The context exponent m is capped by
    # the proven slice cap, not by --bound, which changes no output byte.
    trs, loop = tmp_path / "pump.trs", tmp_path / "pump.json"
    patterns = tmp_path / "patterns.txt"
    trs.write_text("(VAR x y) (RULES f(x) -> s(f(g(x))))\n")
    loop.write_text(json.dumps({
        "start": "f(x)", "steps": [[{"pos": [], "rule": 0}]],
        "context": "s([])", "subst": {"x": "g(x)"},
    }))
    patterns.write_text("s(s(s(f(" + "g(" * 8 + "y" + ")" * 8 + ")))) @ eps : b\n")
    strategy = f"forbidden:{patterns}"
    for fmt in ("text", "json"):
        plain = check(capsys, tmp_path, trs.name, loop.name, strategy, "--format", fmt)
        assert plain[0] == EXIT_NO
        assert check(
            capsys, tmp_path, trs.name, loop.name, strategy, "--format", fmt, "--bound", "4"
        ) == plain
    code, out, _ = check(
        capsys, tmp_path, trs.name, loop.name, strategy, "--bound", "4",
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


def test_counts_take_ascii_digits_only(capsys, data_dir):
    # int() would read these as 10, 2, 3 and 3; a count, like a position or
    # a map index, is ASCII digits only.
    for value in ("1_0", "+2", " 3", "\u0663"):
        for flag in ("--depth", "--max-size"):
            code, out, err = run(
                capsys, "find", "--trs", str(data_dir / "shift.trs"), flag, value
            )
            assert (code, out) == (EXIT_INVALID, "")
            assert err == f"error: argument {flag}: invalid int value: {value!r}\n"
        code, out, err = check(
            capsys, data_dir, "shift.trs", "shift_loop.json", "leftmost", "--bound", value
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"error: argument --bound: invalid int value: {value!r}\n"
    # Leading zeros are still digits.
    trs = str(data_dir / "shift.trs")
    assert run(capsys, "find", "--trs", trs, "--depth", "03") == run(
        capsys, "find", "--trs", trs, "--depth", "3"
    )


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
    # Only the system's own symbols must keep their arity, as in pattern files.
    lhss.write_text("(VAR x)\n(RULES foo(x) -> x)\n")
    code, out, _ = check(
        capsys, data_dir, "stream.trs", "stream_loop.json", f"q-restricted:{lhss}"
    )
    assert (code, out[:5]) == (EXIT_YES, "YES: ")


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

    argv = [
        "check",
        "--trs", str(data_dir / "collapse.trs"),
        "--loop", str(data_dir / "collapse_loop.json"),
        "--strategy", "leftmost",
    ]
    first = run_module(argv, "0")
    second = run_module(argv, "1")
    assert first.returncode == second.returncode == EXIT_NO
    assert first.stdout == second.stdout

    argv = ["find", "--trs", str(data_dir / "factorial.trs"), "--depth", "5"]
    first = run_module(argv, "0")
    second = run_module(argv, "1")
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
