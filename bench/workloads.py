"""The benchmark's workloads: seeded inputs, op batches and reference answers.

A workload builds its base inputs once from the seed (that is set-up), then
hands out batches.  Batch i holds the same ops as every other batch, over a
fresh consistent variable renaming drawn from (seed, i), written as real
files; so a run can repeat the batch for as long as it measures and no op
ever sees an input twice.  Every op is one ``loopcert`` command line.

Each op carries the reference its answer is checked against.  No reference
comes from the code under test at run time: the corpus verdicts are a table
kept beside this file, the powers take the k = 1 verdict from that table,
and loops and certificates are replayed with ``refterms``.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import refterms as R

CORPUS = Path(__file__).resolve().parent / "corpus"
EXIT_BY_ANSWER = {"yes": 0, "no": 1, "unknown": 2, "invalid": 3}
FIRST_WORD = {"YES:": "yes", "NO:": "no", "UNKNOWN:": "unknown"}

SEQUENTIAL_SIX = (
    "leftmost",
    "innermost",
    "outermost",
    "leftmost-innermost",
    "leftmost-outermost",
    "max-parallel",
)


@dataclass
class Op:
    """One ``loopcert.cli.main(argv)`` call and how to judge its result."""

    template: str  # names the op independently of the batch's renaming
    kind: str  # "check" or "find"
    argv: list[str]
    judge: object  # judge(code, stdout) -> (answer, error or None)


def _fresh_names(variables, symbols, rng: random.Random) -> dict:
    """A consistent renaming to new variable names; their sorted order is shuffled."""
    names: dict = {}
    taken = set(symbols)
    for x in variables:
        while True:
            name = rng.choice("uvwxyz") + str(rng.randrange(1000))
            if name not in taken:
                break
        taken.add(name)
        names[x] = name
    return names


def _symbols(system: R.System) -> set:
    out = set()
    for l, r in system.rules:
        for t in (l, r):
            stack = [t]
            while stack:
                u = stack.pop()
                if not isinstance(u, str):
                    out.add(u[0])
                    stack.extend(u[1])
    return out


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_certificate(path: Path, cert: R.Certificate) -> str:
    return _write(path, json.dumps(cert.document(), indent=2) + "\n")


def _judge_text_check(expected: dict):
    """Corpus ops print text; the first word is the verdict."""
    allowed = {expected["answer"]} | ({expected["also"]} if "also" in expected else set())

    def judge(code, out):
        if code == 3:
            answer = "invalid"
            if out:
                return answer, "exit 3 printed a verdict"
        else:
            words = out.split(maxsplit=1)
            answer = FIRST_WORD.get(words[0] if words else "", "unreadable")
            if EXIT_BY_ANSWER.get(answer) != code:
                return answer, f"answer {answer} came with exit {code}"
        if answer not in allowed:
            return answer, f"expected {sorted(allowed)}, got {answer}"
        return answer, None

    return judge


def _read_json_verdict(code, out):
    """(answer, document, error) of a ``check --format json`` op."""
    try:
        doc = json.loads(out)
        answer = doc["verdict"]
    except (ValueError, KeyError, TypeError):
        return "unreadable", None, f"exit {code} with unreadable output"
    if EXIT_BY_ANSWER.get(answer) != code:
        return answer, doc, f"answer {answer} came with exit {code}"
    return answer, doc, None


def _judge_find(system: R.System, expected_count: int):
    """Every certificate must replay, and the count must be the reference count."""

    def judge(code, out):
        if code != 0:
            return f"exit {code}", f"find exited {code}"
        try:
            docs = json.loads(out)
            for doc in docs:
                R.replay(R.certificate_from_document(doc, system), system)
        except (ValueError, KeyError, TypeError, IndexError, R.ReplayError) as e:
            return "bad-certificate", f"emitted certificate does not replay: {e}"
        answer = f"{len(docs)} certificates"
        if len(docs) != expected_count:
            return answer, f"expected {expected_count} certificates, got {len(docs)}"
        return answer, None

    return judge


def _load_corpus_system(name: str) -> R.System:
    return R.parse_system((CORPUS / f"{name}.trs").read_text())


def _load_corpus_certificate(name: str, system: R.System) -> R.Certificate:
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    return R.certificate_from_document(doc, system)


class Workload:
    """Base inputs built at set-up; ``batch(i)`` writes and returns batch i."""

    name = ""

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.workdir = workdir

    def batch(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        where = self.workdir / f"batch{index}"
        where.mkdir(parents=True)
        return self._ops(rng, where)

    def drop(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"batch{index}", ignore_errors=True)

    def _ops(self, rng: random.Random, where: Path) -> list[Op]:
        raise NotImplementedError

    @staticmethod
    def _renamed(system: R.System, rng: random.Random):
        names = _fresh_names(system.variables, _symbols(system), rng)
        return names, system.renamed(names)


class Corpus(Workload):
    """Every certificate of the hand-sized corpus under all 12 built-in
    strategies, plus one forbidden-pattern file: 97 ops, every exit code."""

    name = "corpus"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.table = json.loads((CORPUS / "expected.json").read_text())
        self.systems = {r["system"]: _load_corpus_system(r["system"]) for r in self.table}
        self.certs = {
            r["loop"]: _load_corpus_certificate(r["loop"], self.systems[r["system"]])
            for r in self.table
        }
        pattern_text = (CORPUS / "stream_patterns.txt").read_text()
        self.patterns = [line.split("@", 1) for line in pattern_text.splitlines() if line.strip()]

    def _ops(self, rng, where):
        files = {}
        renamings = {}
        for name, system in self.systems.items():
            names, renamed = self._renamed(system, rng)
            renamings[name] = names
            files[name] = _write(where / f"{name}.trs", renamed.render())
        for row in self.table:
            loop = row["loop"]
            if loop not in files:
                cert = self.certs[loop].renamed(renamings[row["system"]])
                files[loop] = _write_certificate(where / f"{loop}.json", cert)
        stream = self.systems["stream"]
        lines = [
            f"{R.show(R.apply(R.parse(lhs, stream.variables), renamings['stream']))} @{rest}"
            for lhs, rest in self.patterns
        ]
        patterns = _write(where / "stream_patterns.txt", "\n".join(lines) + "\n")
        ops = []
        for row in self.table:
            strategy = row["strategy"]
            if strategy.startswith("forbidden:"):
                strategy = f"forbidden:{patterns}"
            argv = ["check", "--trs", files[row["system"]], "--loop", files[row["loop"]],
                    "--strategy", strategy]
            ops.append(Op(f"{row['loop']} {row['strategy']}", "check", argv,
                          _judge_text_check(row)))
        return ops


class Powers(Workload):
    """k-fold powers of the factorial loop: deep, heavily duplicated problems.

    A power has the loop's own verdict by construction, so the reference is
    the k = 1 row of the corpus table.
    """

    name = "powers"
    STRATEGIES = ("innermost", "outermost", "max-parallel")

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        table = json.loads((CORPUS / "expected.json").read_text())
        self.expected = {
            r["strategy"]: r["answer"] for r in table if r["loop"] == "factorial_loop"
        }
        self.system = _load_corpus_system("factorial")
        base = _load_corpus_certificate("factorial_loop", self.system)
        self.ks = (1, 2) if small else (1, 2, 4, 8)
        self.powers = {k: R.power(base, self.system, k) for k in self.ks}

    def _ops(self, rng, where):
        names, renamed = self._renamed(self.system, rng)
        trs = _write(where / "factorial.trs", renamed.render())
        ops = []
        for k in self.ks:
            loop = _write_certificate(where / f"power{k}.json", self.powers[k].renamed(names))
            for strategy in self.STRATEGIES:
                argv = ["check", "--trs", trs, "--loop", loop, "--strategy", strategy,
                        "--format", "json"]
                ops.append(Op(f"power{k} {strategy}", "check", argv,
                              self._judge(self.expected[strategy])))
        return ops

    @staticmethod
    def _judge(expected_answer):
        def judge(code, out):
            answer, _, error = _read_json_verdict(code, out)
            if error is None and answer != expected_answer:
                error = f"expected {expected_answer}, got {answer}"
            return answer, error

        return judge


ARITIES = {"f": 2, "g": 1, "h": 2, "k": 3, "s": 1, "a": 0, "b": 0, "c": 0}
CONSTANTS = tuple(f for f, n in ARITIES.items() if n == 0)
NON_CONSTANTS = tuple(f for f, n in ARITIES.items() if n > 0)
RANDOM_VARS = ("x", "y", "z", "w")


def _random_term(rng, variables, depth):
    if depth == 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.5:
            return rng.choice(variables)
        return (rng.choice(CONSTANTS), ())
    f = rng.choice(NON_CONSTANTS)
    return (f, tuple(_random_term(rng, variables, depth - 1) for _ in range(ARITIES[f])))


def _random_rule(rng):
    f = rng.choice(NON_CONSTANTS)
    lhs = (f, tuple(_random_term(rng, ("x", "y"), 1) for _ in range(ARITIES[f])))
    lhs_vars = tuple(sorted(set(R.variables(lhs))))
    return lhs, _random_term(rng, lhs_vars, rng.randint(1, 2))


def random_looping_system(rng: random.Random) -> R.System:
    """A system with a planted f-loop plus zero to two random rules."""
    small = ["x", "y", ("s", ("x",)), ("s", ("y",)), ("a", ())]
    core = ("f", (rng.choice(small), rng.choice(small)))
    wrap = rng.random()
    if wrap < 0.4:
        rhs = core
    elif wrap < 0.7:
        rhs = ("h", (rng.choice(small), core))
    else:
        rhs = ("s", (core,))
    rules = [(("f", ("x", "y")), rhs)]
    rules += [_random_rule(rng) for _ in range(rng.randint(0, 2))]
    return R.System(RANDOM_VARS, tuple(rules))


@dataclass
class _RandomSystem:
    system: R.System
    depth: int
    found: int  # certificates the reference finder emits
    loop: R.Certificate  # the first of them


class RandomLoops(Workload):
    """Seeded random systems with a planted loop: ``find`` at depth 1-3, then
    the first loop found under the six sequential strategies at a fixed bound.

    Much of the decide time goes to bounded extended-problem search, so the
    bound is the workload's own: the default of 64 does not finish in
    minutes.  One loop per system keeps the 400 samples independent, which
    keeps the batch's cost steady from seed to seed.  A ``yes`` must survive
    concrete replay up to REPLAY_LEVELS; a confirmed ``no`` must fail exactly
    at the level and step it names.
    """

    name = "random-loops"
    BOUND = 16
    MAX_SIZE = 26
    REPLAY_LEVELS = 4

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        rng = random.Random(f"{self.name}:{seed}")
        self.systems: list[_RandomSystem] = []
        while len(self.systems) < (6 if small else 400):
            system = random_looping_system(rng)
            depth = rng.randint(1, 3)
            certs = R.find_loops(system, depth, self.MAX_SIZE)
            if certs:
                self.systems.append(_RandomSystem(system, depth, len(certs), certs[0]))
        self._replays: dict = {}

    def _ops(self, rng, where):
        ops = []
        for i, entry in enumerate(self.systems):
            names, renamed = self._renamed(entry.system, rng)
            trs = _write(where / f"sys{i}.trs", renamed.render())
            argv = ["find", "--trs", trs, "--depth", str(entry.depth),
                    "--max-size", str(self.MAX_SIZE)]
            ops.append(Op(f"sys{i} find", "find", argv, _judge_find(renamed, entry.found)))
            loop = _write_certificate(where / f"sys{i}_loop.json", entry.loop.renamed(names))
            for strategy in SEQUENTIAL_SIX:
                argv = ["check", "--trs", trs, "--loop", loop, "--strategy", strategy,
                        "--bound", str(self.BOUND), "--format", "json"]
                ops.append(Op(f"sys{i} {strategy}", "check", argv,
                              self._judge(entry.system, entry.loop, strategy)))
        return ops

    def _first_violation(self, system, cert, strategy, levels):
        # Replay is renaming-invariant, so it runs once per base loop.
        key = (id(cert), strategy, levels)
        if key not in self._replays:
            self._replays[key] = R.first_violation(cert, system, strategy, levels)
        return self._replays[key]

    def _judge(self, system, cert, strategy):
        def judge(code, out):
            answer, doc, error = _read_json_verdict(code, out)
            if error is not None:
                return answer, error
            if answer == "yes":
                hit = self._first_violation(system, cert, strategy, self.REPLAY_LEVELS)
                if hit is not None:
                    return answer, f"yes, but replay breaks the strategy at {hit}"
            elif answer == "no" and (doc.get("evidence") or {}).get("confirmed"):
                named = doc["evidence"]["confirmed"]
                level, step = named["level"], named["step"]
                hit = self._first_violation(system, cert, strategy, level)
                if hit != (level, step):
                    return answer, f"no at level {level} step {step}, replay gives {hit}"
            return answer, None

        return judge


class Find(Workload):
    """``loopcert find`` on the corpus systems: rewriting, matching, replay
    and JSON rendering do all the work, with no matching problems at all."""

    name = "find"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.counts = json.loads((CORPUS / "find_counts.json").read_text())
        fact = ("5", "6") if small else ("8", "9", "10")
        other = ("6",) if small else ("12",)
        self.runs = [("factorial", d) for d in fact]
        self.runs += [(name, d) for name in ("collapse", "growing", "shift", "stream") for d in other]
        self.systems = {name: _load_corpus_system(name) for name, _ in self.runs}

    def _ops(self, rng, where):
        files = {}
        ops = []
        for name, depth in self.runs:
            if name not in files:
                _, renamed = self._renamed(self.systems[name], rng)
                files[name] = (_write(where / f"{name}.trs", renamed.render()), renamed)
            trs, renamed = files[name]
            argv = ["find", "--trs", trs, "--depth", depth]
            ops.append(Op(f"{name} depth {depth}", "find", argv,
                          _judge_find(renamed, self.counts[name][depth])))
        return ops


WORKLOADS = {w.name: w for w in (Corpus, Powers, RandomLoops, Find)}
