"""Per-layer spans for the traced run, installed from outside the program.

The tracer replaces public functions at the module bindings their callers
look up (``loopcert.cli.decide_loop``, ``loopcert.deciders.solve_problem``,
...) with wrappers that record a span around each call: name, start, end,
parent and op.  Spans are kept in memory and written out when the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover.  Bookkeeping the tracer does after a call (counting problem
families, hashing problems, measuring term sizes) runs in its own
``bench.bookkeeping`` span, so it is never charged to a layer.

``rewrite_at`` and ``match_pattern`` are called once per position the
finder visits, so they are counted, not timed; their time stays in
``cli.find_loops``' self time.

A binding that no longer exists is reported: every metric that needs it
reads ``None`` (missing), never 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, name) -> span name; None means count calls without a span.
BINDINGS = {
    ("loopcert.cli", "parse_trs"): "formats.parse",
    ("loopcert.cli", "parse_loop_certificate"): "formats.parse",
    ("loopcert.cli", "parse_term"): "formats.parse",
    ("loopcert.cli", "validate_loop"): "loops.validate",
    ("loopcert.cli", "resolve_strategy"): "cli.resolve_strategy",
    ("loopcert.cli", "decide_loop"): "deciders.decide",
    ("loopcert.cli", "render_verdict"): "formats.render",
    ("loopcert.cli", "find_loops"): "cli.find_loops",
    ("loopcert.cli", "certificate_to_document"): "formats.render",
    ("loopcert.cli", "redex_positions"): "rewriting.redex_positions",
    ("loopcert.cli", "rewrite_at"): None,
    ("loopcert.cli", "match_pattern"): None,
    ("loopcert.deciders", "step_problems"): "deciders.generate",
    ("loopcert.deciders", "solve_problem"): "problems.solve",
    ("loopcert.deciders", "unroll_loop"): "loops.unroll",
    ("loopcert.deciders", "strategy_allows"): "rewriting.strategy_allows",
    ("loopcert.deciders", "concrete_checks"): "deciders.concrete_checks",
}

FAMILIES = (
    "left-term",
    "left-image",
    "left-context",
    "left-context-image",
    "parallel-term",
    "parallel-image",
    "parallel-context",
    "parallel-context-image",
    "pattern-here",
    "pattern-above-term",
    "pattern-above-image",
    "pattern-below-prefix",
    "pattern-below-context",
)
PROBLEM_KINDS = {
    "MatchingProblem": "matching",
    "IdentityProblem": "identity",
    "ExtendedMatchingProblem": "extended",
}
OUTCOMES = ("root-clash", "variable-orbit", "cycle", "solvable", "unknown")

CLI = "loopcert.cli"
DEC = "loopcert.deciders"


def _needs(*names):
    return tuple(
        (module, name) for module, _, name in (n.rpartition(".") for n in names)
    )


# name, unit, bindings it needs.  Every name here is a per-layer metric.
PER_LAYER = [
    ("deciders.generate_s", "s", _needs(f"{DEC}.step_problems")),
    ("deciders.instances", "count", _needs(f"{DEC}.step_problems")),
    ("deciders.unique_problems", "count", _needs(f"{DEC}.step_problems")),
    ("deciders.unique_share", "ratio", _needs(f"{DEC}.step_problems")),
    *[(f"deciders.instances.{f}", "count", _needs(f"{DEC}.step_problems"))
      for f in FAMILIES + ("other",)],
    ("deciders.decide_self_s", "s", _needs(f"{CLI}.decide_loop")),
    ("deciders.confirm_s", "s",
     _needs(f"{CLI}.decide_loop", f"{DEC}.unroll_loop", f"{DEC}.strategy_allows")),
    ("deciders.confirm_max_level", "count", _needs(f"{DEC}.unroll_loop")),
    ("problems.solve_s", "s", _needs(f"{DEC}.solve_problem")),
    ("problems.solve_calls", "count", _needs(f"{DEC}.solve_problem")),
    *[(f"problems.solve_s.{k}", "s", _needs(f"{DEC}.solve_problem"))
      for k in tuple(PROBLEM_KINDS.values()) + ("other",)],
    *[(f"problems.outcome.{o}", "count", _needs(f"{DEC}.solve_problem"))
      for o in OUTCOMES + ("other",)],
    ("problems.repeat_share", "ratio", _needs(f"{DEC}.solve_problem", f"{CLI}.decide_loop")),
    ("problems.solve_ms_max", "ms", _needs(f"{DEC}.solve_problem")),
    ("rewriting.redex_positions_s", "s", _needs(f"{CLI}.redex_positions")),
    ("rewriting.redex_positions_calls", "count", _needs(f"{CLI}.redex_positions")),
    ("rewriting.rewrite_at_calls", "count", _needs(f"{CLI}.rewrite_at")),
    ("rewriting.match_pattern_calls", "count", _needs(f"{CLI}.match_pattern")),
    ("rewriting.strategy_allows_s", "s", _needs(f"{DEC}.strategy_allows")),
    ("loops.validate_s", "s", _needs(f"{CLI}.validate_loop")),
    ("loops.validate_calls", "count", _needs(f"{CLI}.validate_loop")),
    ("loops.unroll_s", "s", _needs(f"{DEC}.unroll_loop")),
    ("loops.peak_term_size", "count", _needs(f"{CLI}.validate_loop", f"{DEC}.unroll_loop")),
    ("cli.main_self_s", "s", ()),
    ("cli.resolve_strategy_s", "s", _needs(f"{CLI}.resolve_strategy")),
    ("cli.find_loops_self_s", "s", _needs(f"{CLI}.find_loops")),
    ("cli.find_certificates", "count", _needs(f"{CLI}.find_loops")),
    ("formats.parse_s", "s",
     _needs(f"{CLI}.parse_trs", f"{CLI}.parse_loop_certificate", f"{CLI}.parse_term")),
    ("formats.parse_calls", "count",
     _needs(f"{CLI}.parse_trs", f"{CLI}.parse_loop_certificate", f"{CLI}.parse_term")),
    ("formats.render_s", "s", _needs(f"{CLI}.render_verdict", f"{CLI}.certificate_to_document")),
    ("formats.output_bytes", "count", ()),
    ("trace.bookkeeping_s", "s", ()),
    ("trace.untraced_s", "s", ()),
    ("trace.traced_s", "s", ()),
    ("trace.overhead_s", "s", ()),
    ("trace.overhead_share", "ratio", ()),
]


def term_size(t) -> int:
    """Node count of a loopcert term, read through its public ``args``."""
    total = 0
    stack = [t]
    while stack:
        u = stack.pop()
        total += 1
        stack.extend(getattr(u, "args", ()))
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self._installed: list[tuple] = []
        self._problem_ids: dict = {}
        self._decision_instances = ()
        self._solved: set = set()

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def close(self) -> float:
        end = time.perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - covered
        self.total_s[span[0]] += duration
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    # -- bindings ---------------------------------------------------------

    def install(self) -> None:
        for (module_name, attr), span in BINDINGS.items():
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, attr: str, span: str | None):
        if span is None:
            def counted(*args, **kwargs):
                self.counts[f"calls.{attr}"] += 1
                return fn(*args, **kwargs)
            return counted
        before = getattr(self, f"_before_{attr}", None)
        after = getattr(self, f"_after_{attr}", None)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.close()
            if after is not None:
                self.open("bench.bookkeeping")
                try:
                    after(result, duration, *args)
                finally:
                    self.close()
            return result

        return traced

    # -- bookkeeping per binding ------------------------------------------

    def _before_decide_loop(self, *args):
        self._problem_ids = {}
        self._decision_instances = ()
        self._solved = set()

    def _after_step_problems(self, instances, duration, *args):
        unique: dict = {}
        families = Counter()
        for inst in instances:
            self._problem_ids[id(inst.problem)] = unique.setdefault(inst.problem, len(unique))
            families[inst.family if inst.family in FAMILIES else "other"] += 1
        # Keep the problems alive so their ids stay unique for this decision.
        self._decision_instances = instances
        self.counts["deciders.instances"] += len(instances)
        self.counts["deciders.unique_problems"] += len(unique)
        for family, n in families.items():
            self.counts[f"deciders.instances.{family}"] += n

    def _after_solve_problem(self, result, duration, problem, *args):
        kind = PROBLEM_KINDS.get(type(problem).__name__, "other")
        self.total_s[f"problems.solve_s.{kind}"] += duration
        self.maxima["problems.solve_ms_max"] = max(
            self.maxima["problems.solve_ms_max"], duration * 1000
        )
        outcome = type(result).__name__.lower()
        if outcome == "unsolvable":
            outcome = getattr(getattr(result, "reason", None), "value", "other")
        outcome = outcome if outcome in OUTCOMES else "other"
        self.counts[f"problems.outcome.{outcome}"] += 1
        key = self._problem_ids.get(id(problem), problem)
        if key in self._solved:
            self.counts["problems.repeats"] += 1
        self._solved.add(key)

    def _after_unroll_loop(self, result, duration, loop, n, *args):
        self.maxima["deciders.confirm_max_level"] = max(self.maxima["deciders.confirm_max_level"], n)
        self._note_terms(result.terms)

    def _after_validate_loop(self, result, duration, *args):
        self._note_terms(result.terms)

    def _after_find_loops(self, result, duration, *args):
        self.counts["cli.find_certificates"] += len(result)

    def _note_terms(self, terms):
        peak = max((term_size(t) for t in terms), default=0)
        self.maxima["loops.peak_term_size"] = max(self.maxima["loops.peak_term_size"], peak)

    # -- results ----------------------------------------------------------

    def values(self) -> dict:
        s, c, calls = self.self_s, self.counts, self.calls
        solves = calls["problems.solve"]
        instances = c["deciders.instances"]
        out = {
            "deciders.generate_s": s["deciders.generate"],
            "deciders.instances": instances,
            "deciders.unique_problems": c["deciders.unique_problems"],
            # A share whose base is 0 reads 0; read it with its base count.
            "deciders.unique_share": c["deciders.unique_problems"] / instances if instances else 0.0,
            "deciders.decide_self_s": s["deciders.decide"],
            "deciders.confirm_s": self.total_s["loops.unroll"] + self.total_s["rewriting.strategy_allows"],
            "deciders.confirm_max_level": int(self.maxima["deciders.confirm_max_level"]),
            "problems.solve_s": s["problems.solve"],
            "problems.solve_calls": solves,
            "problems.repeat_share": c["problems.repeats"] / solves if solves else 0.0,
            "problems.solve_ms_max": self.maxima["problems.solve_ms_max"],
            "rewriting.redex_positions_s": s["rewriting.redex_positions"],
            "rewriting.redex_positions_calls": calls["rewriting.redex_positions"],
            "rewriting.rewrite_at_calls": c["calls.rewrite_at"],
            "rewriting.match_pattern_calls": c["calls.match_pattern"],
            "rewriting.strategy_allows_s": s["rewriting.strategy_allows"],
            "loops.validate_s": s["loops.validate"],
            "loops.validate_calls": calls["loops.validate"],
            "loops.unroll_s": s["loops.unroll"],
            "loops.peak_term_size": int(self.maxima["loops.peak_term_size"]),
            "cli.main_self_s": s["cli.main"],
            "cli.resolve_strategy_s": s["cli.resolve_strategy"],
            "cli.find_loops_self_s": s["cli.find_loops"],
            "cli.find_certificates": c["cli.find_certificates"],
            "formats.parse_s": s["formats.parse"],
            "formats.parse_calls": calls["formats.parse"],
            "formats.render_s": s["formats.render"],
            "formats.output_bytes": c["formats.output_bytes"],
            "trace.bookkeeping_s": self.total_s["bench.bookkeeping"],
        }
        for f in FAMILIES + ("other",):
            out[f"deciders.instances.{f}"] = c[f"deciders.instances.{f}"]
        for k in tuple(PROBLEM_KINDS.values()) + ("other",):
            out[f"problems.solve_s.{k}"] = self.total_s[f"problems.solve_s.{k}"]
        for o in OUTCOMES + ("other",):
            out[f"problems.outcome.{o}"] = c[f"problems.outcome.{o}"]
        return out

    def metrics(self, extra: dict) -> dict:
        """Every per-layer metric as {"value", "unit"}; None where a binding is missing."""
        values = {**self.values(), **extra}
        missing = set(self.missing)
        out = {}
        for name, unit, needs in PER_LAYER:
            gone = any(f"{m}.{a}" in missing for m, a in needs)
            out[name] = {"value": None if gone else values[name], "unit": unit}
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                }) + "\n")
