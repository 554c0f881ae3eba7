"""Reference terms for the benchmark: parse, print, substitute, match, rewrite,
replay certificates, check strategy steps, and search for loops.

This is written apart from loopcert on purpose.  The benchmark generates its
inputs and checks the program's answers with this module, so neither the
inputs nor the reference answers come from the code under test.

A variable is a ``str``; an application is a ``(symbol, args)`` tuple; the
hole of a context is ``("[]", ())``.  Positions are tuples of 1-based
argument indices, as in the certificate format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

HOLE = ("[]", ())
_TOKEN = re.compile(r"\[\]|[(),]|[^\s(),]+")


def parse(text: str, variables) -> object:
    """Parse a term; identifiers in ``variables`` are variables."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def term():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "[]":
            return HOLE
        if pos < len(tokens) and tokens[pos] == "(":
            args = []
            while True:
                pos += 1
                args.append(term())
                if tokens[pos] == ")":
                    pos += 1
                    return (tok, tuple(args))
                if tokens[pos] != ",":
                    raise ValueError(f"bad term {text!r}")
        return tok if tok in variables else (tok, ())

    t = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in term {text!r}")
    return t


def show(t) -> str:
    if isinstance(t, str):
        return t
    sym, args = t
    return f"{sym}({','.join(show(a) for a in args)})" if args else sym


def apply(t, mu: dict):
    if isinstance(t, str):
        return mu.get(t, t)
    if not t[1]:
        return t
    return (t[0], tuple(apply(a, mu) for a in t[1]))


def variables(t) -> list[str]:
    """Variables of t in preorder, first occurrence first."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            if u not in out:
                out.append(u)
        else:
            stack.extend(reversed(u[1]))
    return out


def size(t) -> int:
    if isinstance(t, str):
        return 1
    return 1 + sum(size(a) for a in t[1])


def positions(t, prefix=()) -> list[tuple]:
    out = [prefix]
    if not isinstance(t, str):
        for i, a in enumerate(t[1], start=1):
            out.extend(positions(a, prefix + (i,)))
    return out


def subterm(t, p):
    for i in p:
        t = t[1][i - 1]
    return t


def replace(t, p, s):
    if not p:
        return s
    args = list(t[1])
    args[p[0] - 1] = replace(args[p[0] - 1], p[1:], s)
    return (t[0], tuple(args))


def hole_position(body):
    for p in positions(body):
        if subterm(body, p) == HOLE:
            return p
    raise ValueError(f"no hole in {show(body)}")


def match(pattern, subject, env: dict | None = None) -> dict | None:
    """Extend env so that pattern env == subject, or return None."""
    env = {} if env is None else env
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, str):
            if p in env:
                if env[p] != s:
                    return None
            else:
                env[p] = s
            continue
        if isinstance(s, str) or p[0] != s[0] or len(p[1]) != len(s[1]):
            return None
        stack.extend(zip(p[1], s[1]))
    return env


def redexes(t, rules) -> list[tuple[tuple, int]]:
    """(position, rule index) of every redex, positions in preorder."""
    return [
        (p, i)
        for p in positions(t)
        for i, (lhs, _) in enumerate(rules)
        if match(lhs, subterm(t, p)) is not None
    ]


def rewrite(t, q, rule):
    lhs, rhs = rule
    sigma = match(lhs, subterm(t, q))
    if sigma is None:
        raise ReplayError(f"rule {show(lhs)} does not match at {q} in {show(t)}")
    return replace(t, q, apply(rhs, sigma))


def left_of(p, q) -> bool:
    for a, b in zip(p, q):
        if a != b:
            return a < b
    return False


def strictly_above(p, q) -> bool:
    return len(p) < len(q) and q[: len(p)] == p


def parallel(p, q) -> bool:
    return left_of(p, q) or left_of(q, p)


class ReplayError(Exception):
    pass


@dataclass(frozen=True)
class System:
    variables: tuple[str, ...]
    rules: tuple[tuple[object, object], ...]

    def render(self) -> str:
        lines = [f"(VAR {' '.join(self.variables)})", "(RULES"]
        lines += [f"  {show(l)} -> {show(r)}" for l, r in self.rules]
        return "\n".join(lines + [")"]) + "\n"

    def renamed(self, names: dict) -> "System":
        return System(
            tuple(names[x] for x in self.variables),
            tuple((apply(l, names), apply(r, names)) for l, r in self.rules),
        )


def parse_system(text: str) -> System:
    """The .trs subset the benchmark's own files use: one VAR line, one rule a line."""
    variables: tuple[str, ...] = ()
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("(VAR"):
            variables = tuple(line[len("(VAR"):].rstrip(")").split())
        elif "->" in line:
            lhs, rhs = line.split("->")
            rules.append((parse(lhs, variables), parse(rhs, variables)))
    return System(variables, tuple(rules))


@dataclass(frozen=True)
class Certificate:
    start: object
    steps: tuple[tuple[tuple[tuple, int], ...], ...]
    context: object  # body containing HOLE
    subst: dict

    @property
    def hole(self):
        return hole_position(self.context)

    def document(self) -> dict:
        return {
            "start": show(self.start),
            "steps": [[{"pos": list(q), "rule": i} for q, i in step] for step in self.steps],
            "context": show(self.context),
            "subst": {x: show(u) for x, u in sorted(self.subst.items())},
        }

    def renamed(self, names: dict) -> "Certificate":
        return Certificate(
            apply(self.start, names),
            self.steps,
            apply(self.context, names),
            {names[x]: apply(u, names) for x, u in self.subst.items()},
        )


def certificate_from_document(doc: dict, system: System) -> Certificate:
    vs = system.variables
    return Certificate(
        parse(doc["start"], vs),
        tuple(tuple((tuple(r["pos"]), r["rule"]) for r in step) for step in doc["steps"]),
        parse(doc["context"], vs),
        {x: parse(u, vs) for x, u in doc["subst"].items()},
    )


def pump(t, cert: Certificate, n: int):
    """t(C, mu)^n: wrap t in n copies of the closing context."""
    hole = cert.hole
    for _ in range(n):
        t = replace(cert.context, hole, apply(t, cert.subst))
    return t


def replay(cert: Certificate, system: System) -> list:
    """Terms t1 .. t_{m+1} of a certificate; raises ReplayError if it is not a loop."""
    terms = [cert.start]
    for step in cert.steps:
        qs = [q for q, _ in step]
        if any(not parallel(a, b) for i, a in enumerate(qs) for b in qs[i + 1:]):
            raise ReplayError(f"step positions {qs} are not parallel")
        t = terms[-1]
        for q, i in step:
            if not 0 <= i < len(system.rules):
                raise ReplayError(f"rule index {i} out of range")
            t = rewrite(t, q, system.rules[i])
        terms.append(t)
    if terms[-1] != pump(cert.start, cert, 1):
        raise ReplayError(f"{show(terms[-1])} is not the start closed by (C, mu)")
    return terms


# Step predicates per strategy, as conjunctions of the four basic checks.
STRATEGY_CHECKS = {
    "full": (),
    "parallel": (),
    "leftmost": ("leftmost",),
    "innermost": ("innermost",),
    "outermost": ("outermost",),
    "leftmost-innermost": ("leftmost", "innermost"),
    "leftmost-outermost": ("leftmost", "outermost"),
    "max-parallel": ("max-parallel",),
    "parallel-innermost": ("innermost",),
    "parallel-outermost": ("outermost",),
    "max-parallel-innermost": ("innermost", "max-parallel"),
    "max-parallel-outermost": ("outermost", "max-parallel"),
}


def step_allowed(t, qs, system: System, strategy: str) -> bool:
    """Whether contracting exactly the redexes at qs in t respects the strategy."""
    rs = {p for p, _ in redexes(t, system.rules)}
    qs = sorted(set(qs))
    for check in STRATEGY_CHECKS[strategy]:
        if check == "leftmost":
            ok = len(qs) == 1 and not any(left_of(r, qs[0]) for r in rs)
        elif check == "innermost":
            ok = not any(strictly_above(q, r) for q in qs for r in rs)
        elif check == "outermost":
            ok = not any(strictly_above(r, q) for q in qs for r in rs)
        else:
            ok = all(parallel(a, b) for i, a in enumerate(qs) for b in qs[i + 1:])
            ok = ok and not any(
                r not in qs and all(parallel(r, q) for q in qs) for r in rs
            )
        if not ok:
            return False
    return True


def first_violation(cert: Certificate, system: System, strategy: str, levels: int):
    """First (level, 1-based step) of the unrolled loop that breaks the strategy,
    searching levels 0 .. levels, or None."""
    terms = replay(cert, system)
    prefix_unit = cert.hole
    for n in range(levels + 1):
        prefix = prefix_unit * n
        for j, step in enumerate(cert.steps):
            qs = [prefix + q for q, _ in step]
            if not step_allowed(pump(terms[j], cert, n), qs, system, strategy):
                return n, j + 1
    return None


def power(cert: Certificate, system: System, k: int) -> Certificate:
    """The k-fold power: one certificate that runs the loop k times.

    Iteration j runs the steps at p^j; the closing context is the start
    wrapped k times with its hole at p^k, and the substitution is mu^k.
    A power has the loop's own verdict under every strategy.
    """
    p = cert.hole
    steps = tuple(
        tuple((p * j + q, i) for q, i in step) for j in range(k) for step in cert.steps
    )
    top = pump(cert.start, cert, k)
    mu_k = {}
    for x in cert.subst:
        u = x
        for _ in range(k):
            u = apply(u, cert.subst)
        if u != x:
            mu_k[x] = u
    power_cert = Certificate(cert.start, steps, replace(top, p * k, HOLE), mu_k)
    replay(power_cert, system)
    return power_cert


def _canonical_key(cert: Certificate):
    order = variables(cert.start)
    order += [x for x in variables(cert.context) if x not in order]
    order += [x for x in sorted(cert.subst) if x not in order]
    names = {x: f"v{i}" for i, x in enumerate(order)}
    return (
        show(apply(cert.start, names)),
        cert.steps,
        show(apply(cert.context, names)),
        tuple(sorted((names[x], show(apply(u, names))) for x, u in cert.subst.items())),
    )


def find_loops(system: System, depth: int, max_size: int = 80, start=None) -> list[Certificate]:
    """Breadth-first loop search with the same contract as ``loopcert find``.

    From each distinct left-hand side (or the given start), explore rewrites
    up to the depth, skipping terms larger than max_size or already visited,
    and emit one certificate per position where an instance of the start
    appears; certificates equal up to variable names are emitted once.
    """
    starts = [start] if start is not None else []
    if start is None:
        for lhs, _ in system.rules:
            if lhs not in starts:
                starts.append(lhs)
    found: list[Certificate] = []
    seen = set()
    for t0 in starts:
        frontier = [(t0, ())]
        visited = {t0}
        for _ in range(depth):
            nxt = []
            for s, path in frontier:
                for q, ri in redexes(s, system.rules):
                    s2 = rewrite(s, q, system.rules[ri])
                    if size(s2) > max_size or s2 in visited:
                        continue
                    visited.add(s2)
                    path2 = path + (((q, ri),),)
                    nxt.append((s2, path2))
                    for p in positions(s2):
                        mu = match(t0, subterm(s2, p))
                        if mu is None:
                            continue
                        mu = {x: u for x, u in mu.items() if u != x}
                        cert = Certificate(t0, path2, replace(s2, p, HOLE), mu)
                        key = _canonical_key(cert)
                        if key not in seen:
                            seen.add(key)
                            found.append(cert)
            frontier = nxt
    return found
