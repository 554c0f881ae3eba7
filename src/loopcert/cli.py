"""Command-line interface.

    loopcert check --trs sys.trs --loop loop.json --strategy leftmost
    loopcert find --trs sys.trs --depth 6 --start "fact(x,y)"

check exits 0 when the certificate is a loop under the strategy, 1 when it
is refuted, 2 when undecided (a problem reached the size limit), 3 on
invalid input.
find exits 0 when it discovers at least one loop, 1 when none, 3 on
invalid input.  Both exit 4 on an internal error, with the traceback on
stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from operator import itemgetter

from .deciders import STRATEGIES, StrategySpec, decide_loop
from .errors import LoopcertError
# certificate_to_document is unused here but stays bound: bench/tracer.py
# times the document renderer through loopcert.cli.
from .formats import (
    certificate_to_document,
    certificates_to_json,
    parse_loop_certificate,
    parse_patterns,
    parse_replacement_map,
    parse_term,
    parse_trs,
    render_verdict,
)
from .loops import LoopCertificate, validate_loop
from .rewriting import (
    Trs,
    context_sensitive_patterns,
    innermost_patterns,
    match_pattern,
    redex_positions,
    rewrite_at,
)
from .terms import (
    Application,
    Context,
    Position,
    Substitution,
    Term,
    are_parallel,
    replace_at,
    subterm_at,
    subterms,
    term_size,
)

EXIT_BY_ANSWER = {"yes": 0, "no": 1, "unknown": 2}
EXIT_INVALID = 3
EXIT_INTERNAL = 4

# --strategy prefix -> forbidden patterns from the named file's text.
_PATTERN_SOURCES = {
    "forbidden:": parse_patterns,
    "context-sensitive:": lambda text, trs: context_sensitive_patterns(
        parse_replacement_map(text, trs), trs
    ),
    "q-restricted:": lambda text, trs: innermost_patterns(parse_trs(text, trs.signature).lhss()),
}


def read_input(path: str) -> str:
    """A file's text, decoded as UTF-8 whatever the locale's encoding."""
    with open(path, encoding="utf-8") as f:
        return f.read()


def resolve_strategy(text: str, trs: Trs) -> StrategySpec:
    """Turn a --strategy argument into a decidable strategy."""
    if text in STRATEGIES and text != "forbidden":
        return StrategySpec(text)
    for prefix, patterns_from in _PATTERN_SOURCES.items():
        if text.startswith(prefix):
            if text == prefix:
                raise LoopcertError(f"strategy {prefix} needs a file name: {prefix}<file>")
            patterns = patterns_from(read_input(text[len(prefix):]), trs)
            return StrategySpec("forbidden", patterns, label=text)
    names = ", ".join(sorted(set(STRATEGIES) - {"forbidden"}))
    files = ", ".join(f"{prefix}<file>" for prefix in _PATTERN_SOURCES)
    raise LoopcertError(
        f"unknown strategy {text!r}; expected one of {names}, or {files}"
    )


def find_loops(
    trs: Trs,
    depth: int = 5,
    max_size: int = 80,
    start: Term | None = None,
) -> tuple[LoopCertificate, ...]:
    """Breadth-first search for loop certificates.

    From each start term (every rule's left-hand side unless one is given),
    explore rewrites up to the depth, and whenever a hit term s contains an
    instance of the start at position p, emit the certificate closing with
    context s[p <- hole] and the matching substitution; that context is
    Context(s, p), which never builds s[p <- hole].  Rewriting and
    matching commute with variable renaming, so a start that is a variant of
    an earlier one would only yield renamed copies: it is skipped.  Each term
    is explored once per start, so a derivation that returns to a term
    already reached, the start included, is not reported.

    Each explored term carries its redexes and its start matches in preorder,
    which is tuple order on positions.  For s2 = s[q <- c], hits parallel to
    q are kept, the strict prefixes of q are rechecked, and only the
    contractum c is scanned.  Terms are hash-consed, so facts about a term
    are kept in dicts keyed on the term itself that live for one call: the
    redexes of each contractum and the rules matching at each node, once per
    search, and the start instances of each contractum and each node, once
    per start.  The contractum of each (redex, rule index) pair and the term
    after each (term, step) pair are kept in the one map that validate_loop
    shares.  The walk to the redex checks a step's position, and rewrite_at
    its redex; s2 = s[q <- c] is then stored under (s, step), so a
    certificate's replay finds each of its steps there.  A rewrite whose
    result would exceed max_size is dropped before s2 is built.

    A rewrite whose result can never again contain an instance of the start
    t0 is dropped too.  Say g produces h when a rule whose left-hand side has
    root g has h in its right-hand side, and let F be the symbols that
    produce t0's root f in zero or more steps.  A term s with no F-symbol
    reaches only such terms: a rewrite at a g-rooted redex, g not in F,
    brings in only symbols that g produces, none of them in F, and keeps the
    rest from s.  An instance of t0 has root f, so no certificate comes from
    s.  Each frontier term carries its count of F-nodes, cnt(s[q <- c]) =
    cnt(s) - cnt(s|q) + cnt(c), with the count of each redex and contractum
    kept once per start; a step whose result counts 0 is dropped before s2
    is built.  A variable start is never pruned: there every node counts.

    Contracting two parallel redexes in either order reaches one term, and
    sleep sets (partial-order reduction) skip the second order.  Write x[q']
    for x with its redex at q' contracted by the step's rule.  Each explored
    term x carries a set Z(x) of (position, rule index) steps that its
    expansion skips.  For x = s[q], Z(x) holds each step (q', r') of s with
    q' parallel to q that sleeps in Z(s) or was tried before (q, r) in s's
    redex order, provided s[q'] stays within max_size.

    Invariant: for each (q', r') in Z(x), x[q'] exceeds max_size, holds no
    F-symbol (and then neither does any term reached from it), or is reached
    before x is expanded, so skipping the step loses no certificate and
    changes no path or order.  Proof, by induction on the order of
    expansion, which is the order in which terms are first reached.  s[q']
    is within max_size.  If it holds no F-symbol, neither does x[q'] =
    s[q'][q], which is reached from it.  Otherwise it was reached before x:
    when s tried (q', r') before (q, r), or, if (q', r') sleeps in Z(s),
    before s was expanded, by the invariant for s.  So s[q'] is expanded
    before x.  Its redex at q is the one s has, since q and q' are parallel,
    so there the step (q, r) either is tried, reaching s[q'][q] = x[q'] or
    dropping it as too large or free of F-symbols, or sleeps in Z(s[q']),
    where the invariant for s[q'] covers it.  The size proviso is needed: if
    s[q'] exceeds max_size, x[q'] may not, and then no earlier term reaches
    it.  A step whose result holds no F-symbol still sleeps in the children,
    so the sleep sets are those of the search without that drop.
    """
    starts: list[Term] = []
    keys = set()
    for t0 in trs.lhss() if start is None else (start,):
        # Symbols in preorder, variables numbered by first occurrence: arities
        # are fixed by the one signature, so variants and only they share a key.
        names: dict[str, int] = {}
        key = tuple(
            u.symbol if u.__class__ is Application else names.setdefault(u.name, len(names))
            for _, u in subterms(t0)
        )
        if key not in keys:
            keys.add(key)
            starts.append(t0)
    by_root = trs.rules_by_root
    producers = trs.producers
    found: list[LoopCertificate] = []
    replayed: dict = {}  # steps and contracta shared by the search and every replay
    redexes_in: dict[Term, tuple[tuple[Position, int], ...]] = {}
    rules_at: dict[Term, tuple[int, ...]] = {}
    for t0 in starts:
        root = t0.symbol if isinstance(t0, Application) else None
        instance_at: dict[Term, Substitution | None] = {}

        def instances(pairs) -> list[tuple[Position, Substitution]]:
            out = []
            for p, u in pairs:
                try:
                    mu = instance_at[u]
                except KeyError:
                    mu = instance_at[u] = (
                        match_pattern(t0, u)
                        if root is None or getattr(u, "symbol", None) == root
                        else None
                    )
                if mu is not None:
                    out.append((p, mu))
            return out

        if root is None:
            f_count = term_size  # every node counts: never prune
        else:
            # F: the symbols that produce root in zero or more steps.
            producing = {root}
            todo = [root]
            while todo:
                more = producers.get(todo.pop(), frozenset()) - producing
                producing |= more
                todo += more
            counts: dict[Term, int] = {}

            def f_count(u: Term) -> int:
                n = counts.get(u)
                if n is None:
                    n, stack = 0, [u]
                    while stack:
                        v = stack.pop()
                        if v.__class__ is Application:
                            n += v.symbol in producing
                            stack += v.args
                    counts[u] = n
                return n

        instances_in: dict[Term, list[tuple[Position, Substitution]]] = {}
        frontier = [(t0, (), redex_positions(t0, trs), instances(subterms(t0)), {}, f_count(t0))]
        visited = {t0}
        for level in range(depth):
            if not frontier:
                break
            expand = level < depth - 1
            nxt = []
            for s, path, redexes, hits, asleep, n in frontier:
                # Steps tried or asleep here whose result stays within max_size,
                # with the size change of each.
                tried = [(step, d) for step, d in asleep.items() if s._size + d <= max_size]
                for step in redexes:
                    if step in asleep:
                        continue
                    q, ri = step
                    redex = subterm_at(s, q)
                    key = (redex, ri)
                    c = replayed.get(key)
                    if c is None:
                        c = replayed[key] = rewrite_at(redex, (), trs.rules[ri])
                    d = c._size - redex._size
                    if s._size + d > max_size:
                        continue
                    tried.append((step, d))
                    n2 = n - f_count(redex) + f_count(c)
                    if not n2:
                        continue
                    one = (step,)
                    s2 = replayed.get((s, one))
                    if s2 is None:
                        s2 = replayed[s, one] = replace_at(s, q, c)
                    if s2 in visited:
                        continue
                    visited.add(s2)
                    path2 = path + (one,)
                    spine = []
                    v = s2
                    for k, i in enumerate(q):
                        spine.append((q[:k], v))
                        v = v.args[i - 1]
                    inside = instances_in.get(c)
                    if inside is None:
                        inside = instances_in[c] = instances(subterms(c))
                    hits2 = [h for h in hits if are_parallel(h[0], q)]
                    hits2 += instances(spine)
                    hits2 += [(q + p, mu) for p, mu in inside]
                    hits2.sort(key=itemgetter(0))
                    for p, mu in hits2:
                        cert = LoopCertificate(t0, path2, Context(s2, p), mu)
                        validate_loop(trs, cert, replayed)
                        found.append(cert)
                    if expand:
                        # Sorting is stable, so each position keeps rule order.
                        redexes2 = [r for r in redexes if are_parallel(r[0], q)]
                        inner = redexes_in.get(c)
                        if inner is None:
                            inner = redexes_in[c] = redex_positions(c, trs)
                        redexes2 += [(q + p, i) for p, i in inner]
                        for p, u in spine:
                            rules = rules_at.get(u)
                            if rules is None:
                                rules = rules_at[u] = tuple(
                                    i
                                    for i, rule in by_root.get(u.symbol, ())
                                    if match_pattern(rule.lhs, u) is not None
                                )
                            redexes2 += [(p, i) for i in rules]
                        redexes2.sort(key=itemgetter(0))
                        asleep2 = {r: e for r, e in tried if are_parallel(r[0], q)}
                        nxt.append((s2, path2, redexes2, hits2, asleep2, n2))
            frontier = nxt
    return tuple(found)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """A nonnegative integer option value, in ASCII digits only: int() would
    also read '1_0' as 10, '+2' as 2, ' 3' and '\u0663' (Arabic-Indic) as 3."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if digits != text:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="loopcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a loop certificate under a strategy")
    check.add_argument("--trs", required=True, help="rewrite system file")
    check.add_argument("--loop", required=True, help="loop certificate JSON file")
    check.add_argument("--strategy", required=True, help="strategy name or encoding")
    check.add_argument("--bound", type=_count, help="ignored: no problem needs a bound")
    check.add_argument("--format", choices=["text", "json"], default="text")
    check.set_defaults(func=cmd_check)

    find = sub.add_parser("find", help="search a system for loop certificates")
    find.add_argument("--trs", required=True, help="rewrite system file")
    find.add_argument("--depth", type=_count, default=5, help="search depth in steps")
    find.add_argument("--max-size", type=_count, default=80, help="largest term explored")
    find.add_argument("--start", default=None, help="start term (default: each lhs)")
    find.set_defaults(func=cmd_find)
    return parser


def cmd_check(args) -> int:
    trs = parse_trs(read_input(args.trs))
    cert = parse_loop_certificate(read_input(args.loop), trs)
    loop = validate_loop(trs, cert)
    spec = resolve_strategy(args.strategy, trs)
    verdict = decide_loop(trs, loop, spec)
    sys.stdout.write(render_verdict(verdict, args.format))
    return EXIT_BY_ANSWER[verdict.answer]


def cmd_find(args) -> int:
    trs = parse_trs(read_input(args.trs))
    start = parse_term(args.start, trs) if args.start is not None else None
    loops = find_loops(trs, depth=args.depth, max_size=args.max_size, start=start)
    sys.stdout.write(certificates_to_json(loops))
    return 0 if loops else 1


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except (LoopcertError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except UnicodeDecodeError as e:
        print(f"error: input is not UTF-8 text: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception:
        # A crash must never read as an answer: exit 1 means "refuted".
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
