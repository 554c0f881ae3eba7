"""Command-line interface.

    loopcert check --trs sys.trs --loop loop.json --strategy leftmost
    loopcert find --trs sys.trs --depth 6 --start "fact(x,y)"

check exits 0 when the certificate is a loop under the strategy, 1 when it
is refuted, 2 when undecided at the bound, 3 on invalid input.  find exits
0 when it discovers at least one loop, 1 when none, 3 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

from .deciders import (
    STRATEGY_NAMES,
    DeciderConfig,
    StrategySpec,
    decide_loop,
)
from .errors import LoopcertError
from .formats import (
    certificate_to_document,
    parse_loop_certificate,
    parse_patterns,
    parse_replacement_map,
    parse_term,
    parse_trs,
    render_verdict,
)
from .loops import LoopCertificate, validate_loop
from .problems import Solvable  # noqa: F401  (re-exported for scripting)
from .rewriting import (
    ContextSensitive,
    QRestricted,
    Trs,
    builtin_patterns,
    match_pattern,
    redex_positions,
    rewrite_at,
)
from .terms import (
    Application,
    Context,
    HOLE,
    Substitution,
    Term,
    Variable,
    replace_at,
    subterms,
    term_size,
)

EXIT_BY_ANSWER = {"yes": 0, "no": 1, "unknown": 2}
EXIT_INVALID = 3


def resolve_strategy(text: str, trs: Trs) -> StrategySpec:
    """Turn a --strategy argument into a decidable strategy."""
    if text in STRATEGY_NAMES - {"forbidden"}:
        return StrategySpec(text)
    if text.startswith("forbidden:"):
        path = text[len("forbidden:"):]
        patterns = parse_patterns(Path(path).read_text(), trs)
        return StrategySpec("forbidden", patterns, label=text)
    if text.startswith("context-sensitive:"):
        path = text[len("context-sensitive:"):]
        mapping = parse_replacement_map(Path(path).read_text(), trs)
        patterns = builtin_patterns(ContextSensitive.from_map(mapping), trs)
        return StrategySpec("forbidden", patterns, label=text)
    if text.startswith("q-restricted:"):
        path = text[len("q-restricted:"):]
        qtrs = parse_trs(Path(path).read_text())
        patterns = builtin_patterns(QRestricted(qtrs.lhss()), trs)
        return StrategySpec("forbidden", patterns, label=text)
    names = ", ".join(sorted(STRATEGY_NAMES - {"forbidden"}))
    raise LoopcertError(
        f"unknown strategy {text!r}; expected one of {names}, or"
        " forbidden:<file>, context-sensitive:<file>, q-restricted:<file>"
    )


def _canonical_certificate_key(cert: LoopCertificate):
    """Certificates that differ only by variable names share one key."""
    order: list[str] = []

    def note(t: Term):
        if isinstance(t, Variable):
            if t.name not in order:
                order.append(t.name)
        else:
            for a in t.args:
                note(a)

    note(cert.start)
    note(cert.context.body)
    for x, _ in cert.subst.items():
        if x not in order:
            order.append(x)
    rename = {name: f"v{i}" for i, name in enumerate(order)}

    def rn(t: Term) -> Term:
        if isinstance(t, Variable):
            return Variable(rename.get(t.name, t.name))
        return Application(t.symbol, tuple(rn(a) for a in t.args))

    return (
        str(rn(cert.start)),
        cert.steps,
        str(rn(cert.context.body)),
        tuple(
            sorted((rename.get(x, x), str(rn(u))) for x, u in cert.subst.items())
        ),
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
    context s[p <- hole] and the matching substitution.
    """
    if start is not None:
        starts: list[Term] = [start]
    else:
        starts = []
        for rule in trs.rules:
            if rule.lhs not in starts:
                starts.append(rule.lhs)
    found: list[LoopCertificate] = []
    seen = set()
    for t0 in starts:
        root = t0.symbol if isinstance(t0, Application) else None
        frontier: list[tuple[Term, tuple]] = [(t0, ())]
        visited = {t0}
        for _ in range(depth):
            nxt: list[tuple[Term, tuple]] = []
            for s, path in frontier:
                for q, ri in redex_positions(s, trs):
                    s2 = rewrite_at(s, q, trs.rules[ri])
                    if term_size(s2) > max_size or s2 in visited:
                        continue
                    visited.add(s2)
                    path2 = path + ((q, ri),)
                    nxt.append((s2, path2))
                    for p, sub in subterms(s2):
                        if root is not None and getattr(sub, "symbol", None) != root:
                            continue
                        mu = match_pattern(t0, sub)
                        if mu is None:
                            continue
                        cert = LoopCertificate(
                            t0,
                            tuple((pair,) for pair in path2),
                            Context(replace_at(s2, p, HOLE), p),
                            mu,
                        )
                        validate_loop(trs, cert)
                        key = _canonical_certificate_key(cert)
                        if key not in seen:
                            seen.add(key)
                            found.append(cert)
            frontier = nxt
    return tuple(found)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """A nonnegative integer option value."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="loopcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a loop certificate under a strategy")
    check.add_argument("--trs", required=True, help="rewrite system file")
    check.add_argument("--loop", required=True, help="loop certificate JSON file")
    check.add_argument("--strategy", required=True, help="strategy name or encoding")
    check.add_argument("--bound", type=_count, default=64, help="solver exponent bound")
    check.add_argument(
        "--unroll",
        type=_count,
        default=None,
        help="cap for the concrete-violation search (default: witness-derived)",
    )
    check.add_argument("--format", choices=["text", "json"], default="text")
    check.set_defaults(func=cmd_check)

    find = sub.add_parser("find", help="search a system for loop certificates")
    find.add_argument("--trs", required=True, help="rewrite system file")
    find.add_argument("--depth", type=_count, default=5, help="search depth in steps")
    find.add_argument("--max-size", type=_count, default=80, help="largest term explored")
    find.add_argument("--start", default=None, help="start term (default: each lhs)")
    find.add_argument("--format", choices=["json"], default="json")
    find.set_defaults(func=cmd_find)
    return parser


def cmd_check(args) -> int:
    trs = parse_trs(Path(args.trs).read_text())
    cert = parse_loop_certificate(Path(args.loop).read_text(), trs)
    loop = validate_loop(trs, cert)
    spec = resolve_strategy(args.strategy, trs)
    verdict = decide_loop(
        trs, loop, spec, DeciderConfig(bound=args.bound, unroll=args.unroll)
    )
    sys.stdout.write(render_verdict(verdict, args.format))
    return EXIT_BY_ANSWER[verdict.answer]


def cmd_find(args) -> int:
    trs = parse_trs(Path(args.trs).read_text())
    start = parse_term(args.start, trs) if args.start is not None else None
    loops = find_loops(trs, depth=args.depth, max_size=args.max_size, start=start)
    docs = [certificate_to_document(c) for c in loops]
    sys.stdout.write(json.dumps(docs, sort_keys=True, indent=2) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
