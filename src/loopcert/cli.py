"""Command-line interface.

    loopcert check --trs sys.trs --loop loop.json --strategy leftmost
    loopcert find --trs sys.trs --depth 6 --start "fact(x,y)"

check exits 0 when the certificate is a loop under the strategy, 1 when it
is refuted, 2 when undecided (an extended problem reached the exponent
bound, or a problem reached the size or depth limit), 3 on invalid input.
find exits 0 when it discovers at least one loop, 1 when none, 3 on
invalid input.  Both exit 4 on an internal error, with the traceback on
stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .deciders import STRATEGIES, DeciderConfig, StrategySpec, decide_loop
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
    HOLE,
    Position,
    Substitution,
    Term,
    Variable,
    are_parallel,
    replace_at,
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
    "q-restricted:": lambda text, trs: innermost_patterns(parse_trs(text).lhss()),
}


def resolve_strategy(text: str, trs: Trs) -> StrategySpec:
    """Turn a --strategy argument into a decidable strategy."""
    if text in STRATEGIES and text != "forbidden":
        return StrategySpec(text)
    for prefix, patterns_from in _PATTERN_SOURCES.items():
        if text.startswith(prefix):
            patterns = patterns_from(Path(text[len(prefix):]).read_text(), trs)
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
    context s[p <- hole] and the matching substitution.  Rewriting and
    matching commute with variable renaming, so a start that is a variant of
    an earlier one would only yield renamed copies: it is skipped.

    Each explored term carries its redexes and its start matches in preorder,
    which is tuple order on positions.  For s2 = s[q <- c], hits parallel to
    q are kept, the strict prefixes of q are rechecked, and only the
    contractum c is scanned.
    """
    starts: list[Term] = []
    keys = set()
    for t0 in trs.lhss() if start is None else (start,):
        # Variables renamed by first occurrence: variants share one key.
        names = dict.fromkeys(u.name for _, u in subterms(t0) if isinstance(u, Variable))
        rename = {x: Variable(f"v{i}") for i, x in enumerate(names)}
        key = Substitution(rename).apply(t0)
        if key not in keys:
            keys.add(key)
            starts.append(t0)
    by_root = trs.rules_by_root
    found: list[LoopCertificate] = []
    replayed: dict = {}  # replays shared by every certificate of the search
    for t0 in starts:
        root = t0.symbol if isinstance(t0, Application) else None

        def instances(pairs, at: Position = ()) -> list[tuple[Position, Substitution]]:
            out = []
            for p, sub in pairs:
                if root is None or getattr(sub, "symbol", None) == root:
                    mu = match_pattern(t0, sub)
                    if mu is not None:
                        out.append((at + p, mu))
            return out

        frontier = [(t0, (), redex_positions(t0, trs), instances(subterms(t0)))]
        visited = {t0}
        for level in range(depth):
            expand = level < depth - 1
            nxt = []
            for s, path, redexes, hits in frontier:
                for q, ri in redexes:
                    s2 = rewrite_at(s, q, trs.rules[ri])
                    if term_size(s2) > max_size or s2 in visited:
                        continue
                    visited.add(s2)
                    path2 = path + ((q, ri),)
                    spine = []
                    c = s2
                    for k, i in enumerate(q):
                        spine.append((q[:k], c))
                        c = c.args[i - 1]
                    hits2 = [h for h in hits if are_parallel(h[0], q)]
                    hits2 += instances(spine) + instances(subterms(c), q)
                    hits2.sort(key=itemgetter(0))
                    steps = tuple((pair,) for pair in path2)
                    for p, mu in hits2:
                        cert = LoopCertificate(
                            t0, steps, Context(replace_at(s2, p, HOLE), p), mu
                        )
                        validate_loop(trs, cert, replayed)
                        found.append(cert)
                    if expand:
                        # Sorting is stable, so each position keeps rule order.
                        redexes2 = [r for r in redexes if are_parallel(r[0], q)]
                        redexes2 += [(q + p, i) for p, i in redex_positions(c, trs)]
                        redexes2 += [
                            (p, i)
                            for p, u in spine
                            for i, rule in by_root.get(u.symbol, ())
                            if match_pattern(rule.lhs, u) is not None
                        ]
                        redexes2.sort(key=itemgetter(0))
                        nxt.append((s2, path2, redexes2, hits2))
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
    check.add_argument(
        "--bound",
        type=_count,
        default=DeciderConfig.bound,
        help="cap on the context exponent m of extended problems",
    )
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
    trs = parse_trs(Path(args.trs).read_text())
    cert = parse_loop_certificate(Path(args.loop).read_text(), trs)
    loop = validate_loop(trs, cert)
    spec = resolve_strategy(args.strategy, trs)
    verdict = decide_loop(trs, loop, spec, DeciderConfig(bound=args.bound))
    sys.stdout.write(render_verdict(verdict, args.format))
    return EXIT_BY_ANSWER[verdict.answer]


def cmd_find(args) -> int:
    trs = parse_trs(Path(args.trs).read_text())
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
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_INVALID
    except Exception:
        # A crash must never read as an answer: exit 1 means "refuted".
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
