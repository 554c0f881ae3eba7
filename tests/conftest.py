"""Shared fixtures: the worked rewrite systems and loops under tests/data."""

from pathlib import Path

import pytest

from genlib import golden_find_systems
from loopcert import (
    ForbiddenPattern,
    Trs,
    ValidatedLoop,
    find_loops,
    parse_loop_certificate,
    parse_patterns,
    parse_trs,
    validate_loop,
)

DATA = Path(__file__).parent / "data"


def load_trs(name: str) -> Trs:
    return parse_trs((DATA / name).read_text())


def load_loop(trs: Trs, name: str) -> ValidatedLoop:
    cert = parse_loop_certificate((DATA / name).read_text(), trs)
    return validate_loop(trs, cert)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def factorial() -> Trs:
    return load_trs("factorial.trs")


@pytest.fixture(scope="session")
def factorial_loop(factorial: Trs) -> ValidatedLoop:
    """Five sequential steps closing with C = times([], s(x)), mu = {x/s(x)}."""
    return load_loop(factorial, "factorial_loop.json")


@pytest.fixture(scope="session")
def factorial_inner_loop(factorial: Trs) -> ValidatedLoop:
    """The variant that stays inside the if-condition; innermost but not outermost."""
    return load_loop(factorial, "factorial_inner_loop.json")


@pytest.fixture(scope="session")
def factorial_par_inner_loop(factorial: Trs) -> ValidatedLoop:
    """One parallel step firing five redexes at once."""
    return load_loop(factorial, "factorial_par_inner_loop.json")


@pytest.fixture(scope="session")
def factorial_par_outer_loop(factorial: Trs) -> ValidatedLoop:
    """Two steps: the five-redex parallel step followed by the root step."""
    return load_loop(factorial, "factorial_par_outer_loop.json")


@pytest.fixture(scope="session")
def collapse() -> Trs:
    return load_trs("collapse.trs")


@pytest.fixture(scope="session")
def collapse_loop(collapse: Trs) -> ValidatedLoop:
    """Closing substitution needs two steps before g(x,y) collapses to a redex."""
    return load_loop(collapse, "collapse_loop.json")


@pytest.fixture(scope="session")
def shift() -> Trs:
    return load_trs("shift.trs")


@pytest.fixture(scope="session")
def shift_loop(shift: Trs) -> ValidatedLoop:
    """mu cycles three variables, so the refuting exponent is 9."""
    return load_loop(shift, "shift_loop.json")


@pytest.fixture(scope="session")
def stream() -> Trs:
    return load_trs("stream.trs")


@pytest.fixture(scope="session")
def stream_loop(stream: Trs) -> ValidatedLoop:
    return load_loop(stream, "stream_loop.json")


@pytest.fixture(scope="session")
def stream_patterns(stream: Trs) -> tuple[ForbiddenPattern, ...]:
    return parse_patterns((DATA / "stream_patterns.txt").read_text(), stream)


@pytest.fixture(scope="session")
def growing() -> Trs:
    return load_trs("growing.trs")


@pytest.fixture(scope="session")
def growing_loop(growing: Trs) -> ValidatedLoop:
    """Divergent identity problem; the honest answer stays unknown."""
    return load_loop(growing, "growing_loop.json")


@pytest.fixture(scope="session")
def corpus(
    factorial,
    factorial_loop,
    factorial_inner_loop,
    factorial_par_inner_loop,
    factorial_par_outer_loop,
    collapse,
    collapse_loop,
    shift,
    shift_loop,
    stream,
    stream_loop,
    growing,
    growing_loop,
) -> tuple[tuple[Trs, ValidatedLoop], ...]:
    """Every validated loop of the file corpus, paired with its system."""
    return (
        (factorial, factorial_loop),
        (factorial, factorial_inner_loop),
        (factorial, factorial_par_inner_loop),
        (factorial, factorial_par_outer_loop),
        (collapse, collapse_loop),
        (shift, shift_loop),
        (stream, stream_loop),
        (growing, growing_loop),
    )


@pytest.fixture(scope="session")
def find_outputs() -> list:
    """(name, trs, certificates) of find on every system under tests/data at
    depth 10, and on the seeded random systems golden_find.json pins."""
    out = []
    for path in sorted(DATA.glob("*.trs")):
        trs = parse_trs(path.read_text())
        out.append((path.name, trs, find_loops(trs, depth=10)))
    for seed, trs, depth in golden_find_systems():
        out.append((f"random {seed}", trs, find_loops(trs, depth=depth)))
    return out
