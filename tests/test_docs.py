"""The README's library section names only what the package exports."""

import re
from pathlib import Path

import loopcert

README = Path(__file__).parent.parent / "README.md"
# An inline code span that names code: a dotted identifier, maybe called.
CODE_NAME = re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?")


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    return text[start : text.index("\n## ", start + 1)]


def documented_names(section: str) -> list[str]:
    fences = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    names = [
        name.strip()
        for block in fences
        for imported in re.findall(r"from loopcert import \((.*?)\)", block, flags=re.S)
        for name in imported.split(",")
        if name.strip()
    ]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        m = CODE_NAME.fullmatch(span)
        if m:
            names.append(m.group(1))
    return names


def resolves(dotted: str) -> bool:
    obj = loopcert
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_library_names_are_attributes_of_loopcert():
    names = documented_names(library_section())
    assert {"decide_loop", "solve_problem", "apply_context_substitution"} <= set(names)
    assert [name for name in names if not resolves(name)] == []
