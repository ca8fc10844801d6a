"""Refusal positions of the DSL parser, pinned on mutated fixtures.

Every fixture, good or bad, is mutated token by token in eight fixed ways, and each
result is parsed: a refusal is recorded as "line:col: message", a parse as
"ok" followed by the position of each decomposition graph (``pos`` does
not take part in ``==``, so no round-trip test sees it).  The tokens are
found by a regular expression of this module, not by the parser.

Run this file as a script to rewrite the golden file.
"""

import re
import sys

from conftest import FIXTURES, GOLDEN

from asdimlab.manifolds import DecompGraph, ManifoldParseError, parse_manifold

GOLDEN_FILE = GOLDEN / "refusal_positions.txt"

FIXTURE_FILES = (
    sorted(FIXTURES.glob("*.mfd"))
    + sorted((FIXTURES / "dim4").glob("*.mfd"))
    + sorted((FIXTURES / "dim3").glob("*.mfd"))
    + sorted((FIXTURES / "bad").glob("*.mfd"))
)

_TOKEN = re.compile(r"--[^\n]*|[;{}#]|[A-Za-z0-9_~]+")

# Each mutation of the token text[start:end]: its tag and the new text.
MUTATIONS = (
    ("del", lambda t, s, e: t[:s] + t[e:]),
    ("semi", lambda t, s, e: t[:s] + ";" + t[e:]),
    ("char", lambda t, s, e: t[:s] + "é" + t[e:]),
    ("keyword", lambda t, s, e: t[:s] + "v" + t[e:]),
    ("cut", lambda t, s, e: t[:e]),
    # end of input after a trailing comment sits at the comment
    ("cut-comment", lambda t, s, e: t[:e] + " -- cut here"),
    # an unexpected character is refused before any grammar error
    ("del-char-at-end", lambda t, s, e: t[:s] + t[e:] + "\né"),
)


def outcome(text: str) -> str:
    try:
        desc = parse_manifold(text)
    except ManifoldParseError as exc:
        return f"{exc.line}:{exc.col}: {exc.message}"
    graphs = [f" {s.name}@{s.pos[0]}:{s.pos[1]}" for s in desc.summands if isinstance(s, DecompGraph)]
    return "ok" + "".join(graphs)


def swapped(text: str, first: tuple[int, int], second: tuple[int, int]) -> str:
    (a, b), (c, d) = first, second
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def golden_lines() -> list[str]:
    lines = []
    for path in FIXTURE_FILES:
        name = path.relative_to(FIXTURES).as_posix()
        text = path.read_text(encoding="utf-8")
        lines.append(f"[{name}] {outcome(text)}")
        tokens = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("--")]
        for i, (start, end) in enumerate(tokens):
            for tag, mutate in MUTATIONS:
                lines.append(f"{i} {tag}: {outcome(mutate(text, start, end))}")
            if i + 1 < len(tokens):
                lines.append(f"{i} swap: {outcome(swapped(text, tokens[i], tokens[i + 1]))}")
    return lines


def test_refusal_positions_match_the_golden():
    want = GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    mismatches = [(w, g) for w, g in zip(want, got) if w != g]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    GOLDEN_FILE.write_text("".join(line + "\n" for line in golden_lines()), encoding="utf-8")
    sys.exit(0)
