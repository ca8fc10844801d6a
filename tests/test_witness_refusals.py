"""Refusal positions of the witness reader, pinned on mutated witnesses.

brick_r1.txt and three more ``cover build`` outputs are mutated on a few
seeded subset lines.  On each such line every mutation below is applied
to one seeded number of the line (its family index, its subset index or
one of its point indices), and the result is parsed: a refusal is
recorded as "line: message", a parse as "ok" followed by the subset
count of each family.  A message longer than 120 characters (a
5,000-digit numeral) is pinned by its length, its head and its sha256.

Run this file as a script to rewrite the golden file.
"""

import hashlib
import random
import re
import sys

from conftest import GOLDEN

from asdimlab.coarse import WitnessFormatError, brick_cover, format_witness, parse_witness

GOLDEN_FILE = GOLDEN / "witness_refusals.txt"

# name -> witness text: the golden brick file and three builds, one with
# no family 0 line
WITNESSES = {
    "brick_r1.txt": (GOLDEN / "brick_r1.txt").read_text(encoding="utf-8"),
    "build 2 3 9": format_witness(brick_cover(2, 3, 9)),
    "build 3 1 3": format_witness(brick_cover(3, 1, 3)),
    "build 1 1 40": format_witness(brick_cover(1, 1, 40)),
}

LINES_PER_WITNESS = 4

# Every character str.splitlines breaks a line at, less "\n".
LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_NUMBER = re.compile(r"[0-9]+")


def _huge(rng: random.Random) -> str:
    return rng.choice("123456789") + "".join(rng.choice("0123456789") for _ in range(4999))


# Each mutation of the number line[s:e] on a line of the n-point space,
# whose other numbers are others: its tag and the new line.
MUTATIONS = (
    ("letter", lambda line, s, e, rng, n, others: _insert(line, rng.randint(s, e), rng.choice("aZx"))),
    ("sign", lambda line, s, e, rng, n, others: _insert(line, s, rng.choice("+-"))),
    ("zero", lambda line, s, e, rng, n, others: _insert(line, s, "0")),
    ("empty", lambda line, s, e, rng, n, others: line[:s] + line[e:]),
    ("comma", lambda line, s, e, rng, n, others: line + ","),
    ("range", lambda line, s, e, rng, n, others: line[:s] + str(n + rng.randrange(3)) + line[e:]),
    ("duplicate", lambda line, s, e, rng, n, others: line[:s] + rng.choice(others) + line[e:]
     if others else line + "," + line[s:e]),
    ("huge", lambda line, s, e, rng, n, others: line[:s] + _huge(rng) + line[e:]),
    ("space", lambda line, s, e, rng, n, others: _insert(line, rng.randint(s, e), " ")),
    ("break", lambda line, s, e, rng, n, others: _insert(line, rng.randint(s, e), rng.choice(LINE_BREAKS))),
)


def _insert(line: str, at: int, text: str) -> str:
    return line[:at] + text + line[at:]


def outcome(text: str) -> str:
    try:
        witness = parse_witness(text)
    except WitnessFormatError as exc:
        message = exc.message
        if len(message) > 120:
            digest = hashlib.sha256(message.encode()).hexdigest()[:16]
            message = f"{message[:60]}... ({len(message)} chars, sha256 {digest})"
        return f"{exc.line}: {message}"
    return "ok " + " ".join(str(len(family)) for family in witness.families)


def golden_lines() -> list[str]:
    out = []
    for name, text in WITNESSES.items():
        out.append(f"[{name}] {outcome(text)}")
        lines = text.split("\n")[:-1]
        n = len(parse_witness(text).space)
        rng = random.Random(name)
        for k in sorted(rng.sample(range(4, len(lines)), min(LINES_PER_WITNESS, len(lines) - 4))):
            line = lines[k]
            spans = [m.span() for m in _NUMBER.finditer(line)]
            for tag, mutate in MUTATIONS:
                pick = rng.randrange(len(spans))
                s, e = spans[pick]
                others = [line[a:b] for a, b in spans[2:] if (a, b) != (s, e)]
                mutated = mutate(line, s, e, rng, n, others)
                body = "".join(x + "\n" for x in lines[:k] + [mutated] + lines[k + 1 :])
                out.append(f"{k + 1} {tag}@{pick}: {outcome(body)}")
    return out


def test_witness_refusals_match_the_golden():
    want = GOLDEN_FILE.read_text(encoding="utf-8").split("\n")[:-1]
    got = golden_lines()
    assert len(got) == len(want)
    mismatches = [(w, g) for w, g in zip(want, got) if w != g]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    GOLDEN_FILE.write_text("".join(line + "\n" for line in golden_lines()), encoding="utf-8")
    sys.exit(0)
