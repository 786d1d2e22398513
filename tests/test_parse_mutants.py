"""Parse robustness: seeded mutants (delete, insert, swap) of every fixture
trace, spec and program either parse or raise their format's error class."""

import random
import re

import pytest

from lifeguard.interp import ProgramError, parse_program
from lifeguard.messages import TraceError, parse_trace
from lifeguard.rules import SpecError, parse_spec

from conftest import FIXTURES

PARSERS = {
    ".trace": (parse_trace, TraceError),
    ".ls": (parse_spec, SpecError),
    ".ll": (parse_program, ProgramError),
}
# Characters and fragments that some format gives a meaning to.
INSERTS = ['"', "\\", '\\"', "\\\\", "#", "(", ")", ",", ";", ":", "=", "-", ">", "*", "!",
           "[", "]", " ", "\t", "\n", "x", "7", "dis ", "ret ", "unit = ", "->", "-/>", "=>",
           "a#1:T", '"a"']
# Words that some format reserves; a word swapped for one of them keeps the
# line's shape but can break its grammar (``ci f()`` -> ``ciret f()``).
KEYWORDS = ["cb", "ci", "cbret", "ciret", "dis", "unit", "true", "TRUE", "eps", "forall",
            "let", "in", "if", "then", "bind", "invoke", "thk", "app", "fwk"]
PER_FIXTURE = 300


def mutant(text: str, rng: random.Random) -> str:
    """text after one to three random edits: a character deleted, a
    fragment inserted, two characters swapped, or a word replaced by a
    keyword."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        i, j = sorted(rng.randrange(len(text)) for _ in range(2))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(INSERTS) + text[i:]
        elif op == 2 and i < j:
            text = text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]
        elif op == 3:
            word = rng.choice(list(re.finditer(r"\w+", text)))
            text = text[:word.start()] + rng.choice(KEYWORDS) + text[word.end():]
    return text


@pytest.mark.parametrize("path", sorted(p for p in FIXTURES.iterdir() if p.suffix in PARSERS),
                         ids=lambda p: p.name)
def test_mutants_parse_or_raise_their_format_error(path):
    parse, error = PARSERS[path.suffix]
    original = path.read_text()
    rng = random.Random(path.name)
    for _ in range(PER_FIXTURE):
        text = mutant(original, rng)
        try:
            parse(text)
        except error:
            pass
        except Exception as e:
            pytest.fail(f"{type(e).__name__}: {e} on mutant {text!r}")
