"""The scanner against a reference that splits the text into lines and scans
each line with its own regular expression, as the scanner did before it
scanned the whole text in one pass.  The token texts, the line and column of
every token and of the end of the input, and the first error must agree."""

import random
import re

import pytest

from lfhh.lf_syntax import _PUNCT, LfSyntaxError, _Parser

LF_PUNCT = ("{", "}", "[", "]", "(", ")", ":", ".", "->")


def reference_scan(text, punct):
    """[(token, line, col)] ending with ("", line, col) just past the input,
    or ("error", message, line, col) at the first character that starts no
    token.  Imports nothing but `re`."""
    alts = "|".join(re.escape(p) for p in sorted(punct, key=len, reverse=True))
    pattern = re.compile(rf"((?:[ \t\r]+|%.*)*)(?:(\w[\w']*)|({alts})|(.))?")
    toks = []
    for line, chars in enumerate(text.split("\n"), 1):
        col = 1
        for skip, ident, mark, other in pattern.findall(chars):
            col += len(skip)
            if mark:
                toks.append((mark, line, col))
                col += len(mark)
            elif ident and (ident[0].isalpha() or ident[0] == "_"):
                toks.append((ident, line, col))
                col += len(ident)
            elif ident or other:
                return ("error", f"unexpected character {(ident or other)[0]!r}", line, col)
    toks.append(("", line, col))
    return toks


def scan(text):
    """What the scanner makes of `text`, in the reference's form."""
    try:
        c = _Parser(text)
    except LfSyntaxError as e:
        return ("error", e.message, e.line, e.col)
    n = c.toks.index("") + 1  # the end of the input may match twice
    assert all(t == "" for t in c.toks[n:])
    out = []
    for i, t in enumerate(c.toks[:n]):
        e = c.error("", i)
        out.append((t, e.line, e.col))
    return out


# identifiers (with primes, non-ASCII letters and digits), tokens starting
# with a digit (ASCII, Arabic-Indic, superscript, Roman numeral), every mark
# and parts of them, marks LF lacks (`=>`, `\`), characters it rejects
# (`\x0b` and `\xa0` are not whitespace here), line breaks, tabs and comments
PIECES = (
    "a", "nat", "x'", "a'b", "_", "_y", "é", "ßx", "αβ", "Ω1", "éa", "x٣", "type", "X",
    "9", "1x", "٣", "²", "Ⅷ", "½",
    "{", "}", "[", "]", "(", ")", ":", ".", "->", "=>", "\\", "-", ">", "=", "'",
    "\x0b", "\xa0", "\x0c", "\u2028", "#", "!",
    " ", "  ", "\t", "\n", "\r\n", "\r", "%", "% c -> x\n", "%% é\n", "% end",
)

BAD = frozenset(("9", "1x", "٣", "²", "Ⅷ", "½", "'", "\x0b", "\xa0", "\x0c", "\u2028", "#", "!", "=", "-", ">"))


def random_texts(rng, count):
    out = []
    for _ in range(count):
        pieces = [rng.choice(PIECES) for _ in range(rng.randint(0, 14))]
        if rng.random() < 0.7:
            # mostly scannable, so that positions after many tokens are checked
            pieces = [p for p in pieces if p not in BAD] or pieces
        sep = rng.choice(("", " ", " ", "\n", "\r\n", "\t"))
        text = sep.join(pieces)
        if rng.random() < 0.2:
            text += rng.choice(("% trailing", "%", "\n% last\n", " \t", "\r\n"))
        out.append(text)
    return out


@pytest.mark.parametrize("punct", [LF_PUNCT], ids=["lf"])
def test_scanner_agrees_with_the_per_line_reference(punct):
    assert _PUNCT == frozenset(punct)
    rng = random.Random(17017)
    texts = random_texts(rng, 3000) + [
        "",
        "%",
        "a : type.\r\nb : a.\r\n",
        "a\t:\ttype.\t% tab\n\tb",
        "a : type. % the end",
        "x' -> y'' => \\z. z",
        "1abc",
        "a\x0bb",
        "a\xa0b",
        "é : type.\nß : é -> é.",
        "x² : a.",
        "% only\n% comments",
    ]
    errors = ok = 0
    for text in texts:
        want = reference_scan(text, punct)
        assert scan(text) == want, repr(text)
        errors += want[0] == "error"
        ok += want[0] != "error" and len(want) > 3
    assert errors >= 500 and ok >= 400


def test_trailing_comment_is_not_scanned_as_tokens():
    # a scanner that must find a token after every skip would restart inside
    # the comment and return its words
    assert _Parser("a : type. % b c -> d").toks[:5] == ["a", ":", "type", ".", ""]
    assert _Parser("a.\n% {x:a} b\n").toks[:3] == ["a", ".", ""]
