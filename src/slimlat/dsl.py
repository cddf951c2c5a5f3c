"""Line-oriented construction recipes.

Grammar ('#' starts a comment, blank lines ignored, tokens separated by
any whitespace):

    file     := gridLine forkLine*
    gridLine := "grid" INT INT
    forkLine := "fork" INT INT INT        # a b k
    INT      := "-"? [0-9]+               # ASCII digits only

Canonical emission uses single spaces and '\n' line ends.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .multifork import ForkStep, MultiforkSequence


def _tokenize(line):
    """(token, 1-based column) pairs, comments stripped."""
    if "#" in line:
        line = line[: line.index("#")]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


_INT = re.compile(r"-?[0-9]+")  # int() would also take '+1', '1_0' and non-ASCII digits


def _int_token(tok, col, lineno, minimum):
    if not _INT.fullmatch(tok):
        raise ParseError(f"expected an integer, got {tok!r}", lineno, col)
    value = int(tok)
    if value < minimum:
        raise ParseError(f"integer {value} below minimum {minimum}", lineno, col)
    return value


def parse_dsl(text):
    grid_dims = None
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line)
        if not tokens:
            continue
        word, col = tokens[0]
        if word == "grid":
            if grid_dims is not None:
                raise ParseError("duplicate grid line", lineno, col)
            if steps:
                raise ParseError("grid must come first", lineno, col)
            if len(tokens) != 3:
                raise ParseError("grid takes exactly two integers", lineno, col)
            p = _int_token(tokens[1][0], tokens[1][1], lineno, 1)
            q = _int_token(tokens[2][0], tokens[2][1], lineno, 1)
            grid_dims = (p, q)
        elif word == "fork":
            if grid_dims is None:
                raise ParseError("grid must come first", lineno, col)
            if len(tokens) != 4:
                raise ParseError("fork takes exactly three integers", lineno, col)
            a = _int_token(tokens[1][0], tokens[1][1], lineno, 0)
            b = _int_token(tokens[2][0], tokens[2][1], lineno, 0)
            k = _int_token(tokens[3][0], tokens[3][1], lineno, 1)
            steps.append(ForkStep(a, b, k))
        else:
            raise ParseError(f"unknown directive {word!r}", lineno, col)
    if grid_dims is None:
        raise ParseError("empty input: grid line required", 1, 1)
    return MultiforkSequence(grid_dims[0], grid_dims[1], tuple(steps))


def emit_dsl(seq):
    lines = [f"grid {seq.grid_p} {seq.grid_q}"]
    lines.extend(f"fork {s.a} {s.b} {s.k}" for s in seq.steps)
    return "\n".join(lines) + "\n"
