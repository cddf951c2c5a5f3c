"""Rendering built lattices: DOT, SVG and TikZ.

Coordinates are exact rationals, which a built lattice computes on the
first read of its `coords` by replaying its construction recipes (grids
on integer diagonals, fork legs on unit slopes, tube feet at leg
crossings); nothing is drawn, nor computed, before a render or a slope
check asks.  A slope validator enforces the drawing discipline: every
edge has slope +-1 except edges whose foot is an internal meet-irreducible
element, which are strictly steeper.  Renders are presentation only; no
predicate consumes coordinates.

The validator and the SVG/TikZ renderers compute on integers: each call
reads `coords` once, scales every coordinate to an int over the lcm of
all denominators and checks the slopes on these ints, which order
exactly as the rationals do (`_checked_points`); a render draws the
points the check returns, so it scales them once.  A drawn number is
`int / den`; Python rounds an int true division correctly, as it does
`float(Fraction)`, so the output bytes are those of the Fraction
arithmetic the integers replace.
"""

from __future__ import annotations

import re
from math import lcm

from .dsl import emit_dsl
from .errors import InternalInconsistencyError, ParseError
from .order import Poset


def _checked_points(pl):
    """(den, xs, ys, internal_mir) after checking the normal/precipitous
    edge discipline; raises on violation.  den is the lcm of the
    denominators of all drawing coordinates, element u lies at
    (xs[u] / den, ys[u] / den), and internal_mir holds the feet of the
    internal neon tubes: the internal meet-irreducibles.

    In u = y + x and v = y - x an edge ascends iff du + dv > 0; it is
    normal iff min(du, dv) = 0 and steep iff min(du, dv) > 0.  So a
    sound edge is decided by comparisons alone, and these run on the
    scaled coordinates: exact ints, in the same order as the rationals,
    so no rounding can hide a fault, which names pl's sequence.
    """
    internal_mir = {e.foot for e in pl.diagram.neon_tubes()[1]}
    coords = pl.coords
    pts = [coords[u] for u in range(pl.n)]
    den = lcm(*{c.denominator for xy in pts for c in xy})
    xs = [x.numerator * (den // x.denominator) for x, _ in pts]
    ys = [y.numerator * (den // y.denominator) for _, y in pts]
    us = [y + x for x, y in zip(xs, ys)]
    vs = [y - x for x, y in zip(xs, ys)]
    for foot, peak in sorted(pl.lattice.poset.covers):
        uf, vf, up, vp = us[foot], vs[foot], us[peak], vs[peak]
        if up < uf or vp < vf or (up == uf and vp == vf):
            fault = "does not ascend" if up + vp <= uf + vf else "has a slight slope"
        elif (up > uf and vp > vf) != (foot in internal_mir):
            fault = "breaks the precipitous-foot rule"
        else:
            continue
        raise InternalInconsistencyError(
            f"edge ({foot},{peak}) {fault}; `slimlat render --render-format svg`"
            f" replays it on\n{emit_dsl(pl.seq)}")
    return den, xs, ys, internal_mir


def validate_slopes(pl):
    """Check the normal/precipitous edge discipline (_checked_points);
    raises on violation."""
    _checked_points(pl)
    return True


def render_dot(pl):
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for u in range(pl.n):
        lines.append(f'  n{u} [label="{u}"];')
    for a, b in sorted(pl.lattice.poset.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text):
    """Covers back out of our own DOT output (round-trip check)."""
    nodes = set()
    covers = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        m = re.fullmatch(r"n(\d+) -> n(\d+);", line)
        if m:
            covers.add((int(m.group(1)), int(m.group(2))))
            continue
        m = re.fullmatch(r"n(\d+) \[label=\"(\d+)\"\];", line)
        if m:
            nodes.add(int(m.group(1)))
            continue
        if line in ("digraph lattice {", "rankdir=BT;", "}", ""):
            continue
        raise ParseError(f"unrecognized DOT line: {line!r}", lineno, 1)
    n = max(nodes) + 1 if nodes else 0
    return Poset(n, covers)


# SVG pixels per unit (an int, so scaled points stay exact), margin, places
_SCALE, _MARGIN, _PLACES = 40, 30, 6


def _decimal(x):
    return f"{x:.{_PLACES}f}".rstrip("0").rstrip(".") or "0"


def render_svg(pl):
    """SVG with y pointing down.  Each point is formatted once, and its
    lines reuse the text."""
    den, xs, ys, internal_mir = _checked_points(pl)
    minx, maxy = min(xs), max(ys)
    fx = [(x - minx) * _SCALE / den + _MARGIN for x in xs]
    fy = [(maxy - y) * _SCALE / den + _MARGIN for y in ys]
    sx, sy = [_decimal(x) for x in fx], [_decimal(y) for y in fy]
    width = _decimal((max(xs) - minx) * _SCALE / den + 2 * _MARGIN)
    height = _decimal((maxy - min(ys)) * _SCALE / den + 2 * _MARGIN)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for a, b in sorted(pl.lattice.poset.covers):
        w = 3 if a in internal_mir else 1
        out.append(
            f'<line x1="{sx[a]}" y1="{sy[a]}" x2="{sx[b]}" '
            f'y2="{sy[b]}" stroke="black" stroke-width="{w}"/>'
        )
    for u in range(pl.n):
        out.append(f'<circle cx="{sx[u]}" cy="{sy[u]}" r="4" fill="black"/>')
        out.append(
            f'<text x="{_decimal(fx[u] + 6)}" y="{_decimal(fy[u] - 6)}" font-size="10">{u}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_tikz(pl):
    den, xs, ys, internal_mir = _checked_points(pl)
    out = ["\\begin{tikzpicture}[scale=0.8]"]
    for u, (x, y) in enumerate(zip(xs, ys)):
        out.append(
            f"  \\node[circle,fill,inner sep=1.2pt,label=above right:{{\\tiny {u}}}] "
            f"(n{u}) at ({_decimal(x / den)},{_decimal(y / den)}) {{}};"
        )
    for a, b in sorted(pl.lattice.poset.covers):
        style = "very thick" if a in internal_mir else "thin"
        out.append(f"  \\draw[{style}] (n{a}) -- (n{b});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render(pl, fmt):
    if fmt == "dot":
        return render_dot(pl)
    if fmt == "svg":
        return render_svg(pl)
    if fmt == "tikz":
        return render_tikz(pl)
    raise ParseError(f"unknown render format {fmt!r}")
