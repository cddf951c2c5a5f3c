"""Rendering built lattices and bare diagrams: DOT, SVG and TikZ.

A built lattice's drawing is integer points over one common denominator,
replayed from its construction recipes on first read
(ProvenancedLattice.points).  A slope validator enforces the drawing
discipline: every edge has slope +-1 except edges whose foot is an
internal meet-irreducible element, which are strictly steeper.  It
compares ints once per lattice: the lattice keeps the checked drawing,
as a diagram keeps its validation report, and SVG, TikZ and
validate_slopes read it; a failed check keeps nothing.  A bare diagram
keeps its door lattice's drawing, in its own ids (multifork.reprovenance).
A drawn number is `int / den`, which Python rounds correctly, as it does
`float(Fraction)`.  No predicate consumes coordinates.
"""

from __future__ import annotations

import re

from .dsl import emit_dsl
from .errors import InternalInconsistencyError, ParseError
from .order import Poset


def _checked_drawing(d, den, xs, ys, seq):
    """(den, xs, ys, internal_mir) once d's covers pass the slope check at
    the points (xs[u] / den, ys[u] / den).  In u = y + x and v = y - x an
    edge ascends iff du + dv > 0, is normal iff min(du, dv) = 0 and steep
    iff min(du, dv) > 0: int comparisons decide it.  internal_mir holds
    the internal meet-irreducibles; a fault names seq, which replays it."""
    internal_mir = {e.foot for e in d.neon_tubes()[1]}
    us = [y + x for x, y in zip(xs, ys)]
    vs = [y - x for x, y in zip(xs, ys)]
    for foot, peak in sorted(d.lattice.poset.covers):
        uf, vf, up, vp = us[foot], vs[foot], us[peak], vs[peak]
        if up < uf or vp < vf or (up == uf and vp == vf):
            fault = "does not ascend" if up + vp <= uf + vf else "has a slight slope"
        elif (up > uf and vp > vf) != (foot in internal_mir):
            fault = "breaks the precipitous-foot rule"
        else:
            continue
        raise InternalInconsistencyError(
            f"edge ({foot},{peak}) {fault}; `slimlat render --render-format svg`"
            f" replays it on\n{emit_dsl(seq)}")
    return den, xs, ys, internal_mir


def validate_slopes(obj):
    """Check and keep the drawing of a built lattice or a bare diagram once."""
    obj._drawing
    return True


def render_dot(obj):
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for u in range(obj.n):
        lines.append(f'  n{u} [label="{u}"];')
    for a, b in sorted(obj.lattice.poset.covers):
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


def _decimals(values, place):
    """The texts _decimal(place(v)) of the ints values, each distinct value
    placed and formatted once: a drawing repeats its few coordinates."""
    text = {v: _decimal(place(v)) for v in set(values)}
    return [text[v] for v in values]


def render_svg(obj):
    """SVG with y pointing down.  Each distinct coordinate and label offset
    is formatted once, and the lines reuse the point's text."""
    den, xs, ys, internal_mir = obj._drawing
    minx, maxy = min(xs), max(ys)

    def fx(x):
        return (x - minx) * _SCALE / den + _MARGIN

    def fy(y):
        return (maxy - y) * _SCALE / den + _MARGIN

    sx, sy = _decimals(xs, fx), _decimals(ys, fy)
    tx, ty = _decimals(xs, lambda x: fx(x) + 6), _decimals(ys, lambda y: fy(y) - 6)
    width = _decimal((max(xs) - minx) * _SCALE / den + 2 * _MARGIN)
    height = _decimal((maxy - min(ys)) * _SCALE / den + 2 * _MARGIN)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for a, b in sorted(obj.lattice.poset.covers):
        w = 3 if a in internal_mir else 1
        out.append(
            f'<line x1="{sx[a]}" y1="{sy[a]}" x2="{sx[b]}" '
            f'y2="{sy[b]}" stroke="black" stroke-width="{w}"/>'
        )
    for u in range(obj.n):
        out.append(f'<circle cx="{sx[u]}" cy="{sy[u]}" r="4" fill="black"/>')
        out.append(f'<text x="{tx[u]}" y="{ty[u]}" font-size="10">{u}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_tikz(obj):
    den, xs, ys, internal_mir = obj._drawing
    out = ["\\begin{tikzpicture}[scale=0.8]"]
    at = zip(_decimals(xs, lambda x: x / den), _decimals(ys, lambda y: y / den))
    for u, (x, y) in enumerate(at):
        out.append(
            f"  \\node[circle,fill,inner sep=1.2pt,label=above right:{{\\tiny {u}}}] "
            f"(n{u}) at ({x},{y}) {{}};"
        )
    for a, b in sorted(obj.lattice.poset.covers):
        style = "very thick" if a in internal_mir else "thin"
        out.append(f"  \\draw[{style}] (n{a}) -- (n{b});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render(obj, fmt):
    """DOT, SVG or TikZ of a built lattice or a bare diagram, in its own ids."""
    if fmt == "dot":
        return render_dot(obj)
    if fmt == "svg":
        return render_svg(obj)
    if fmt == "tikz":
        return render_tikz(obj)
    raise ParseError(f"unknown render format {fmt!r}")
