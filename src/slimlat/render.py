"""Rendering built lattices: DOT, SVG and TikZ.

Coordinates are exact rationals assigned while replaying the construction
(grids on integer diagonals, fork legs on unit slopes, tube feet at leg
crossings).  A slope validator enforces the drawing discipline: every
edge has slope +-1 except edges whose foot is an internal meet-irreducible
element, which are strictly steeper.  Renders are presentation only; no
predicate consumes coordinates.
"""

from __future__ import annotations

import re

from .errors import InternalInconsistencyError, ParseError
from .order import Poset


def validate_slopes(pl):
    """Check the normal/precipitous edge discipline; raises on violation."""
    d = pl.diagram
    lat = d.lattice
    bnd = d.boundary()
    internal_mir = {f for f in lat.mir() if f not in bnd}
    for foot, peak in sorted(lat.poset.covers):
        fx, fy = pl.coords[foot]
        px, py = pl.coords[peak]
        dx, dy = px - fx, py - fy
        if dy <= 0:
            raise InternalInconsistencyError(f"edge ({foot},{peak}) does not ascend")
        steep = abs(dx) < dy
        normal = abs(dx) == dy
        if not (steep or normal):
            raise InternalInconsistencyError(
                f"edge ({foot},{peak}) has a slight slope"
            )
        if steep != (foot in internal_mir):
            raise InternalInconsistencyError(
                f"edge ({foot},{peak}) breaks the precipitous-foot rule"
            )
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


def _decimal(x, places=6):
    return f"{float(x):.{places}f}".rstrip("0").rstrip(".") or "0"


def render_svg(pl, scale=40, margin=30):
    validate_slopes(pl)
    xs = [c[0] for c in pl.coords.values()]
    ys = [c[1] for c in pl.coords.values()]
    minx, maxy = min(xs), max(ys)
    pts = []
    for u in range(pl.n):
        x, y = pl.coords[u]
        pts.append((float((x - minx) * scale) + margin, float((maxy - y) * scale) + margin))
    width = float((max(xs) - minx) * scale) + 2 * margin
    height = float((maxy - min(ys)) * scale) + 2 * margin
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_decimal(width)}" '
        f'height="{_decimal(height)}" viewBox="0 0 {_decimal(width)} {_decimal(height)}">'
    ]
    bnd = pl.diagram.boundary()
    internal_mir = {f for f in pl.lattice.mir() if f not in bnd}
    for a, b in sorted(pl.lattice.poset.covers):
        (x1, y1), (x2, y2) = pts[a], pts[b]
        w = 3 if a in internal_mir else 1
        out.append(
            f'<line x1="{_decimal(x1)}" y1="{_decimal(y1)}" x2="{_decimal(x2)}" '
            f'y2="{_decimal(y2)}" stroke="black" stroke-width="{w}"/>'
        )
    for u in range(pl.n):
        x, y = pts[u]
        out.append(f'<circle cx="{_decimal(x)}" cy="{_decimal(y)}" r="4" fill="black"/>')
        out.append(
            f'<text x="{_decimal(x + 6)}" y="{_decimal(y - 6)}" font-size="10">{u}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_tikz(pl):
    validate_slopes(pl)
    out = ["\\begin{tikzpicture}[scale=0.8]"]
    for u in range(pl.n):
        x, y = pl.coords[u]
        out.append(
            f"  \\node[circle,fill,inner sep=1.2pt,label=above right:{{\\tiny {u}}}] "
            f"(n{u}) at ({_decimal(x)},{_decimal(y)}) {{}};"
        )
    bnd = pl.diagram.boundary()
    internal_mir = {f for f in pl.lattice.mir() if f not in bnd}
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
