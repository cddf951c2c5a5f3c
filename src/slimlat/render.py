"""Rendering built lattices: DOT, SVG and TikZ.

Coordinates are exact rationals, which a built lattice computes on the
first read of its `coords` by replaying its construction recipes (grids
on integer diagonals, fork legs on unit slopes, tube feet at leg
crossings); nothing is drawn, nor computed, before a render or a slope
check asks.  A slope validator enforces the drawing discipline: every
edge has slope +-1 except edges whose foot is an internal meet-irreducible
element, which are strictly steeper.  Renders are presentation only; no
predicate consumes coordinates.
"""

from __future__ import annotations

import re

from .errors import InternalInconsistencyError, ParseError
from .order import Poset


def _internal_mir(pl):
    """Feet of the internal neon tubes: the internal meet-irreducibles."""
    return {e.foot for e in pl.diagram.neon_tubes()[1]}


def validate_slopes(pl):
    """Check the normal/precipitous edge discipline; raises on violation.

    In u = y + x and v = y - x an edge ascends iff du + dv > 0; it is
    normal iff min(du, dv) = 0 and steep iff min(du, dv) > 0.  So a
    sound edge is decided by comparisons alone.
    """
    internal_mir = _internal_mir(pl)
    uv = {u: (y + x, y - x) for u, (x, y) in pl.coords.items()}
    for foot, peak in sorted(pl.lattice.poset.covers):
        (uf, vf), (up, vp) = uv[foot], uv[peak]
        if up < uf or vp < vf or (up == uf and vp == vf):
            fault = "does not ascend" if up + vp <= uf + vf else "has a slight slope"
            raise InternalInconsistencyError(f"edge ({foot},{peak}) {fault}")
        if (up > uf and vp > vf) != (foot in internal_mir):
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
    internal_mir = _internal_mir(pl)
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
    internal_mir = _internal_mir(pl)
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
