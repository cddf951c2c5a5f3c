import copy
import sys
from fractions import Fraction
from functools import cached_property
from math import lcm

import pytest

from slimlat.diagram import PlanarDiagram
from slimlat.doubling import double
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import InternalInconsistencyError
from slimlat.explore import enumerate_index
from slimlat.multifork import ProvenancedLattice, build, grid, multifork_extend
from slimlat.render import parse_dot, render, render_dot, validate_slopes

from oracles import coords_of, svg_by_fractions, tikz_by_fractions, validate_slopes_by_fractions

# a shift below float resolution: a check that rounds to floats misses it
EPS = Fraction(1, 10**30)

# n = 162, common denominator 3^2 * 5^2 * 7^2 = 11025
FINE = "grid 2 1\nfork 1 0 2\nfork 2 0 4\nfork 0 0 6\nfork 4 0 4\nfork 0 1 6\nfork 3 1 2\n"
# the shape of the benchmark's large lattices: a grid and three forks, n = 106
LARGE = "grid 7 6\nfork 5 0 2\nfork 3 4 1\nfork 1 7 2\n"


def test_grid_slopes_all_normal():
    pl = grid(3, 2)
    assert validate_slopes(pl)
    # no internal meet-irreducibles, so every edge is normal
    coords = coords_of(pl)
    for a, b in pl.lattice.poset.covers:
        (fx, fy), (px, py) = coords[a], coords[b]
        assert abs(px - fx) == py - fy


def test_s7_has_exactly_one_precipitous_edge():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    coords = coords_of(pl)
    steep = [
        (a, b)
        for a, b in pl.lattice.poset.covers
        if abs(coords[b][0] - coords[a][0]) < coords[b][1] - coords[a][1]
    ]
    assert len(steep) == 1
    assert validate_slopes(pl)


def test_slope_validator_passes_on_fixtures():
    for text in [
        "grid 1 1\nfork 0 0 3",
        "grid 2 2\nfork 1 1 2\nfork 0 0 1",
        "grid 1 1\nfork 0 0 3\nfork 2 0 1",
        "grid 3 1\nfork 2 0 1\nfork 0 0 1",
    ]:
        assert validate_slopes(build(parse_dsl(text)))


@pytest.mark.parametrize("top, fault", [
    ((0, 1), "does not ascend"),
    ((0, Fraction(3, 2)), "has a slight slope"),
    ((0, 3), "breaks the precipitous-foot rule"),
    ((Fraction(1, 2), Fraction(5, 2)), "breaks the precipitous-foot rule"),
    ((EPS, 2), "breaks the precipitous-foot rule"),
    ((0, 2 + EPS), "breaks the precipitous-foot rule"),
    ((-EPS, 2), "has a slight slope"),
    ((0, 2 - EPS), "has a slight slope"),
])
def test_slope_validator_names_a_planted_fault(top, fault):
    """grid(1, 1) has bottom 0 at (0, 0), corners 2 at (-1, 1) and 1 at
    (1, 1) and top 3 at (0, 2); moving the top breaks the edge (1, 3), the
    first edge into it.  The fault names the sequence that replays it."""
    pl = grid(1, 1)
    pl = _planted(pl, {**coords_of(pl), pl.lattice.top: top})
    text = (f"edge (1,3) {fault}; `slimlat render --render-format svg`"
            " replays it on\ngrid 1 1\n")
    # a failed check keeps nothing, so it raises on every call
    for check in (validate_slopes, validate_slopes, lambda pl: render(pl, "svg")):
        with pytest.raises(InternalInconsistencyError) as info:
            check(pl)
        assert str(info.value) == text
    assert "_drawing" not in vars(pl)
    # the Fraction reference reads the same plant off the points
    assert _verdict(validate_slopes_by_fractions, pl) == f"edge (1,3) {fault}"


def _planted(pl, coords):
    """A copy of pl that keeps no checked drawing, drawn at coords, an
    element -> (x, y) map of rationals: its points are ints over their
    common denominator."""
    den = lcm(*(Fraction(c).denominator for xy in coords.values() for c in xy))
    pl = copy.copy(pl)
    vars(pl).pop("_drawing", None)
    pl.points = (den, [int(coords[u][0] * den) for u in range(pl.n)],
                 [int(coords[u][1] * den) for u in range(pl.n)])
    return pl


REPLAYS = "; `slimlat render --render-format svg` replays it on\n"


def _verdict(check, pl):
    """True, or the fault text: a production fault without the sequence
    that replays it, which it names last."""
    try:
        return check(pl)
    except InternalInconsistencyError as e:
        text, replays, seq = str(e).partition(REPLAYS)
        assert not replays or seq == emit_dsl(pl.seq)
        return text


def test_integer_kernel_matches_the_fraction_reference():
    """Same slope verdict and byte-identical SVG and TikZ as the Fraction
    arithmetic, on the 182 doublings of the lattices of length <= 6 (the
    lattices themselves are in golden.json), one lattice of the
    benchmark's large shape and one with common denominator 11025; on the
    last, also with each element moved off its place."""
    entries = enumerate_index(6).entries()
    doubles = [build(double(e.seq, step)[0])
               for e in entries for step in range(1, len(e.seq.steps) + 1)]
    assert len(doubles) == 182
    fine = build(parse_dsl(FINE))
    assert (fine.n, fine.points[0]) == (162, 11025)
    for pl in doubles + [build(parse_dsl(LARGE)), fine]:
        assert validate_slopes(pl) and validate_slopes_by_fractions(pl)
        assert render(pl, "svg") == svg_by_fractions(pl)
        assert render(pl, "tikz") == tikz_by_fractions(pl)
    faults, coords = set(), coords_of(fine)
    for u in range(fine.n):
        for dx, dy in [(Fraction(1, 3), 0), (0, Fraction(-1, 7))]:
            x, y = coords[u]
            pl = _planted(fine, {**coords, u: (x + dx, y + dy)})
            verdict = _verdict(validate_slopes, pl)
            assert verdict == _verdict(validate_slopes_by_fractions, pl)
            faults.add(verdict if verdict is True else verdict.split(") ")[1])
    assert faults == {"does not ascend", "has a slight slope",
                      "breaks the precipitous-foot rule"}


def test_a_lattice_replays_and_checks_its_drawing_once(monkeypatch):
    """svg, tikz and validate_slopes on one lattice, the one with
    denominator 11025, replay its recipes once and check its slopes once:
    the lattice keeps the checked drawing that the first call derived."""
    pl = build(parse_dsl(FINE))
    calls = []
    points = ProvenancedLattice.points.func
    # the package binds the name `render` to the function, so the module is
    # taken from sys.modules
    module = sys.modules["slimlat.render"]
    checked = module._checked_drawing

    def counted_points(pl):
        calls.append("points")
        return points(pl)

    def counted_check(*args):
        calls.append("check")
        return checked(*args)

    counted = cached_property(counted_points)
    counted.__set_name__(ProvenancedLattice, "points")
    monkeypatch.setattr(ProvenancedLattice, "points", counted)
    monkeypatch.setattr(module, "_checked_drawing", counted_check)
    svg, tikz = render(pl, "svg"), render(pl, "tikz")
    assert validate_slopes(pl) is True
    assert calls == ["points", "check"]
    assert (svg, tikz) == (svg_by_fractions(pl), tikz_by_fractions(pl))


def test_a_bare_diagram_draws_its_own_covers(tmp_path):
    """A bare diagram, here the mirror image of each lattice of length
    <= 6, is drawn in its own ids: the DOT of `slimlat render` on its
    lattice JSON lists exactly its covers, and its svg and tikz draw its
    covers at the points of the door's lattice, relabelled through the
    points (hl, hr) that both share, after the slope check on its own
    covers."""
    from slimlat.cli import main
    from slimlat.multifork import decompose

    for entry in enumerate_index(6).entries():
        d = entry.pl.diagram.mirror()
        path, out = tmp_path / "m.json", tmp_path / "m.dot"
        path.write_text(d.to_json())
        assert main(["render", "--input", str(path), "--format", "json",
                     "--render-format", "dot", "--out", str(out)]) == 0
        assert parse_dot(out.read_text()) == d.lattice.poset
        assert validate_slopes(d) is True
        # ids[u]: the element of d at the point (hl, hr) of the door build's u
        pl = build(decompose(d))
        at = {point: x for x, point in enumerate(zip(*d.heights()[:2]))}
        ids = [at[point] for point in zip(*pl.diagram.heights()[:2])]
        svg = render(d, "svg")
        assert svg.count("<line") == len(d.lattice.poset.covers)
        den, xs, ys = d._drawing[:3]
        assert den == pl.points[0]
        assert [(xs[ids[u]], ys[ids[u]]) for u in range(pl.n)] == list(zip(*pl.points[1:]))
        assert render(d, "tikz").count("\\draw") == len(d.lattice.poset.covers)
        # lattice JSON read back keeps the built lattice's ids and drawing
        same = PlanarDiagram.from_json(entry.pl.diagram.to_json())
        assert render(same, "svg") == render(entry.pl, "svg")


def test_dot_roundtrip():
    pl = build(parse_dsl("grid 2 2\nfork 1 1 2"))
    poset = parse_dot(render_dot(pl))
    assert poset == pl.lattice.poset


def test_svg_and_tikz_emit():
    pl = multifork_extend(grid(1, 1), (0, 0), 2)
    svg = render(pl, "svg")
    assert svg.startswith("<svg") and svg.count("<circle") == pl.n
    tikz = render(pl, "tikz")
    assert "tikzpicture" in tikz and tikz.count("\\node") == pl.n


def test_unknown_format():
    from slimlat.errors import ParseError
    with pytest.raises(ParseError):
        render(grid(1, 1), "png")
