import copy
from fractions import Fraction

import pytest

from slimlat.dsl import parse_dsl
from slimlat.errors import InternalInconsistencyError
from slimlat.multifork import build, grid, multifork_extend
from slimlat.render import parse_dot, render, render_dot, validate_slopes


def test_grid_slopes_all_normal():
    pl = grid(3, 2)
    assert validate_slopes(pl)
    # no internal meet-irreducibles, so every edge is normal
    for a, b in pl.lattice.poset.covers:
        (fx, fy), (px, py) = pl.coords[a], pl.coords[b]
        assert abs(px - fx) == py - fy


def test_s7_has_exactly_one_precipitous_edge():
    pl = multifork_extend(grid(1, 1), (0, 0), 1)
    steep = [
        (a, b)
        for a, b in pl.lattice.poset.covers
        if abs(pl.coords[b][0] - pl.coords[a][0]) < pl.coords[b][1] - pl.coords[a][1]
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
])
def test_slope_validator_names_a_planted_fault(top, fault):
    """grid(1, 1) has bottom (0, 0), corners (-1, 1) and (1, 1) and top
    (0, 2); moving the top breaks the edges into it."""
    pl = copy.copy(grid(1, 1))
    pl.coords = dict(pl.coords)
    pl.coords[pl.lattice.top] = top
    with pytest.raises(InternalInconsistencyError, match=f"^edge \\(\\d+,{pl.lattice.top}\\) {fault}$"):
        validate_slopes(pl)


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
