import copy
import sys
from fractions import Fraction
from math import lcm

import pytest

from slimlat.doubling import double
from slimlat.dsl import emit_dsl, parse_dsl
from slimlat.errors import InternalInconsistencyError
from slimlat.explore import enumerate_index
from slimlat.multifork import build, grid, multifork_extend
from slimlat.render import _checked_points, parse_dot, render, render_dot, validate_slopes

from oracles import svg_by_fractions, tikz_by_fractions, validate_slopes_by_fractions

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
    ((EPS, 2), "breaks the precipitous-foot rule"),
    ((0, 2 + EPS), "breaks the precipitous-foot rule"),
    ((-EPS, 2), "has a slight slope"),
    ((0, 2 - EPS), "has a slight slope"),
])
def test_slope_validator_names_a_planted_fault(top, fault):
    """grid(1, 1) has bottom 0 at (0, 0), corners 2 at (-1, 1) and 1 at
    (1, 1) and top 3 at (0, 2); moving the top breaks the edge (1, 3), the
    first edge into it.  The fault names the sequence that replays it."""
    pl = copy.copy(grid(1, 1))
    pl.coords = dict(pl.coords)
    pl.coords[pl.lattice.top] = top
    with pytest.raises(InternalInconsistencyError) as info:
        validate_slopes(pl)
    assert str(info.value) == (f"edge (1,3) {fault}; `slimlat render --render-format svg`"
                               " replays it on\ngrid 1 1\n")


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
    assert (fine.n, _checked_points(fine)[0]) == (162, 11025)
    for pl in doubles + [build(parse_dsl(LARGE)), fine]:
        assert validate_slopes(pl) and validate_slopes_by_fractions(pl)
        assert render(pl, "svg") == svg_by_fractions(pl)
        assert render(pl, "tikz") == tikz_by_fractions(pl)
    faults = set()
    for u in range(fine.n):
        for dx, dy in [(Fraction(1, 3), 0), (0, Fraction(-1, 7))]:
            pl = copy.copy(fine)
            x, y = fine.coords[u]
            pl.coords = {**fine.coords, u: (x + dx, y + dy)}
            verdict = _verdict(validate_slopes, pl)
            assert verdict == _verdict(validate_slopes_by_fractions, pl)
            faults.add(verdict if verdict is True else verdict.split(") ")[1])
    assert faults == {"does not ascend", "has a slight slope",
                      "breaks the precipitous-foot rule"}


def test_each_render_scales_the_points_once(monkeypatch):
    """A render draws the points that its slope check scaled: one lcm of
    the denominators per call, on the lattice with denominator 11025."""
    pl = build(parse_dsl(FINE))
    calls = []

    def counting_lcm(*args):
        calls.append(len(args))
        return lcm(*args)

    # the package binds the name `render` to the function, so the module is
    # taken from sys.modules
    monkeypatch.setattr(sys.modules["slimlat.render"], "lcm", counting_lcm)
    for fmt in ("svg", "tikz"):
        calls.clear()
        render(pl, fmt)
        assert len(calls) == 1, fmt
    assert validate_slopes(pl) is True


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
