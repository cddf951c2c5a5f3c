"""Doubling a non-maximal element of the lamp poset.

Given a sequence and a step index t, produce a sequence whose lattice has
the original lamp poset with step t's lamp doubled and exactly two extra
neon tubes: replace step t, a k-fold fork at (a, b), by a 2-fold fork at
(a, b) followed by a k-fold fork at (a + 1, b), and move every later step
to the cell where the two trajectories that crossed in its original cell
cross.  The new sequence is read off the fork rule with no lattice walked,
and its J(Con L) is compared by lamp place, with no isomorphism search.

Label the trajectories of a lattice and list the labels twice: by the
left-chain edge where each starts and by the right-chain edge where each
ends, both from the bottom; the Jordan-Holder permutation pairs the two
lists.  The cell whose bottom has address (a, b) is the crossing of left
label a + 1 and right label b + 1: its lower left side descends to the
left-chain edge a + 1 and its lower right side to the right-chain edge
b + 1 (_forked_permutation), and a trajectory crosses a cell through
opposite sides, so the trajectories of the two lower sides cross there.
A cell is fixed by its bottom's address, so the two labels name it.  A
fork keeps every old trajectory with its two ends, renumbered: it
crosses each subdivided edge on its lowest piece and passes through the
same neon tube, which no fork subdivides (a tube's foot has one upper
cover).  So a fork inserts its k new labels into both lists and keeps
the old ones in order (diagram._forked_labels), a label names one tube
for good, and a later step's cell is named, in any sequence that makes
the same trajectories, by its two labels.  The doubled sequence makes
them all: its forks before t are the input's, and step t's k-fold fork
takes step t's labels.  After the 2-fold fork at (a, b), the new lamp's
left tube sits on a cell whose bottom is the lower of the two points
that subdivide the forked cell's lower left side; the fork put that
point on its left path one subdivision up from the cell's bottom, so at
left height a + 1 and the bottom's right height b: the anchor is
(a + 1, b), the crossing of the fork's first new label with right label
b + 1.  The tests compare the result with the geometric relocation,
trajectories walked and crossed on built stages, for every step of every
lattice of length <= 8.

The same loop (_relabelled) serves the removals, which drop one label
of a fork instead (reduce._removed_sequence).
"""

from __future__ import annotations

from .diagram import _forked_labels
from .dsl import emit_dsl
from .errors import InternalInconsistencyError, PreconditionError
from .lamps import _con_by_place
from .multifork import ForkStep, MultiforkSequence, _sequence_lamp_poset, build
from .order import poset_double


def _relabelled(seq, t, edit):
    """seq with step t replaced by the forks, ((a, b), labels) pairs, that
    edit(a, b, step t's labels) lists, and every other step moved to the
    crossing of its two labels (module docstring); `seq` must build.  The
    input's lists (`old`) and the new sequence's (`new`) share the grid's
    labels, 0..n - 1 by left-chain edge, and each step's that the edit
    keeps.  A label missing from `new` stands for the nearest kept one
    below it, so each step forks after the same kept labels in both."""
    p, q = seq.grid_p, seq.grid_q
    old = new = (list(range(p + q)), [*range(p, p + q), *range(p)])
    fresh = p + q
    steps = []
    for s, st in enumerate(seq.steps, 1):
        labels = list(range(fresh, fresh + st.k))
        fresh += st.k
        a, b = _kept_place(old[0], new[0], st.a), _kept_place(old[1], new[1], st.b)
        for address, kept in edit(a, b, labels) if s == t else [((a, b), labels)]:
            new = _forked_labels(*new, address, kept)
            steps.append(ForkStep(*address, len(kept)))
        old = _forked_labels(*old, (st.a, st.b), labels)
    return MultiforkSequence(p, q, tuple(steps))


def _kept_place(old, new, i):
    """The place in `new` of old[i], or of the nearest label below it that
    `new` kept; a fork puts its labels above place 0, so one is kept."""
    while old[i] not in new:
        i -= 1
    return new.index(old[i])


def _doubled_sequence(seq, t):
    """The input's forks with step t doubled (module docstring): a 2-fold
    fork, labels -1 and -2, and step t's own fork above it."""
    return _relabelled(seq, t, lambda a, b, labels: [((a, b), [-1, -2]), ((a + 1, b), labels)])


def double(seq, t):
    """Sequence realizing the lamp poset with step t's lamp doubled.

    Returns (new sequence, its built lattice), both through `build`: the
    input's is a memo hit while the caller holds it, and the new one
    extends the input's live stage t - 1, or a longer prefix they share.
    Verifies the guarantees: the new sequence builds, tube count and
    length grow by exactly 2, and J(Con L) of the new lattice, each
    congruence named by its lamp's place (lamps._con_by_place), is the
    input's lamp poset by place doubled at step t's lamp, place at =
    p + q + t - 1: the 2-fold fork's lamp keeps place at and plays j',
    which keeps its id in poset_double, j'' (the new id n) is step t + 1's
    lamp, and later places move up by one.  The map is fixed, so no
    isomorphism search runs.  J(Con L) reads no lamp rule, so the check is
    independent of the doubled sequence's lamp order.  A failed check is an
    InternalInconsistencyError that names the input and t, which
    `slimlat double --step t` replays.
    """
    if not seq.steps:
        raise PreconditionError("the sequence has no fork step to double")
    if not (1 <= t <= len(seq.steps)):
        raise PreconditionError(f"step {t} out of range 1..{len(seq.steps)}")
    orig = build(seq)
    replay = f"`slimlat double --step {t}` replays it on\n{emit_dsl(seq)}"
    try:
        pl = build(_doubled_sequence(seq, t))
    except PreconditionError as e:
        raise InternalInconsistencyError(f"the doubled sequence fails at {e}; {replay}") from e

    tubes, length = pl.antube() - orig.antube(), pl.length() - orig.length()
    if (tubes, length) != (2, 2):
        raise InternalInconsistencyError(
            f"doubling added {tubes} tubes and {length} to the length, not 2; {replay}"
        )
    at, n = seq.grid_p + seq.grid_q + t - 1, seq.grid_p + seq.grid_q + len(seq.steps)
    doubled = poset_double(_sequence_lamp_poset(seq, range(n)), at)
    if _con_by_place(pl, [*range(at + 1), n, *range(at + 1, n)]) != doubled.up:
        raise InternalInconsistencyError(f"J(Con L) is not the doubled lamp poset; {replay}")
    return pl.seq, pl
