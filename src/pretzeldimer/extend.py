"""Grown states: a signed activity matrix with its live diagram, the local
moves that grow them, and every invariant of a state.

``initial_state(spec)`` is the only place a pretzel spec becomes a matrix
and a diagram; the spec functions in ``evaluate`` and every CLI command
start from it.  The matrix is built at once and the diagram on first
read: only the writhe, the knot checks, the moves, ``enhance`` and
``verify`` read the port wiring, so ``jones --bracket`` on a spec and
``matrix`` without ``--enhanced`` never build it.

Each invariant is one function of a state: the bracket, the Jones
polynomial (its knot check, the unit check at A = 1 and the V(1) = 1 sign
normalisation live in ``state_jones_raw`` and ``normalized``; the writhe
factor is applied there and nowhere else), the Poincare polynomial and
the matrix views ``matrix`` prints.  Each invariant is one determinant
whose global sign is read off its own value (``normalized``,
``signed_bracket``, ``signed_poincare``).

Each move splices one crossing into the diagram **and** appends the
matching row/column to the activity matrix, so invariants of the larger
object come out of the same determinant/permanent machinery with no fresh
global construction.  ``MOVES`` names every move, and ``apply_moves``
is the one way to grow a state: it grows the state it is given, in place.

* ``subdivide``  - put one more crossing at the top of the last twist column
  (series extension of the last checkerboard edge),
* ``double``     - put a parallel crossing east of the last column's top
  (parallel extension of that edge),
* ``r1:bridge``, ``r1:loop`` and their negative ``-`` forms - hang a kink
  off the outer top strand, either poking up into the unbounded region
  ("bridge") or dipping down into the upper deck ("loop"),
* ``r2:series``, ``r2:parallel`` - an oppositely-signed pair.

Each move either grows the state or raises UsageError before it changes
anything.

Kasteleyn signs of the new entries follow fixed local rules (new live
entry +1, new dead entry in the new column -1, copied column entries keep
the sign already there); tests check the face parities and the
determinant/permanent sign split survive every move.

``subdivide``, ``double`` and Reidemeister 2 are one splice (``_splice``).
A series extension of the Tait graph is a parallel extension of its dual,
so the parallel splice is the series one turned a quarter turn, with the
dual letters (L <-> l, D <-> d) and an external column for the internal
one.  Both need the last matrix row to look like a twist top: exactly one
D in an internal column plus one d in an external column.  A one-column
pretzel or a freshly added kink does not qualify and is rejected before
any surgery happens.
"""
from itertools import takewhile

from .activities import split_token, token
from .diagram import (Crossing, Refusal, UsageError, build_diagram,
                      check_spec, join, trace)
from .laurent import writhe_factor
from .matrix import (ENTRIES, JONES_TABLE, KHOVANOV_TABLE, Column, det_value,
                     enhance, signed_block_matrix, unsign)


class GrownState:
    """A signed (unenhanced) activity matrix plus its live diagram.

    The diagram of the spec the state started from is built the first
    time anything reads ``diagram``.  Every move reads it before it grows
    the matrix, so the two never fall out of step.
    """
    __slots__ = ("matrix", "_spec", "_diagram")

    def __init__(self, matrix, spec):
        self.matrix = matrix
        self._spec = spec
        self._diagram = None

    @property
    def n(self):
        return self.matrix.n

    @property
    def diagram(self):
        if self._diagram is None:
            self._diagram = build_diagram(self._spec)
        return self._diagram


def initial_state(spec):
    """The state of P(spec), ready to grow: its signed matrix from one
    walk, with no overlay (matrix.signed_block_matrix), and its diagram
    on first read.  A spec build_diagram refuses raises its ValueError
    here, before anything is built."""
    spec = tuple(spec)
    check_spec(spec)
    return GrownState(signed_block_matrix(spec), spec)


# ---------------------------------------------------------------------------
# preconditions and shared plumbing

def _twist_top(m):
    """Columns of the last row's letters, {"D": internal, "d": external},
    or raise UsageError.

    This is the shape every twist-column top has, and the shape the two
    edge extensions preserve; kinks and one-column pretzels break it.  A
    move's row has all its entries last in the dict, inserted by the move;
    only a pretzel's row is looked up column by column, once per chain.
    """
    ri = m.n - 1
    if m.columns[-1].region == ("grown", m.rows[ri]):
        tail = takewhile(lambda key: key[0] == ri, reversed(m.entries))
        cols = sorted(ci for _, ci in tail)
    else:
        cols = [ci for ci in range(len(m.columns)) if (ri, ci) in m.entries]
    ents = [(ci, m.entries[ri, ci]) for ci in cols]
    if len(ents) == 2:
        byletter = {}
        for ci, e in ents:
            letter, _ = split_token(e.tok)
            byletter[(letter, m.columns[ci].kind)] = ci
        if ("D", "internal") in byletter and ("d", "external") in byletter:
            return {"D": byletter[("D", "internal")],
                    "d": byletter[("d", "external")]}
    raise UsageError(
        "edge extension needs the last row to be a twist top "
        "(one D in an internal column, one d in an external column); "
        "row %d has %s" % (m.rows[ri],
                           [e.tok for _, e in ents] or "no entries"))


def _remap_outer(diagram, mapping):
    a1, a2 = diagram.outer_top_arc
    diagram.outer_top_arc = (mapping.get(a1, a1), mapping.get(a2, a2))
    if diagram.arcs.get(diagram.outer_top_arc[0]) != diagram.outer_top_arc[1]:
        raise AssertionError("outer top arc lost track of the wiring")


def _last_sign(state):
    return state.diagram.crossings[state.matrix.rows[-1]].sign


def _new_crossing(state, sign, over):
    label = state.matrix.n + 1          # labels are 1..n, one per row
    state.diagram.crossings[label] = Crossing(label, over, sign)
    return label


def _entry(letter, barred, ksign):
    return ENTRIES[token(letter, barred), ksign]


# ---------------------------------------------------------------------------
# edge extensions

#: how -> (ports, kind of the new column, letters).  The new crossing
#: takes over the old top's first two ports and wires its own last two back
#: to them.  The letters are the old row's entry in the new column, the new
#: row's entry there, and the new row's entry in the twist top's column of
#: that same letter, whose Kasteleyn sign it copies.  ``parallel`` is
#: ``series`` turned a quarter turn, with the dual letters.
_SPLICES = {
    "series": (("NW", "NE", "SW", "SE"), "internal", ("L", "D", "d")),
    "parallel": (("NE", "SE", "NW", "SW"), "external", ("l", "d", "D")),
}


def _splice(state, how, sign=None):
    """One more crossing on the last twist column's top edge.

    ``series`` puts it on top of the column: with the default sign this
    turns P(..., nk) into P(..., nk +/- 1), and an explicit opposite sign
    grows a mixed column, which is what a series Reidemeister 2 needs.
    ``parallel`` puts it east of the top: on a one-crossing last column
    this is appending a column, P(..., s) -> P(..., s, sign).
    """
    (p, q, p2, q2), kind, (old_letter, new_letter, kept) = _SPLICES[how]
    ci = _twist_top(state.matrix)[kept]
    if sign is None:
        sign = _last_sign(state)
    old = state.matrix.rows[-1]
    label = _new_crossing(state, sign, "/" if sign > 0 else "\\")

    d = state.diagram
    a, b = d.arcs[(old, p)], d.arcs[(old, q)]
    join(d.arcs, a, (label, p))
    join(d.arcs, (label, p2), (old, p))
    join(d.arcs, b, (label, q))
    join(d.arcs, (label, q2), (old, q))
    _remap_outer(d, {(old, p): (label, p), (old, q): (label, q)})

    # the region the splice opened is the new column, the new crossing the
    # new bottom row; bars follow rows, so the old row's new entry marks
    # the old edge's sign
    am = state.matrix
    ri = am.n - 1
    am.rows.append(label)
    nc = len(am.columns)
    am.columns.append(Column(kind, ("grown", label)))
    am.entries[(ri, nc)] = _entry(old_letter, d.crossings[old].sign < 0, 1)
    am.entries[(ri + 1, nc)] = _entry(new_letter, sign < 0, -1)
    am.entries[(ri + 1, ci)] = _entry(kept, sign < 0,
                                  am.entries[(ri, ci)].sign)


# ---------------------------------------------------------------------------
# Reidemeister moves

#: kind -> (ports, kind of the new column, letter, over for sign +1 and
#: for -1).  The kink takes the outer top arc's first end on its first
#: port, closes its own loop between the middle two and hands the arc's
#: other end to the last, so the arc now ends at the first port.  A bridge
#: pokes into the unbounded region, so its disc is a black region and the
#: matrix gains a lone L; a loop dips into the upper deck and gains a
#: lone l.
_KINKS = {
    "bridge": (("SW", "NE", "NW", "SE"), "internal", "L", ("/", "\\")),
    "loop": (("NW", "SW", "SE", "NE"), "external", "l", ("\\", "/")),
}


def _reidemeister1(state, kind, sign):
    """Kink of the given sign on the outer top strand (_KINKS).

    Bridge or loop, the letter's kink factor cancels the writhe
    correction, which is the move's invariance in this calculus.
    """
    (p, q, p2, q2), colkind, letter, overs = _KINKS[kind]
    label = _new_crossing(state, sign, overs[sign < 0])
    d = state.diagram
    a1, a2 = d.outer_top_arc
    join(d.arcs, a1, (label, p))
    join(d.arcs, (label, q), (label, p2))
    join(d.arcs, (label, q2), a2)
    d.outer_top_arc = (a1, (label, p))

    am = state.matrix
    am.rows.append(label)
    nc = len(am.columns)
    am.columns.append(Column(colkind, ("grown", label)))
    am.entries[(am.n - 1, nc)] = _entry(letter, sign < 0, 1)


def _reidemeister2(state, how):
    """Oppositely-signed pair on the last edge, in series or in parallel.

    The first new crossing copies the last edge's sign, the second takes
    the opposite, so the pair always cancels.
    """
    _splice(state, how)
    _splice(state, how, -_last_sign(state))


#: CLI spellings -> surgeries that grow a state in place
MOVES = {
    "subdivide": lambda st: _splice(st, "series"),
    "double": lambda st: _splice(st, "parallel"),
    "r1:bridge": lambda st: _reidemeister1(st, "bridge", 1),
    "r1:bridge-": lambda st: _reidemeister1(st, "bridge", -1),
    "r1:loop": lambda st: _reidemeister1(st, "loop", 1),
    "r1:loop-": lambda st: _reidemeister1(st, "loop", -1),
    "r2:series": lambda st: _reidemeister2(st, "series"),
    "r2:parallel": lambda st: _reidemeister2(st, "parallel"),
}


def apply_moves(state, names):
    """Grow the state by the named moves, left to right, in place, and
    return it.

    An unknown name, or a move the state's shape refuses, raises
    UsageError before that move changes anything.
    """
    for name in names:
        if name not in MOVES:
            raise UsageError("unknown extension %r (choose from %s)"
                             % (name, ", ".join(sorted(MOVES))))
        MOVES[name](state)
    return state


# ---------------------------------------------------------------------------
# invariants of a state

def state_matrix(state, signed, enhanced):
    """The state's matrix as the ``matrix`` command prints it.

    Kasteleyn-signed, or with every sign reset to 1; with writhe weights
    when enhanced (knots only, Refusal on a link).
    """
    m = state.matrix if signed else unsign(state.matrix)
    return enhance(m, state.diagram) if enhanced else m


def state_bracket(state):
    """Kauffman bracket of any state, knot or link (signed_bracket)."""
    return signed_bracket(det_value(state.matrix, JONES_TABLE), state.n)


def state_jones_raw(state, traced=None, det=None):
    """Signed enhanced determinant of a knot state, plus flip flag.

    The signed determinant times (-A^-3)^writhe.  One trace of the diagram
    gives both the knot check and the writhe, so the correction is always
    the diagram's own, never an assumption about a move; pass it as traced
    when the caller already holds it, and the matrix's determinant over
    Table 1 as det likewise.  Returns (value, flipped), where flipped says
    whether normalization will negate.
    """
    t = trace(state.diagram) if traced is None else traced
    if t.components != 1:
        raise Refusal("Jones route needs a knot; this state traces "
                      "%d components" % t.components)
    if det is None:
        det = det_value(state.matrix, JONES_TABLE)
    val = det * writhe_factor(t.writhe)
    at1 = val.at_one()
    if at1 not in (1, -1):
        raise RuntimeError("determinant is not a unit at A=1: %s" % at1)
    return val, at1 == -1


def normalized(raw):
    """The Jones value of a state_jones_raw pair.

    A knot's Jones polynomial evaluates to 1 at t = 1 (A = 1), which fixes
    the global sign left over from the Kasteleyn choice.
    """
    val, flipped = raw
    return -val if flipped else val


def signed_bracket(det, n):
    """The Kauffman bracket from +-det over Table 1 of an n-row state.

    With c components and writhe w, <D>(A = 1) = (-1)^w (-2)^(c-1)
    (Kauffman 1987, "State models and the Jones polynomial"), and
    w = n (mod 2), so the value v at A = 1 must have the sign
    (-1)^(n + log2|v|); det is negated when it has the other one.
    """
    v = det.at_one()
    negative = (n + abs(v).bit_length() - 1) % 2 == 1    # log2|v| = c - 1
    return -det if (v < 0) != negative else det


def signed_poincare(det):
    """The Poincare polynomial from +-det over Table 2: every coefficient
    counts spanning trees, so a negative one means det is negated."""
    return -det if sum(det.coeffs.values()) < 0 else det


def state_jones_in_A(state):
    """Sign-normalized Jones polynomial (in A) of a knot state."""
    return normalized(state_jones_raw(state))


def state_jones(state):
    """Jones polynomial in t (A = t^(-1/4)) of a knot state."""
    return state_jones_in_A(state).reexpress(-4)


def state_khovanov_poincare(state):
    """Bigraded Poincare polynomial in (u, v) of a knot state.

    All-positive form: each coefficient counts the spanning trees of that
    bidegree.
    """
    if trace(state.diagram).components != 1:
        raise Refusal("Poincare polynomial route needs a knot")
    return signed_poincare(det_value(state.matrix, KHOVANOV_TABLE))
