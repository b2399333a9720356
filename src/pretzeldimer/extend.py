"""Grown states: a signed activity matrix with its live diagram, the local
moves that grow them, and every invariant of a state.

``initial_state(spec)`` is the only place a pretzel spec becomes a matrix
and a diagram; the spec functions in ``evaluate`` and every CLI command
start from it.  Each invariant is one function of a state: the bracket,
the Jones polynomial (its knot check, the unit check at A = 1 and the
V(1) = 1 sign normalisation live in ``state_jones_raw`` and
``normalized``), the Poincare polynomial and the matrix views ``matrix``
prints.

Each move splices one crossing into the diagram **and** appends the
matching row/column to the activity matrix, so invariants of the larger
object come out of the same determinant/permanent machinery with no fresh
global construction.  Four moves:

* ``subdivide``  - put one more crossing at the top of the last twist column
  (series extension of the last checkerboard edge),
* ``double``     - put a parallel crossing east of the last column's top
  (parallel extension of that edge),
* ``reidemeister1`` - hang a positive or negative kink off the outer top
  strand, either poking up into the unbounded region ("bridge") or dipping
  down into the upper deck ("loop"),
* ``reidemeister2`` - an oppositely-signed pair, in series or in parallel.

Kasteleyn signs of the new entries follow fixed local rules (new live
entry +1, new dead entry in the new column -1, copied column entries keep
the sign already there); tests check the face parities and the
determinant/permanent sign split survive every move.

``subdivide`` and ``double`` need the last matrix row to look like a twist
top: exactly one D in an internal column plus one d in an external column.
A one-column pretzel or a freshly added kink does not qualify and is
rejected before any surgery happens.
"""
from collections import namedtuple

from .activities import split_token, token
from .diagram import Crossing, build_diagram, trace
from .laurent import writhe_factor
from .matrix import (ENTRIES, JONES_TABLE, KHOVANOV_TABLE, Column, det_value,
                     enhance, kasteleyn_perm, signed_block_matrix, unsign)


class GrownState(namedtuple("GrownState", "matrix diagram")):
    """A signed (unenhanced) activity matrix plus its live diagram."""
    __slots__ = ()

    def copy(self):
        return GrownState(self.matrix.copy(), self.diagram.copy())

    @property
    def n(self):
        return self.matrix.n


def initial_state(spec):
    """Signed matrix and diagram of P(spec), ready to grow; the matrix
    comes from one walk, with no overlay (matrix.signed_block_matrix)."""
    spec = tuple(spec)
    return GrownState(signed_block_matrix(spec), build_diagram(spec))


# ---------------------------------------------------------------------------
# preconditions and shared plumbing

def _twist_top_shape(m):
    """Column indices (internal D, external d) of the last row, or raise.

    This is the shape every twist-column top has, and the shape the two
    edge extensions preserve; kinks and one-column pretzels break it.
    """
    ri = m.n - 1
    ents = m.row_entries(ri)
    if len(ents) == 2:
        byletter = {}
        for ci, e in ents:
            letter, _ = split_token(e.tok)
            byletter[(letter, m.columns[ci].kind)] = ci
        if ("D", "internal") in byletter and ("d", "external") in byletter:
            return byletter[("D", "internal")], byletter[("d", "external")]
    raise ValueError(
        "edge extension needs the last row to be a twist top "
        "(one D in an internal column, one d in an external column); "
        "row %d has %s" % (m.rows[ri],
                           [e.tok for _, e in ents] or "no entries"))


def _join(arcs, p, q):
    arcs[p] = q
    arcs[q] = p


def _remap_outer(diagram, mapping):
    a1, a2 = diagram.outer_top_arc
    diagram.outer_top_arc = (mapping.get(a1, a1), mapping.get(a2, a2))
    if diagram.arcs.get(diagram.outer_top_arc[0]) != diagram.outer_top_arc[1]:
        raise AssertionError("outer top arc lost track of the wiring")


def _last_sign(state):
    return state.diagram.crossings[state.matrix.rows[-1]].sign


def _new_crossing(state, sign, over):
    label = max(state.diagram.crossings) + 1
    state.diagram.crossings[label] = Crossing(label, over, sign)
    return label


def _entry(m, letter, barred, ksign):
    return ENTRIES[token(letter, barred), ksign if m.signed else 1]


# ---------------------------------------------------------------------------
# edge extensions

def subdivide(state, sign=None):
    """One more crossing on top of the last twist column (series growth).

    With the default sign this turns P(..., nk) into P(..., nk +/- 1)
    (same sign as the column); an explicit opposite sign grows a mixed
    column, which is what a series Reidemeister 2 needs.
    """
    out = state.copy()
    m = out.diagram
    _, s_ci = _twist_top_shape(out.matrix)
    if sign is None:
        sign = _last_sign(out)
    old = out.matrix.rows[-1]
    ri_old = out.matrix.n - 1
    label = _new_crossing(out, sign, "/" if sign > 0 else "\\")

    # splice the new crossing between the old top and its north arcs
    a = m.arcs[(old, "NW")]
    b = m.arcs[(old, "NE")]
    _join(m.arcs, a, (label, "NW"))
    _join(m.arcs, (label, "SW"), (old, "NW"))
    _join(m.arcs, b, (label, "NE"))
    _join(m.arcs, (label, "SE"), (old, "NE"))
    _remap_outer(m, {(old, "NW"): (label, "NW"), (old, "NE"): (label, "NE")})
    if m.columns is not None:
        if m.columns[-1][0] != old:
            raise AssertionError("column bookkeeping out of step")
        m.columns[-1].insert(0, label)

    # new internal column (the bigon the splice created), new bottom row;
    # bars follow rows, so the old row's new entry marks the old edge's sign
    am = out.matrix
    am.rows.append(label)
    nc = len(am.columns)
    am.columns.append(Column("internal", ("grown", label)))
    ri_new = am.n - 1
    am.entries[(ri_old, nc)] = _entry(am, "L", m.crossings[old].sign < 0, 1)
    am.entries[(ri_new, nc)] = _entry(am, "D", sign < 0, -1)
    am.entries[(ri_new, s_ci)] = _entry(am, "d", sign < 0,
                                        am.entries[(ri_old, s_ci)].sign)
    return out


def double(state, sign=None):
    """A parallel crossing east of the last column's top (parallel growth).

    When the last column has a single crossing this is exactly appending a
    one-crossing column: P(..., s) -> P(..., s, sign).
    """
    out = state.copy()
    m = out.diagram
    x_ci, s_ci = _twist_top_shape(out.matrix)
    if sign is None:
        sign = _last_sign(out)
    old = out.matrix.rows[-1]
    ri_old = out.matrix.n - 1
    label = _new_crossing(out, sign, "/" if sign > 0 else "\\")

    # splice east of the old top: its NE/SE arcs now pass through the twin
    a = m.arcs[(old, "NE")]
    b = m.arcs[(old, "SE")]
    _join(m.arcs, (old, "NE"), (label, "NW"))
    _join(m.arcs, (old, "SE"), (label, "SW"))
    _join(m.arcs, (label, "NE"), a)
    _join(m.arcs, (label, "SE"), b)
    _remap_outer(m, {(old, "NE"): (label, "NE")})
    if m.columns is not None and len(m.columns[-1]) == 1:
        m.columns.append([label])
    else:
        m.columns = None

    # new external column (the white gap between the twins), new bottom row;
    # as in subdivide, the old row's new entry keeps the old edge's bar
    am = out.matrix
    am.rows.append(label)
    nc = len(am.columns)
    am.columns.append(Column("external", ("grown", label)))
    ri_new = am.n - 1
    am.entries[(ri_old, nc)] = _entry(am, "l", m.crossings[old].sign < 0, 1)
    am.entries[(ri_new, nc)] = _entry(am, "d", sign < 0, -1)
    am.entries[(ri_new, x_ci)] = _entry(am, "D", sign < 0,
                                        am.entries[(ri_old, x_ci)].sign)
    return out


# ---------------------------------------------------------------------------
# Reidemeister moves

def reidemeister1(state, kind, sign=1):
    """Kink on the outer top strand; ``kind`` is "bridge" or "loop".

    A bridge pokes into the unbounded region, so its disc is a black
    region and the matrix gains a lone L; a loop dips into the upper deck
    and gains a lone l.  Either way the letter's kink factor cancels the
    writhe correction, which is the move's invariance in this calculus.
    """
    if kind not in ("bridge", "loop"):
        raise ValueError("kink kind must be 'bridge' or 'loop'")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = state.copy()
    m = out.diagram
    if m.outer_top_arc is None:
        raise ValueError("diagram does not track an outer top arc")
    a1, a2 = m.outer_top_arc
    over = ("/" if sign > 0 else "\\") if kind == "bridge" else \
           ("\\" if sign > 0 else "/")
    label = _new_crossing(out, sign, over)

    if kind == "bridge":
        _join(m.arcs, a1, (label, "SW"))
        _join(m.arcs, (label, "NE"), (label, "NW"))
        _join(m.arcs, (label, "SE"), a2)
        m.outer_top_arc = (a1, (label, "SW"))
        colkind, letter = "internal", "L"
    else:
        _join(m.arcs, a1, (label, "NW"))
        _join(m.arcs, (label, "SW"), (label, "SE"))
        _join(m.arcs, (label, "NE"), a2)
        m.outer_top_arc = (a1, (label, "NW"))
        colkind, letter = "external", "l"
    m.columns = None

    am = out.matrix
    am.rows.append(label)
    nc = len(am.columns)
    am.columns.append(Column(colkind, ("grown", label)))
    am.entries[(am.n - 1, nc)] = _entry(am, letter, sign < 0, 1)
    return out


def reidemeister2(state, placement):
    """Oppositely-signed pair on the last edge, in series or in parallel.

    The first new crossing copies the last edge's sign, the second takes
    the opposite, so the pair always cancels.
    """
    if placement not in ("series", "parallel"):
        raise ValueError("placement must be 'series' or 'parallel'")
    op = subdivide if placement == "series" else double
    s = _last_sign(state)
    return op(op(state, s), -s)


#: CLI spellings -> surgery callables on a state
MOVES = {
    "subdivide": subdivide,
    "double": double,
    "r1:bridge": lambda st: reidemeister1(st, "bridge", 1),
    "r1:bridge-": lambda st: reidemeister1(st, "bridge", -1),
    "r1:loop": lambda st: reidemeister1(st, "loop", 1),
    "r1:loop-": lambda st: reidemeister1(st, "loop", -1),
    "r2:series": lambda st: reidemeister2(st, "series"),
    "r2:parallel": lambda st: reidemeister2(st, "parallel"),
}


def apply_moves(state, names):
    for name in names:
        if name not in MOVES:
            raise ValueError("unknown extension %r (choose from %s)"
                             % (name, ", ".join(sorted(MOVES))))
        state = MOVES[name](state)
    return state


# ---------------------------------------------------------------------------
# invariants of a state

def state_matrix(state, signed, enhanced):
    """The state's matrix as the ``matrix`` command prints it.

    Kasteleyn-signed, or with every sign reset to 1; with writhe weights
    when enhanced (knots only, ValueError on a link).
    """
    m = state.matrix if signed else unsign(state.matrix)
    return enhance(m, state.diagram) if enhanced else m


def state_bracket(state):
    """Kauffman bracket via the permanent; works for links too."""
    return kasteleyn_perm(state.matrix, JONES_TABLE)


def state_jones_raw(state, traced=None):
    """Signed enhanced determinant of a knot state, plus flip flag.

    The signed determinant times (-A^-3)^writhe.  One trace of the diagram
    gives both the knot check and the writhe, so the correction is always
    the diagram's own, never an assumption about a move; pass it as traced
    when the caller already holds it.  Returns (value, flipped), where
    flipped says whether normalization will negate.
    """
    t = trace(state.diagram) if traced is None else traced
    if t.components != 1:
        raise ValueError("Jones route needs a knot; this state traces "
                         "%d components" % t.components)
    val = det_value(state.matrix, JONES_TABLE) * writhe_factor(t.writhe)
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


def state_jones_in_A(state):
    """Sign-normalized Jones polynomial (in A) of a knot state."""
    return normalized(state_jones_raw(state))


def state_jones(state):
    """Jones polynomial in t (A = t^(-1/4)) of a knot state."""
    return state_jones_in_A(state).reexpress(-4)


def state_khovanov_poincare(state, traced=None):
    """Bigraded Poincare polynomial in (u, v) of a knot state.

    All-positive form: each coefficient counts the spanning trees of that
    bidegree.  traced is the diagram's trace, when the caller holds it.
    """
    if traced is None:
        traced = trace(state.diagram)
    if traced.components != 1:
        raise ValueError("Poincare polynomial route needs a knot")
    return kasteleyn_perm(state.matrix, KHOVANOV_TABLE)
