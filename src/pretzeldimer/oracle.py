"""Independent cross-checks for the matrix pipeline.

Two routes, each independent of what it checks:

* the state sum uses nothing but the diagram's port wiring (no
  checkerboard graphs, activities or matrices), so it can referee
  disagreements anywhere downstream.  It never visits a smoothing: a
  frontier scan takes the diagram crossing by crossing and keeps one
  tally per grouping of the open arcs, so its cost is polynomial in n on
  pretzel diagrams.  Its six weights A^+-1 delta^loops are built once per
  process, and a grouping's successor renames at most two groups;
* the tree expansion enumerates the spanning trees of the signed Tait
  graph and adds up the Table-1 weights of their activity words, so it
  checks the activity matrix, its expansion and its determinant without
  using any of them.  The words come from activities.tree_words, which
  reads each tree's word off the deletion-contraction search that finds
  the tree; the weights are summed by matrix.word_sum, every Table-1
  letter being a monomial +-A^k, so a word costs integer additions and
  sign products, not polynomial products.
"""

import functools

from .activities import tree_words
from .diagram import CORNERS
from .laurent import Laurent, _mul, writhe_factor
from .matrix import JONES_TABLE, word_sum


def tree_expansion_bracket(g):
    """Kauffman bracket as a sum of Table-1 weights over spanning trees.

    Bypasses the matrix entirely: enumerate the trees of the signed Tait
    graph, read each activity word, and sum their Table-1 weights with
    word_sum, which uses nothing of the matrix but its letter table.
    """
    return word_sum((w for _, w in tree_words(g)), JONES_TABLE)


def tree_expansion_jones(g, w):
    """Jones polynomial in t from the spanning-tree expansion and writhe w."""
    total = writhe_factor(w) * tree_expansion_bracket(g)
    return total.reexpress(-4)

# smoothing port pairings by over-strand type, the A pairing first:
#   A-smoothing rotates the over strand counterclockwise onto the under one
_SMOOTHINGS = {
    "/": ((("NW", "SW"), ("NE", "SE")), (("NW", "NE"), ("SW", "SE"))),
    "\\": ((("NW", "NE"), ("SW", "SE")), (("NW", "SW"), ("NE", "SE"))),
}


@functools.cache
def _weights():
    """delta = -A^2 - A^-2, and weight[kind][loops] = A^(+-1) * delta^loops
    as raw coefficient dicts, kind 0 = A, 1 = B; the two pairings of one
    crossing close at most two groups."""
    delta = {2: -1, -2: -1}
    weight = []
    for shift in (1, -1):
        row = [{shift: 1}]
        for _ in range(2):
            row.append(_mul(row[-1], delta))
        weight.append(row)
    return Laurent(delta), weight


def state_sum_bracket(diagram):
    """Kauffman bracket as a state sum, scanned crossing by crossing.

    <L> = sum over states A^(a-b) * delta^(loops-1), delta = -A^2 - A^-2.
    The states are summed, not visited (the scanning idea of Bar-Natan
    2007, "Fast Khovanov homology computations").  Crossings are processed
    in label order, which is column by column on standard builds.  An arc
    is open while one of its ports has been processed and the other has
    not; the smoothings chosen so far join the open arcs into groups.  One
    exact tally of A^(a-b) * delta^loops is kept per grouping, keyed by the
    open arcs' group numbers in order of first appearance.  A crossing
    applies its A and B pairings to every grouping: each pairing joins two
    pairs of its four ports' groups, which renames at most two group
    numbers; an arc whose ports are all processed retires, and a group
    that loses its last arc closes one loop.  The empty grouping is all
    that is left at the end, and its tally divided once by delta is the
    bracket.  The tallies are raw coefficient dicts, multiplied by
    laurent._mul and added in place, and the weights are built once per
    process; one polynomial is made at the end.
    """
    labels = sorted(diagram.crossings)
    step_of = {label: i for i, label in enumerate(labels)}
    arc_of = {}
    retire_at = []        # arc id -> step that processes its last port
    for i, (p, q) in enumerate(diagram.arc_list()):
        arc_of[p] = arc_of[q] = i
        retire_at.append(max(step_of[p[0]], step_of[q[0]]))

    delta, weight = _weights()
    frontier = []         # open arcs, in the order they opened
    tallies = {(): {0: 1}}
    for step, label in enumerate(labels):
        slot = {a: i for i, a in enumerate(frontier)}
        width = len(frontier)
        for corner in CORNERS:
            slot.setdefault(arc_of[label, corner], len(slot))
        # per kind: its ports as slots x, y, u, v, which it joins x to y
        # and u to v, and its weights by the loops it closes
        over = diagram.crossings[label].over
        moves = [([slot[arc_of[label, c]] for pair in pairing for c in pair],
                  w) for pairing, w in zip(_SMOOTHINGS[over], weight)]
        # the slots of the arcs that stay open, which a grouping keys on
        keep = [i for a, i in slot.items() if retire_at[a] != step]
        frontier = [a for a, i in slot.items() if retire_at[a] != step]
        # arcs opening here get group numbers no grouping uses yet
        fresh = tuple(range(width, len(slot)))

        scanned = {}
        for key, tally in tallies.items():
            group = key + fresh
            kept = [group[i] for i in keep]
            for (x, y, u, v), w in moves:
                # join y's group to x's, then v's to u's; then gx and gu
                # are the ports' groups, and get renames the joined ones
                gx, gy, gu, gv = group[x], group[y], group[u], group[v]
                gu = gx if gu == gy else gu
                gv = gx if gv == gy else gv
                if gv == gx:
                    gx = gu
                get = {gy: gx, gv: gu}.get
                number = {}
                grouping = tuple([number.setdefault(get(g, g), len(number))
                                  for g in kept])
                loops = (gx not in number) + (gu != gx and gu not in number)
                term = _mul(tally, w[loops])
                total = scanned.setdefault(grouping, term)
                if total is not term:
                    for e, c in term.items():
                        c += total.get(e, 0)
                        if c:
                            total[e] = c
                        else:
                            del total[e]
        tallies = scanned
    return Laurent(tallies[()]).exact_div(delta)
