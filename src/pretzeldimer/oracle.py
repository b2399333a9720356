"""Independent cross-checks for the matrix pipeline.

Two routes, each independent of what it checks:

* the state sum uses nothing but the diagram's port wiring (no
  checkerboard graphs, activities or matrices), so it can referee
  disagreements anywhere downstream.  It never visits a smoothing: a
  frontier scan takes the diagram crossing by crossing and keeps one
  tally per grouping of the open arcs, so its cost is polynomial in n on
  pretzel diagrams;
* the tree expansion enumerates the spanning trees of the signed Tait
  graph and adds up the Table-1 weights of their activity words, so it
  checks the activity matrix, its expansion and its determinant without
  using any of them.  The words come from activities.tree_words, which
  reads each tree's word off the deletion-contraction search that finds
  the tree; the weights are summed by matrix.word_sum, every Table-1
  letter being a monomial +-A^k, so a word costs integer additions and
  sign products, not polynomial products.
"""

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

# smoothing port pairings, by over-strand type:
#   A-smoothing rotates the over strand counterclockwise onto the under one
_SMOOTHINGS = {
    "/": {"A": (("NW", "SW"), ("NE", "SE")), "B": (("NW", "NE"), ("SW", "SE"))},
    "\\": {"A": (("NW", "NE"), ("SW", "SE")), "B": (("NW", "SW"), ("NE", "SE"))},
}


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
    applies its A and B pairings to every grouping; an arc whose ports are
    all processed retires, and a group that loses its last arc closes one
    loop.  The empty grouping is all that is left at the end, and its
    tally divided once by delta is the bracket.  The tallies are raw
    coefficient dicts, multiplied by laurent._mul and added in place; one
    polynomial is made at the end.
    """
    labels = sorted(diagram.crossings)
    step_of = {label: i for i, label in enumerate(labels)}
    arc_of = {}
    retire_at = []        # arc id -> step that processes its last port
    for i, (p, q) in enumerate(diagram.arc_list()):
        arc_of[p] = arc_of[q] = i
        retire_at.append(max(step_of[p[0]], step_of[q[0]]))

    delta = Laurent({2: -1, -2: -1})
    # weight[kind][loops]: A^(+-1) * delta^loops, 0 = A, 1 = B; the two
    # pairings of one crossing close at most two groups
    weight = [[(Laurent.term(1, shift) * delta ** loops).coeffs
               for loops in range(3)] for shift in (1, -1)]
    frontier = []         # open arcs, in the order they opened
    tallies = {(): {0: 1}}
    for step, label in enumerate(labels):
        slot = {a: i for i, a in enumerate(frontier)}
        slots = list(frontier)
        for corner in CORNERS:
            a = arc_of[(label, corner)]
            if a not in slot:
                slot[a] = len(slots)
                slots.append(a)
        byname = _SMOOTHINGS[diagram.crossings[label].over]
        pairs = [[(slot[arc_of[(label, x)]], slot[arc_of[(label, y)]])
                  for x, y in byname[kind]] for kind in ("A", "B")]
        ports = [slot[arc_of[(label, c)]] for c in CORNERS]
        keep = [i for i, a in enumerate(slots) if retire_at[a] != step]
        # arcs opening here get group numbers no grouping uses yet
        fresh = list(range(len(frontier), len(slots)))
        frontier = [slots[i] for i in keep]

        scanned = {}
        for key, tally in tallies.items():
            for kind in (0, 1):
                group = list(key) + fresh
                for x, y in pairs[kind]:
                    gx, gy = group[x], group[y]
                    if gx != gy:
                        group = [gx if g == gy else g for g in group]
                left = {group[i] for i in keep}
                loops = len({group[i] for i in ports} - left)
                number = {}
                grouping = tuple(number.setdefault(group[i], len(number))
                                 for i in keep)
                term = _mul(tally, weight[kind][loops])
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
