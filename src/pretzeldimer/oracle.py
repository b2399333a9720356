"""Independent cross-checks for the matrix pipeline.

Two slow routes, each independent of what it checks:

* the state sum uses nothing but the diagram's port wiring (no
  checkerboard graphs, activities or matrices), so it can referee
  disagreements anywhere downstream;
* the tree expansion enumerates the spanning trees of the signed Tait
  graph and adds up the Table-1 weights of their activity words, so it
  checks the activity matrix, its expansion and its determinant without
  using any of them.
"""

from __future__ import annotations

from .activities import tree_words
from .laurent import Laurent, writhe_factor
from .matrix import JONES_TABLE


def tree_expansion_bracket(g):
    """Kauffman bracket as a sum of Table-1 weights over spanning trees.

    Bypasses the matrix entirely: enumerate the trees of the signed Tait
    graph, evaluate each activity word, add up.
    """
    return words_bracket(w for _, w in tree_words(g))


def words_bracket(words):
    """Sum of the Table-1 weights of activity words.

    Every Table-1 letter is a monomial +-A^k, so each word weighs one
    monomial too: its sign and exponent are summed as plain integers.
    """
    weights = {tok: next(iter(p.coeffs.items()))
               for tok, p in JONES_TABLE.items()}
    total = {}
    for word in words:
        exp, coeff = 0, 1
        for tok in word:
            k, c = weights[tok]
            exp += k
            coeff *= c
        total[exp] = total.get(exp, 0) + coeff
    return Laurent(total)


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
    """Kauffman bracket by brute force over all 2^n smoothings.

    <L> = sum over states A^(a-b) * delta^(loops-1), delta = -A^2 - A^-2.
    Each arc of the diagram is contracted to one node; a state's smoothing
    pairings then join arcs into its loops.  The states are enumerated
    depth-first over the crossings on one union-find (union by rank, no
    path compression), each crossing's two pairings undone on the way back.
    """
    labels = sorted(diagram.crossings)
    n = len(labels)
    arc_of = {}
    arcs = diagram.arc_list()
    for i, (p, q) in enumerate(arcs):
        arc_of[p] = arc_of[q] = i
    # per crossing: (A-smoothing pairs, B-smoothing pairs) as arc ids
    smooth = []
    for label in labels:
        byname = _SMOOTHINGS[diagram.crossings[label].over]
        smooth.append(tuple(
            tuple((arc_of[(label, a)], arc_of[(label, b)])
                  for a, b in byname[kind])
            for kind in ("A", "B")))

    size = len(arcs)
    parent = list(range(size))
    rank = [0] * size
    counts = {}   # (a_minus_b, loops) -> number of states

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i, a_count, merges):
        if i == n:
            key = (2 * a_count - n, size - merges)
            counts[key] = counts.get(key, 0) + 1
            return
        for kind in (0, 1):                  # 0 = A, 1 = B
            undo = []
            for x, y in smooth[i][kind]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    if rank[rx] > rank[ry]:
                        rx, ry = ry, rx
                    parent[rx] = ry
                    bump = rank[rx] == rank[ry]
                    if bump:
                        rank[ry] += 1
                    undo.append((rx, ry, bump))
            visit(i + 1, a_count + 1 - kind, merges + len(undo))
            for rx, ry, bump in reversed(undo):
                parent[rx] = rx
                if bump:
                    rank[ry] -= 1

    visit(0, 0, 0)

    delta = Laurent({2: -1, -2: -1})
    max_loops = max(l for _, l in counts)
    delta_pow = [Laurent.one()]
    for _ in range(max_loops):
        delta_pow.append(delta_pow[-1] * delta)

    total = Laurent.zero()
    for (exp, loops), mult in counts.items():
        total = total + Laurent.term(mult, exp) * delta_pow[loops - 1]
    return total
