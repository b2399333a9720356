"""Spanning-tree activities: the letters of each tree's edges.

For a spanning tree S of the signed Tait graph, each edge gets one of four
activity letters in the Tutte sense, decided by edge order:

  L  in the tree and lowest in its fundamental cut   (internally active)
  D  in the tree, not lowest in its cut              (internally dead)
  l  outside the tree and lowest in its cycle        (externally active)
  d  outside the tree, not lowest in its cycle       (externally dead)

Negative edges carry a bar, written with a trailing "~" in machine form
(L~, D~, l~, d~) and a combining macron in display form.  A word lists the
letters of edges 1..n in order; the whole downstream evaluation pipeline is
a sum over these words.  tree_words finds every tree and its word in one
deletion-contraction search, reading each letter off as its edge is
decided.
"""

BASE_LETTERS = ("L", "D", "l", "d")


def token(letter, barred):
    return letter + "~" if barred else letter


def split_token(tok):
    return tok[0], tok.endswith("~")


#: the four tokens of an edge, unbarred and barred, in BASE_LETTERS order
_EDGE_TOKENS = {barred: [token(letter, barred) for letter in BASE_LETTERS]
                for barred in (False, True)}


def tree_words(g, ranks=None):
    """[(tree, word), ...] over all spanning trees, sorted by tree.

    ranks maps edge label -> position, identity by default; a tree lists
    its edge labels in ascending order, and its word lists the letters of
    the edges in rank order.  One deletion-contraction search decides the
    edges from the highest rank down (Tutte 1954) and writes each letter
    as its edge is decided: a loop is l, a deleted edge d, a kept edge D,
    or L when it is a bridge, which is when deleting it leaves no tree.
    The delete branch is taken first, so the keep branch knows that; it
    is not entered when the edge is the last undecided one of its vertex
    class or no edge would be left to spare.  Vertex classes live in one
    union-find (union by rank, no path compression) whose every change is
    undone on the way back, each class counting the ends of its undecided
    edges.  The search keeps its own stack, so its depth is not bounded by
    the recursion limit.
    """
    order = sorted(g.edges, key=ranks.__getitem__) if ranks else sorted(g.edges)
    index = {v: i for i, v in enumerate(g.vertices)}
    xs = [g.edges[e] for e in order]
    ends = [(index[x.u], index[x.v]) for x in xs]
    tokens = [_EDGE_TOKENS[x.sign < 0] for x in xs]
    loops = tuple(t[2] for t in tokens)
    parent = list(range(len(index)))
    rank = [0] * len(index)
    degree = [0] * len(index)         # class root -> undecided edge ends
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
    word = [None] * len(order)        # position -> letter, once decided
    chosen = []
    results = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    # (p, classes) decides position p; (p, classes, ru, rv, trees before)
    # keeps it once its delete branch is done; (ru, rv, bump, degree)
    # undoes a merge and (r,) a loop
    stack = [(len(order) - 1, len(index))]
    while stack:
        top = stack.pop()
        n = len(top)
        if n == 4:
            ru, rv, bump, degree[rv] = top
            parent[ru] = ru
            rank[rv] -= bump
            chosen.pop()
            continue
        if n == 1:
            degree[top[0]] += 2
            continue
        if n == 5:
            p, count, ru, rv, before = top
            degree[ru] += 1
            degree[rv] += 1
        else:
            p, count = top
            if count == 1:            # every edge left is a loop
                results.append((tuple(sorted(chosen)),
                                loops[:p + 1] + tuple(word[p + 1:])))
                continue
            if count - 1 > p + 1:     # too few edges left for a tree
                continue
            ru, rv = find(ends[p][0]), find(ends[p][1])
            if ru == rv:
                degree[ru] -= 2
                word[p] = tokens[p][2]
                stack.append((ru,))
                stack.append((p - 1, count))
                continue
            if degree[ru] > 1 and degree[rv] > 1 and count - 1 < p + 1:
                degree[ru] -= 1
                degree[rv] -= 1
                word[p] = tokens[p][3]
                stack.append((p, count, ru, rv, len(results)))
                stack.append((p - 1, count))
                continue
            before = len(results)
        # keep p, an L when the delete branch found no tree
        if rank[ru] > rank[rv]:
            ru, rv = rv, ru
        parent[ru] = rv
        bump = rank[ru] == rank[rv]
        rank[rv] += bump
        stack.append((ru, rv, bump, degree[rv]))
        degree[rv] += degree[ru] - 2
        word[p] = tokens[p][len(results) != before]
        chosen.append(order[p])
        stack.append((p - 1, count - 1))
    results.sort()
    return results

