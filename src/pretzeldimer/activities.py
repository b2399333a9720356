"""Spanning-tree activities and perfect matchings.

For a spanning tree S of the signed Tait graph, each edge gets one of four
activity letters in the Tutte sense, decided by edge order:

  L  in the tree and lowest in its fundamental cut   (internally active)
  D  in the tree, not lowest in its cut              (internally dead)
  l  outside the tree and lowest in its cycle        (externally active)
  d  outside the tree, not lowest in its cycle       (externally dead)

Negative edges carry a bar, written with a trailing "~" in machine form
(L~, D~, l~, d~) and a combining macron in display form.  A word lists the
letters of edges 1..n in order; the whole downstream evaluation pipeline is
a sum over these words.
"""

from __future__ import annotations

from typing import NamedTuple

BASE_LETTERS = ("L", "D", "l", "d")


def token(letter, barred):
    return letter + "~" if barred else letter


def split_token(tok):
    return tok[0], tok.endswith("~")


def word_str(word, ascii_bars=False):
    """Human form of a word; bars become combining macrons unless ascii."""
    if ascii_bars:
        return "".join(word)
    out = []
    for tok in word:
        letter, barred = split_token(tok)
        if letter == "l":
            letter = "ℓ"          # script ell, easier to tell from 1
        out.append(letter + ("̄" if barred else ""))
    return "".join(out)


def spanning_trees(g):
    """All spanning trees by contraction/deletion in ascending edge order.

    Returns a list of tuples of edge labels; the include-branch is explored
    first, so the order is deterministic.  The components live in one
    union-find (union by rank, no path compression) whose merge is undone
    when the include-branch is left.  The search keeps its own stack, so
    its depth is not bounded by the recursion limit.
    """
    labels = sorted(g.edges)
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[g.edges[e].u], index[g.edges[e].v]) for e in labels]
    parent = list(range(len(index)))
    rank = [0] * len(index)
    chosen = []
    results = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    # (edge index, components left) visits a branch; (ru, rv, bump)
    # leaves an include-branch, undoing its merge
    stack = [(0, len(index))]
    while stack:
        top = stack.pop()
        if len(top) == 3:
            ru, rv, bump = top
            chosen.pop()
            parent[ru] = ru
            if bump:
                rank[rv] -= 1
            continue
        i, count = top
        if count == 1:
            results.append(tuple(chosen))
            continue
        if i == len(labels) or count - 1 > len(labels) - i:
            continue
        ru, rv = find(ends[i][0]), find(ends[i][1])
        if ru == rv:
            stack.append((i + 1, count))
            continue
        if rank[ru] > rank[rv]:
            ru, rv = rv, ru
        parent[ru] = rv
        bump = rank[ru] == rank[rv]
        if bump:
            rank[rv] += 1
        chosen.append(labels[i])
        stack.append((i + 1, count))          # exclude, after the undo
        stack.append((ru, rv, bump))
        stack.append((i + 1, count - 1))      # include, first
    return results


#: the four tokens of an edge, unbarred and barred, in code order
_EDGE_TOKENS = {barred: [token(letter, barred) for letter in BASE_LETTERS]
                for barred in (False, True)}


class _WordSetup(NamedTuple):
    """What every tree's word needs from the graph, built once per graph.

    Edges are numbered by rank: position p holds the p-th edge of the
    ranking, so ranks compare as positions and the word lists positions
    0, 1, ...  Vertices are numbered by their place in g.vertices.  A
    letter is coded as 4 p + (0 L, 1 D, 2 l, 3 d), so "| 1" turns a live
    letter into the dead one.
    """
    where: dict        # edge label -> position
    ends: list         # position -> (vertex index, vertex index)
    nbrs: list         # vertex index -> [(vertex index, position), ...]
    tokens: list       # letter code -> token
    outside: list      # position -> code of its l, each word's start


def _word_setup(g, ranks):
    order = sorted(g.edges, key=ranks.__getitem__) if ranks else sorted(g.edges)
    index = {v: i for i, v in enumerate(g.vertices)}
    xs = [g.edges[e] for e in order]
    ends = [(index[x.u], index[x.v]) for x in xs]
    nbrs = [[] for _ in index]
    for p, (a, b) in enumerate(ends):
        nbrs[a].append((b, p))
        nbrs[b].append((a, p))
    return _WordSetup({e: p for p, e in enumerate(order)}, ends, nbrs,
                      [tok for x in xs for tok in _EDGE_TOKENS[x.sign < 0]],
                      list(range(2, 4 * len(order), 4)))


def _tree_word(setup, tree):
    """The activity word of one spanning tree, from the graph's setup.

    One pass by cut/cycle duality: root the tree at vertex 0, then walk
    each non-tree edge f up its tree path to the lowest common ancestor.
    Each tree edge e met there decides one letter: f is dead when e ranks
    below it (f is not lowest in its cycle), otherwise e is dead (f is in
    the fundamental cut of e and ranks below it).  Every other letter is
    live.
    """
    where, ends, nbrs, tokens, outside = setup
    code = outside[:]
    intree = bytearray(len(ends))
    for e in tree:
        p = where[e]
        intree[p] = 1
        code[p] -= 2                  # l becomes L
    nv = len(nbrs)
    depth = [-1] * nv
    parent = [0] * nv             # vertex -> parent vertex
    up = [0] * nv                 # vertex -> position of its parent edge
    depth[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        dy = depth[x] + 1
        for y, p in nbrs[x]:
            if intree[p] and depth[y] < 0:
                depth[y] = dy
                parent[y] = x
                up[y] = p
                stack.append(y)
    if len(tree) != nv - 1 or -1 in depth:
        raise ValueError("not a spanning tree: %r" % (tree,))

    for f, t in enumerate(intree):
        if t:
            continue
        u, v = ends[f]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            e = up[u]
            u = parent[u]
            if e < f:
                code[f] |= 1
            else:
                code[e] |= 1
    return tuple(map(tokens.__getitem__, code))


def activity_word(g, tree, ranks=None):
    """The activity word of one spanning tree, letters in rank order.

    ranks maps edge label -> position; identity by default.  Both the
    letter choices (lowest-in-cut / lowest-in-cycle) and the position of
    each letter in the word follow the given ranking.
    """
    return _tree_word(_word_setup(g, ranks), tree)


def tree_words(g, ranks=None):
    """[(tree, word), ...] over all spanning trees, in spanning_trees order.

    The graph's setup (rank order, index lists, tokens) is built once and
    serves every tree.
    """
    setup = _word_setup(g, ranks)
    return [(t, _tree_word(setup, t)) for t in spanning_trees(g)]


# ---------------------------------------------------------------------------
# word-shape classification

_SERIES = (
    ("L+", lambda s: set(s) == {"L"}),
    ("D+", lambda s: set(s) == {"D"}),
    ("L+dD*", lambda s: "d" in s and s.index("d") >= 1
     and set(s[:s.index("d")]) == {"L"} and set(s[s.index("d") + 1:]) <= {"D"}),
    ("lD*", lambda s: s[0] == "l" and set(s[1:]) <= {"D"}),
    ("dD*", lambda s: s[0] == "d" and set(s[1:]) <= {"D"}),
)

_PARALLEL = (
    ("l+", lambda s: set(s) == {"l"}),
    ("d+", lambda s: set(s) == {"d"}),
    ("l+Dd*", lambda s: "D" in s and s.index("D") >= 1
     and set(s[:s.index("D")]) == {"l"} and set(s[s.index("D") + 1:]) <= {"d"}),
    ("Ld*", lambda s: s[0] == "L" and set(s[1:]) <= {"d"}),
    ("Dd*", lambda s: s[0] == "D" and set(s[1:]) <= {"d"}),
)


def _classify(segment, table):
    bare = [split_token(tok)[0] for tok in segment]
    if not bare:
        raise ValueError("empty segment")
    for name, test in table:
        if test(bare):
            return name
    return None


def classify_series(segment):
    """Legal shapes of a series (column) segment, or None.

    A twist column contributes consecutive tree edges; a path of edges in
    series admits exactly five letter shapes.
    """
    return _classify(segment, _SERIES)


def classify_parallel(segment):
    """Dual classification for a parallel class of edges."""
    return _classify(segment, _PARALLEL)


def column_segments(word, spec):
    """Split a word into its per-column segments (rank order = label order)."""
    out = []
    pos = 0
    for v in spec:
        m = abs(v)
        out.append(tuple(word[pos:pos + m]))
        pos += m
    return out


# ---------------------------------------------------------------------------
# perfect matchings of the balanced overlay

def perfect_matchings(overlay):
    """All perfect matchings, backtracking in crossing order.

    Each matching maps every crossing to one of its surviving corner
    regions, using every region exactly once; returned as tuples aligned
    with overlay.crossings.
    """
    candidates = [overlay.incident_regions(c) for c in overlay.crossings]
    used = set()
    results = []
    pick = []

    def rec(i):
        if i == len(candidates):
            results.append(tuple(pick))
            return
        for r in candidates[i]:
            if r not in used:
                used.add(r)
                pick.append(r)
                rec(i + 1)
                pick.pop()
                used.remove(r)

    rec(0)
    return results


def matching_to_tree(g, overlay, matching):
    """Tree of G corresponding to a matching: the black-matched crossings.

    Raises if the edge set is not a spanning tree (it always is; the check
    guards the bijection).
    """
    tree = tuple(c for c, r in zip(overlay.crossings, matching)
                 if r in overlay.set2)
    if len(tree) != len(g.vertices) - 1:
        raise ValueError("matched black set has wrong size for a tree")
    comp = {v: v for v in g.vertices}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for e in tree:
        u, v = g.endpoints(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("matched black set contains a cycle")
        comp[ru] = rv
    return tree
