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


def activity_word(g, tree, ranks=None):
    """The activity word of one spanning tree, letters in rank order.

    ranks maps edge label -> position; identity by default.  Both the
    letter choices (lowest-in-cut / lowest-in-cycle) and the position of
    each letter in the word follow the given ranking.

    One pass by cut/cycle duality: root the tree once, then walk each
    non-tree edge f up its tree path to the lowest common ancestor.  f is
    live iff it ranks lowest on that path plus itself.  The fundamental cut
    of a tree edge e is e plus the non-tree edges whose path covers e, so e
    is live iff it ranks no higher than the lowest of those.
    """
    if ranks is None:
        ranks = {e: e for e in g.edges}
    edges = g.edges
    adj = {}
    for e in tree:
        x = edges[e]
        adj.setdefault(x.u, []).append((x.v, e))
        adj.setdefault(x.v, []).append((x.u, e))
    root = g.vertices[0]
    up = {root: None}             # vertex -> (parent vertex, tree edge)
    depth = {root: 0}
    stack = [root]
    while stack:
        x = stack.pop()
        for y, e in adj.get(x, ()):
            if y not in depth:
                depth[y] = depth[x] + 1
                up[y] = (x, e)
                stack.append(y)

    letters = {}
    cover = {}                    # tree edge -> lowest rank covering it
    tree_set = set(tree)
    for f, x in edges.items():
        if f in tree_set:
            continue
        rf = ranks[f]
        live = True
        u, v = x.u, x.v
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, e = up[u]
            if ranks[e] < rf:
                live = False
            if rf < cover.get(e, rf + 1):
                cover[e] = rf
        letters[f] = token("l" if live else "d", x.sign < 0)
    for e in tree:
        live = e not in cover or ranks[e] <= cover[e]
        letters[e] = token("L" if live else "D", edges[e].sign < 0)
    return tuple(letters[e] for e in sorted(edges, key=ranks.__getitem__))


def tree_words(g, ranks=None):
    """[(tree, word), ...] over all spanning trees."""
    return [(t, activity_word(g, t, ranks)) for t in spanning_trees(g)]


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
