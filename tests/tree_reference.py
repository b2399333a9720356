"""The slow routes that activities.tree_words,
evaluate.stencil_pair_counts and diagram.trace are held to, and the
matching -> tree bijection the activity matrix rests on.

The program reads every tree and word off one deletion-contraction search;
these routes get them another way, for the tests alone:

* spanning_trees: include/exclude in ascending edge order, with one
  union-find whose merges are undone on the way back; its order (the trees
  sorted) is the order tree_words lists them in;
* reference_spanning_trees: the same search copying the component map per
  included edge;
* matching_to_tree: the tree of a perfect matching of the balanced
  overlay, its black-matched crossings, checked to be a spanning tree;
* activity_word: one tree's word by cut/cycle duality, rooting the tree
  and walking each non-tree edge up to its lowest common ancestor;
* fundamental_sets and reference_word: the word from the definition, one
  tree search per edge for its fundamental cut or cycle;
* reference_pair_counts: each stencil's word-pair count as |det| of its
  own minor, one elimination per report;
* reference_trace: orientation, crossing signs and writhe by walking the
  strands with a set of every unvisited port (ports lists them), the next
  component starting at its minimum, and each crossing's sign as the
  cross product of its two strands' heading vectors.
"""
from collections import namedtuple

from pretzeldimer.activities import BASE_LETTERS, token
from pretzeldimer.diagram import CORNERS, Trace
from pretzeldimer.laurent import Laurent
from pretzeldimer.matrix import JONES_TABLE, ActivityMatrix, det_value


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


def reference_spanning_trees(g):
    """Contraction/deletion that copies the component map per included edge."""
    labels = sorted(g.edges)
    results = []

    def rec(i, comp, count, chosen):
        if count == 1:
            results.append(tuple(chosen))
            return
        if i == len(labels) or count - 1 > len(labels) - i:
            return
        e = g.edges[labels[i]]
        cu, cv = comp[e.u], comp[e.v]
        if cu == cv:
            rec(i + 1, comp, count, chosen)
            return
        merged = {v: (cu if c == cv else c) for v, c in comp.items()}
        chosen.append(labels[i])
        rec(i + 1, merged, count - 1, chosen)
        chosen.pop()
        rec(i + 1, comp, count, chosen)

    rec(0, {v: v for v in g.vertices}, len(g.vertices), [])
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


# ---------------------------------------------------------------------------
# one tree's word by cut/cycle duality

#: the four tokens of an edge, unbarred and barred, in code order
_EDGE_TOKENS = {barred: [token(letter, barred) for letter in BASE_LETTERS]
                for barred in (False, True)}


class _WordSetup(namedtuple("_WordSetup", "where ends nbrs tokens outside")):
    """What every tree's word needs from the graph.

    Edges are numbered by rank: position p holds the p-th edge of the
    ranking, so ranks compare as positions and the word lists positions
    0, 1, ...  Vertices are numbered by their place in g.vertices.  A
    letter is coded as 4 p + (0 L, 1 D, 2 l, 3 d), so "| 1" turns a live
    letter into the dead one.

    where maps edge label -> position; ends lists position -> (vertex
    index, vertex index); nbrs lists vertex index -> [(vertex index,
    position), ...]; tokens lists letter code -> token; outside lists
    position -> code of its l, each word's start.
    """
    __slots__ = ()


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

    Root the tree at vertex 0, then walk each non-tree edge f up its tree
    path to the lowest common ancestor.  Each tree edge e met there
    decides one letter: f is dead when e ranks below it (f is not lowest
    in its cycle), otherwise e is dead (f is in the fundamental cut of e
    and ranks below it).  Every other letter is live.
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


# ---------------------------------------------------------------------------
# the definition: one tree search per edge

def _tree_adjacency(g, tree):
    adj = {}
    for e in tree:
        u, v = g.endpoints(e)
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    return adj


def _component_after_removal(ends, adj, drop):
    """Vertex set of the component of tree - drop containing one endpoint."""
    u0, _ = ends[drop]
    seen = {u0}
    stack = [u0]
    while stack:
        x = stack.pop()
        for y, e in adj.get(x, ()):
            if e != drop and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _tree_path_edges(adj, a, b):
    prev = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y, e in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, e)
                stack.append(y)
    path = []
    x = b
    while prev[x] is not None:
        x, e = prev[x]
        path.append(e)
    return path


def fundamental_sets(g, tree):
    """edge -> (in tree, its fundamental cut or cycle as a list of edges).

    The cut of a tree edge is every edge with one end on each side of the
    tree with that edge removed; the cycle of a non-tree edge is its tree
    path plus itself.
    """
    ends = {e: g.endpoints(e) for e in g.edges}
    adj = _tree_adjacency(g, tree)
    tree_set = set(tree)
    out = {}
    for e, (u, v) in ends.items():
        if e in tree_set:
            side = _component_after_removal(ends, adj, e)
            out[e] = (True, [x for x, (a, b) in ends.items()
                             if (a in side) != (b in side)])
        else:
            out[e] = (False, _tree_path_edges(adj, u, v) + [e])
    return out


def reference_word(g, sets, ranks):
    """Activity word from fundamental_sets: lowest in cut / lowest in cycle."""
    letters = {}
    for e, (in_tree, edges) in sets.items():
        live = ranks[e] == min(map(ranks.__getitem__, edges))
        letter = ("L" if live else "D") if in_tree else ("l" if live else "d")
        letters[e] = token(letter, g.edges[e].sign < 0)
    return tuple(letters[e] for e in sorted(g.edges, key=ranks.__getitem__))


#: every letter -> 1, so a determinant over it counts signed permutations
_ONES = dict.fromkeys(JONES_TABLE, Laurent.one())


def reference_pair_counts(m, reports):
    """|det| of each report's Kasteleyn-signed minor, the matrix without the
    stencil's two rows and two columns, with every letter sent to 1; one
    elimination (matrix.det_value) per report."""
    ridx = {label: ri for ri, label in enumerate(m.rows)}
    cidx = {c.region: ci for ci, c in enumerate(m.columns)}
    counts = []
    for report in reports:
        drop_rows = {ridx[label] for label in report.rows}
        drop_cols = {cidx[region] for region in report.cols}
        keep_rows = [ri for ri in range(m.n) if ri not in drop_rows]
        keep_cols = [ci for ci in range(len(m.columns)) if ci not in drop_cols]
        rpos = {ri: i for i, ri in enumerate(keep_rows)}
        cpos = {ci: i for i, ci in enumerate(keep_cols)}
        minor = ActivityMatrix(
            rows=[m.rows[ri] for ri in keep_rows],
            columns=[m.columns[ci] for ci in keep_cols],
            entries={(rpos[ri], cpos[ci]): e
                     for (ri, ci), e in m.entries.items()
                     if ri in rpos and ci in cpos},
            signed=True)
        counts.append(abs(det_value(minor, _ONES).at_one()))
    return counts


# passing through a crossing continues along the same diagonal
_PASS = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}

_COORD = {"NW": (-1, 1), "NE": (1, 1), "SW": (-1, -1), "SE": (1, -1)}


def ports(diagram):
    """Every port of the diagram, (label, corner), by label and then in
    CORNERS order."""
    return [(label, c) for label in sorted(diagram.crossings)
            for c in CORNERS]


def reference_trace(diagram, seed=None):
    """diagram.trace by coordinates: the same seed rules and errors.

    The first component is seeded entering crossing 1 at its NW port (or
    at seed); later components start at the lowest-numbered unvisited port.
    """
    unvisited = set(ports(diagram))
    passages = {}   # label -> {diagonal: direction vector}
    components = 0
    while unvisited:
        if components == 0 and seed is not None:
            entry = seed
            if entry not in unvisited:
                raise ValueError("seed %r is not a port of this diagram" % (seed,))
        elif components == 0 and (1, "NW") in unvisited:
            entry = (1, "NW")
        else:
            entry = min(unvisited, key=lambda p: (p[0], CORNERS.index(p[1])))
        components += 1
        start = entry
        while True:
            label, corner = entry
            exit_corner = _PASS[corner]
            diag = "/" if {corner, exit_corner} == {"SW", "NE"} else "\\"
            px, py = _COORD[corner]
            qx, qy = _COORD[exit_corner]
            passages.setdefault(label, {})[diag] = ((qx - px) // 2, (qy - py) // 2)
            exitp = (label, exit_corner)
            unvisited.discard(entry)
            unvisited.discard(exitp)
            entry = diagram.arcs[exitp]
            if entry == start:
                break

    signs = {}
    for label, cr in diagram.crossings.items():
        dirs = passages[label]
        if set(dirs) != {"/", "\\"}:
            raise RuntimeError("crossing %d not traversed on both diagonals" % label)
        ox, oy = dirs[cr.over]
        ux, uy = dirs["/" if cr.over == "\\" else "\\"]
        signs[label] = (ox * uy - oy * ux) // 2

    return Trace(components=components, signs=signs,
                 writhe=sum(signs.values()))
