"""Checkerboard graphs of a pretzel diagram and their balanced overlay.

Checkerboard-color the diagram complement with the two decks (above and
below the twist columns) and the column bigons black, the unbounded region
and the inter-column strips white.  Around every crossing the north/south
corners are black and the east/west corners are white.

* The Tait graph G has the black regions as vertices and one signed edge
  per crossing (sign = column sign).  For P(n1,...,nk) it is k parallel
  deck-to-deck paths with |ni| edges each.
* The dual graph G* lives on the white regions: a necklace through
  outer, strip 1, ..., strip k-1 with |ni| parallel edges per gap.
* Deleting the upper deck and the unbounded region (they share the outer
  top band arc) and overlaying what is left of G and G* gives the balanced
  bipartite incidence graph: crossings on one side, surviving regions on
  the other.  Its bounded faces are quadrilaterals, one per arc not
  touching a deleted region, and a Kasteleyn edge signing makes signed
  perfect-matching counts honest determinants.
* Everything is read off one table, corner_regions, plus each column's
  sign.  The faces come from one local rule: two crossings that both hold
  a black region and a white one at adjacent corners (N or S beside W or
  E) are the two ends of the arc those regions flank.
"""

from collections import namedtuple

from .diagram import column_labels

TOP = ("deck", "top")
BOT = ("deck", "bot")
OUT = ("outer",)


def bigon(i, p):
    """Bigon region between positions p and p+1 of column i (1-based)."""
    return ("bigon", i, p)


def strip(i):
    """White strip between columns i and i+1."""
    return ("strip", i)


def region_name(r):
    if r == TOP:
        return "T"
    if r == BOT:
        return "B"
    if r == OUT:
        return "O"
    if r[0] == "bigon":
        return "b%d_%d" % (r[1], r[2])
    if r[0] == "grown":
        return "g%d" % (r[1],)
    return "s%d" % (r[1],)


def corner_regions(spec):
    """For each crossing the regions at its N, S, W, E corners."""
    spec = tuple(spec)
    k = len(spec)
    out = {}
    for ci, labels in enumerate(column_labels(map(abs, spec)), start=1):
        m = len(labels)
        west = OUT if ci == 1 else strip(ci - 1)
        east = OUT if ci == k else strip(ci)
        for p, label in enumerate(labels, start=1):
            out[label] = {
                "N": TOP if p == 1 else bigon(ci, p - 1),
                "S": BOT if p == m else bigon(ci, p),
                "W": west,
                "E": east,
            }
    return out


class TaitEdge(namedtuple("TaitEdge", "label u v sign")):
    """Edge of crossing label between regions u and v, with its sign."""
    __slots__ = ()


class TaitGraph(namedtuple("TaitGraph", "vertices edges corners")):
    """Regions as vertices, edges label -> TaitEdge, and corners
    label -> {"N","S","W","E"} -> region."""
    __slots__ = ()

    @property
    def n(self):
        return len(self.edges)

    def endpoints(self, label):
        e = self.edges[label]
        return e.u, e.v


def _column_signs(spec):
    """label -> the sign of its twist column: the one piece of the layout
    the graphs read besides the corner table."""
    return {label: 1 if v > 0 else -1
            for labels, v in zip(column_labels(map(abs, spec)), spec)
            for label in labels}


def _bigons(corners):
    """The bigons, sorted: every black region but the decks lies south of
    some crossing."""
    return sorted({cc["S"] for cc in corners.values()} - {BOT})


def tait_graph(corners, signs):
    """The signed Tait graph read off a corner table and the crossing
    signs, as an overlay holds them: its edges join N to S."""
    edges = {label: TaitEdge(label, cc["N"], cc["S"], signs[label])
             for label, cc in corners.items()}
    return TaitGraph(vertices=[TOP, BOT] + _bigons(corners), edges=edges,
                     corners=corners)


def build_tait(spec):
    """Signed Tait graph on the black regions (one edge per crossing)."""
    spec = tuple(spec)
    return tait_graph(corner_regions(spec), _column_signs(spec))


def dual_graph(g):
    """Planar dual with matching edge labels and flipped signs.

    A graph's own endpoints sit in the N/S corner slots and the dual pair
    in W/E, so dualizing just swaps the two pairs; applying dual_graph
    twice returns the original graph exactly.
    """
    seen = list(dict.fromkeys(g.corners[label][c]
                              for label in sorted(g.corners) for c in "WE"))
    edges = {label: TaitEdge(label, g.corners[label]["W"],
                             g.corners[label]["E"], -g.edges[label].sign)
             for label in g.edges}
    corners = {label: {"N": cc["W"], "S": cc["E"], "W": cc["N"], "E": cc["S"]}
               for label, cc in g.corners.items()}
    return TaitGraph(vertices=seen, edges=edges, corners=corners)


class Overlay(namedtuple("Overlay", "crossings set2 set3 edges corners "
                         "crossing_signs faces")):
    """Balanced bipartite incidence graph after deleting TOP and OUT.

    set1 = crossings, set2 = surviving black regions (bottom deck and
    bigons), set3 = surviving white regions (strips).  Balance:
    |set1| = |set2| + |set3|.  edges lists (crossing label, region) in a
    deterministic order; faces lists the bounded quads as edge lists.
    """
    __slots__ = ()


def build_overlay(spec):
    """The overlay read off the corner table, faces by the local rule.

    The strand end between two adjacent corners of a crossing starts an
    arc flanked by those corners' regions, one black (N or S) and one
    white (W or E); the crossing at its other end holds the same pair at
    adjacent corners.  So each surviving pair is held by exactly two
    crossings, and the edges joining them to the pair bound one quad.
    """
    spec = tuple(spec)
    corners = corner_regions(spec)
    crossings = sorted(corners)
    edges, flanked = [], {}
    for label in crossings:
        cc = corners[label]
        n, s, w, e = cc["N"], cc["S"], cc["W"], cc["E"]
        for r in (n, s, w, e):
            if r != TOP and r != OUT:
                edges.append((label, r))
        for black, white in ((n, w), (n, e), (s, w), (s, e)):
            if black != TOP and white != OUT:
                flanked.setdefault((black, white), []).append(label)
    faces = [[(a, b), (c, b), (c, w), (a, w)]
             for (b, w), (a, c) in flanked.items()]
    # every strip lies east of some crossing, as does OUT
    ov = Overlay(crossings=crossings, set2=[BOT] + _bigons(corners),
                 set3=sorted({cc["E"] for cc in corners.values()} - {OUT}),
                 edges=edges, corners=corners,
                 crossing_signs=_column_signs(spec), faces=faces)
    assert len(ov.crossings) == len(ov.set2) + len(ov.set3)
    return ov


def kasteleyn_negatives(faces):
    """The face edges (any sortable keys) a Kasteleyn signing makes negative.

    Each edge lies on one or two of the faces; the rest of the plane is the
    unbounded face.  Every edge not chosen as a link of a breadth-first
    spanning tree of the face-adjacency graph, rooted at the unbounded face
    and crossing each face's edges in sorted order, gets +1; then each
    bounded face is solved leaf-to-root for its single remaining unknown so
    that the face parity rule holds (a face of length l needs an odd number
    of negative edges iff l = 0 mod 4).  Only the keys' order matters, so
    an order-preserving re-keying maps the set likewise; integer keys, as
    signed_block_matrix passes, sort and hash fastest.
    """
    # an edge's first face, and its second for the edges two faces share
    first, second = {}, {}
    for fi, f in enumerate(faces):
        for e in f:
            if first.setdefault(e, fi) != fi:
                second[e] = fi

    # breadth-first from the unbounded face, the last slot, whose edges lie
    # on one face only; each face keeps its link and the face it joins
    root = len(faces)
    link, up = [None] * root + [-1], [root] * (root + 1)
    order = [root]
    for node in order:                   # the list grows as the BFS queue
        edges = faces[node] if node < root else (
            e for e in first if e not in second)
        for e in sorted(edges):
            nxt = first[e]
            if nxt == node:
                nxt = second.get(e, root)
            if link[nxt] is None:
                link[nxt], up[nxt] = e, node
                order.append(nxt)
    if len(order) != root + 1:
        raise RuntimeError("face-adjacency graph is not connected")

    # children before parents: a face's own link is its one unknown, and
    # its negative edges so far are its children's, kept as one parity bit
    odd = [False] * (root + 1)
    negative = set()
    for fi in reversed(order[1:]):
        if odd[fi] != (len(faces[fi]) % 4 == 0):
            negative.add(link[fi])
            odd[up[fi]] = not odd[up[fi]]
    return negative


def solve_kasteleyn(overlay):
    """kasteleyn_negatives on the overlay's faces, as signs of its edges."""
    negative = kasteleyn_negatives(overlay.faces)
    return {e: -1 if e in negative else 1 for e in overlay.edges}


def verify_kasteleyn(faces, signs):
    """Check the face parity rule for every face in the list."""
    for f in faces:
        neg = sum(1 for e in f if signs[e] == -1)
        want_odd = (len(f) % 4 == 0)
        if (neg % 2 == 1) != want_odd:
            return False
    return True


def tait_to_dot(g, name="tait"):
    lines = ["graph %s {" % name]
    for v in g.vertices:
        lines.append('  "%s";' % region_name(v))
    for label in sorted(g.edges):
        e = g.edges[label]
        style = ", style=bold" if e.sign < 0 else ""
        lines.append('  "%s" -- "%s" [label="%d"%s];'
                     % (region_name(e.u), region_name(e.v), label, style))
    lines.append("}")
    return "\n".join(lines)


def overlay_to_dot(overlay, signs=None):
    lines = ["graph overlay {"]
    for label in overlay.crossings:
        lines.append('  x%d [shape=circle, label="%d"];' % (label, label))
    for r in overlay.set2 + overlay.set3:
        shape = "box" if r in overlay.set2 else "diamond"
        lines.append('  "%s" [shape=%s];' % (region_name(r), shape))
    for label, r in overlay.edges:
        style = ""
        if signs is not None and signs[(label, r)] < 0:
            style = " [style=bold]"
        lines.append('  x%d -- "%s"%s;' % (label, region_name(r), style))
    lines.append("}")
    return "\n".join(lines)
