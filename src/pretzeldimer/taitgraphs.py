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


class TaitGraph(namedtuple("TaitGraph", "vertices edges corners is_dual",
                           defaults=(False,))):
    """Regions as vertices, edges label -> TaitEdge, and corners
    label -> {"N","S","W","E"} -> region."""
    __slots__ = ()

    @property
    def n(self):
        return len(self.edges)

    def endpoints(self, label):
        e = self.edges[label]
        return e.u, e.v


def build_tait(spec):
    """Signed Tait graph on the black regions (one edge per crossing)."""
    spec = tuple(spec)
    corners = corner_regions(spec)
    vertices = [TOP, BOT]
    for ci, v in enumerate(spec, start=1):
        for p in range(1, abs(v)):
            vertices.append(bigon(ci, p))
    edges = {}
    for labels, v in zip(column_labels(map(abs, spec)), spec):
        s = 1 if v > 0 else -1
        for label in labels:
            edges[label] = TaitEdge(label, corners[label]["N"],
                                    corners[label]["S"], s)
    return TaitGraph(vertices=vertices, edges=edges, corners=corners)


def dual_graph(g):
    """Planar dual with matching edge labels and flipped signs.

    A graph's own endpoints sit in the N/S corner slots and the dual pair
    in W/E, so dualizing just swaps the two pairs; applying dual_graph
    twice returns the original graph exactly.
    """
    seen = []
    for label in sorted(g.corners):
        for c in ("W", "E"):
            r = g.corners[label][c]
            if r not in seen:
                seen.append(r)
    edges = {label: TaitEdge(label, g.corners[label]["W"],
                             g.corners[label]["E"], -g.edges[label].sign)
             for label in g.edges}
    corners = {label: {"N": cc["W"], "S": cc["E"], "W": cc["N"], "E": cc["S"]}
               for label, cc in g.corners.items()}
    return TaitGraph(vertices=seen, edges=edges, corners=corners,
                     is_dual=not g.is_dual)


class Overlay(namedtuple("Overlay", "crossings set2 set3 edges corners "
                         "crossing_signs faces")):
    """Balanced bipartite incidence graph after deleting TOP and OUT.

    set1 = crossings, set2 = surviving black regions (bottom deck and
    bigons), set3 = surviving white regions (strips).  Balance:
    |set1| = |set2| + |set3|.  edges lists (crossing label, region) in a
    deterministic order; faces lists the bounded quads as edge lists.
    """
    __slots__ = ()

    def __new__(cls, crossings, set2, set3, edges, corners,
                crossing_signs=None, faces=None):
        return super().__new__(cls, crossings, set2, set3, edges, corners,
                               {} if crossing_signs is None else crossing_signs,
                               [] if faces is None else faces)

    @property
    def edge_set(self):
        return set(self.edges)

    def incident_regions(self, label):
        return [r for r in (self.corners[label][c] for c in "NSWE")
                if r not in (TOP, OUT)]


def build_overlay(spec):
    spec = tuple(spec)
    k = len(spec)
    corners = corner_regions(spec)
    layout = column_labels(map(abs, spec))
    crossings = sorted(corners)

    set2 = [BOT]
    for ci, v in enumerate(spec, start=1):
        for p in range(1, abs(v)):
            set2.append(bigon(ci, p))
    set3 = [strip(i) for i in range(1, k)]

    edges = []
    for label in crossings:
        for c in "NSWE":
            r = corners[label][c]
            if r not in (TOP, OUT):
                edges.append((label, r))

    # bounded faces: one quadrilateral per arc whose two flanking regions
    # both survive the deletion
    faces = []

    def quad(c1, c2, r1, r2):
        faces.append([(c1, r1), (c2, r1), (c2, r2), (c1, r2)])

    for ci, labels in enumerate(layout, start=1):
        for p in range(1, len(labels)):
            a, b = labels[p - 1], labels[p]
            if ci >= 2:                      # west side arc of the bigon
                quad(a, b, bigon(ci, p), strip(ci - 1))
            if ci <= k - 1:                  # east side arc
                quad(a, b, bigon(ci, p), strip(ci))
    bots = [labels[-1] for labels in layout]
    for i in range(1, k):                    # bottom band arcs
        quad(bots[i - 1], bots[i], BOT, strip(i))

    signs = {}
    for labels, v in zip(layout, spec):
        for label in labels:
            signs[label] = 1 if v > 0 else -1

    ov = Overlay(crossings=crossings, set2=set2, set3=set3,
                 edges=edges, corners=corners, crossing_signs=signs,
                 faces=faces)
    assert len(ov.crossings) == len(ov.set2) + len(ov.set3)
    return ov


def kasteleyn_negatives(faces):
    """The face edges (any sortable keys) a Kasteleyn signing makes negative.

    Every edge not chosen as a link of a breadth-first spanning tree of the
    face-adjacency graph, edges taken in sorted order, gets +1; then each
    bounded face is solved leaf-to-root for its single remaining unknown so
    that the face parity rule holds (a face of length l needs an odd number
    of negative edges iff l = 0 mod 4).
    """
    by_edge = {}
    for fi, f in enumerate(faces):
        for e in f:
            by_edge.setdefault(e, []).append(fi)

    # face adjacency; the unbounded face, index -1 (the last slot), is root
    adj = [[] for _ in range(len(faces) + 1)]
    for e in sorted(by_edge):
        fs = by_edge[e]
        if len(fs) == 2:
            adj[fs[0]].append((fs[1], e))
            adj[fs[1]].append((fs[0], e))
        else:
            adj[-1].append((fs[0], e))
            adj[fs[0]].append((-1, e))

    parent_link = [None] * len(faces) + [-1]
    order = [-1]
    for node in order:                   # the list grows as the BFS queue
        for nxt, e in adj[node]:
            if parent_link[nxt] is None:
                parent_link[nxt] = e
                order.append(nxt)
    if len(order) != len(faces) + 1:
        raise RuntimeError("face-adjacency graph is not connected")

    # children before parents; a face's unknown is not negative yet
    negative = set()
    for fi in reversed(order[1:]):
        f = faces[fi]
        if (len(negative.intersection(f)) % 2 == 0) == (len(f) % 4 == 0):
            negative.add(parent_link[fi])
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
