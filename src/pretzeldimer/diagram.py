"""Pretzel diagrams as port-wired crossing lists.

A pretzel diagram P(n1, ..., nk) is k vertical columns of |ni| crossings,
joined left-to-right along the top and bottom bands.  Each crossing has four
ports NW, NE, SW, SE; the two strands through it occupy the diagonals.  A
positive column twists so that the "/" strand (SW-NE) passes over; a
negative column puts the "\\" strand (NW-SE) on top.

Crossing labels: column 1 is numbered top-down starting at 1; every later
column is numbered bottom-up, continuing the count.  (So the top crossing of
the last column always carries the largest label n.)

Arcs are stored as an involution on ports.  Everything else — orientation,
writhe, component count, the skein state sum — is derived from this wiring.
"""

import re
from collections import namedtuple

CORNERS = ("NW", "NE", "SW", "SE")

#: most crossings a spec may have; a state peaks at ~1.4 KB each (README)
MAX_CROSSINGS = 10 ** 6


class UsageError(ValueError):
    """An input the command line cannot run: a bad spec or move chain, or
    flags that do not combine.  The CLI exits 2 with its message."""


class Refusal(ValueError):
    """A well-formed input outside a route's domain, such as a link where
    a knot is required.  The CLI exits 3 with its message."""


#: entry corner -> (exit corner, diagonal, way): a strand keeps to its
#: diagonal, 0 "/" or 1 "\\", heading east (way +1) or west (way -1)
_PASSAGE = {"SW": ("NE", 0, 1), "NE": ("SW", 0, -1),
            "NW": ("SE", 1, 1), "SE": ("NW", 1, -1)}


class Crossing(namedtuple("Crossing", "label over sign")):
    """One crossing, immutable: over is "/" if the SW-NE strand is on top,
    "\\" otherwise; sign is the checkerboard edge sign (column sign), +1
    or -1.  The diagram and the moves compute both, so neither is checked
    again here."""
    __slots__ = ()


class Diagram:
    """Crossings (label -> Crossing) wired by arcs, a port -> port
    involution with port = (label, corner).  outer_top_arc is the unique
    arc separating the upper deck from the unbounded region.  The moves
    in extend grow a diagram in place and keep outer_top_arc up to date,
    so kinks know where to attach; nothing copies a diagram.
    """
    __slots__ = ("crossings", "arcs", "outer_top_arc")

    def __init__(self, crossings, arcs, outer_top_arc):
        self.crossings = crossings
        self.arcs = arcs
        self.outer_top_arc = outer_top_arc

    @property
    def n(self):
        return len(self.crossings)

    def arc_list(self):
        """Each arc once, as a sorted pair of ports: arcs is an involution
        with no fixed port, so every arc appears as exactly one p < q."""
        return [(p, q) for p, q in self.arcs.items() if p < q]


def parse_spec(text):
    """Parse "P(-2,3,7)" / "(-2,3,7)" / "-2,3,7" into a tuple of ints.

    Every entry must be a nonzero integer; at least one column is required.
    Anything else raises UsageError.
    """
    s = text.strip()
    m = re.fullmatch(r"[Pp]?\s*\(([^()]*)\)", s)
    if m:
        s = m.group(1)
    parts = [p.strip() for p in s.split(",")]
    if parts == [""]:
        raise UsageError("empty pretzel spec")
    out = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise UsageError("bad pretzel entry %r" % (p,)) from None
        if v == 0:
            raise UsageError("pretzel entries must be nonzero")
        out.append(v)
    check_size(sum(map(abs, out)))
    return tuple(out)


def check_size(crossings):
    """Raise UsageError if a diagram of that many crossings is too large:
    more than MAX_CROSSINGS."""
    if crossings > MAX_CROSSINGS:
        raise UsageError("more than %d crossings" % MAX_CROSSINGS)


def column_labels(sizes):
    """Crossing labels of each twist column, top to bottom.

    sizes lists the number of crossings per column.  Column 1 is numbered
    top-down from 1; every later column is numbered bottom-up, continuing
    the count.  The diagram and the checkerboard graphs read their labels
    from here; the block matrix walks the same numbering as runs of rows.
    """
    columns = []
    offset = 0
    for i, m in enumerate(sizes):
        labels = list(range(offset + 1, offset + m + 1))
        columns.append(labels if i == 0 else labels[::-1])
        offset += m
    return columns


def join(arcs, p, q):
    """Wire ports p and q to each other: one arc of the involution."""
    arcs[p] = q
    arcs[q] = p


def check_spec(spec):
    """Raise ValueError unless spec has an entry and each is a nonzero
    int: the specs build_diagram can draw."""
    if not spec:
        raise ValueError("empty pretzel spec")
    for v in spec:
        if not isinstance(v, int) or v == 0:
            raise ValueError("pretzel entries must be nonzero integers")


def build_diagram(spec):
    """Standard diagram of P(n1, ..., nk)."""
    spec = tuple(spec)
    check_spec(spec)
    columns = column_labels(map(abs, spec))

    crossings = {}
    for col, v in zip(columns, spec):
        over, s = ("/", 1) if v > 0 else ("\\", -1)
        for label in col:
            crossings[label] = Crossing(label, over, s)

    arcs = {}
    for col in columns:
        for a, b in zip(col, col[1:]):
            join(arcs, (a, "SW"), (b, "NW"))
            join(arcs, (a, "SE"), (b, "NE"))
    tops = [col[0] for col in columns]
    bots = [col[-1] for col in columns]
    for i in range(len(columns) - 1):
        join(arcs, (tops[i], "NE"), (tops[i + 1], "NW"))
        join(arcs, (bots[i], "SE"), (bots[i + 1], "SW"))
    outer_top = ((tops[0], "NW"), (tops[-1], "NE"))
    join(arcs, *outer_top)
    join(arcs, (bots[0], "SW"), (bots[-1], "SE"))

    return Diagram(crossings=crossings, arcs=arcs, outer_top_arc=outer_top)


class Trace(namedtuple("Trace", "components signs writhe")):
    """A traced orientation: the component count, label -> +1/-1 crossing
    signs under it, and the writhe."""
    __slots__ = ()


def trace(diagram, seed=None):
    """Orient the diagram and compute crossing signs and writhe.

    Follows strands through the port wiring.  The first component is seeded
    entering crossing 1 at its NW port (heading down into the crossing);
    later components start at the lowest-numbered unvisited port.  For a
    knot the crossing signs are independent of these choices, which tests
    assert by re-tracing from every port.

    Each step reads its exit corner, diagonal and heading off _PASSAGE; a
    port is visited once its diagonal is.  Both strands heading east make
    a negative crossing when "/" is over; each reversal flips the sign.
    """
    crossings, arcs = diagram.crossings, diagram.arcs
    labels = sorted(crossings)
    # each diagonal's heading by label, 0 while untravelled
    slash, back = ways = dict.fromkeys(labels, 0), dict.fromkeys(labels, 0)
    if seed is not None and labels and seed not in arcs:
        raise ValueError("seed %r is not a port of this diagram" % (seed,))
    entry = (1, "NW") if seed is None else seed
    components, i = 0, 0
    while True:
        if components or entry not in arcs:
            # the lowest port on a diagonal still untravelled
            while i < len(labels) and slash[labels[i]] and back[labels[i]]:
                i += 1
            if i == len(labels):
                break
            entry = (labels[i], "NE" if back[labels[i]] else "NW")
        components += 1
        start = entry
        while True:
            label, corner = entry
            exit_corner, diag, way = _PASSAGE[corner]
            ways[diag][label] = way
            entry = arcs[label, exit_corner]
            if entry == start:
                break

    signs = {}
    for label, cr in crossings.items():
        way = slash[label] * back[label]
        if not way:
            raise RuntimeError("crossing %d not traversed on both diagonals" % label)
        signs[label] = way if cr.over == "\\" else -way

    return Trace(components=components, signs=signs,
                 writhe=sum(signs.values()))
