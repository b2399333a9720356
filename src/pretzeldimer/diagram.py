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

import json
import re
import sys
from collections import namedtuple

CORNERS = ("NW", "NE", "SW", "SE")

# passing through a crossing continues along the same diagonal
PASS = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}

_COORD = {"NW": (-1, 1), "NE": (1, 1), "SW": (-1, -1), "SE": (1, -1)}


class Crossing:
    """One crossing: over is "/" if the SW-NE strand is on top, "\\"
    otherwise; sign is the checkerboard edge sign (column sign), +1 or -1."""
    __slots__ = ("label", "over", "sign")

    def __init__(self, label, over, sign):
        if over not in ("/", "\\"):
            raise ValueError("over must be '/' or '\\'")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.label = label
        self.over = over
        self.sign = sign

    def __eq__(self, other):
        return type(other) is Crossing and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


class Diagram:
    """Crossings (label -> Crossing) wired by arcs, a port -> port
    involution with port = (label, corner).  columns lists the labels top
    to bottom per column for standard builds, else None.  outer_top_arc is
    the unique arc separating the upper deck from the unbounded region;
    surgery operations keep it up to date so kinks know where to attach.
    """
    __slots__ = ("crossings", "arcs", "columns", "outer_top_arc")

    def __init__(self, crossings, arcs, columns, outer_top_arc=None):
        self.crossings = crossings
        self.arcs = arcs
        self.columns = columns
        self.outer_top_arc = outer_top_arc

    def __eq__(self, other):
        return type(other) is Diagram and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def n(self):
        return len(self.crossings)

    def ports(self):
        return [(label, c) for label in sorted(self.crossings) for c in CORNERS]

    def arc_list(self):
        """Each arc once, as a sorted pair of ports."""
        seen = set()
        out = []
        for p, q in self.arcs.items():
            key = frozenset((p, q))
            if key not in seen:
                seen.add(key)
                out.append(tuple(sorted((p, q))))
        return out

    def copy(self):
        return Diagram(
            crossings={l: Crossing(c.label, c.over, c.sign)
                       for l, c in self.crossings.items()},
            arcs=dict(self.arcs),
            columns=[list(col) for col in self.columns] if self.columns else None,
            outer_top_arc=self.outer_top_arc,
        )

    def to_json(self):
        return {
            "crossings": [
                {"label": c.label, "over": c.over, "sign": c.sign}
                for _, c in sorted(self.crossings.items())
            ],
            "arcs": [[list(p), list(q)] for p, q in sorted(self.arc_list())],
        }

    def to_dot(self):
        lines = ["graph projection {"]
        for label in sorted(self.crossings):
            c = self.crossings[label]
            over = c.over if c.over == "/" else "\\\\"
            lines.append('  c%d [label="%d %s"];' % (label, label, over))
        for p, q in sorted(self.arc_list()):
            lines.append('  c%d -- c%d [label="%s-%s"];'
                         % (p[0], q[0], p[1], q[1]))
        lines.append("}")
        return "\n".join(lines)


def parse_spec(text):
    """Parse "P(-2,3,7)" / "(-2,3,7)" / "-2,3,7" into a tuple of ints.

    Every entry must be a nonzero integer; at least one column is required.
    """
    s = text.strip()
    m = re.fullmatch(r"[Pp]?\s*\(([^()]*)\)", s)
    if m:
        s = m.group(1)
    parts = [p.strip() for p in s.split(",")]
    if parts == [""]:
        raise ValueError("empty pretzel spec")
    out = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise ValueError("bad pretzel entry %r" % (p,)) from None
        if v == 0:
            raise ValueError("pretzel entries must be nonzero")
        out.append(v)
    if sum(map(abs, out)) > sys.maxsize:        # labels are list indices
        raise ValueError("more than %d crossings" % sys.maxsize)
    return tuple(out)


def column_labels(sizes):
    """Crossing labels of each twist column, top to bottom.

    sizes lists the number of crossings per column.  Column 1 is numbered
    top-down from 1; every later column is numbered bottom-up, continuing
    the count.  The diagram, the checkerboard graphs and the block matrix
    all read their labels from here.
    """
    columns = []
    offset = 0
    for i, m in enumerate(sizes):
        labels = list(range(offset + 1, offset + m + 1))
        columns.append(labels if i == 0 else labels[::-1])
        offset += m
    return columns


def build_from_sign_columns(sign_columns):
    """Build a diagram from explicit per-crossing signs.

    sign_columns[i] lists the crossing signs of column i+1 from top to
    bottom.  This generality is needed when surgeries grow a column by a
    crossing of the opposite sign.
    """
    if not sign_columns or any(not col for col in sign_columns):
        raise ValueError("every column needs at least one crossing")
    k = len(sign_columns)
    columns = column_labels(map(len, sign_columns))

    crossings = {}
    for col, signs in zip(columns, sign_columns):
        for label, s in zip(col, signs):
            crossings[label] = Crossing(label, "/" if s > 0 else "\\", s)

    arcs = {}

    def join(p, q):
        arcs[p] = q
        arcs[q] = p

    for col in columns:
        for a, b in zip(col, col[1:]):
            join((a, "SW"), (b, "NW"))
            join((a, "SE"), (b, "NE"))
    tops = [col[0] for col in columns]
    bots = [col[-1] for col in columns]
    for i in range(k - 1):
        join((tops[i], "NE"), (tops[i + 1], "NW"))
        join((bots[i], "SE"), (bots[i + 1], "SW"))
    outer_top = ((tops[0], "NW"), (tops[-1], "NE"))
    join(*outer_top)
    join((bots[0], "SW"), (bots[-1], "SE"))

    return Diagram(crossings=crossings, arcs=arcs, columns=columns,
                   outer_top_arc=outer_top)


def build_diagram(spec):
    """Standard diagram of P(n1, ..., nk)."""
    spec = tuple(spec)
    for v in spec:
        if not isinstance(v, int) or v == 0:
            raise ValueError("pretzel entries must be nonzero integers")
    return build_from_sign_columns(
        [[1 if v > 0 else -1] * abs(v) for v in spec])


class Trace(namedtuple("Trace", "components signs writhe seeds")):
    """A traced orientation: the component count, label -> +1/-1 crossing
    signs under it, the writhe and the port each component started at."""
    __slots__ = ()

    def __new__(cls, components, signs, writhe, seeds=None):
        return super().__new__(cls, components, signs, writhe,
                               [] if seeds is None else seeds)


def trace(diagram, seed=None):
    """Orient the diagram and compute crossing signs and writhe.

    Follows strands through the port wiring.  The first component is seeded
    entering crossing 1 at its NW port (heading down into the crossing);
    later components start at the lowest-numbered unvisited port.  For a
    knot the crossing signs are independent of these choices, which tests
    assert by re-tracing from every port.
    """
    unvisited = set(diagram.ports())
    passages = {}   # label -> {diagonal: direction vector}
    seeds = []
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
        seeds.append(entry)
        components += 1
        start = entry
        while True:
            label, corner = entry
            exit_corner = PASS[corner]
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
                 writhe=sum(signs.values()), seeds=seeds)


def components(diagram):
    return trace(diagram).components


def is_knot(diagram):
    return trace(diagram).components == 1


def writhe(diagram):
    """Writhe of the diagram; defined only for knots.

    For a multi-component link the writhe depends on the orientation chosen
    for each component, so we refuse rather than silently pick one.
    """
    t = trace(diagram)
    if t.components != 1:
        raise ValueError(
            "writhe is orientation-dependent for a %d-component link"
            % t.components)
    return t.writhe


def dump_json(diagram):
    return json.dumps(diagram.to_json(), indent=2, sort_keys=True)
