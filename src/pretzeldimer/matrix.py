"""The activity matrix: crossings by surviving regions.

Rows are crossings 1..n, columns the surviving regions of the balanced
overlay (bigons and the bottom deck first, then the strips).  The entry in
row c, column R — present when crossing c touches region R — is an activity
letter: for a black column the lowest-numbered incident crossing is L
(live) and the rest are D; for a white column the lowest is l and the rest
d.  Rows of negative columns of the pretzel carry bars.

Expanding the permanent turns each permutation term into a word; these are
exactly the spanning-tree activity words, which is what makes the
determinant/permanent route agree with the tree expansion.  Two optional
decorations: Kasteleyn signs (det = +-perm afterwards) and per-row writhe
weights (multiplying the evaluation by (-A^-3)^writhe).

The invariants never expand: det_value eliminates (fraction-free, exact
over Z[A^+-1], unit pivots normalised, on raw {exponent: coefficient}
dicts) over a letter table (JONES_TABLE in A, KHOVANOV_TABLE in (u, v),
both defined here) and kasteleyn_perm reads the permanent off the signed
determinant.  The same kernel counts perfect matchings of signed minors
(evaluate.stencil_pair_counts).  expand and perm_value enumerate every
term; they serve word-level questions and are the slow route elimination
is checked against.  The enumeration cuts the branches a column's last
candidate row rules out and reads each parity off the cycle lengths, so on
pretzel matrices it costs about terms x n, but the number of terms grows
exponentially with the number of twist columns.  word_sum is the one sum
of table values over a list of words, for perm_value, verify's permanent
check and the spanning-tree oracle alike: every table value is a
monomial, so it adds exponents and multiplies coefficients as plain
integers.

The row order matters: clean activity words come from the standard
numbering.  A documented counterexample — reversing the labels of
P(-2,3,3), i.e. ranks {1:8, 2:7, ..., 8:1} — makes the signed determinant
stop being +- the Jones polynomial; build_graph_matrix takes a ranks
mapping so that this can be demonstrated.
"""

import json
import math
from collections import namedtuple

from .activities import split_token, token
from .diagram import column_labels, trace
from .laurent import Laurent, Laurent2, _div, _mul, writhe_factor
from .taitgraphs import BOT, bigon, kasteleyn_negatives, region_name, strip


class Entry(namedtuple("Entry", "tok sign", defaults=(1,))):
    """One matrix entry: an activity letter with optional bar mark, e.g.
    "D~", and its Kasteleyn sign (only honoured when matrix.signed)."""
    __slots__ = ()


class Column(namedtuple("Column", "kind region")):
    """A region column: kind "internal" (black region) or "external"
    (white region), and the region itself."""
    __slots__ = ()


class ActivityMatrix:
    """Crossing rows by region columns.

    rows lists crossing labels in row order, columns the Column of each
    column, entries maps (row index, col index) -> Entry; row_weights maps
    row index -> crossing sign when enhanced.
    """
    __slots__ = ("rows", "columns", "entries", "signed", "enhanced",
                 "row_weights")

    def __init__(self, rows, columns, entries, signed=False, enhanced=False,
                 row_weights=None):
        self.rows = rows
        self.columns = columns
        self.entries = entries
        self.signed = signed
        self.enhanced = enhanced
        self.row_weights = row_weights

    def __eq__(self, other):
        return type(other) is ActivityMatrix and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def n(self):
        return len(self.rows)

    def copy(self):
        return ActivityMatrix(
            rows=list(self.rows),
            columns=list(self.columns),
            entries=dict(self.entries),
            signed=self.signed,
            enhanced=self.enhanced,
            row_weights=dict(self.row_weights) if self.row_weights else None,
        )

    def row_entries(self, ri):
        return sorted((ci, e) for (r, ci), e in self.entries.items() if r == ri)

    def by_region(self):
        """(row label, column region) -> (letter, barred); order-free view."""
        out = {}
        for (ri, ci), e in self.entries.items():
            out[(self.rows[ri], self.columns[ci].region)] = split_token(e.tok)
        return out


#: every Entry a matrix holds, by (token, Kasteleyn sign); Entry is frozen
ENTRIES = {(e.tok, e.sign): e for e in (Entry(token(x, barred), sign)
           for x in "LDld" for barred in (False, True) for sign in (1, -1))}
_UNSIGNED = {barred: {x: ENTRIES[token(x, barred), 1] for x in "LDld"}
             for barred in (False, True)}


def signed_block_matrix(spec):
    """Kasteleyn-signed activity matrix in one walk over the labels.

    Rows follow the diagram's labels (diagram.column_labels).  Each twist
    column contributes one internal column per bigon, L at the lower of its
    two crossings and D at the higher, ordered by the lower label; the
    bottom-deck column takes L at the bottom of column 1 and D at the
    bottom of every later column; strip column i takes l at the lowest
    label of twist columns i and i+1 and d at the rest of both.  The walk
    also lists the overlay's bounded faces (build_overlay's, in its order)
    as quads of (row index, column index) keys for kasteleyn_negatives; no
    overlay is built.  The solver's tree follows the sorted keys, and the
    sort is load-bearing: it gives exactly solve_kasteleyn's signs on every
    spec tests/test_matrix.py sweeps, while taking the edges in face order
    changes the signs on 3 840 of the 4 112 desk specs.
    """
    spec = tuple(spec)
    k = len(spec)
    layout = column_labels(map(abs, spec))
    bot = sum(map(len, layout)) - k    # after the bigons; strip i is bot + i
    letters = {label: _UNSIGNED[v < 0] for labels, v in zip(layout, spec)
               for label in labels}
    columns, entries, faces = [], {}, []

    def add(kind, region, cells):
        col = len(columns)
        columns.append(Column(kind, region))
        for label, letter in cells:
            entries[(label - 1, col)] = letters[label][letter]
        return col

    def quad(a, b, c1, c2):
        return (a - 1, c1), (b - 1, c1), (b - 1, c2), (a - 1, c2)

    for ci, labels in enumerate(layout, start=1):
        arcs = list(enumerate(zip(labels, labels[1:]), 1))
        # by lower label: top-down in column 1, bottom-up in the others
        col = {p: add("internal", bigon(ci, p),
                      ((min(ab), "L"), (max(ab), "D")))
               for p, ab in (arcs if ci == 1 else reversed(arcs))}
        faces += [quad(a, b, col[p], bot + i)       # west and east arcs
                  for p, (a, b) in arcs for i in (ci - 1, ci) if 0 < i < k]
    bots = [labels[-1] for labels in layout]
    add("internal", BOT, [(bots[0], "L")] + [(b, "D") for b in bots[1:]])
    for i in range(1, k):
        live, *dead = sorted(layout[i - 1] + layout[i])
        add("external", strip(i), [(live, "l")] + [(d, "d") for d in dead])
        faces.append(quad(bots[i - 1], bots[i], bot, bot + i))  # bottom band
    assert len(columns) == len(letters)
    for key in kasteleyn_negatives(faces):
        entries[key] = ENTRIES[entries[key].tok, -1]
    return ActivityMatrix(rows=list(range(1, len(letters) + 1)),
                          columns=columns, entries=entries, signed=True)


def build_block_matrix(spec):
    """The same matrix unsigned: signed_block_matrix is the one walk."""
    return unsign(signed_block_matrix(spec))


def build_graph_matrix(overlay, ranks=None):
    """Activity matrix read off the overlay's adjacency.

    Liveness = lowest-ranked incident crossing per region column.  Columns:
    internal regions sorted by their live rank, then external ones; rows
    sorted by rank.  With identity ranks this is the same matrix as
    build_block_matrix up to a column permutation.
    """
    if ranks is None:
        ranks = {c: c for c in overlay.crossings}
    rows = sorted(overlay.crossings, key=lambda c: ranks[c])
    rowpos = {c: i for i, c in enumerate(rows)}

    incident = {}
    for c, r in overlay.edges:
        incident.setdefault(r, []).append(c)

    def live_rank(region):
        return min(ranks[c] for c in incident[region])

    columns = []
    entries = {}
    for kind, regions in (("internal", overlay.set2), ("external", overlay.set3)):
        for region in sorted(regions, key=lambda r: (live_rank(r), r)):
            ci = len(columns)
            columns.append(Column(kind, region))
            lo = live_rank(region)
            for c in incident[region]:
                letter = ("L" if kind == "internal" else "l") \
                    if ranks[c] == lo else ("D" if kind == "internal" else "d")
                entries[(rowpos[c], ci)] = ENTRIES[
                    token(letter, overlay.crossing_signs[c] < 0), 1]
    return ActivityMatrix(rows=rows, columns=columns, entries=entries)


def sign_matrix(m, edge_signs):
    """Apply Kasteleyn edge signs (keyed by (crossing label, region))."""
    out = m.copy()
    out.entries = {
        (ri, ci): Entry(e.tok, edge_signs[(out.rows[ri], out.columns[ci].region)])
        for (ri, ci), e in out.entries.items()
    }
    out.signed = True
    return out


def unsign(m):
    """The matrix with every Kasteleyn sign reset to 1."""
    out = m.copy()
    out.entries = {k: ENTRIES[e.tok, 1] for k, e in out.entries.items()}
    out.signed = False
    return out


def enhance(m, diagram):
    """Attach per-row writhe weights from the diagram's traced orientation.

    Only defined for knots; the per-crossing signs of a link depend on
    orientation choices.
    """
    t = trace(diagram)
    if t.components != 1:
        raise ValueError("writhe weights need a knot, got a %d-component link"
                         % t.components)
    out = m.copy()
    out.enhanced = True
    out.row_weights = {ri: t.signs[label] for ri, label in enumerate(out.rows)}
    return out


class Term(namedtuple("Term", "cols word parity ksign")):
    """One permutation term: the column index chosen for each row and the
    activity tokens, both in row order; the sign of the permutation; the
    product of its Kasteleyn entry signs."""
    __slots__ = ()


def _row_candidates(m):
    cands = [[] for _ in range(m.n)]
    for (ri, ci), e in sorted(m.entries.items()):
        cands[ri].append((ci, e))
    return cands


def _parity(cols):
    """Sign of a permutation of 0..n-1: (-1)^(n - number of cycles)."""
    seen = [False] * len(cols)
    even = True
    for start in range(len(cols)):
        if seen[start]:
            continue
        i = cols[start]
        seen[start] = True
        while i != start:             # a cycle of length l is l-1 swaps
            seen[i] = True
            i = cols[i]
            even = not even
    return 1 if even else -1


def _require_square(m):
    if len(m.columns) != m.n:
        raise ValueError("expansion needs a square matrix, got %d x %d"
                         % (m.n, len(m.columns)))


def _all_terms(m):
    """Depth-first over the rows, candidate columns in ascending order.

    Dead branches are cut without changing the order of the terms: once
    row ri has passed, no later row can take a column whose last candidate
    row is ri.  In a square matrix every term uses every column, so such a
    column, if still free, must be taken at row ri, and two of them mean
    the branch holds no term at all.  The search keeps its own stack, one
    iterator of open choices per row, so its depth is not bounded by
    Python's recursion limit.
    """
    n = m.n
    _require_square(m)
    cands = _row_candidates(m)
    ending = [[] for _ in range(n)]   # row -> columns it is the last row of
    last = {}
    for ri, row in enumerate(cands):
        for ci, _ in row:
            last[ci] = ri
    for ci, ri in last.items():
        ending[ri].append(ci)
    used = [False] * n
    terms = []

    def options(ri):
        """Candidates row ri may take, given the columns rows above took."""
        forced = None
        for ci in ending[ri]:
            if not used[ci]:
                if forced is not None:
                    return iter(())
                forced = ci
        if forced is None:
            return iter([c for c in cands[ri] if not used[c[0]]])
        return iter([c for c in cands[ri] if c[0] == forced])

    pick = [None] * n                 # (column, entry) taken by each row
    todo = [None] * n                 # each open row's untried candidates
    todo[0] = options(0)
    ri = 0
    while True:
        for choice in todo[ri]:
            break
        else:                         # row exhausted: back up one row
            if ri == 0:
                break
            ri -= 1
            used[pick[ri][0]] = False
            continue
        used[choice[0]] = True
        pick[ri] = choice
        if ri + 1 < n:
            ri += 1
            todo[ri] = options(ri)
            continue
        cols, ents = zip(*pick)
        terms.append(Term(
            cols=cols,
            word=tuple([e.tok for e in ents]),
            parity=_parity(cols),
            ksign=_prod_signs(ents),
        ))
        used[choice[0]] = False
    return terms


def _prod_signs(entries):
    s = 1
    for e in entries:
        s *= e.sign
    return s


def expand(m, check_duplicates=True):
    """All nonzero permutation terms, in deterministic row-major order.

    Rows are processed top to bottom, candidate columns in ascending index
    order; branches a forced column rules out are cut, which on pretzel
    matrices leaves about terms x n steps.  The matrix must be square.  The
    slow route (see the module docstring); the invariants come from
    det_value.
    """
    if m.n == 0:
        return []
    terms = _all_terms(m)
    if check_duplicates:
        seen = {}
        for t in terms:
            seen[t.word] = seen.get(t.word, 0) + 1
        dups = [w for w, c in seen.items() if c > 1]
        if dups:
            raise ValueError("duplicate expansion words: %r" % (dups[:3],))
    return terms


def word_multiset(m):
    return sorted(t.word for t in expand(m))


# ---------------------------------------------------------------------------
# letter tables

#: activity letter -> Kauffman-bracket weight (Table 1)
JONES_TABLE = {
    "L": Laurent.term(-1, -3), "D": Laurent.term(1, 1),
    "l": Laurent.term(-1, 3), "d": Laurent.term(1, -1),
    "L~": Laurent.term(-1, 3), "D~": Laurent.term(1, -1),
    "l~": Laurent.term(-1, -3), "d~": Laurent.term(1, 1),
}

#: activity letter -> bigraded (u, v) weight (Table 2)
KHOVANOV_TABLE = {
    "L": Laurent2.term(1, 1, 1), "D": Laurent2.term(1, 0, 1),
    "l": Laurent2.term(1, -1, 0), "d": Laurent2.one(),
    "L~": Laurent2.term(1, -1, 0), "D~": Laurent2.one(),
    "l~": Laurent2.term(1, 1, 0), "d~": Laurent2.one(),
}


def _ring(m, table):
    ring = type(next(iter(table.values())))
    if m.enhanced and ring is not Laurent:
        raise ValueError("writhe weights only make sense for Laurent tables")
    return ring


def word_sum(words, table):
    """Sum over the words of the product of their letters' table values.

    Over the words of every term this is the permanent; perm_value,
    verify's permanent check and the spanning-tree oracle all take it this
    way.  Every table value must be a monomial c X^k (ValueError
    otherwise), so each word weighs one monomial too: its exponent is the
    sum of its letters' exponents and its coefficient their product, both
    plain integers.  A two-variable table goes through the same Kronecker
    substitution as det_value, so (u, v) exponents add as one integer.
    """
    ring = type(next(iter(table.values())))
    for tok, val in table.items():
        if len(val.coeffs) != 1:
            raise ValueError("word_sum needs monomial letters; %r is %s"
                             % (tok, val))
    coeffs = {tok: val.coeffs for tok, val in table.items()}
    decode = None
    if ring is Laurent2:
        words = list(words)
        coeffs, decode = _kronecker(coeffs, max(map(len, words), default=0))
    exponent, coefficient = {}, {}
    for tok, val in coeffs.items():
        (exponent[tok], coefficient[tok]), = val.items()
    exp_of, coeff_of = exponent.__getitem__, coefficient.__getitem__
    total = {}
    for word in words:
        e = sum(map(exp_of, word))
        total[e] = total.get(e, 0) + math.prod(map(coeff_of, word))
    if decode is not None:
        return decode(total)
    return Laurent(total)


def perm_value(m, table):
    """Permanent by term expansion, evaluated over a letter table.

    The independent slow route; kasteleyn_perm gives the same value by
    elimination.
    """
    _ring(m, table)                   # refuses weights on two-variable tables
    total = word_sum((t.word for t in expand(m)), table)
    if m.enhanced:
        total = total * writhe_factor(sum(m.row_weights.values()))
    return total


#: the pivot of a normalised unit step, and the divisor before the first step
_ONE = {0: 1}


def _eliminate(rows, n):
    """Determinant of a sparse n x n matrix over Z[A^+-1], as a coefficient
    dict.

    rows[i] maps column -> {exponent: coefficient}; the rows and their
    entries are consumed (updated in place).  Fraction-free elimination
    (Bareiss 1968) that normalises unit pivots.  Step k pivots column k on
    a unit entry +-A^e when one exists, otherwise on the shortest entry.

    * Non-unit pivot p: every later row with an entry a in column k becomes
      a[i][j] <- (p a[i][j] - a a[k][j]) / p_(k-1), each division exact (a
      remainder raises ValueError).  A row with nothing in column k only
      gets scaled by p / p_(k-1), so it is left alone and brought up to
      date lazily, in one exact division, the next time it is touched.
    * Unit pivot u: the pivot row counts as multiplied by u^-1 (an
      exponent shift and a sign, folded into a running unit factor), so
      p_k = 1.  That is done by shifting each row's multiplier a instead
      of the pivot row.  When p_(k-1) = 1 too, the step is the in-place
      update a[i][j] -= (a / u) a[k][j]: no multiplication by p, no
      division, and no row is left to rescale.
    """
    order = list(range(n))        # row at each position; k.. still active
    stamp = [0] * n               # row i is current as of step stamp[i]
    piv = [_ONE]                  # piv[k] = divisor of step k = p_(k-1)
    shift, sign = 0, 1            # the unit factor sign * A^shift

    def current(r, k):
        s = stamp[r]
        if piv[s] != piv[k]:
            num, den = piv[k], piv[s]
            rows[r] = {j: _div(_mul(a, num), den) for j, a in rows[r].items()}
        stamp[r] = k

    for k in range(n):
        best = None
        for pos in range(k, n):
            r = order[pos]
            if k not in rows[r]:
                continue
            if stamp[r] != k:
                current(r, k)
            a = rows[r][k]
            if len(a) == 1 and abs(next(iter(a.values()))) == 1:
                best = (0, pos)
                break
            if best is None or len(a) < best[0]:
                best = (len(a), pos)
        if best is None:
            return {}
        pos = best[1]
        if pos != k:
            order[k], order[pos] = order[pos], order[k]
            sign = -sign
        prow = rows[order[k]]
        p = prow.pop(k)
        pe = None
        if not best[0]:               # p = pc * A^pe, folded into the factor
            (pe, pc), = p.items()
            shift += pe
            sign *= pc
            p = _ONE
        prev = piv[k]
        for r in order[k + 1:]:
            if k not in rows[r]:
                continue
            if stamp[r] != k:
                current(r, k)
            row = rows[r]
            if pe is None:
                a = {e: -c for e, c in row.pop(k).items()}
            else:                     # divided by the unit pivot, negated
                a = {e - pe: -c * pc for e, c in row.pop(k).items()}
            if p is not _ONE:
                for j, x in row.items():
                    row[j] = _mul(x, p)
            for j, y in prow.items():
                t = row.get(j)
                if t is None:
                    row[j] = _mul(a, y)
                    continue
                for e, c in _mul(a, y).items():
                    v = t.get(e, 0) + c
                    if v:
                        t[e] = v
                    else:
                        del t[e]
                if not t:
                    del row[j]
            if prev is not _ONE:
                for j, x in row.items():
                    row[j] = _div(x, prev)
            stamp[r] = k + 1
        piv.append(p)
    return {e + shift: c * sign for e, c in piv[n].items()}


def _kronecker(coeffs, n):
    """Two-variable letter coefficients as one-variable ones, plus the decoder.

    (u, v) -> x^(u + B v) with B = 2 U n + 1, where U bounds |u| over the
    letters: every word of n letters then has |u| <= U n < B / 2, so each
    monomial of the determinant decodes to exactly one (u, v).
    """
    bound = n * max((abs(u) for p in coeffs.values() for u, _ in p),
                    default=0)
    base = 2 * bound + 1
    flat = {tok: {u + base * v: c for (u, v), c in p.items()}
            for tok, p in coeffs.items()}

    def decode(det):
        out = {}
        for e, c in det.items():
            v = (e + bound) // base
            out[(e - base * v, v)] = c
        return Laurent2(out)

    return flat, decode


def det_value(m, table):
    """Determinant of the matrix (signed if m.signed) over a letter table.

    Computed by elimination (``_eliminate``), never by term expansion, on
    the raw coefficient dicts of the table values: each entry's is copied
    once, negated for a -1 Kasteleyn sign, and one polynomial is made from
    the result.  With writhe weights (m.enhanced) it is multiplied by
    (-A^-3)^writhe.  Two-variable tables go through a Kronecker
    substitution.  A non-square matrix raises ValueError.
    """
    _require_square(m)
    ring = _ring(m, table)
    coeffs = {tok: val.coeffs for tok, val in table.items()}
    decode = None
    if ring is Laurent2:
        coeffs, decode = _kronecker(coeffs, m.n)
    rows = [{} for _ in range(m.n)]
    for (ri, ci), e in m.entries.items():
        val = coeffs[e.tok]
        if m.signed and e.sign < 0:
            rows[ri][ci] = {x: -c for x, c in val.items()}
        else:
            rows[ri][ci] = dict(val)
    det = _eliminate(rows, m.n)
    if decode is not None:
        return decode(det)
    total = Laurent(det)
    if m.enhanced:
        total = total * writhe_factor(sum(m.row_weights.values()))
    return total


def _perfect_matching(m):
    """Column of each row in one perfect matching (augmenting paths), or None."""
    adj = [[ci for ci, _ in cands] for cands in _row_candidates(m)]
    owner = {}                    # column -> matched row
    col_of = {}                   # row -> matched column
    for root in range(m.n):
        parent = {}               # column -> row it was reached from
        frontier = [root]
        free = None
        while frontier and free is None:
            nxt = []
            for r in frontier:
                for c in adj[r]:
                    if c in parent:
                        continue
                    parent[c] = r
                    if c not in owner:
                        free = c
                        break
                    nxt.append(owner[c])
                if free is not None:
                    break
            frontier = nxt
        if free is None:
            return None
        c = free
        while c is not None:      # flip the alternating path back to root
            r = parent[c]
            prev = col_of.get(r)  # None only at the root
            owner[c] = r
            col_of[r] = c
            c = prev
    return [col_of[r] for r in range(m.n)]


def kasteleyn_perm(m, table):
    """Permanent of a Kasteleyn-signed matrix as eps * det.

    Kasteleyn (1963): every term of a Kasteleyn-signed determinant carries
    the same sign eps = parity x product of entry signs, so the permanent
    is eps times the determinant.  eps is read off one perfect matching.
    """
    if not m.signed:
        raise ValueError("kasteleyn_perm needs a Kasteleyn-signed matrix")
    total = det_value(m, table)       # refuses a non-square matrix
    cols = _perfect_matching(m)
    if cols is None:                  # no term: the determinant is 0
        return total
    eps = _parity(cols)
    for ri, ci in enumerate(cols):
        eps *= m.entries[(ri, ci)].sign
    return total if eps > 0 else -total


# ---------------------------------------------------------------------------
# presentation

def _column_group(col):
    if col.region == BOT:
        return ("deck",)
    if col.region[0] == "strip":
        return ("strip",)
    return (col.region[0], col.region[1])


def pretty(m, ascii_bars=False):
    """Plain-text layout with block separators, like the worked examples."""
    bar = "~" if ascii_bars else "̄"
    dot = "." if ascii_bars else "·"
    cells = []
    for ri in range(m.n):
        row = []
        for ci in range(len(m.columns)):
            e = m.entries.get((ri, ci))
            if e is None:
                row.append(dot)
                continue
            letter, barred = split_token(e.tok)
            if not ascii_bars and letter == "l":
                letter = "ℓ"
            text = letter + (bar if barred else "")
            if m.signed and e.sign < 0:
                text = "-" + text
            row.append(text)
        cells.append(row)

    widths = [max(len(cells[ri][ci]) for ri in range(m.n))
              for ci in range(len(m.columns))]
    lines = []
    for ri in range(m.n):
        parts = []
        prev_group = None
        for ci in range(len(m.columns)):
            group = _column_group(m.columns[ci])
            if prev_group is not None and group != prev_group:
                parts.append("|")
            prev_group = group
            parts.append(cells[ri][ci].rjust(widths[ci]))
        line = " ".join(parts)
        if m.enhanced:
            line += "   (w%+d)" % m.row_weights[ri]
        lines.append(line)
    return "\n".join(lines)


def to_json(m):
    return {
        "rows": list(m.rows),
        "columns": [{"kind": c.kind, "region": region_name(c.region)}
                    for c in m.columns],
        "entries": [
            {"row": m.rows[ri], "col": ci, "letter": e.tok, "sign": e.sign}
            for (ri, ci), e in sorted(m.entries.items())
        ],
        "signed": m.signed,
        "enhanced": m.enhanced,
        "row_weights": ({str(m.rows[ri]): w
                         for ri, w in m.row_weights.items()}
                        if m.row_weights else None),
    }


def dump_json(m):
    return json.dumps(to_json(m), indent=2, sort_keys=True)
