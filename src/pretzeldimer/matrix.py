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
weights, which ``matrix --enhanced`` prints and no evaluation reads.

The invariants never expand: det_value eliminates (fraction-free, exact
over Z[A^+-1], unit pivots normalised, on raw {exponent: coefficient}
dicts) over a letter table (JONES_TABLE in A, KHOVANOV_TABLE in (u, v),
both defined here); extend fixes each invariant's global sign from its
own value.  Each elimination step takes the column with the fewest live
rows, whatever order the columns are stored in, and the sign is corrected
by that order's parity, so a column a move appends last costs what the
same column of a pretzel costs.  It pivots on up-to-date rows and updates
a stale row with one exact division, so the desk sweep, P(3^k) and
P(-2,3,n) take no polynomial division, and it drops each pivot row and
divisor once nothing reads it.  On the matrices the commands see most of
a step's cost is bookkeeping, not products, so the kernel keeps each
row's coefficient count as the row changes, adds a one-term multiple of
the pivot row in place, and each LetterTable keeps its lowered values.
The stencil pair counts (evaluate.stencil_pair_counts) eliminate over Z
in this column order too.  expand and perm_value enumerate every
term; they serve word-level questions and are the slow route elimination
is checked against.  The enumeration cuts the branches a column's last
candidate row rules out and carries each term's permutation and Kasteleyn
signs down the search, one popcount of the taken columns per step, so on
pretzel matrices it costs about terms x n, but the number of terms grows
exponentially with the number of twist columns.  word_sum is the one sum
of table values over a list of words, for perm_value, verify's permanent
check and the spanning-tree oracle alike: every table value is a
monomial, so it adds exponents and multiplies coefficients as plain
integers.

The row order matters: clean activity words come from the standard
numbering.  A documented counterexample — reversing the labels of
P(-2,3,3), i.e. ranks {1:8, 2:7, ..., 8:1} — makes the signed determinant
times (-A^-3)^writhe stop being +- the Jones polynomial;
build_graph_matrix takes a ranks mapping so that this can be demonstrated.
"""

import json
import math
from collections import Counter, namedtuple
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate

from .activities import split_token, token
from .diagram import Refusal, trace
from .laurent import Laurent, Laurent2, _div, _mul, _wrap
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
    row index -> crossing sign, and is set exactly when enhanced.
    """
    __slots__ = ("rows", "columns", "entries", "signed", "row_weights")

    def __init__(self, rows, columns, entries, signed=False,
                 row_weights=None):
        self.rows = rows
        self.columns = columns
        self.entries = entries
        self.signed = signed
        self.row_weights = row_weights

    def __eq__(self, other):
        return type(other) is ActivityMatrix and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def n(self):
        return len(self.rows)

    @property
    def enhanced(self):
        return self.row_weights is not None

    def copy(self):
        return ActivityMatrix(
            rows=list(self.rows),
            columns=list(self.columns),
            entries=dict(self.entries),
            signed=self.signed,
            row_weights=(None if self.row_weights is None
                         else dict(self.row_weights)),
        )

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

    Rows follow the diagram's labels (diagram.column_labels), so row r holds
    label r + 1 and each twist column's labels are one run of rows.  Each
    twist column contributes one internal column per bigon, L at the lower
    of its two crossings and D at the higher, ordered by the lower label;
    the bottom-deck column takes L at the bottom of column 1 and D at the
    bottom of every later column; strip column i takes l at the lowest
    label of twist columns i and i+1 and d at the rest of both.  The walk
    also lists the overlay's bounded faces off the layout (the set that
    build_overlay reads off the corner table by its local rule) as quads
    of edge keys row * n + column, which sort as the (row, column) pairs
    do, for kasteleyn_negatives; no overlay is built.  The solver's tree
    follows the sorted keys, and the sort is load-bearing: it gives exactly
    solve_kasteleyn's signs on every spec tests/test_matrix.py sweeps,
    while taking the edges in face order changes the signs on 3 840 of the
    4 112 desk specs.
    """
    spec = tuple(spec)
    k = len(spec)
    starts = [0, *accumulate(map(abs, spec))]   # each column's lowest row
    n = starts[-1]
    bot = n - k                # after the bigons; strip i is bot + i
    letters = [_UNSIGNED[v < 0] for v in spec]
    columns, entries, faces = [], {}, []
    for ci, v in enumerate(spec, start=1):
        m, low, d = abs(v), starts[ci - 1], ci - 1
        live, dead = letters[d]["L"], letters[d]["D"]
        # by lower label: top-down in column 1, bottom-up in the others;
        # the bigon above row r + 1 is column r - d
        columns += [Column("internal", bigon(ci, p)) for p in
                    (range(1, m) if ci == 1 else range(m - 1, 0, -1))]
        rows = range(low, low + m - 1)
        for r in rows:
            c = r - d
            entries[r, c] = live
            entries[r + 1, c] = dead
        # each bigon's west and east arcs bound one quad with the strip
        # beside it, where there is one
        for s in (bot + i for i in (d, ci) if 0 < i < k):
            faces += [(r * n + r - d, (r + 1) * n + r - d, (r + 1) * n + s,
                       r * n + s) for r in rows]
    bots = [starts[1] - 1] + starts[1:-1]     # column 1 runs top-down
    columns.append(Column("internal", BOT))
    entries.update(((b, bot), letters[i]["D" if i else "L"])
                   for i, b in enumerate(bots))
    for i in range(1, k):
        c = bot + i
        columns.append(Column("external", strip(i)))
        low, mid, high = starts[i - 1:i + 2]
        west, east = letters[i - 1]["d"], letters[i]["d"]
        entries[low, c] = letters[i - 1]["l"]
        for r in range(low + 1, mid):
            entries[r, c] = west
        for r in range(mid, high):
            entries[r, c] = east
        x, y = bots[i - 1] * n, bots[i] * n         # the bottom band
        faces.append((x + bot, y + bot, y + c, x + c))
    assert len(columns) == n
    for key in kasteleyn_negatives(faces):
        key = divmod(key, n)
        entries[key] = ENTRIES[entries[key].tok, -1]
    return ActivityMatrix(rows=list(range(1, n + 1)),
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

    Display data for ``pretty`` and ``to_json``; no evaluation reads them.
    Only defined for knots; the per-crossing signs of a link depend on
    orientation choices.
    """
    t = trace(diagram)
    if t.components != 1:
        raise Refusal("writhe weights need a knot, got a %d-component link"
                      % t.components)
    out = m.copy()
    out.row_weights = {ri: t.signs[label] for ri, label in enumerate(out.rows)}
    return out


class Term(namedtuple("Term", "cols word parity ksign")):
    """One permutation term: the column index chosen for each row and the
    activity tokens, both in row order; the sign of the permutation; the
    product of its Kasteleyn entry signs."""
    __slots__ = ()


def _row_candidates(m):
    """Each row's candidates in ascending column order, as (column, token,
    2 if the Kasteleyn sign is -1 else 0, the column's bit)."""
    cands = [[] for _ in range(m.n)]
    for (ri, ci), e in sorted(m.entries.items()):
        cands[ri].append((ci, e.tok, 2 if e.sign < 0 else 0, 1 << ci))
    return cands


#: (parity, ksign) of a term, indexed by its flip bits: bit 0 is set for an
#: odd permutation, bit 1 for an odd number of -1 Kasteleyn signs
_SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


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

    The signs are carried down the search, not read off each finished
    term: every row keeps the bitmask of the columns the rows above it
    took and the flip bits of their partial term (see _SIGNS).  Row ri
    taking column c adds one inversion per taken column above c, so the
    permutation's parity flips when that popcount is odd, and a -1 entry
    flips the Kasteleyn sign.
    """
    n = m.n
    _require_square(m)
    cands = _row_candidates(m)
    ending = [[] for _ in range(n)]   # row -> columns it is the last row of
    last = {}
    for ri, row in enumerate(cands):
        for c in row:
            last[c[0]] = ri
    for ci, ri in last.items():
        ending[ri].append(ci)
    # the taken columns as a list too: options tests every candidate, and
    # a list index costs less than a bit test on an int of n bits
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

    pick = [None] * n                 # the candidate taken by each row
    todo = [None] * n                 # each open row's untried candidates
    taken = [0] * n                   # bitmask of the columns rows above took
    flips = [0] * n                   # flip bits of the rows above
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
        pick[ri] = choice
        ci, _, negative, bit = choice
        mask = taken[ri]
        flip = flips[ri] ^ negative ^ ((mask >> ci).bit_count() & 1)
        if ri + 1 < n:
            used[ci] = True
            ri += 1
            taken[ri] = mask | bit
            flips[ri] = flip
            todo[ri] = options(ri)
            continue
        cols, word, _, _ = zip(*pick)
        terms.append(Term(cols, word, *_SIGNS[flip]))
    return terms


def expand(m):
    """All nonzero permutation terms, in deterministic row-major order.

    Rows are processed top to bottom, candidate columns in ascending index
    order; branches a forced column rules out are cut, which on pretzel
    matrices leaves about terms x n steps.  The matrix must be square, and
    two terms with one word raise ValueError.  The slow route (see the
    module docstring); the invariants come from det_value.
    """
    if m.n == 0:
        return []
    terms = _all_terms(m)
    dups = [w for w, c in Counter(t.word for t in terms).items() if c > 1]
    if dups:
        raise ValueError("duplicate expansion words: %r" % (dups[:3],))
    return terms


def word_multiset(m):
    return sorted(t.word for t in expand(m))


# ---------------------------------------------------------------------------
# letter tables

class LetterTable(dict):
    """Activity letter -> polynomial, fixed once made.  It keeps what
    det_value lowers it to, by matrix size and signedness (_entry_values),
    so a table is lowered once, not at every determinant."""
    __slots__ = ("lowered",)

    def __init__(self, values):
        super().__init__(values)
        self.lowered = {}


#: activity letter -> Kauffman-bracket weight (Table 1)
JONES_TABLE = LetterTable({
    "L": Laurent.term(-1, -3), "D": Laurent.term(1, 1),
    "l": Laurent.term(-1, 3), "d": Laurent.term(1, -1),
    "L~": Laurent.term(-1, 3), "D~": Laurent.term(1, -1),
    "l~": Laurent.term(-1, -3), "d~": Laurent.term(1, 1),
})

#: activity letter -> bigraded (u, v) weight (Table 2)
KHOVANOV_TABLE = LetterTable({
    "L": Laurent2.term(1, 1, 1), "D": Laurent2.term(1, 0, 1),
    "l": Laurent2.term(1, -1, 0), "d": Laurent2.one(),
    "L~": Laurent2.term(1, -1, 0), "D~": Laurent2.one(),
    "l~": Laurent2.term(1, 1, 0), "d~": Laurent2.one(),
})


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
    for tok, val in table.items():
        if len(val.coeffs) != 1:
            raise ValueError("word_sum needs monomial letters; %r is %s"
                             % (tok, val))
    words = list(words)
    coeffs, decode = _lower(table, max(map(len, words), default=0))
    exponent, coefficient = {}, {}
    for tok, val in coeffs.items():
        (exponent[tok], coefficient[tok]), = val.items()
    exp_of, coeff_of = exponent.__getitem__, coefficient.__getitem__
    total = {}
    for word in words:
        e = sum(map(exp_of, word))
        total[e] = total.get(e, 0) + math.prod(map(coeff_of, word))
    return decode({e: c for e, c in total.items() if c})


def perm_value(m, table):
    """Permanent by term expansion, evaluated over a letter table.

    The independent slow route; on a Kasteleyn-signed matrix det_value
    gives the same value up to one global sign.
    """
    return word_sum((t.word for t in expand(m)), table)


#: the pivot of a normalised unit step, and the divisor before the first step
_ONE = {0: 1}


def _eliminate(rows, n):
    """Determinant of a sparse n x n matrix over Z[A^+-1], as a coefficient
    dict.

    rows[i] maps column -> {exponent: coefficient}; the rows and their
    entries are consumed (updated in place, and each pivot row dropped
    after its step).  Fraction-free elimination (Bareiss 1968) that
    normalises unit pivots, in a fill-reducing column order chosen as it
    goes: each step takes the unpivoted column with the fewest live rows,
    ties to the lowest stored index (the dynamic form of Markowitz 1957).
    Each column keeps the set of unpivoted rows with an entry in it, so a
    step touches only those rows, and a heap holds one key per column,
    count * n + column, pushed again whenever a step changes the count;
    only the pivot row's columns can change.  Taking columns and pivot
    rows out of order permutes the matrix; the parities of the two orders
    fix the sign at the end.

    Step k divides by p_(k-1), the previous pivot (1 at the start).  A
    row with nothing in the pivot's column would only be scaled by
    p_k / p_(k-1), so it is left alone; a row last updated at step s - 1
    holds its step-s values and keeps p_(s-1), its divisor, by reference.
    It is current at step k when p_(s-1) = p_(k-1), and stale otherwise.
    A divisor that no unpivoted row keeps is freed with its last holder.

    * Pivot: a unit entry +-A^e of a current row first, then any current
      row, then the shortest entry, then the row holding the fewest
      coefficients (the pivot row is added to every other row of its
      column), then the lowest row.  A stale pivot row P alone is brought
      up to date: P <- P p_(k-1) / p_(s-1).
    * Update: every other row R with an entry a in the column becomes
      (p R - a P) / p_(s-1).  By Bareiss's identity that is R rescaled to
      step k, updated and divided by p_(k-1): one exact division (a
      remainder raises ValueError), none when p_(s-1) = 1.
    * Unit pivot u: P counts as multiplied by u^-1, folded into a running
      unit factor, so p_k = 1 and the update is R -= (a / u) P.

    Around those products a step does as little as it can.  Each row's
    coefficient count, the pivot rule's fourth key, is kept up to date as
    the row changes, not recounted for every candidate at every step.
    When the multiplier (a, or a / u) is one term m A^k, as in every bigon
    step of a pretzel column over Table 1 or 2, P's entries are shifted by
    k, scaled by m and added into R in place, with no product dict.  Every
    other product goes through _mul and every division through _div.
    """
    holders = [set() for _ in range(n)]   # column -> unpivoted rows in it
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    size = [sum(map(len, row.values())) for row in rows]  # row -> terms
    keys = [len(h) * n + c for c, h in enumerate(holders)]  # -1 once taken
    heap = sorted(keys)
    cols, pivots = [], []         # column and pivot row of each step
    den = [_ONE] * n              # row -> its divisor p_(s-1)
    cur = _ONE                    # p_(k-1), the divisor of step k
    shift, sign = 0, 1            # the unit factor sign * A^shift

    for _ in range(n):
        key = heappop(heap)
        col = key % n
        while keys[col] != key:       # replaced by a later push
            key = heappop(heap)
            col = key % n
        keys[col] = -1
        cols.append(col)
        active = holders[col]         # no step changes it from here on
        best = pr = None
        for r in active:
            a = rows[r][col]
            d = den[r]
            stale = d is not cur and d != cur
            unit = not stale and len(a) == 1 and abs(*a.values()) == 1
            rank = (not unit, stale, len(a), size[r], r)
            if best is None or rank < best:
                best, pr = rank, r
        if best is None:
            return {}
        pivots.append(pr)
        prow, rows[pr] = rows[pr], None
        if best[1]:                   # stale: P <- P p_(k-1) / p_(s-1)
            prow = {j: _div(_mul(x, cur), den[pr]) for j, x in prow.items()}
        den[pr] = None
        p = prow.pop(col)
        pe, pc = 0, 1
        if not best[0]:               # fold the unit pivot into the factor
            (pe, pc), = p.items()
            shift += pe
            sign *= pc
            p = _ONE
        for r in active:
            if r == pr:
                continue
            row = rows[r]
            a = row.pop(col)
            s = size[r] - len(a)
            if p is not _ONE:
                for j, x in row.items():
                    row[j] = _mul(x, p)
            if len(a) == 1:
                # the multiplier -a, divided by any unit pivot, is one
                # term m A^k: shift and scale P's entries into R
                (k, m), = a.items()
                k -= pe
                m *= -pc
                for j, y in prow.items():
                    t = row.get(j)
                    if t is None:
                        row[j] = {e + k: c * m for e, c in y.items()}
                        holders[j].add(r)
                        s += len(y)
                        continue
                    s -= len(t)
                    for e, c in y.items():
                        e += k
                        v = t.get(e, 0) + c * m
                        if v:
                            t[e] = v
                        else:
                            del t[e]
                    if t:
                        s += len(t)
                    else:
                        del row[j]
                        holders[j].discard(r)
            else:
                a = {e - pe: -c * pc for e, c in a.items()}
                for j, y in prow.items():
                    t = row.get(j)
                    if t is None:
                        t = row[j] = _mul(a, y)
                        holders[j].add(r)
                        s += len(t)
                        continue
                    s -= len(t)
                    for e, c in _mul(a, y).items():
                        v = t.get(e, 0) + c
                        if v:
                            t[e] = v
                        else:
                            del t[e]
                    if t:
                        s += len(t)
                    else:
                        del row[j]
                        holders[j].discard(r)
            d = den[r]
            if d is not _ONE:
                for j, x in row.items():
                    row[j] = _div(x, d)
            if p is not _ONE or d is not _ONE:   # every entry was rebuilt
                s = sum(map(len, row.values()))
            size[r] = s
            den[r] = p
        for j in prow:                # only these columns' counts moved
            h = holders[j]
            h.discard(pr)
            key = len(h) * n + j
            if keys[j] != key:
                keys[j] = key
                heappush(heap, key)
        cur = p
    sign *= _parity(cols) * _parity(pivots)
    return {e + shift: c * sign for e, c in cur.items()}


def _lower(table, n):
    """A letter table's values as raw one-variable coefficient dicts, and
    the decoder that makes a normalised result dict a polynomial of the
    table's ring.

    A one-variable table is already raw, and its decoder only wraps.  A
    two-variable one is Kronecker-substituted, (u, v) -> x^(u + B v) with
    B = 2 U n + 1, where U bounds |u| over the letters and n bounds the
    number of letters in a product: every product of at most n letters
    then has |u| <= U n < B / 2, so each monomial of the result decodes to
    exactly one (u, v).
    """
    coeffs = {tok: val.coeffs for tok, val in table.items()}
    if type(next(iter(table.values()))) is not Laurent2:
        return coeffs, partial(_wrap, Laurent)
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
        return _wrap(Laurent2, out)

    return flat, decode


def _entry_values(table, n, signed):
    """The raw dict of each (letter, Kasteleyn sign) of a table for n x n
    matrices, the sign applied when signed, and the decoder (_lower).  A
    LetterTable keeps them, at most 64 sizes, and a plain dict lowers
    again at every call."""
    kept = getattr(table, "lowered", {})
    hit = kept.get((n, signed))
    if hit is None:
        coeffs, decode = _lower(table, n)
        raw = {(tok, s): {e: c * s for e, c in val.items()} if signed
               else val for tok, val in coeffs.items() for s in (1, -1)}
        if len(kept) >= 64:
            kept.clear()
        hit = kept[n, signed] = raw, decode
    return hit


def det_value(m, table):
    """Determinant of the matrix (signed if m.signed) over a letter table.

    Computed by elimination (``_eliminate``), never by term expansion, on
    the raw coefficient dicts of the table values: each entry copies the
    dict of its letter and Kasteleyn sign, which a LetterTable keeps per
    matrix size, and the kernel's result, already normalised, is wrapped
    as one polynomial.  The kernel picks the columns in a fill-reducing
    order as it goes, fewest live rows first, and corrects the sign by
    that order's parity; the stored order, which ``pretty`` and
    ``to_json`` print, is left alone.  It pivots on up-to-date rows first
    and updates a stale row with one exact division.  Two-variable tables
    go through a Kronecker substitution.  A non-square matrix raises
    ValueError.
    """
    _require_square(m)
    n = m.n
    raw, decode = _entry_values(table, n, m.signed)
    rows = [{} for _ in range(n)]
    for (ri, ci), e in m.entries.items():
        rows[ri][ci] = raw[e].copy()
    return decode(_eliminate(rows, n))


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
