"""Spec-level invariants, the letter tables and the differential stencils.

Table 1 (``JONES_TABLE``) sends activity letters to Kauffman-bracket
weights in A; summing the evaluated words over all spanning trees
(equivalently, expanding the matrix permanent) gives the bracket exactly,
and the writhe factor (-A^-3)^w turns it into the Jones polynomial.
Table 2 (``KHOVANOV_TABLE``) sends letters to (u, v) monomials whose
products give the bigraded generator count of the reduced odd-square
complex; its Poincare polynomial is the all-positive permanent evaluation.
Both tables live in ``matrix``, which evaluates over them, and are
re-exported here.

Every invariant is a function of one state (``extend``): the spec
functions below build ``initial_state(spec)`` and delegate to it.

The differential stencils are scanned off the matrix letters.  Their word
pairs are counted without expansion, each as the determinant of a
Kasteleyn-signed minor, and all of these come from one exact integer
elimination of the whole matrix by Jacobi's complementary-minor identity
(``stencil_pair_counts``); ``stencil_word_pairs`` lists the pairs
themselves by expanding every term, and is the slow route the counts are
checked against.
"""

from collections import namedtuple
from heapq import heappop, heappush
from itertools import permutations
from math import gcd

from .diagram import trace
from .extend import (initial_state, normalized, signed_bracket,
                     signed_poincare, state_bracket, state_jones,
                     state_jones_in_A, state_jones_raw,
                     state_khovanov_poincare, state_matrix)
from .laurent import Laurent, Laurent2, writhe_factor  # noqa: F401  (public)
from .matrix import (JONES_TABLE, KHOVANOV_TABLE,  # noqa: F401  (tables)
                     det_value, expand)
from .taitgraphs import region_name


# ---------------------------------------------------------------------------
# spec delegations

def pipeline_matrix(spec, signed=True, enhanced=True):
    """Standard activity matrix of P(spec), optionally signed/enhanced."""
    return state_matrix(initial_state(spec), signed, enhanced)


def bracket(spec):
    """Kauffman bracket of the standard diagram (knots and links alike)."""
    return state_bracket(initial_state(spec))


def jones_in_A_raw(spec):
    """Signed enhanced determinant over Table 1, plus its flip flag."""
    return state_jones_raw(initial_state(spec))


def jones_in_A(spec):
    """Jones polynomial in the Kauffman variable A, sign-normalized."""
    return state_jones_in_A(initial_state(spec))


def jones(spec):
    """Jones polynomial in t (A = t^(-1/4))."""
    return state_jones(initial_state(spec))


def khovanov_poincare(spec):
    """Bigraded Poincare polynomial in (u, v); knots only."""
    return state_khovanov_poincare(initial_state(spec))


# ---------------------------------------------------------------------------
# differential stencils

#: 2x2 stencils (rows ordered, columns as listed): name -> entries
STENCILS = (
    ("Ld/D~d~", (("L", "d"), ("D~", "d~"))),
    ("d~L~/dD", (("d~", "L~"), ("d", "D"))),
    ("l~D~/dD", (("l~", "D~"), ("d", "D"))),
    ("Dl/D~d~", (("D", "l"), ("D~", "d~"))),
)


class StencilReport(namedtuple("StencilReport", "rows cols stencil")):
    """One stencil instance: its (crossing label, crossing label) rows and
    (region, region) columns, both in stencil order, and the stencil's
    name."""
    __slots__ = ()

    def to_json(self):
        return {
            "rows": list(self.rows),
            "cols": [region_name(r) for r in self.cols],
            "stencil": self.stencil,
        }


#: first-row letter pair -> (stencil name, second-row letter pair)
_BY_FIRST_ROW = {first: (name, second) for name, (first, second) in STENCILS}
#: every second-row letter pair; no first row is one
_SECOND_ROWS = {second for _, second in _BY_FIRST_ROW.values()}


def scan_differentials(m):
    """All 2x2 stencil instances in an activity matrix.

    A stencil pairs one barred and one unbarred row sharing two columns;
    the diagonal and anti-diagonal completions of a matching instance are
    the source and target of one potential differential arrow.  Only the
    letters are read, so any signing (and any writhe weights) gives the
    same reports.

    A row has at most four entries, so at most twelve ordered column pairs
    (ca, cb).  Each row is filed under (ca, cb, letter at ca, letter at cb)
    where that letter pair is some stencil's second row, and each pair whose
    letters are a stencil's first row looks up the one key completing it.
    The cost is linear in the entries plus one sort of the reports, which
    come in row order of the first row, then of the second, then by the two
    columns in sorted order.
    """
    rows = {}                     # row position -> [(region, letter)]
    for (ri, ci), e in m.entries.items():
        rows.setdefault(ri, []).append((m.columns[ci].region, e.tok))
    holders = {}                  # (ca, cb, letter, letter) -> row positions
    firsts = []                   # (row position, ca, cb, name, key sought)
    for ri, row in rows.items():
        for (ca, ta), (cb, tb) in permutations(row, 2):
            if (ta, tb) in _SECOND_ROWS:
                holders.setdefault((ca, cb, ta, tb), []).append(ri)
            elif (ta, tb) in _BY_FIRST_ROW:
                name, (sa, sb) = _BY_FIRST_ROW[(ta, tb)]
                firsts.append((ri, ca, cb, name, (ca, cb, sa, sb)))
    hits = sorted((r1, r2, ca, cb, name)
                  for r1, ca, cb, name, key in firsts
                  for r2 in holders.get(key, ()))
    return [StencilReport(rows=(m.rows[r1], m.rows[r2]), cols=(ca, cb),
                          stencil=name)
            for r1, r2, ca, cb, name in hits]


def stencil_word_pairs(m, reports):
    """Expansion word pairs realizing each stencil report's arrow.

    Returns one list per report of (source word, target word) pairs: words
    agreeing outside the stencil rows, where the source takes the stencil
    diagonal and the target the anti-diagonal.  The matrix is expanded
    once for all the reports, and not at all when there are none.
    """
    if not reports:
        return []
    terms = expand(m)
    cidx = {c.region: ci for ci, c in enumerate(m.columns)}
    out = []
    for report in reports:
        i1 = m.rows.index(report.rows[0])
        i2 = m.rows.index(report.rows[1])
        ca, cb = cidx[report.cols[0]], cidx[report.cols[1]]
        lo, hi = sorted((i1, i2))

        def masked(cols):
            return cols[:lo] + cols[lo + 1:hi] + cols[hi + 1:]

        diag = {}
        anti = {}
        for t in terms:
            if t.cols[i1] == ca and t.cols[i2] == cb:
                diag[masked(t.cols)] = t.word
            elif t.cols[i1] == cb and t.cols[i2] == ca:
                anti[masked(t.cols)] = t.word
        out.append([(diag[k], anti[k]) for k in sorted(set(diag) & set(anti))])
    return out


def _pair_counts(m, quads):
    """|det| of the minor of the Kasteleyn sign matrix S without rows r1, r2
    and columns c1, c2, for each (r1, r2, c1, c2) of quads.

    By Jacobi's complementary-minor identity it is |y_r1[c1] y_r2[c2] -
    y_r2[c1] y_r1[c2]| / |det S|, where y_r = det S * S^-1 e_r is column r
    of the adjugate.  One elimination over Z, by _eliminate's column rule
    and carrying each e_r as a column n + i, gives them all.  A row (v, d)
    stands for v / d: pivot p makes it v - a p v_P for a unit p, else
    (p v - a v_P) / (p d) reduced by its gcd, so d divides a leading minor
    (D_k = D_(k-1) p / d_P after step k) and every integer a row keeps is
    below 4^n (by Hadamard, as a row of S holds at most four +-1 entries,
    every minor is below 2^n).  Back-substitution times D_n = +-det S, over the
    pivot rows a wanted column reaches, makes every unknown an adjugate
    entry.  A remainder or a singular S raises ValueError.
    """
    n = m.n
    want = {}                             # r -> the columns of y_r read
    for r1, r2, c1, c2 in quads:
        for r in (r1, r2):
            want.setdefault(r, set()).update((c1, c2))
    need = set().union(*want.values())
    live = [{} for _ in range(n)]
    holders = [set() for _ in range(n + len(want))]  # column -> live rows
    for (ri, ci), e in m.entries.items():
        live[ri][ci] = e.sign
        holders[ci].add(ri)
    for i, ri in enumerate(want, n):
        live[ri][i] = 1
        holders[i].add(ri)
    keys = [len(holders[c]) * n + c for c in range(n)]  # -1 once taken
    heap = sorted(keys)
    den = [1] * n
    det, kept = 1, []
    for _ in range(n):
        key = heappop(heap)
        while keys[key % n] != key:       # replaced by a later push
            key = heappop(heap)
        col = key % n
        keys[col] = -1
        if not holders[col]:
            raise ValueError("the Kasteleyn matrix is singular")
        best = None                       # a unit entry, a short row, low r
        for r in holders[col]:
            rank = (abs(live[r][col]) != 1, len(live[r]), r)
            if best is None or rank < best:
                best, pr = rank, r
        prow, live[pr] = live[pr], None
        p = prow.pop(col)
        det, rem = divmod(det * p, den[pr])
        if rem:
            raise ValueError("inexact leading minor")
        unit = abs(p) == 1
        holders[col].discard(pr)          # no later step reads the column
        for r in holders[col]:
            row = live[r]
            a = row.pop(col)
            if unit:
                a *= p
            else:
                for j in row:
                    row[j] *= p
                den[r] *= p
            for j, x in prow.items():
                v = row.get(j, 0) - a * x
                if v:
                    if j not in row:
                        holders[j].add(r)
                    row[j] = v
                elif j in row:
                    del row[j]
                    holders[j].discard(r)
            if not unit:
                g = gcd(den[r], *row.values())
                den[r] //= g
                live[r] = {j: v // g for j, v in row.items()}
        for j in prow:                    # only these columns' counts moved
            holders[j].discard(pr)
            key = len(holders[j]) * n + j
            if j < n and keys[j] != key:
                keys[j] = key
                heappush(heap, key)
        if col in need:
            need.update(prow)
            kept.append((col, p, prow))
    y = {}                                # (r, c) -> y_r[c]
    for i, (r, cols) in enumerate(want.items(), n):
        yr = {i: -det}
        for col, p, prow in reversed(kept):
            yr[col], rem = divmod(-sum(x * yr.get(j, 0)
                                       for j, x in prow.items()), p)
            if rem:
                raise ValueError("inexact back-substitution")
        y.update(((r, c), yr[c]) for c in cols)
    out = []
    for r1, r2, c1, c2 in quads:
        count, rem = divmod(abs(y[r1, c1] * y[r2, c2] - y[r2, c1] * y[r1, c2]),
                            abs(det))
        if rem:
            raise ValueError("inexact stencil pair count")
        out.append(count)
    return out


def stencil_pair_counts(m, reports):
    """The number of expansion word pairs of each stencil report.

    A pair is a term through the stencil's diagonal and one through its
    anti-diagonal that agree on every other row: a perfect matching of the
    minor without the stencil's two rows and columns.  In a Kasteleyn-signed
    matrix all of them carry one sign (Kenyon 1997, "Local statistics of
    lattice dimers"), so the count is the signed minor's |det| with every
    letter sent to 1, which _pair_counts finds for every report at once.
    Equal to the lengths of ``stencil_word_pairs``; the matrix must be
    Kasteleyn-signed.
    """
    if not m.signed:
        raise ValueError("stencil_pair_counts needs a Kasteleyn-signed matrix")
    if not reports:
        return []
    ridx = {label: ri for ri, label in enumerate(m.rows)}
    cidx = {c.region: ci for ci, c in enumerate(m.columns)}
    return _pair_counts(m, [(ridx[r1], ridx[r2], cidx[c1], cidx[c2])
                            for (r1, r2), (c1, c2), _ in reports])


# ---------------------------------------------------------------------------
# JSON bundle

class Invariants(namedtuple("Invariants", "bracket jones_in_A poincare reports",
                            defaults=(None, None, None))):
    """Every invariant of one state; a link has only its bracket, and None
    in the Jones polynomial, the Poincare polynomial and the
    StencilReport list."""
    __slots__ = ()

    def to_json(self, spec):
        """Machine-readable bundle; link-undefined fields are null."""
        knot = self.jones_in_A is not None
        return {
            "spec": list(spec),
            "bracket_A": self.bracket.to_pairs(),
            "jones": self.jones_in_A.reexpress(-4).to_pairs() if knot
            else None,
            "khovanov_uv": self.poincare.to_pairs() if knot else None,
            "differentials": [r.to_json() for r in self.reports] if knot
            else None,
        }


def state_invariants(state, traced=None):
    """Bracket of any state; Jones, Poincare and stencils of a knot.

    One trace of the diagram serves every knot check; pass it as traced
    when the caller already holds it.  One determinant over Table 1 gives
    the bracket (extend.signed_bracket) and the Jones polynomial
    (extend.state_jones_raw); one over Table 2 gives the Poincare
    polynomial (extend.signed_poincare).  Each sign comes from the
    invariant's own value.
    """
    if traced is None:
        traced = trace(state.diagram)
    if traced.components != 1:
        return Invariants(state_bracket(state))
    m = state.matrix
    det = det_value(m, JONES_TABLE)
    return Invariants(signed_bracket(det, m.n),
                      normalized(state_jones_raw(state, traced, det)),
                      signed_poincare(det_value(m, KHOVANOV_TABLE)),
                      scan_differentials(m))


def invariant_bundle(spec):
    """Machine-readable invariants; link-undefined fields are null."""
    return state_invariants(initial_state(spec)).to_json(spec)
