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
Kasteleyn-signed minor (``stencil_pair_counts``); ``stencil_word_pairs``
lists the pairs themselves by expanding every term, and is the slow route
the counts are checked against.
"""

from collections import namedtuple
from itertools import permutations

from .diagram import trace
from .extend import (initial_state, normalized, signed_bracket,
                     signed_poincare, state_bracket, state_jones,
                     state_jones_in_A, state_jones_raw,
                     state_khovanov_poincare, state_matrix)
from .laurent import Laurent, Laurent2, writhe_factor  # noqa: F401  (public)
from .matrix import (JONES_TABLE, KHOVANOV_TABLE,  # noqa: F401  (tables)
                     ActivityMatrix, det_value, expand)
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


#: every letter -> 1, so a determinant over it counts signed permutations
_ONES = dict.fromkeys(JONES_TABLE, Laurent.one())


def stencil_pair_counts(m, reports):
    """The number of expansion word pairs of each stencil report.

    A pair is a term through the stencil's diagonal and one through its
    anti-diagonal that agree on every other row, so the pairs of a report
    are the perfect matchings of the minor left after deleting the
    stencil's two rows and two columns.  In a Kasteleyn-signed matrix every
    term of that minor carries the same sign (Kenyon 1997, "Local
    statistics of lattice dimers", with Jacobi's complementary-minor
    identity), so the count is |det| of the signed minor, evaluated with
    every letter sent to 1.  Equal to the lengths of ``stencil_word_pairs``,
    which enumerates the terms; the matrix must be Kasteleyn-signed.
    """
    if not m.signed:
        raise ValueError("stencil_pair_counts needs a Kasteleyn-signed matrix")
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
