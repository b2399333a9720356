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

from .diagram import trace
from .extend import (initial_state, normalized, state_bracket,
                     state_jones, state_jones_in_A, state_jones_raw,
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

    def to_json(self, names=True):
        return {
            "rows": list(self.rows),
            "cols": [region_name(r) for r in self.cols] if names
            else [list(r) for r in self.cols],
            "stencil": self.stencil,
        }


def scan_differentials(m):
    """All 2x2 stencil instances in an activity matrix.

    A stencil pairs one barred and one unbarred row sharing two columns;
    the diagonal and anti-diagonal completions of a matching instance are
    the source and target of one potential differential arrow.  Only the
    letters are read, so any signing (and any writhe weights) gives the
    same reports.

    A row has at most four entries, so each row is indexed under its
    unordered column pairs and compared only with the rows that share a
    pair; a single column will not do, since the strip beside a long twist
    column meets about n rows.  Reports come in row order of the first
    row, then of the second, then by the two columns in sorted order.
    """
    view = {}
    for (ri, ci), e in m.entries.items():
        view[(m.rows[ri], m.columns[ci].region)] = e.tok
    row_support = {label: set() for label in m.rows}
    for (label, region) in view:
        row_support[label].add(region)
    holders = {}                  # unordered column pair -> rows holding it
    for label in m.rows:
        support = sorted(row_support[label])
        for i, a in enumerate(support):
            for b in support[i + 1:]:
                holders.setdefault((a, b), []).append(label)
    partners = {label: set() for label in m.rows}
    for labels in holders.values():
        for label in labels:
            partners[label].update(labels)
    position = {label: i for i, label in enumerate(m.rows)}

    reports = []
    for r1 in m.rows:
        for r2 in sorted(partners[r1] - {r1}, key=position.__getitem__):
            shared = sorted(row_support[r1] & row_support[r2])
            for ca in shared:
                for cb in shared:
                    if ca == cb:
                        continue
                    got = (view[(r1, ca)], view[(r1, cb)],
                           view[(r2, ca)], view[(r2, cb)])
                    for name, ((s11, s12), (s21, s22)) in STENCILS:
                        if got == (s11, s12, s21, s22):
                            reports.append(StencilReport(
                                rows=(r1, r2), cols=(ca, cb), stencil=name))
    return reports


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
    cidx = {c.region: ci for ci, c in enumerate(m.columns)}
    counts = []
    for report in reports:
        drop_rows = {m.rows.index(label) for label in report.rows}
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
    when the caller already holds it.
    """
    if traced is None:
        traced = trace(state.diagram)
    if traced.components != 1:
        return Invariants(state_bracket(state))
    return Invariants(state_bracket(state),
                      normalized(state_jones_raw(state, traced)),
                      state_khovanov_poincare(state, traced),
                      scan_differentials(state.matrix))


def invariant_bundle(spec):
    """Machine-readable invariants; link-undefined fields are null."""
    return state_invariants(initial_state(spec)).to_json(spec)
