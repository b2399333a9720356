"""Letter tables and the end-to-end invariant pipeline.

Table 1 sends activity letters to Kauffman-bracket weights in A; summing
the evaluated words over all spanning trees (equivalently, expanding the
matrix permanent) gives the bracket exactly, and the writhe factor
(-A^-3)^w turns it into the Jones polynomial.  Table 2 sends letters to
(u, v) monomials whose products give the bigraded generator count of the
reduced odd-square complex; its Poincare polynomial is the all-positive
permanent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import build_diagram, trace
from .laurent import Laurent, Laurent2, writhe_factor  # noqa: F401  (public)
from .matrix import (
    build_block_matrix,
    det_value,
    enhance,
    expand,
    kasteleyn_perm,
    sign_matrix,
)
from .taitgraphs import build_overlay, region_name, solve_kasteleyn


def _A(coeff, exp):
    return Laurent.term(coeff, exp)


#: activity letter -> bracket weight
JONES_TABLE = {
    "L": _A(-1, -3), "D": _A(1, 1), "l": _A(-1, 3), "d": _A(1, -1),
    "L~": _A(-1, 3), "D~": _A(1, -1), "l~": _A(-1, -3), "d~": _A(1, 1),
}

#: activity letter -> bigraded weight
KHOVANOV_TABLE = {
    "L": Laurent2.term(1, 1, 1), "D": Laurent2.term(1, 0, 1),
    "l": Laurent2.term(1, -1, 0), "d": Laurent2.one(),
    "L~": Laurent2.term(1, -1, 0), "D~": Laurent2.one(),
    "l~": Laurent2.term(1, 1, 0), "d~": Laurent2.one(),
}


def gradings(word):
    """(u, v) bidegree of a word: u = #L - #l - #L~ + #l~, v = #L + #D."""
    u = v = 0
    for tok in word:
        if tok == "L":
            u += 1
            v += 1
        elif tok == "D":
            v += 1
        elif tok == "l":
            u -= 1
        elif tok == "L~":
            u -= 1
        elif tok == "l~":
            u += 1
    return u, v


# ---------------------------------------------------------------------------
# pipeline

def pipeline_matrix(spec, signed=True, enhanced=True):
    """Standard activity matrix of P(spec), optionally signed/enhanced."""
    spec = tuple(spec)
    m = build_block_matrix(spec)
    if signed:
        ov = build_overlay(spec)
        m = sign_matrix(m, solve_kasteleyn(ov))
    if enhanced:
        m = enhance(m, build_diagram(spec))
    return m


def bracket(spec):
    """Kauffman bracket of the standard diagram (knots and links alike).

    Permanent route, as eps * det of the signed matrix: no writhe factor
    and no sign slack.
    """
    return kasteleyn_perm(pipeline_matrix(spec, enhanced=False), JONES_TABLE)


def jones_in_A_raw(spec):
    """Signed enhanced determinant evaluated over Table 1 (in A).

    This is the Jones polynomial up to the global Kasteleyn sign; returns
    (value, flipped) where flipped says whether normalization will negate.
    """
    spec = tuple(spec)
    d = build_diagram(spec)
    t = trace(d)
    if t.components != 1:
        raise ValueError(
            "Jones route needs a knot; P%r has %d components (use the "
            "bracket instead)" % (spec, t.components))
    m = pipeline_matrix(spec)
    val = det_value(m, JONES_TABLE)
    at1 = val.at_one()
    if at1 not in (1, -1):
        raise RuntimeError("determinant is not a unit at A=1: %s" % at1)
    return val, at1 == -1


def jones_in_A(spec):
    """Jones polynomial in the Kauffman variable A, sign-normalized.

    A knot's Jones polynomial evaluates to 1 at t=1 (A=1), which fixes the
    global sign left over from the Kasteleyn choice.
    """
    val, flipped = jones_in_A_raw(spec)
    return -val if flipped else val


def jones(spec):
    """Jones polynomial in t (A = t^(-1/4))."""
    return jones_in_A(spec).reexpress(-4)


def khovanov_poincare(spec):
    """Bigraded Poincare polynomial in (u, v); knots only.

    All-positive form: each coefficient counts the spanning trees of that
    bidegree.
    """
    spec = tuple(spec)
    d = build_diagram(spec)
    if trace(d).components != 1:
        raise ValueError("Poincare polynomial route needs a knot")
    return kasteleyn_perm(pipeline_matrix(spec, enhanced=False),
                          KHOVANOV_TABLE)


# ---------------------------------------------------------------------------
# differential stencils

#: 2x2 stencils (rows ordered, columns as listed): name -> entries
STENCILS = (
    ("Ld/D~d~", (("L", "d"), ("D~", "d~"))),
    ("d~L~/dD", (("d~", "L~"), ("d", "D"))),
    ("l~D~/dD", (("l~", "D~"), ("d", "D"))),
    ("Dl/D~d~", (("D", "l"), ("D~", "d~"))),
)


@dataclass(frozen=True)
class StencilReport:
    rows: tuple       # (crossing label, crossing label), stencil row order
    cols: tuple       # (region, region), stencil column order
    stencil: str

    def to_json(self, names=True):
        return {
            "rows": list(self.rows),
            "cols": [region_name(r) for r in self.cols] if names
            else [list(r) for r in self.cols],
            "stencil": self.stencil,
        }


def scan_differentials(m):
    """All 2x2 stencil instances in an unsigned, unenhanced matrix.

    A stencil pairs one barred and one unbarred row sharing two columns;
    the diagonal and anti-diagonal completions of a matching instance are
    the source and target of one potential differential arrow.
    """
    view = {}
    for (ri, ci), e in m.entries.items():
        view[(m.rows[ri], m.columns[ci].region)] = e.tok
    row_support = {}
    for (label, region) in view:
        row_support.setdefault(label, set()).add(region)

    reports = []
    labels = list(m.rows)
    for r1 in labels:
        for r2 in labels:
            if r1 == r2:
                continue
            shared = sorted(row_support[r1] & row_support[r2])
            if len(shared) < 2:
                continue
            for ai in range(len(shared)):
                for bi in range(len(shared)):
                    if ai == bi:
                        continue
                    ca, cb = shared[ai], shared[bi]
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


# ---------------------------------------------------------------------------
# JSON bundle

def invariant_bundle(spec):
    """Machine-readable invariants; link-undefined fields are null."""
    spec = tuple(spec)
    knot = trace(build_diagram(spec)).components == 1
    out = {
        "spec": list(spec),
        "bracket_A": bracket(spec).to_pairs(),
        "jones": None,
        "khovanov_uv": None,
        "differentials": None,
    }
    if knot:
        out["jones"] = jones(spec).to_pairs()
        out["khovanov_uv"] = khovanov_poincare(spec).to_pairs()
        m = pipeline_matrix(spec, signed=False, enhanced=False)
        out["differentials"] = [r.to_json() for r in scan_differentials(m)]
    return out
