import itertools
import random
import time

import pytest
from paper_tables import gradings

from pretzeldimer.activities import activity_word, spanning_trees
from pretzeldimer.diagram import build_diagram, trace, writhe
from pretzeldimer.evaluate import (
    JONES_TABLE,
    KHOVANOV_TABLE,
    STENCILS,
    StencilReport,
    bracket,
    invariant_bundle,
    jones,
    jones_in_A,
    jones_in_A_raw,
    khovanov_poincare,
    pipeline_matrix,
    scan_differentials,
    stencil_word_pairs,
    writhe_factor,
)
from pretzeldimer.extend import initial_state
from pretzeldimer.laurent import Laurent, Laurent2
from pretzeldimer.oracle import (
    state_sum_bracket,
    tree_expansion_bracket,
    tree_expansion_jones,
)
from pretzeldimer.taitgraphs import BOT, build_tait, strip


def L(pairs):
    return Laurent.from_pairs(pairs)


def test_table_one_values():
    A = Laurent.term
    assert JONES_TABLE["L"] == A(-1, -3)
    assert JONES_TABLE["D"] == A(1, 1)
    assert JONES_TABLE["l"] == A(-1, 3)
    assert JONES_TABLE["d"] == A(1, -1)
    assert JONES_TABLE["L~"] == A(-1, 3)
    assert JONES_TABLE["D~"] == A(1, -1)
    assert JONES_TABLE["l~"] == A(-1, -3)
    assert JONES_TABLE["d~"] == A(1, 1)
    # barred letters are the A -> A^-1 mirrors
    for tok in ("L", "D", "l", "d"):
        assert JONES_TABLE[tok + "~"] == JONES_TABLE[tok].reexpress(-1)


def test_table_two_values():
    U = Laurent2.term
    assert KHOVANOV_TABLE["L"] == U(1, 1, 1)
    assert KHOVANOV_TABLE["D"] == U(1, 0, 1)
    assert KHOVANOV_TABLE["l"] == U(1, -1, 0)
    assert KHOVANOV_TABLE["d"] == Laurent2.one()
    assert KHOVANOV_TABLE["L~"] == U(1, -1, 0)
    assert KHOVANOV_TABLE["D~"] == Laurent2.one()
    assert KHOVANOV_TABLE["l~"] == U(1, 1, 0)
    assert KHOVANOV_TABLE["d~"] == Laurent2.one()


def test_gradings_match_table_two_products():
    rng = random.Random(3)
    toks = list(KHOVANOV_TABLE)
    for _ in range(100):
        word = tuple(rng.choice(toks) for _ in range(rng.randint(1, 8)))
        prod = Laurent2.one()
        for tok in word:
            prod = prod * KHOVANOV_TABLE[tok]
        u, v = gradings(word)
        assert prod == Laurent2.term(1, u, v)


@pytest.mark.parametrize("spec,pairs", [
    ((1, 1, 1), [[-5, -1], [3, -1], [7, 1]]),
    ((-2, 3, 3), [[-8, -1], [4, 1], [12, 1]]),
    ((-2, 3, 7), [[-16, -1], [-12, 1], [-8, -1], [8, 1], [16, 1]]),
    ((2, 2), [[-10, -1], [-6, 1], [-2, -1], [6, -1]]),
    ((2,), [[-6, 1]]),
])
def test_bracket_matches_frozen_and_state_sum(spec, pairs):
    val = bracket(spec)
    assert val == L(pairs)
    assert val == state_sum_bracket(build_diagram(spec))


def test_jones_trefoil():
    assert jones_in_A((1, 1, 1)) == L([[4, 1], [12, 1], [16, -1]])
    assert jones((1, 1, 1)) == L([[-4, -1], [-3, 1], [-1, 1]])
    assert jones((1, 1, 1)).at_one() == 1


def test_jones_torus_819():
    assert jones_in_A((-2, 3, 3)) == L([[-32, -1], [-20, 1], [-12, 1]])
    assert jones((-2, 3, 3)) == L([[3, 1], [5, 1], [8, -1]])


def test_jones_pretzel_237():
    # writhe 12, so the A-form sits 24 powers below the bracket's mirror image
    assert writhe(build_diagram((-2, 3, 7))) == 12
    assert jones_in_A((-2, 3, 7)) == L(
        [[-52, -1], [-48, 1], [-44, -1], [-28, 1], [-20, 1]])
    got = jones((-2, 3, 7))
    assert got == L([[5, 1], [7, 1], [11, -1], [12, 1], [13, -1]])
    assert got.at_one() == 1


def test_jones_mirror_pair():
    # P(1,1,1) and P(-1,-1,-1) are mirrors: t -> 1/t
    assert jones((-1, -1, -1)) == jones((1, 1, 1)).reexpress(-1)


def test_raw_determinant_sign_is_exposed():
    val, flipped = jones_in_A_raw((1, 1, 1))
    assert isinstance(flipped, bool)
    assert val == (-jones_in_A((1, 1, 1)) if flipped else jones_in_A((1, 1, 1)))
    assert val.at_one() in (1, -1)


def test_jones_refuses_links():
    with pytest.raises(ValueError, match="components"):
        jones((2, 2))
    with pytest.raises(ValueError):
        khovanov_poincare((2, 2))


def test_unknots_have_trivial_jones():
    for spec in [(1,), (-1,), (2,), (-3,), (5,)]:
        assert jones(spec) == Laurent.one()


def test_khovanov_trefoil_frozen():
    got = khovanov_poincare((1, 1, 1))
    want = (Laurent2.term(1, 1, 1) + Laurent2.term(1, -1, 1)
            + Laurent2.term(1, -2, 1))
    assert got == want


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (1, 1, 3)])
def test_khovanov_counts_trees(spec):
    poly = khovanov_poincare(spec)
    assert all(c > 0 for c in poly.coeffs.values())
    assert sum(poly.coeffs.values()) == len(spanning_trees(build_tait(spec)))


def test_writhe_factor_values():
    assert writhe_factor(-3) == Laurent.term(-1, 9)
    assert writhe_factor(8) == Laurent.term(1, -24)
    assert writhe_factor(0) == Laurent.one()


def test_tree_expansion_is_exact_bracket():
    for spec in [(1, 1, 1), (-2, 3, 3), (2, 2), (3, -4, 2)]:
        g = build_tait(spec)
        assert tree_expansion_bracket(g) == state_sum_bracket(build_diagram(spec))


def test_tree_expansion_jones_matches_pipeline():
    for spec in [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (1, 1, 3), (-3, 2, 1)]:
        g = build_tait(spec)
        w = writhe(build_diagram(spec))
        assert tree_expansion_jones(g, w) == jones(spec)


def test_tree_sum_is_edge_order_invariant():
    # the evaluated sum never depends on the edge ranking, even though the
    # individual words do
    rng = random.Random(123)
    for spec in [(-2, 3, 3), (3, -4, 2)]:
        g = build_tait(spec)
        want = tree_expansion_bracket(g)
        labels = sorted(g.edges)
        for _ in range(5):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            ranks = {e: i + 1 for i, e in enumerate(shuffled)}
            total = Laurent.zero()
            for t in spanning_trees(g):
                poly = Laurent.one()
                for tok in activity_word(g, t, ranks):
                    poly = poly * JONES_TABLE[tok]
                total = total + poly
            assert total == want


def test_scan_differentials_trefoil_empty():
    m = pipeline_matrix((1, 1, 1), signed=False, enhanced=False)
    assert scan_differentials(m) == []


def test_scan_differentials_torus_819():
    m = pipeline_matrix((-2, 3, 3), signed=False, enhanced=False)
    reports = scan_differentials(m)
    assert reports == [
        StencilReport(rows=(2, 3), cols=(strip(1), BOT), stencil="d~L~/dD"),
    ]
    [pairs] = stencil_word_pairs(m, reports)
    assert pairs
    for src, tgt in pairs:
        assert (src[1], src[2]) == ("d~", "D")
        assert (tgt[1], tgt[2]) == ("L~", "d")
        assert src[:1] == tgt[:1] and src[3:] == tgt[3:]


def test_stencil_reports_are_values():
    a = StencilReport(rows=(2, 3), cols=(strip(1), BOT), stencil="d~L~/dD")
    b = StencilReport((2, 3), (strip(1), BOT), "d~L~/dD")
    assert a == b and hash(a) == hash(b)
    assert a != b._replace(stencil="Ld/D~d~")
    assert len({a, b}) == 1


def reference_scan(m):
    """The stencil scan over every ordered pair of rows, O(n^2)."""
    view = {}
    for (ri, ci), e in m.entries.items():
        view[(m.rows[ri], m.columns[ci].region)] = e.tok
    row_support = {}
    for (label, region) in view:
        row_support.setdefault(label, set()).add(region)
    reports = []
    for r1 in m.rows:
        for r2 in m.rows:
            if r1 == r2:
                continue
            shared = sorted(row_support[r1] & row_support[r2])
            for ca, cb in itertools.permutations(shared, 2):
                got = (view[(r1, ca)], view[(r1, cb)],
                       view[(r2, ca)], view[(r2, cb)])
                for name, ((s11, s12), (s21, s22)) in STENCILS:
                    if got == (s11, s12, s21, s22):
                        reports.append(StencilReport(
                            rows=(r1, r2), cols=(ca, cb), stencil=name))
    return reports


def scan_specs():
    """Every knot a benchmark workload runs khovanov on, plus three large.

    The desk sweep's knots (k in {2,3,4}, entries +-1..4, at most 12
    crossings), the wide slots P(3^5) ... P(3^7) and the long ladder
    P(-2,3,2m+1) for m = 2, 4, ..., 26, each with its mirror image; then
    P(-2,3,401), P(-2,3,801) and P(3^25).
    """
    entries = [v for v in range(-4, 5) if v]
    desk = [combo for k in (2, 3, 4)
            for combo in itertools.product(entries, repeat=k)
            if sum(abs(v) for v in combo) <= 12]
    wide = [(2, 3, 3, 3, 3), (1, 3, 3, 3, 5), (3, 3, 3, 3, 3),
            (3, 3, 3, 3, 4), (3, 3, 3, 3, 5), (3, 3, 3, 4, 5),
            (2, 3, 3, 3, 3, 3), (3, 3, 3, 5, 5), (3, 3, 5, 5, 5),
            (5, 5, 5, 5, 5), (3,) * 7]
    long = [(-2, 3, 2 * m + 1) for m in range(2, 27, 2)]
    knots = [spec for spec in desk + wide + long
             if trace(build_diagram(spec)).components == 1]
    return (knots + [tuple(-v for v in spec) for spec in wide + long]
            + [(-2, 3, 401), (-2, 3, 801), (3,) * 25])


def test_scan_matches_the_pairwise_reference():
    t0 = time.perf_counter()
    found = 0
    for spec in scan_specs():
        m = initial_state(spec).matrix
        reports = scan_differentials(m)
        assert reports == reference_scan(m), spec
        found += len(reports)
    assert found > 0
    assert time.perf_counter() - t0 < 60


def test_invariant_bundle_shapes():
    knot = invariant_bundle((1, 1, 1))
    assert knot["jones"] == [[-4, -1], [-3, 1], [-1, 1]]
    assert knot["bracket_A"] == [[-5, -1], [3, -1], [7, 1]]
    assert knot["khovanov_uv"] == [[[-2, 1], 1], [[-1, 1], 1], [[1, 1], 1]]
    assert knot["differentials"] == []
    link = invariant_bundle((2, 2))
    assert link["jones"] is None
    assert link["khovanov_uv"] is None
    assert link["bracket_A"] == [[-10, -1], [-6, 1], [-2, -1], [6, -1]]
