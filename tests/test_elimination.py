"""Elimination against expansion: the fast route checked by the slow one.

det_value computes determinants by fraction-free elimination; expand and
perm_value enumerate every permutation term.  det_value must equal the
signed term sum, and state_jones_raw that sum times (-A^-3)^writhe,
exactly across the whole desk sweep, on grown states, on long move chains
and columns of threes, whose columns elimination takes out of stored
order, and on a matrix with duplicate words.  The bracket and the
Poincare polynomial, whose signs extend reads off their own values, must
equal perm_value, and the bracket's value at A = 1 must be the
(-1)^(n+c-1) 2^(c-1) that the bracket's sign rule relies on.  The raw
sign of two long chains is pinned; columns of threes, the whole desk
sweep, the long ladder, its subdivide chains and the wide knots must
eliminate with no polynomial division; and elimination must free its
pivot rows and divisors as it goes.  The elimination kernel is also held
to a Leibniz sum on seeded matrices whose entries are not units, and on
matrices whose pivots are units and whose updates cancel entries, which
drive the in-place one-term update; the pivots it takes are pinned to
those it took when it recounted every candidate row.  The stencil pair
counts, which are determinants of minors, are held to the word pairs the
expansion lists and to one elimination per minor
(tree_reference.reference_pair_counts).
"""
import contextlib
import hashlib
import io
import itertools
import math
import random
import time
import tracemalloc

import pytest
from paper_tables import desk_sweep
from test_tangle import MIXED_SPEC
from tree_reference import reference_pair_counts

from pretzeldimer import evaluate, matrix
from pretzeldimer.cli import main
from pretzeldimer.diagram import trace
from pretzeldimer.evaluate import (JONES_TABLE, KHOVANOV_TABLE,
                                   StencilReport, pipeline_matrix,
                                   scan_differentials, stencil_pair_counts,
                                   stencil_word_pairs)
from pretzeldimer.extend import (MOVES, apply_moves, initial_state,
                                 state_bracket, state_jones_raw,
                                 state_khovanov_poincare)
from pretzeldimer.laurent import Laurent, Laurent2, writhe_factor
from pretzeldimer.matrix import (ActivityMatrix, Column, Entry,
                                 build_graph_matrix, det_value, expand,
                                 perm_value, sign_matrix)
from pretzeldimer.taitgraphs import BOT
from pretzeldimer.taitgraphs import build_overlay, solve_kasteleyn

BUDGET_S = 60


def signed_term_sum(terms, table):
    """sum of parity x Kasteleyn sign x evaluated word over the terms.

    Every letter of a one-variable table is a monomial c A^e, so a term
    weighs parity x Kasteleyn sign x (product of the c) A^(sum of the e),
    added up as plain integers.
    """
    assert all(len(val.coeffs) == 1 for val in table.values())
    mono = {tok: next(iter(val.coeffs.items())) for tok, val in table.items()}
    total = {}
    for t in terms:
        e, c = 0, t.parity * t.ksign
        for tok in t.word:
            de, dc = mono[tok]
            e += de
            c *= dc
        total[e] = total.get(e, 0) + c
    return Laurent(total)


def check_exact(st):
    """det_value, sign included, against the signed term sum, and for a
    knot state_jones_raw against the sum times (-A^-3)^writhe; returns the
    state's trace."""
    m = st.matrix
    want = signed_term_sum(expand(m), JONES_TABLE)
    assert det_value(m, JONES_TABLE) == want
    t = trace(st.diagram)
    if t.components == 1:
        assert state_jones_raw(st, t)[0] == want * writhe_factor(t.writhe)
    return t


def check_state(st):
    """check_exact, then the bracket and a knot's Poincare polynomial
    against perm_value, the slow reference, and the bracket's value at
    A = 1, whose sign and size signed_bracket relies on."""
    c = check_exact(st).components
    m = st.matrix
    bracket = perm_value(m, JONES_TABLE)
    assert state_bracket(st) == bracket
    assert bracket.at_one() == (-1) ** (m.n + c - 1) * 2 ** (c - 1)
    if c == 1:
        assert state_khovanov_poincare(st) == perm_value(m, KHOVANOV_TABLE)


def test_elimination_matches_expansion_on_desk_sweep():
    t0 = time.perf_counter()
    specs = desk_sweep()
    assert len(specs) == 4112
    for spec in specs:
        check_state(initial_state(spec))
    assert time.perf_counter() - t0 < BUDGET_S


def test_elimination_matches_expansion_on_move_chains():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    specs = desk_sweep()
    names = sorted(MOVES)
    checked = 0
    while checked < 300:
        spec = rng.choice(specs)
        chain = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        try:
            st = apply_moves(initial_state(spec), chain)
        except ValueError:            # edge extension after a kink
            continue
        check_state(st)
        checked += 1
    assert time.perf_counter() - t0 < BUDGET_S


def test_elimination_matches_expansion_with_duplicate_words():
    # criterion 11's reversed-rank matrix: its words repeat, which the
    # determinant does not mind
    ov = build_overlay((-2, 3, 3))
    ranks = {c: 9 - c for c in range(1, 9)}
    m = sign_matrix(build_graph_matrix(ov, ranks), solve_kasteleyn(ov))
    # expand refuses repeated words, so take the terms unchecked
    expected = signed_term_sum(matrix._all_terms(m), JONES_TABLE)
    assert det_value(m, JONES_TABLE) == expected


# ---------------------------------------------------------------------------
# the column order on long chains and many columns: det_value takes the
# column with the fewest live rows at each step, so a grown state's
# columns, stored last, can go early, and an odd order negates the result


@pytest.mark.parametrize("moves", [8, 16, 33, 64])
@pytest.mark.parametrize("spec", [(-2, 3, 11), (2, -3, -11), (3, 3, 3)])
def test_det_value_exact_on_subdivide_chains(spec, moves):
    check_exact(apply_moves(initial_state(spec), ["subdivide"] * moves))


@pytest.mark.parametrize("move", ["r2:parallel", "r2:series"])
@pytest.mark.parametrize("spec", [(-2, 3, 7), (3, 3, 3), (2, 2)])
def test_det_value_exact_on_r2_chains(spec, move):
    for moves in range(1, 9):
        check_exact(apply_moves(initial_state(spec), [move] * moves))


@pytest.mark.parametrize("k", range(1, 10))
def test_det_value_exact_on_columns_of_three(k):
    check_exact(initial_state((3,) * k))


#: polynomial products the kernel made on P(3^k) when it rescaled every
#: candidate row before pivoting; it also made 28, 113 and 193 divisions
PRODUCTS_BEFORE = {8: 72, 25: 259, 41: 435}


def count_kernel_calls(monkeypatch):
    """Counts of the kernel's polynomial products and divisions from here
    on, as a dict that the calls update."""
    calls = {"_mul": 0, "_div": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(matrix, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(matrix, name, counted)
    return calls


TABLES = pytest.mark.parametrize("table", [JONES_TABLE, KHOVANOV_TABLE],
                                 ids=["Table 1", "Table 2"])


@TABLES
@pytest.mark.parametrize("k", sorted(PRODUCTS_BEFORE))
def test_columns_of_three_eliminate_without_division(monkeypatch, k, table):
    # a row is divided only when its own step's divisor is not 1, and on
    # P(3^k) every row is updated over the divisor 1
    calls = count_kernel_calls(monkeypatch)
    det_value(initial_state((3,) * k).matrix, table)
    assert calls["_div"] == 0
    assert calls["_mul"] <= PRODUCTS_BEFORE[k]


@TABLES
def test_desk_sweep_eliminates_without_division(monkeypatch, table):
    # the sparsest-first static order made 416 divisions over Table 1 and
    # 480 over Table 2 here, on specs of mixed signs
    matrices = [initial_state(spec).matrix for spec in desk_sweep()]
    calls = count_kernel_calls(monkeypatch)
    for m in matrices:
        det_value(m, table)
    assert calls["_mul"] > 0
    assert calls["_div"] == 0


#: the long ladder P(+-(-2,3,2m+1)), m = 2..26; P(+-(-2,3,11)) grown by 2j
#: subdivides, j = 2..16; and the eleven wide knots, each over both tables
FAMILIES = {
    "long ladder": lambda: [initial_state((-2 * s, 3 * s, (2 * m + 1) * s))
                            for m in range(2, 27) for s in (1, -1)],
    "subdivide chains": lambda: [
        apply_moves(initial_state((-2 * s, 3 * s, 11 * s)),
                    ["subdivide"] * (2 * j))
        for j in range(2, 17) for s in (1, -1)],
    "wide knots": lambda: [initial_state(spec) for spec in (
        (2, 3, 3, 3, 3), (1, 3, 3, 3, 5), (3, 3, 3, 3, 3), (3, 3, 3, 3, 4),
        (3, 3, 3, 3, 5), (3, 3, 3, 4, 5), (2, 3, 3, 3, 3, 3),
        (3, 3, 3, 5, 5), (3, 3, 5, 5, 5), (5, 5, 5, 5, 5),
        (3, 3, 3, 3, 3, 3, 3))],
}


@TABLES
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_long_and_wide_shapes_eliminate_without_division(monkeypatch,
                                                         family, table):
    # every pivot that updates a row is a unit here, so every row is
    # updated over the divisor 1
    matrices = [st.matrix for st in FAMILIES[family]()]
    calls = count_kernel_calls(monkeypatch)
    for m in matrices:
        det_value(m, table)
    assert calls["_div"] == 0


#: bytes state_bracket may allocate at its peak on P(3^201); keeping every
#: pivot row and divisor to the end took 14.6 MB, freeing them 0.9 MB
PEAK_BYTES_P3_201 = 4 * 10 ** 6


def test_elimination_frees_pivot_rows_and_divisors():
    st = initial_state((3,) * 201)
    tracemalloc.start()
    try:
        bracket = state_bracket(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bracket.at_one() == (-1) ** st.matrix.n    # a knot
    assert peak < PEAK_BYTES_P3_201


def jones_raw_sign(*argv):
    """The two lines ``jones --raw-sign`` prints: polynomial and sign."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["jones", *argv, "--raw-sign"]) == 0
    return out.getvalue().splitlines()


def test_raw_sign_of_long_chains_is_pinned():
    # V(1) = 1 hides a sign slip in the polynomial but not in the raw
    # sign.  Both chains are eliminated in an odd column order; the signs
    # are those of elimination in stored column order.
    poly, sign = jones_raw_sign("P(3,3,3)", *["--extend", "subdivide"] * 63)
    assert sign == "raw determinant sign: +1"
    assert poly == jones_raw_sign("P(3,3,66)")[0]
    poly, sign = jones_raw_sign("P(3,3,3)", *["--extend", "r2:parallel"] * 8)
    assert sign == "raw determinant sign: -1"
    assert poly == ("-t^-10 + t^-9 - 3t^-8 + 4t^-7 - 3t^-6 + 5t^-5 - 4t^-4 "
                    "+ 3t^-3 - 2t^-2 + t^-1")


# ---------------------------------------------------------------------------
# the kernel on entries that are not units

def L(*pairs):
    return Laurent(dict(pairs))


#: non-unit entries, with units and small integers among them so that
#: the two kinds of pivot mix (2 * 2 - 3 * 1 leaves a unit after a
#: non-unit step)
POOL_A = [L((1, 2)), L((0, -3)), L((0, 1), (1, 1)), L((1, 1), (-1, -1)),
          L((0, 2), (2, -1)), L((-2, 1)), L((0, -1)), L((3, 4), (0, 1)),
          L((0, 2)), L((0, 3))]
POOL_UV = [Laurent2(c) for c in (
    {(1, 0): 2}, {(0, 0): -3}, {(0, 0): 1, (0, 1): 1},
    {(1, 0): 1, (0, -1): -1}, {(1, 1): 1}, {(-1, 2): -1},
    {(0, 0): 2, (2, -1): 3}, {(0, 0): 1}, {(0, 0): 2}, {(0, 0): 3})]


def fixed_matrices(ring):
    """Hand-made matrices whose second pivot is a unit after a non-unit one.

    Column 0 has the fewest entries and holds no unit, so step 0 pivots on
    2 (on 2x in the second matrix); columns 1 and 2 then tie on two live
    rows, so column 1 comes next, and the update leaves 2 * 2 - 3 * 1 = 1
    (2x * 2 - 3 * x = x), a unit, in it for step 1, and a third row for
    that step to update over a non-unit divisor.
    """
    def c(v, e=0):
        return ring({(e, 0) if ring is Laurent2 else e: v})

    one, two, three = c(1), c(2), c(3)
    x, x_inv = c(1, 1), c(1, -1)
    return [
        [{0: two, 1: one, 2: one}, {0: three, 1: two, 2: one},
         {1: one, 2: one}],
        [{0: c(2, 1), 1: x, 2: one}, {0: three, 1: two, 2: one},
         {1: x_inv, 2: one + x}],
    ]


def leibniz(rows, n, ring):
    """Sum over every permutation of its sign times its entries' product."""
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        term = ring.one()
        for ri, ci in enumerate(perm):
            x = rows[ri].get(ci)
            if x is None:
                break
            term = term * x
        else:
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            total = total + (-term if inv & 1 else term)
    return total


def random_matrix(rng, pool):
    """A seeded square matrix of pool entries, n <= 7, with cancellations.

    Some rows are a pool multiple of an earlier row with at most one entry
    changed, so elimination fills in entries that cancel to zero and the
    determinant is often 0.
    """
    n = rng.randint(1, 7)
    density = rng.choice((0.4, 0.7, 1.0))
    rows = []
    for ri in range(n):
        if rows and rng.random() < 0.3:
            f = rng.choice(pool)
            row = {ci: x * f for ci, x in rng.choice(rows).items()}
            if rng.random() < 0.5:
                row[rng.randrange(n)] = rng.choice(pool)
        else:
            row = {ci: rng.choice(pool) for ci in range(n)
                   if rng.random() < density}
        rows.append(row)
    return rows


def as_matrix(rows, n, rng=None):
    """An ActivityMatrix over a table with one letter per entry, with
    Kasteleyn signs drawn from rng (all +1 without one), and the entries
    those signs give."""
    table = {}
    entries = {}
    signed = []
    for ri, row in enumerate(rows):
        srow = {}
        for ci, x in row.items():
            tok = "x%d" % len(table)
            table[tok] = x
            sign = rng.choice((1, -1)) if rng else 1
            entries[(ri, ci)] = Entry(tok, sign)
            srow[ci] = x if sign > 0 else -x
        signed.append(srow)
    m = ActivityMatrix(rows=list(range(1, n + 1)),
                       columns=[Column("internal", ("c", ci))
                                for ci in range(n)],
                       entries=entries, signed=True)
    return m, table, signed


#: seconds the seeded kernel comparison may take
KERNEL_BUDGET_S = 60


@pytest.mark.parametrize("pool", [POOL_A, POOL_UV], ids=["A", "uv"])
def test_elimination_matches_leibniz_on_non_unit_entries(pool):
    t0 = time.perf_counter()
    ring = type(pool[0])
    rng = random.Random(7070)
    zeros = 0
    cases = [(rows, None) for rows in fixed_matrices(ring)] + \
        [(random_matrix(rng, pool), rng) for _ in range(150)]
    for rows, signs in cases:
        n = len(rows)
        m, table, signed = as_matrix(rows, n, signs)
        if not table:
            continue
        want = leibniz(signed, n, ring)
        assert det_value(m, table) == want, rows
        zeros += not want
    assert zeros > 10                 # cancellation to zero was exercised
    assert time.perf_counter() - t0 < KERNEL_BUDGET_S


#: unit monomials, the entries of the tree rows of unit_pivot_matrix
UNITS_A = [L((e, c)) for e in (-2, -1, 0, 1, 3) for c in (1, -1)]
UNITS_UV = [Laurent2({k: c}) for k in ((0, 0), (1, 0), (-1, 1), (2, -1))
            for c in (1, -1)]


def unit_pivot_matrix(rng, pool, units):
    """A seeded square matrix, n <= 7, whose every pivot that updates a
    row is a unit, with updates that cancel.

    Rows 0..n-2 are the edges of a random tree on the n columns, with a
    unit at either end; the last row is a pool combination of them with
    up to two entries replaced by pool entries.  While the last row is
    live, every column left holds an edge row, a unit, so the kernel
    pivots on one, and doing so contracts the edge: the other edge rows
    stay a tree of two units each, since no two tree edges share both
    ends.  The last row can win only with a single one-term entry, whose
    step changes no other entry, and every row left after it holds units
    only.  So no step divides, and the one pivot that may not be a unit
    is the last.  The last row's multiplier is its entry divided by a
    unit, often not a monomial; its entries cancel where the
    combination's terms do, and a column it lost comes back when a
    contraction brings an edge to it.
    """
    ring = type(pool[0])
    n = rng.randint(2, 7)
    edges = [{v: rng.choice(units), rng.randrange(v): rng.choice(units)}
             for v in range(1, n)]
    rng.shuffle(edges)
    last = {}
    for edge in edges:
        if rng.random() < 0.5:
            f = rng.choice(pool)
            for ci, x in edge.items():
                last[ci] = last.get(ci, ring.zero()) + f * x
    last = {ci: x for ci, x in last.items() if x}
    for _ in range(rng.randint(0, 2)):
        last[rng.randrange(n)] = rng.choice(pool)
    perm = list(range(n))
    rng.shuffle(perm)
    return [{perm[ci]: x for ci, x in row.items()} for row in edges + [last]]


def regain_matrix(ring):
    """A star of three unit edges on column 3, from columns 0, 1 and 2, and
    a last row (1 + x) e_0 + 2 at column 1 + (1 + x^-1) at column 2.

    Columns 0, 1 and 2 tie on two live rows, so column 0 goes first; its
    edge is the unit pivot, the multiplier 1 + x is not a monomial, and
    the last row's entry at column 3 cancels.  Column 3 is left with two
    edges, so column 1 goes next, and its edge brings column 3 back into
    the last row.
    """
    def c(v, e=0):
        return ring({(e, 0) if ring is Laurent2 else e: v})

    one, x = c(1), c(1, 1)
    return [{0: one, 3: one}, {1: one, 3: -one}, {2: x, 3: one},
            {0: one + x, 3: one + x, 1: c(2), 2: one + c(1, -1)}]


@pytest.mark.parametrize("pool, units", [(POOL_A, UNITS_A),
                                         (POOL_UV, UNITS_UV)],
                         ids=["A", "uv"])
def test_elimination_matches_leibniz_on_unit_pivots(monkeypatch, pool,
                                                    units):
    t0 = time.perf_counter()
    ring = type(pool[0])
    rng = random.Random(8080)
    calls = count_kernel_calls(monkeypatch)
    zeros = 0
    cases = [regain_matrix(ring)] + \
        [unit_pivot_matrix(rng, pool, units) for _ in range(150)]
    for rows in cases:
        n = len(rows)
        m, table, _ = as_matrix(rows, n)
        want = leibniz(rows, n, ring)
        assert det_value(m, table) == want, rows
        zeros += not want
    assert calls["_div"] == 0         # every step pivoted on a unit
    assert calls["_mul"] > 0          # multipliers that are not monomials
    assert zeros > 10
    assert time.perf_counter() - t0 < KERNEL_BUDGET_S


#: sha256 of the column and pivot-row orders of every elimination in
#: pivot_orders, as taken when every candidate row's coefficients were
#: recounted at every step: the counts the kernel keeps must pick the
#: same pivots
PIVOT_ORDERS_SHA256 = \
    "56f236ebd182e1dd2886e559905e22ebf827708c74c15edd6518585d115d11d6"


def pivot_orders(monkeypatch):
    """The orders elimination hands _parity, one tuple each: on seeded
    matrices of non-unit entries and of unit pivots, and on the desk sweep
    and the subdivide chains over both tables."""
    orders = []
    real = matrix._parity
    monkeypatch.setattr(matrix, "_parity",
                        lambda order: orders.append(tuple(order))
                        or real(order))
    rng = random.Random(6060)
    for pool, units in ((POOL_A, UNITS_A), (POOL_UV, UNITS_UV)):
        for _ in range(300):
            for rows in (random_matrix(rng, pool),
                         unit_pivot_matrix(rng, pool, units)):
                m, table, _ = as_matrix(rows, len(rows), rng)
                if table:
                    det_value(m, table)
    states = [initial_state(spec) for spec in desk_sweep()] + \
        FAMILIES["subdivide chains"]()
    for st in states:
        for table in (JONES_TABLE, KHOVANOV_TABLE):
            det_value(st.matrix, table)
    return orders


def test_kept_coefficient_counts_pick_the_recounted_pivots(monkeypatch):
    orders = pivot_orders(monkeypatch)
    assert len(orders) > 2 * 8000
    assert hashlib.sha256(repr(orders).encode()).hexdigest() == \
        PIVOT_ORDERS_SHA256


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_det_value_refuses_non_square_matrix(shape):
    nrows, ncols = shape
    m = ActivityMatrix(
        rows=list(range(1, nrows + 1)),
        columns=[Column("internal", BOT) for _ in range(ncols)],
        entries={(ri, ci): Entry("L", 1) for ri in range(nrows)
                 for ci in range(ncols) if ri == ci},
        signed=True)
    with pytest.raises(ValueError, match="square"):
        det_value(m, JONES_TABLE)


# ---------------------------------------------------------------------------
# stencil pair counts from one elimination against the listed word pairs
# and against one elimination per minor

#: seconds each pair-count comparison may take
PAIR_COUNT_BUDGET_S = 60


def check_pair_counts(m):
    reports = scan_differentials(m)
    assert stencil_pair_counts(m, reports) == \
        [len(pairs) for pairs in stencil_word_pairs(m, reports)]
    return len(reports)


def test_pair_counts_match_word_pairs_on_desk_sweep():
    t0 = time.perf_counter()
    reports = sum(check_pair_counts(initial_state(spec).matrix)
                  for spec in desk_sweep())
    assert reports == 5272
    assert time.perf_counter() - t0 < PAIR_COUNT_BUDGET_S


def test_pair_counts_match_word_pairs_up_to_nine_columns():
    t0 = time.perf_counter()
    rng = random.Random(9090)
    reports = 0
    for k in range(5, 10):
        checked = 0
        while checked < 8:
            spec = tuple(rng.choice((1, -1)) * rng.randint(1, 3)
                         for _ in range(k))
            terms = sum(math.prod(abs(v) for j, v in enumerate(spec) if j != i)
                        for i in range(k))
            if terms > 3000:          # the word pairs expand every term
                continue
            reports += check_pair_counts(initial_state(spec).matrix)
            checked += 1
    assert reports > 0
    assert time.perf_counter() - t0 < PAIR_COUNT_BUDGET_S


def test_pair_counts_need_a_signed_matrix():
    m = pipeline_matrix((-2, 3, 3), signed=False, enhanced=False)
    with pytest.raises(ValueError, match="Kasteleyn"):
        stencil_pair_counts(m, scan_differentials(m))


def check_reference_counts(m):
    reports = scan_differentials(m)
    assert stencil_pair_counts(m, reports) == reference_pair_counts(m, reports)
    return len(reports)


def test_pair_counts_match_minors_on_seeded_specs_and_chains():
    t0 = time.perf_counter()
    rng = random.Random(2121)
    reports = 0
    for _ in range(40):
        spec = tuple(rng.choice((1, -1)) * rng.randint(1, 9)
                     for _ in range(rng.randint(2, 12)))
        reports += check_reference_counts(initial_state(spec).matrix)
    specs = desk_sweep()
    names = sorted(MOVES)
    checked = 0
    while checked < 100:
        chain = [rng.choice(names) for _ in range(rng.randint(1, 6))]
        try:
            st = apply_moves(initial_state(rng.choice(specs)), chain)
        except ValueError:            # edge extension after a kink
            continue
        reports += check_reference_counts(st.matrix)
        checked += 1
    assert reports == 335
    assert time.perf_counter() - t0 < PAIR_COUNT_BUDGET_S


@pytest.mark.parametrize("spec", [(-2, 3) * 20, (3, -3) * 50 + (2,),
                                  MIXED_SPEC],
                         ids=["P((-2,3)^20)", "P((3,-3)^50,2)", "MIXED_SPEC"])
def test_pair_counts_match_minors_at_scale(spec):
    t0 = time.perf_counter()
    assert check_reference_counts(initial_state(spec).matrix) > 0
    assert time.perf_counter() - t0 < PAIR_COUNT_BUDGET_S


def test_pair_counts_take_one_elimination(monkeypatch):
    calls = []

    def counted(m, table):
        calls.append(1)
        return det_value(m, table)

    monkeypatch.setattr(evaluate, "det_value", counted)
    m = initial_state((-2, 3) * 20).matrix
    reports = scan_differentials(m)
    assert len(reports) == 39
    stencil_pair_counts(m, reports)
    assert calls == []


def test_pair_counts_of_a_hundred_columns_take_under_half_a_second():
    m = initial_state((-2, 3) * 100).matrix
    reports = scan_differentials(m)
    t0 = time.perf_counter()
    counts = stencil_pair_counts(m, reports)
    assert time.perf_counter() - t0 < 0.5
    assert len(counts) == len(reports) == 199


def test_pair_counts_edge_cases():
    m = initial_state((-2, 3, 3)).matrix
    assert stencil_pair_counts(m, []) == []
    m = initial_state((-1, 1, -1)).matrix     # a 1 x 1 minor
    assert stencil_pair_counts(m, scan_differentials(m)) == [1]
    columns = [Column("internal", BOT), Column("external", ("strip", 1))]
    ones = dict.fromkeys(itertools.product((0, 1), repeat=2), Entry("L"))
    m = ActivityMatrix(rows=[1, 2], columns=columns, entries=ones,
                       signed=True)                 # det 0
    report = StencilReport(rows=(1, 2), cols=(BOT, ("strip", 1)),
                           stencil="Ld/D~d~")
    with pytest.raises(ValueError, match="singular"):
        stencil_pair_counts(m, [report])
