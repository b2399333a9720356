import hashlib
import random
import sys
import time

import pytest
from paper_tables import desk_sweep

from pretzeldimer import matrix
from pretzeldimer.activities import tree_words
from pretzeldimer.extend import MOVES, apply_moves, initial_state
from pretzeldimer.matrix import (
    ENTRIES,
    JONES_TABLE,
    KHOVANOV_TABLE,
    ActivityMatrix,
    Column,
    Entry,
    Term,
    build_block_matrix,
    build_graph_matrix,
    det_value,
    dump_json,
    enhance,
    expand,
    perm_value,
    pretty,
    sign_matrix,
    signed_block_matrix,
    to_json,
    word_multiset,
    word_sum,
)
from pretzeldimer.diagram import build_diagram
from pretzeldimer.evaluate import pipeline_matrix
from pretzeldimer.laurent import Laurent, Laurent2
from pretzeldimer.taitgraphs import (
    BOT,
    bigon,
    build_overlay,
    build_tait,
    solve_kasteleyn,
    strip,
)


def region_view(m):
    return m.by_region()


def test_trefoil_matrix_letters():
    m = build_block_matrix((1, 1, 1))
    assert [c.region for c in m.columns] == [BOT, strip(1), strip(2)]
    assert region_view(m) == {
        (1, BOT): ("L", False), (2, BOT): ("D", False), (3, BOT): ("D", False),
        (1, strip(1)): ("l", False), (2, strip(1)): ("d", False),
        (2, strip(2)): ("l", False), (3, strip(2)): ("d", False),
    }


def test_torus_819_matrix_letters():
    m = build_block_matrix((-2, 3, 3))
    assert [c.region for c in m.columns] == [
        bigon(1, 1), bigon(2, 2), bigon(2, 1), bigon(3, 2), bigon(3, 1),
        BOT, strip(1), strip(2),
    ]
    expected = {
        (1, bigon(1, 1)): ("L", True), (1, strip(1)): ("l", True),
        (2, bigon(1, 1)): ("D", True), (2, BOT): ("L", True),
        (2, strip(1)): ("d", True),
        (3, bigon(2, 2)): ("L", False), (3, BOT): ("D", False),
        (3, strip(1)): ("d", False), (3, strip(2)): ("l", False),
        (4, bigon(2, 2)): ("D", False), (4, bigon(2, 1)): ("L", False),
        (4, strip(1)): ("d", False), (4, strip(2)): ("d", False),
        (5, bigon(2, 1)): ("D", False),
        (5, strip(1)): ("d", False), (5, strip(2)): ("d", False),
        (6, bigon(3, 2)): ("L", False), (6, BOT): ("D", False),
        (6, strip(2)): ("d", False),
        (7, bigon(3, 2)): ("D", False), (7, bigon(3, 1)): ("L", False),
        (7, strip(2)): ("d", False),
        (8, bigon(3, 1)): ("D", False), (8, strip(2)): ("d", False),
    }
    assert region_view(m) == expected


def test_pretzel_237_matrix_structure():
    m = build_block_matrix((-2, 3, 7))
    assert m.n == 12
    assert len(m.columns) == 12
    view = region_view(m)
    # last block is bidiagonal: L at rows 6..11, D at rows 7..12
    for j, row in enumerate(range(6, 12), start=1):
        assert view[(row, bigon(3, 7 - j))] == ("L", False)
        assert view[(row + 1, bigon(3, 7 - j))] == ("D", False)
    assert view[(2, BOT)] == ("L", True)
    assert view[(3, BOT)] == ("D", False)
    assert view[(6, BOT)] == ("D", False)
    # strips: live at the first crossing of the column to their west
    assert view[(1, strip(1))] == ("l", True)
    assert view[(3, strip(2))] == ("l", False)
    assert sum(1 for (r, reg) in view if reg == strip(2)) == 10
    # row 12 is the top of the last column: D next to d
    assert sorted((c, e) for (r, c), e in m.entries.items() if r == 11) == [
        (8, Entry("D")), (11, Entry("d")),
    ]


def test_single_column_matrix():
    m = build_block_matrix((2,))
    assert [c.region for c in m.columns] == [bigon(1, 1), BOT]
    assert region_view(m) == {
        (1, bigon(1, 1)): ("L", False), (2, bigon(1, 1)): ("D", False),
        (2, BOT): ("L", False),
    }
    assert word_multiset(m) == [("L", "L")]


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (2, 2),
                                  (3, -4, 2), (-1, 2, -3, 4), (5,)])
def test_constructors_agree_up_to_column_order(spec):
    m1 = build_block_matrix(spec)
    m2 = build_graph_matrix(build_overlay(spec))
    assert region_view(m1) == region_view(m2)
    assert m1.rows == m2.rows


@pytest.mark.parametrize("spec,count", [
    ((1, 1, 1), 3), ((-2, 3, 3), 21), ((-2, 3, 7), 41), ((2, 2), 4),
])
def test_term_counts(spec, count):
    assert len(expand(build_block_matrix(spec))) == count


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (2, 2),
                                  (3, -4, 2), (-1, 2, -3, 4)])
def test_expansion_words_match_tree_words(spec):
    m = build_block_matrix(spec)
    words = word_multiset(m)
    twords = sorted(w for _, w in tree_words(build_tait(spec)))
    assert words == twords


@pytest.mark.parametrize("spec", [(-2, 3, 3), (3, -4, 2), (-1, 2, -3, 4)])
def test_external_pivots_hit_distinct_blocks(spec):
    m = build_block_matrix(spec)
    block_of = {}
    offset = 0
    for ci, v in enumerate(spec, start=1):
        for label in range(offset + 1, offset + abs(v) + 1):
            block_of[label] = ci
        offset += abs(v)
    for t in expand(m):
        ext_blocks = [block_of[m.rows[ri]]
                      for ri, ci in enumerate(t.cols)
                      if m.columns[ci].kind == "external"]
        assert len(ext_blocks) == len(set(ext_blocks))


def test_duplicate_words_are_fatal():
    m = ActivityMatrix(
        rows=[1, 2],
        columns=[Column("internal", BOT), Column("external", strip(1))],
        entries={(0, 0): Entry("d"), (0, 1): Entry("d"),
                 (1, 0): Entry("d"), (1, 1): Entry("d")},
    )
    with pytest.raises(ValueError, match="duplicate"):
        expand(m)
    assert len(matrix._all_terms(m)) == 2


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (2, 2), (3, -4, 2),
                                  (-1, 2, -3, 4), (4, 4, -3)])
def test_kasteleyn_makes_term_signs_constant(spec):
    ov = build_overlay(spec)
    m = sign_matrix(build_block_matrix(spec), solve_kasteleyn(ov))
    assert m.signed
    eps = {t.parity * t.ksign for t in expand(m)}
    assert len(eps) == 1


def test_entries_and_terms_are_values():
    assert Entry("D~", -1) == Entry("D~", -1) != Entry("D~")
    assert hash(Entry("L")) == hash(Entry("L", 1))
    assert ENTRIES["l", 1] == Entry("l")
    m = signed_block_matrix((-2, 3, 3))
    assert all(e is ENTRIES[e.tok, e.sign] for e in m.entries.values())
    t = Term(cols=(1, 0), word=("L", "d"), parity=-1, ksign=1)
    assert t == Term((1, 0), ("L", "d"), -1, 1)
    assert {t, Term((1, 0), ("L", "d"), -1, 1)} == {t}


def test_matrix_copy_owns_its_entries():
    m = signed_block_matrix((-2, 3, 3))
    before = dict(m.entries)
    c = m.copy()
    assert c == m
    c.entries[(0, 0)] = ENTRIES["D", -1]
    del c.entries[(1, 0)]
    assert m.entries == before
    assert c != m


def test_unsigned_matrix_terms_disagree_in_sign():
    # without Kasteleyn signs the permutation parities clash somewhere
    m = build_block_matrix((-2, 3, 3))
    assert {t.parity for t in expand(m)} == {1, -1}


def test_enhance_records_crossing_signs():
    m = enhance(build_block_matrix((1, 1, 1)), build_diagram((1, 1, 1)))
    assert m.enhanced
    assert m.row_weights == {0: -1, 1: -1, 2: -1}
    with pytest.raises(ValueError):
        enhance(build_block_matrix((2, 2)), build_diagram((2, 2)))


def test_det_and_perm_toy_evaluation():
    # with every letter worth A, terms count total degree n
    m = build_block_matrix((1, 1, 1))
    table = {tok: Laurent.term(1, 1) for tok in ("L", "D", "l", "d")}
    assert perm_value(m, table) == Laurent.term(3, 3)
    signed = sign_matrix(m, solve_kasteleyn(build_overlay((1, 1, 1))))
    det = det_value(signed, table)
    assert det == Laurent.term(3, 3) or det == Laurent.term(-3, 3)


def test_singular_matrix_has_zero_det_and_perm():
    # the second column is empty: no terms
    m = ActivityMatrix(
        rows=[1, 2],
        columns=[Column("internal", BOT), Column("external", strip(1))],
        entries={(0, 0): Entry("L"), (1, 0): Entry("D")},
        signed=True,
    )
    table = {tok: Laurent.term(1, 1) for tok in "LDld"}
    assert det_value(m, table) == Laurent.zero()
    assert perm_value(m, table) == Laurent.zero()


# ---------------------------------------------------------------------------
# word_sum: monomial letters summed as integers

def reference_word_sum(words, table):
    """One ring product per letter and one ring sum per word."""
    ring = type(next(iter(table.values())))
    total = ring.zero()
    for word in words:
        poly = ring.one()
        for tok in word:
            poly = poly * table[tok]
        total = total + poly
    return total


@pytest.mark.parametrize("table", [JONES_TABLE, KHOVANOV_TABLE],
                         ids=["jones", "khovanov"])
def test_word_sum_matches_letter_products_on_seeded_words(table):
    rng = random.Random(77)
    letters = sorted(table)
    for _ in range(200):
        count = rng.randint(1, 30)
        length = rng.randint(0, 40)
        # few letters and short words repeat weights, so terms cancel
        # and collect as well as add
        alphabet = rng.sample(letters, rng.randint(1, len(letters)))
        words = [tuple(rng.choice(alphabet) for _ in range(length))
                 for _ in range(count)]
        assert word_sum(words, table) == reference_word_sum(words, table)
        assert word_sum(iter(words), table) == \
            reference_word_sum(words, table)


def test_word_sum_collects_and_cancels():
    # Table 1: L = -A^-3, D = A, d = A^-1, L~ = -A^3
    assert word_sum([("L",), ("d", "d", "d")], JONES_TABLE) == Laurent.zero()
    assert word_sum([("L~", "L"), ("D", "d")], JONES_TABLE) == \
        Laurent({0: 2})
    assert word_sum([("L~",), ("D",), ("L",)], JONES_TABLE) == \
        Laurent({3: -1, 1: 1, -3: -1})


def test_word_sum_on_no_words_is_the_rings_zero():
    assert word_sum([], JONES_TABLE) == Laurent.zero()
    assert word_sum(iter(()), KHOVANOV_TABLE) == Laurent2.zero()
    # one empty word is the empty product
    assert word_sum([()], JONES_TABLE) == Laurent.one()
    assert word_sum([()], KHOVANOV_TABLE) == Laurent2.one()


@pytest.mark.parametrize("bad", [Laurent({1: 1, -1: 1}), Laurent.zero(),
                                 Laurent2({(1, 0): 1, (0, 1): -1})])
def test_word_sum_refuses_a_non_monomial_letter(bad):
    ring = type(bad)
    table = {"L": ring.one(), "D": bad}
    for words in ([("L", "L")], [], [()]):
        with pytest.raises(ValueError, match="monomial"):
            word_sum(words, table)


def test_graph_matrix_with_reversed_ranks():
    ov = build_overlay((-2, 3, 3))
    ranks = {c: 9 - c for c in range(1, 9)}
    m = build_graph_matrix(ov, ranks)
    assert m.rows == [8, 7, 6, 5, 4, 3, 2, 1]
    standard = word_multiset(build_graph_matrix(ov))
    reordered = sorted(t.word for t in matrix._all_terms(m))
    assert reordered != standard


def test_pretty_and_json():
    m = build_block_matrix((-2, 3, 3))
    text = pretty(m)
    assert "̄" in text          # bars on the negative column
    assert "ℓ" in text          # script ell for external live
    assert "|" in text
    ascii_text = pretty(m, ascii_bars=True)
    assert "L~" in ascii_text and "." in ascii_text
    signed = sign_matrix(m, solve_kasteleyn(build_overlay((-2, 3, 3))))
    assert "-" in pretty(signed)
    blob = to_json(signed)
    assert blob["signed"] and not blob["enhanced"]
    assert len(blob["entries"]) == len(m.entries)
    assert dump_json(signed).startswith("{")
    enhanced = enhance(m, build_diagram((-2, 3, 3)))
    assert "(w+1)" in pretty(enhanced)


def test_expansion_refuses_non_square_matrix():
    m = ActivityMatrix(
        rows=[1, 2],
        columns=[Column("internal", BOT)],
        entries={(0, 0): Entry("L"), (1, 0): Entry("D")},
    )
    with pytest.raises(ValueError, match="square"):
        expand(m)


# ---------------------------------------------------------------------------
# the unpruned reference: every branch, parity by counting inversions

#: seconds each reference comparison below may take
REFERENCE_BUDGET_S = 60


def reference_parity(cols):
    inv = 0
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            if cols[i] > cols[j]:
                inv += 1
    return -1 if inv & 1 else 1


@pytest.mark.parametrize("n", [0, 1, 2, 10, 400])
def test_parity_matches_the_inversion_count(n):
    # the kernel's sign rests on _parity; the expansion no longer calls it
    rng = random.Random(n)
    perms = [list(range(n)), list(range(n))[::-1]]
    for _ in range(30):
        perms.append(rng.sample(range(n), n))
    signs = set()
    for cols in perms:
        assert matrix._parity(cols) == reference_parity(cols), cols
        signs.add(reference_parity(cols))
    assert signs == ({1} if n < 2 else {1, -1})


def reference_terms(m):
    """Backtracking over every free candidate column, row by row."""
    cands = [[] for _ in range(m.n)]
    for (ri, ci), e in sorted(m.entries.items()):
        cands[ri].append((ci, e))
    used = set()
    pick = []
    terms = []

    def rec(ri):
        if ri == m.n:
            cols = tuple(ci for ci, _ in pick)
            ksign = 1
            for _, e in pick:
                ksign *= e.sign
            terms.append(Term(cols=cols, word=tuple(e.tok for _, e in pick),
                              parity=reference_parity(cols), ksign=ksign))
            return
        for ci, e in cands[ri]:
            if ci not in used:
                used.add(ci)
                pick.append((ci, e))
                rec(ri + 1)
                pick.pop()
                used.remove(ci)

    rec(0)
    return terms


def test_expansion_matches_reference_on_desk_sweep():
    t0 = time.perf_counter()
    terms = 0
    for spec in desk_sweep():
        signed = pipeline_matrix(spec, enhanced=False)
        for m in (build_block_matrix(spec), signed):
            got = expand(m)
            assert got == reference_terms(m), spec
            terms += len(got)
    assert terms == 2 * 181760
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_expansion_matches_reference_on_move_chains():
    t0 = time.perf_counter()
    rng = random.Random(5150)
    specs = desk_sweep()
    names = sorted(MOVES)
    used = set()
    checked = 0
    while checked < 300:
        spec = rng.choice(specs)
        chain = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        try:
            m = apply_moves(initial_state(spec), chain).matrix
        except ValueError:            # edge extension after a kink
            continue
        assert expand(m) == reference_terms(m), (spec, chain)
        used.update(chain)
        checked += 1
    assert used == set(MOVES)
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_expansion_matches_reference_on_odd_matrices():
    ov = build_overlay((-2, 3, 3))
    ranks = {c: 9 - c for c in range(1, 9)}
    reversed_ranks = sign_matrix(build_graph_matrix(ov, ranks),
                                 solve_kasteleyn(ov))
    duplicates = ActivityMatrix(
        rows=[1, 2],
        columns=[Column("internal", BOT), Column("external", strip(1))],
        entries={(0, 0): Entry("d"), (0, 1): Entry("d", -1),
                 (1, 0): Entry("d"), (1, 1): Entry("d")},
        signed=True,
    )
    singular = ActivityMatrix(
        rows=[1, 2],
        columns=[Column("internal", BOT), Column("external", strip(1))],
        entries={(0, 0): Entry("L"), (1, 0): Entry("D")},
    )
    for m, count in ((reversed_ranks, 21), (duplicates, 2), (singular, 0)):
        got = matrix._all_terms(m)
        assert got == reference_terms(m)
        assert len(got) == count
    assert {t.parity for t in matrix._all_terms(duplicates)} == {1, -1}


def expansion_calls(m):
    """(terms, nodes of the expansion's search tree) for one expand.

    The search opens each row it reaches with one call of its ``options``
    step; the leaves are the terms.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "options" \
                and code.co_filename.endswith("matrix.py"):
            calls += 1

    sys.setprofile(count)
    try:
        terms = expand(m)
    finally:
        sys.setprofile(None)
    return len(terms), calls + len(terms)


@pytest.mark.parametrize("spec", [(-2, 3, 41), (-2, 5, 21), (3, -3, 3, 3),
                                  (-4, 4, -3, 1), (5,), (2, 2)])
def test_expansion_explores_no_dead_branches(spec):
    # with the forced-column cut the search takes at most n + 1 steps per
    # term on pretzel matrices, about half that on long columns; without
    # it P(-2,3,41) took 64 000 steps for 211 terms
    for m in (build_block_matrix(spec), pipeline_matrix(spec, enhanced=False)):
        terms, calls = expansion_calls(m)
        assert terms > 0
        assert m.n < calls <= terms * (m.n + 1), (spec, terms, calls)


def test_expansion_carries_its_signs_down_the_search(monkeypatch):
    # each term's parity comes from one popcount per search step; only
    # the elimination kernel reads a parity off a whole permutation
    calls = []

    def counted(cols, _parity=matrix._parity):
        calls.append(len(cols))
        return _parity(cols)

    monkeypatch.setattr(matrix, "_parity", counted)
    for spec in [(-2, 3, 3), (-2, 3, 41)]:
        m = pipeline_matrix(spec, enhanced=False)
        assert len({t.parity * t.ksign for t in expand(m)}) == 1
        assert calls == []
    det_value(m, JONES_TABLE)
    assert calls == [m.n, m.n]


def test_expansion_is_not_bounded_by_the_recursion_limit():
    # one search level per row: a recursive search dies once the rows
    # outnumber the recursion limit, as khovanov P(-2,3,985) once did
    limit = sys.getrecursionlimit()
    spec = (-2, 3, 401)
    m = build_block_matrix(spec)
    sys.setrecursionlimit(200)
    try:
        assert m.n > 2 * sys.getrecursionlimit()
        terms = expand(m)
    finally:
        sys.setrecursionlimit(limit)
    assert len(terms) == 3 * 401 + 2 * 401 + 2 * 3
    assert terms == sorted(terms, key=lambda t: t.cols)


# ---------------------------------------------------------------------------
# the one-pass state against the overlay route

#: sha256 of matrix_view(build_block_matrix(spec)) over the desk sweep, as
#: the builder that placed each letter apart from the face walk gave it
BLOCK_MATRIX_DESK_SHA256 = \
    "c47b8fe4ff9ef8d79b36100370297e11e14aa6de7ebf09e65cbe2f33793d43a2"


def matrix_view(m):
    """Rows, columns, entries in insertion order with tokens and signs."""
    return (m.rows, [(c.kind, c.region) for c in m.columns],
            [(key, e.tok, e.sign) for key, e in m.entries.items()], m.signed)


def test_block_matrix_unchanged_on_desk_sweep():
    digest = hashlib.sha256()
    for spec in desk_sweep():
        digest.update(repr(matrix_view(build_block_matrix(spec))).encode())
    assert digest.hexdigest() == BLOCK_MATRIX_DESK_SHA256


def test_signed_block_matrix_matches_overlay_route():
    # the overlay route: unsigned letters, (label, region) faces, a copy
    t0 = time.perf_counter()
    rng = random.Random(2718)
    seeded = [tuple(rng.choice((-1, 1)) * rng.randint(1, 15)
                    for _ in range(rng.randint(1, 12))) for _ in range(3000)]
    one_column = [(v,) for a in range(1, 10) for v in (a, -a)]
    specs = desk_sweep() + one_column + seeded + [(-2, 3, 401), (3,) * 25]
    for spec in specs:
        reference = sign_matrix(build_block_matrix(spec),
                                solve_kasteleyn(build_overlay(spec)))
        got = signed_block_matrix(spec)
        assert matrix_view(got) == matrix_view(reference), spec
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S
