"""Elimination against expansion: the fast route checked by the slow one.

det_value computes determinants by fraction-free elimination and
kasteleyn_perm turns them into permanents through the global Kasteleyn
sign; expand and perm_value enumerate every permutation term.  The two
must agree exactly across the whole desk sweep, on grown states, and on a
matrix with duplicate words.
"""
import itertools
import random
import time

from pretzeldimer.diagram import build_diagram, trace
from pretzeldimer.evaluate import JONES_TABLE, KHOVANOV_TABLE, pipeline_matrix
from pretzeldimer.extend import MOVES, apply_moves, initial_state
from pretzeldimer.laurent import Laurent
from pretzeldimer.matrix import (build_graph_matrix, det_value, enhance,
                                 expand, kasteleyn_perm, perm_value,
                                 sign_matrix)
from pretzeldimer.taitgraphs import build_overlay, solve_kasteleyn

BUDGET_S = 60


def desk_sweep():
    """k in {2,3,4}, entries +-1..4, at most 12 crossings (4 112 specs)."""
    entries = [v for v in range(-4, 5) if v]
    return [combo for k in (2, 3, 4)
            for combo in itertools.product(entries, repeat=k)
            if sum(abs(v) for v in combo) <= 12]


def signed_term_sum(m, table, check_duplicates=True):
    """sum of parity x Kasteleyn sign x evaluated word over all terms."""
    total = Laurent.zero()
    for t in expand(m, check_duplicates=check_duplicates):
        poly = Laurent.term(t.parity * t.ksign)
        for tok in t.word:
            poly = poly * table[tok]
        total = total + poly
    return total


def kink(m):
    return Laurent.term(-1, -3) ** sum(m.row_weights.values())


def check_state(m, knot):
    assert det_value(m, JONES_TABLE) == signed_term_sum(m, JONES_TABLE)
    assert kasteleyn_perm(m, JONES_TABLE) == perm_value(m, JONES_TABLE)
    if knot:
        assert kasteleyn_perm(m, KHOVANOV_TABLE) == \
            perm_value(m, KHOVANOV_TABLE)


def test_elimination_matches_expansion_on_desk_sweep():
    t0 = time.perf_counter()
    specs = desk_sweep()
    assert len(specs) == 4112
    for spec in specs:
        knot = trace(build_diagram(spec)).components == 1
        check_state(pipeline_matrix(spec, enhanced=False), knot)
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
        knot = trace(st.diagram).components == 1
        check_state(st.matrix, knot)
        if knot:
            m = enhance(st.matrix, st.diagram)
            assert det_value(m, JONES_TABLE) == \
                signed_term_sum(m, JONES_TABLE) * kink(m), (spec, chain)
        checked += 1
    assert time.perf_counter() - t0 < BUDGET_S


def test_elimination_matches_expansion_with_duplicate_words():
    # criterion 11's reversed-rank matrix: its words repeat, which the
    # determinant does not mind
    ov = build_overlay((-2, 3, 3))
    ranks = {c: 9 - c for c in range(1, 9)}
    m = sign_matrix(build_graph_matrix(ov, ranks), solve_kasteleyn(ov))
    m = enhance(m, build_diagram((-2, 3, 3)))
    expected = signed_term_sum(m, JONES_TABLE, check_duplicates=False)
    assert det_value(m, JONES_TABLE) == expected * kink(m)
