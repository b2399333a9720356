"""Acceptance gate: the eleven numbered criteria this toolkit is held to.

Each test prints one ``CRITERION n: PASS/FAIL`` line (visible with -s, or
in captured output on failure) and enforces the stated runtime budget
in-process.  Criterion 3's references for P(-2,3,7) are checked against
each other (bracket, writhe, A-form, t-form, V(1) = 1) before the program
is checked against them; see the comment there for where they come from.
"""
import json
import random
import time
from contextlib import contextmanager

import pytest
from paper_tables import (classify_parallel, classify_series, column_segments,
                          desk_sweep, gradings)

from pretzeldimer.activities import tree_words
from pretzeldimer.cli import main
from pretzeldimer.diagram import build_diagram, trace
from pretzeldimer.evaluate import (JONES_TABLE, STENCILS,
                                   jones_in_A, khovanov_poincare,
                                   pipeline_matrix, scan_differentials,
                                   stencil_word_pairs)
from pretzeldimer.extend import (apply_moves, initial_state, state_bracket,
                                 state_jones_in_A)
from pretzeldimer.laurent import Laurent, Laurent2, writhe_factor
from pretzeldimer.matrix import (build_block_matrix, build_graph_matrix,
                                 det_value, expand, perm_value,
                                 sign_matrix, word_multiset)
from pretzeldimer.oracle import state_sum_bracket, tree_expansion_bracket
from pretzeldimer.taitgraphs import (build_overlay, build_tait,
                                     solve_kasteleyn, verify_kasteleyn)


@contextmanager
def criterion(n, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - t0
            assert elapsed < budget, \
                "criterion %d over budget: %.2fs >= %ss" % (n, elapsed, budget)
        ok = True
    finally:
        print("CRITERION %d: %s (%.2fs)"
              % (n, "PASS" if ok else "FAIL", time.perf_counter() - t0))


def L(pairs):
    return Laurent(dict(pairs))


# ---------------------------------------------------------------------------
# the desk-scale sweep: k in {2,3,4}, entries +-1..4, at most 12 crossings

_SWEEP = None
_KNOTS = None


def sweep_specs():
    global _SWEEP
    if _SWEEP is None:
        _SWEEP = desk_sweep()
    return _SWEEP


def sweep_knots():
    global _KNOTS
    if _KNOTS is None:
        _KNOTS = [s for s in sweep_specs()
                  if trace(build_diagram(s)).components == 1]
    return _KNOTS


def jones_cli_pairs(spec_text, capsys):
    assert main(["jones", spec_text, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def kink(w):
    return Laurent.term(-1, -3) ** w


# ---------------------------------------------------------------------------

def test_criterion_01(capsys):
    with criterion(1, budget=0.1):
        # t^-1 + t^-3 - t^-4
        assert jones_cli_pairs("P(1,1,1)", capsys) == \
            [[-4, -1], [-3, 1], [-1, 1]]
        det = det_value(pipeline_matrix((1, 1, 1), enhanced=False),
                        JONES_TABLE)
        ref = L([[-5, -1], [3, -1], [7, 1]])   # -A^-5 - A^3 + A^7
        assert det in (ref, -ref)


def test_criterion_02(capsys):
    with criterion(2, budget=0.1):
        # t^3 + t^5 - t^8
        assert jones_cli_pairs("P(-2,3,3)", capsys) == \
            [[3, 1], [5, 1], [8, -1]]
        assert trace(build_diagram((-2, 3, 3))).writhe == 8
        ref = L([[-32, -1], [-20, 1], [-12, 1]])
        assert jones_in_A((-2, 3, 3)) in (ref, -ref)


def test_criterion_03(capsys):
    # The Kauffman bracket of the diagram is the one tests/test_cli.py pins;
    # the diagram writhe is 12, so the Jones polynomial in A is that bracket
    # times kink(12), and in t (A = t^(-1/4)) it is
    # t^5 + t^7 - t^11 + t^12 - t^13.  The three references are tied to one
    # another so that a slip in one fails here, before the program is asked.
    # Earlier references were wrong twice over: the A-form used writhe 8
    # (that of P(-2,3,3)) in place of 12, which is the true polynomial times
    # t^-3, and the t-form also dropped its t^4 term, giving V(1) = 0.
    with criterion(3, budget=0.1):
        bracket = L([[-16, -1], [-12, 1], [-8, -1], [8, 1], [16, 1]])
        ref = L([[-52, -1], [-48, 1], [-44, -1], [-28, 1], [-20, 1]])
        pairs = [[5, 1], [7, 1], [11, -1], [12, 1], [13, -1]]
        assert ref == bracket * kink(12)
        assert ref.reexpress(-4).to_pairs() == pairs
        assert sum(c for _, c in pairs) == 1
        assert trace(build_diagram((-2, 3, 7))).writhe == 12
        assert jones_cli_pairs("P(-2,3,7)", capsys) == pairs
        assert jones_in_A((-2, 3, 7)) in (ref, -ref)


def test_criterion_04():
    with criterion(4, budget=60):
        for spec in sweep_specs():
            words = word_multiset(build_block_matrix(spec))
            twords = sorted(w for _, w in tree_words(build_tait(spec)))
            assert words == twords, spec
            assert len(set(words)) == len(words), spec


def test_criterion_05():
    with criterion(5, budget=120):
        for spec in sweep_knots():
            d = build_diagram(spec)
            w = trace(d).writhe
            ref = jones_in_A(spec)
            tree_route = tree_expansion_bracket(build_tait(spec)) * kink(w)
            sum_route = state_sum_bracket(d) * kink(w)
            assert tree_route == sum_route, spec
            assert ref in (tree_route, -tree_route), spec


def test_criterion_06():
    with criterion(6):
        for spec in sweep_specs():
            ov = build_overlay(spec)
            assert verify_kasteleyn(ov.faces, solve_kasteleyn(ov)), spec
        rng = random.Random(1109)
        for spec in rng.sample(sweep_specs(), 25):
            det = det_value(pipeline_matrix(spec, enhanced=False),
                            JONES_TABLE)
            per = perm_value(build_block_matrix(spec), JONES_TABLE)
            assert det in (per, -per), spec


def test_criterion_07():
    with criterion(7):
        for spec in sweep_specs():
            expect = sum(
                _product(abs(v) for j, v in enumerate(spec) if j != i)
                for i in range(len(spec)))
            assert len(expand(build_block_matrix(spec))) == expect, spec
        for spec, count in (((1, 1, 1), 3), ((-2, 3, 3), 21),
                            ((-2, 3, 7), 41)):
            assert len(expand(build_block_matrix(spec))) == count


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_criterion_08():
    with criterion(8):
        for spec in sweep_specs():
            for _, word in tree_words(build_tait(spec)):
                for seg in column_segments(word, spec):
                    assert classify_series(seg) is not None, (spec, word)
        # the trefoil's three columns form one parallel class in the dual
        for _, word in tree_words(build_tait((1, 1, 1))):
            assert classify_parallel(word) is not None, word


def test_criterion_09():
    with criterion(9, budget=30):
        for spec in ((1, 1, 1), (1, 1, 3), (-2, 3, 3)):
            ref = jones_in_A(spec)
            for name in ("r1:bridge", "r1:loop", "r2:series", "r2:parallel"):
                grown = apply_moves(initial_state(spec), [name])
                assert state_jones_in_A(grown) == ref
        rng = random.Random(2026)
        for spec in rng.sample(sweep_specs(), 10):
            grown = apply_moves(initial_state(spec), ["subdivide"])
            target = spec[:-1] + \
                (spec[-1] + (1 if spec[-1] > 0 else -1),)
            fresh = build_block_matrix(target)
            assert word_multiset(grown.matrix) == word_multiset(fresh), spec
            assert state_bracket(grown) == \
                perm_value(fresh, JONES_TABLE), spec


def test_criterion_10():
    with criterion(10):
        paired_anywhere = 0
        for spec in sweep_knots():
            m = build_block_matrix(spec)
            terms = expand(m)
            total = Laurent2.zero()
            for t in terms:
                u, v = gradings(t.word)
                total = total + Laurent2.term(1, u, v)
            assert khovanov_poincare(spec) == total, spec
            assert sum(c for _, c in total.to_pairs()) == len(terms), spec
            cells = dict(STENCILS)
            reports = scan_differentials(m)
            for rep, pairs in zip(reports, stencil_word_pairs(m, reports)):
                (s11, s12), (s21, s22) = cells[rep.stencil]
                i1 = m.rows.index(rep.rows[0])
                i2 = m.rows.index(rep.rows[1])
                for src, tgt in pairs:
                    diffs = {i for i, (a, b) in enumerate(zip(src, tgt))
                             if a != b}
                    assert diffs == {i1, i2}, (spec, rep)
                    assert (src[i1], src[i2]) == (s11, s22), (spec, rep)
                    assert (tgt[i1], tgt[i2]) == (s12, s21), (spec, rep)
                    paired_anywhere += 1
        assert paired_anywhere > 0


def test_criterion_11():
    with criterion(11):
        ov = build_overlay((-2, 3, 3))
        ranks = {c: 9 - c for c in range(1, 9)}
        m = sign_matrix(build_graph_matrix(ov, ranks), solve_kasteleyn(ov))
        w = trace(build_diagram((-2, 3, 3))).writhe
        det = det_value(m, JONES_TABLE) * writhe_factor(w)
        ref = jones_in_A((-2, 3, 3))
        assert det not in (ref, -ref)
        # pinned so the witness stays a concrete, reproducible polynomial
        assert det == L([[-36, 1], [-32, -3], [-24, 1], [-20, 1], [-16, 1]])
