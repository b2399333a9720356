import random
import sys
import time

import pytest
from paper_tables import (classify_parallel, classify_series, column_segments,
                          desk_sweep, perfect_matchings, word_str)

from tree_reference import (activity_word, fundamental_sets,
                            reference_spanning_trees, reference_word,
                            spanning_trees)

from pretzeldimer.activities import (matching_to_tree, split_token, token,
                                     tree_words)
from pretzeldimer.taitgraphs import (BOT, TaitEdge, TaitGraph, build_overlay,
                                     build_tait, dual_graph, strip)


def trees_of(g):
    return [t for t, _ in tree_words(g)]


def tree_count_formula(spec):
    total = 0
    for i in range(len(spec)):
        prod = 1
        for j, v in enumerate(spec):
            if j != i:
                prod *= abs(v)
        total += prod
    return total


@pytest.mark.parametrize("spec,count", [
    ((1, 1, 1), 3),
    ((2, 2), 4),
    ((-2, 3, 3), 21),
    ((-2, 3, 7), 41),
])
def test_tree_counts_frozen(spec, count):
    assert len(trees_of(build_tait(spec))) == count
    assert count == tree_count_formula(spec)


def test_tree_counts_match_formula_random():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randint(2, 4)
        spec = tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(k))
        assert len(trees_of(build_tait(spec))) == tree_count_formula(spec)


def test_trees_are_full_column_plus_omissions():
    spec = (-2, 3, 3)
    g = build_tait(spec)
    cols = [set(range(1, 3)), set(range(3, 6)), set(range(6, 9))]
    for t in trees_of(g):
        ts = set(t)
        full = [i for i, c in enumerate(cols) if c <= ts]
        assert len(full) == 1
        for i, c in enumerate(cols):
            if i != full[0]:
                assert len(c - ts) == 1


def test_trefoil_words_frozen():
    words = {w for _, w in tree_words(build_tait((1, 1, 1)))}
    assert words == {("L", "d", "d"), ("l", "D", "d"), ("l", "l", "D")}


def test_two_two_link_words_frozen():
    words = {w for _, w in tree_words(build_tait((2, 2)))}
    assert words == {
        ("L", "L", "d", "D"),
        ("L", "L", "L", "d"),
        ("l", "D", "D", "D"),
        ("L", "d", "D", "D"),
    }


def test_negative_column_letters_are_barred():
    for _, w in tree_words(build_tait((-2, 3, 3))):
        assert all(tok.endswith("~") for tok in w[:2])
        assert not any(tok.endswith("~") for tok in w[2:])


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (3, -4, 2)])
def test_words_are_duplicate_free(spec):
    words = [w for _, w in tree_words(build_tait(spec))]
    assert len(words) == len(set(words))


@pytest.mark.parametrize("spec", [(-2, 3, 3), (2, 2), (3, -4, 2), (-1, 2, -3, 4)])
def test_column_segments_classify_legally(spec):
    g = build_tait(spec)
    for _, w in tree_words(g):
        for seg in column_segments(w, spec):
            assert classify_series(seg) is not None


def test_series_patterns_exact():
    assert classify_series(("L", "L")) == "L+"
    assert classify_series(("D~", "D~", "D~")) == "D+"
    assert classify_series(("L", "d", "D")) == "L+dD*"
    assert classify_series(("L", "d")) == "L+dD*"
    assert classify_series(("l", "D", "D")) == "lD*"
    assert classify_series(("d", "D")) == "dD*"
    assert classify_series(("d",)) == "dD*"
    # illegal shapes
    assert classify_series(("d", "L")) is None
    assert classify_series(("D", "l")) is None
    assert classify_series(("L", "l")) is None


def test_trefoil_words_classify_as_parallel_class():
    words = {w for _, w in tree_words(build_tait((1, 1, 1)))}
    assert {classify_parallel(w) for w in words} == {"Ld*", "l+Dd*"}
    assert classify_parallel(("l", "l", "D")) == "l+Dd*"
    assert classify_parallel(("D", "L")) is None


def test_word_rendering():
    w = ("L~", "d", "l")
    assert word_str(w, ascii_bars=True) == "L~dl"
    assert word_str(w) == "L̄dℓ"
    assert token("L", True) == "L~"
    assert split_token("D~") == ("D", True)


def test_rank_permutation_mechanics():
    # swapping the order of edges 1 and 2 in the trefoil permutes the words
    g = build_tait((1, 1, 1))
    ranks = {1: 2, 2: 1, 3: 3}
    words = {w for _, w in tree_words(g, ranks)}
    assert words == {("L", "d", "d"), ("l", "D", "d"), ("l", "l", "D")}


def test_activity_word_refuses_a_non_spanning_edge_set():
    g = build_tait((-2, 3, 3))
    tree = spanning_trees(g)[0]
    with pytest.raises(ValueError, match="spanning tree"):
        activity_word(g, tree[:-1])           # too few edges
    # enough edges, but columns 1 and 2 close a cycle and miss a vertex
    with pytest.raises(ValueError, match="spanning tree"):
        activity_word(g, (1, 2, 3, 4, 5, 6))


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (3, -4, 2)])
def test_matchings_biject_with_trees(spec):
    g = build_tait(spec)
    ov = build_overlay(spec)
    trees = trees_of(g)
    matchings = perfect_matchings(ov)
    assert len(matchings) == len(trees)
    mapped = [matching_to_tree(g, ov, m) for m in matchings]
    assert sorted(set(mapped)) == sorted(tuple(t) for t in trees)


def test_first_trefoil_matching_deterministic():
    ov = build_overlay((1, 1, 1))
    ms = perfect_matchings(ov)
    assert ms[0] == (BOT, strip(1), strip(2))


# ---------------------------------------------------------------------------
# the definition-level reference: one tree search per edge

#: seconds the sweep below may take; the 4 112 specs have 181 760 trees
REFERENCE_BUDGET_S = 60


def _words_match_reference(spec, g, rankings):
    """Check every tree's word, alone and batched, under each ranking;
    returns the number of trees."""
    identity = {e: e for e in g.edges}
    trees = sets = None
    for ranks in rankings:
        batch = tree_words(g, ranks)
        if trees is None:
            trees = [t for t, _ in batch]
            sets = [fundamental_sets(g, t) for t in trees]
        assert [t for t, _ in batch] == trees
        for t, s, (_, word) in zip(trees, sets, batch):
            expected = reference_word(g, s, ranks or identity)
            assert word == expected, (spec, t, ranks)
            assert activity_word(g, t, ranks) == expected, (spec, t, ranks)
    return len(trees)


def _shuffled_ranks(g, rng):
    labels = sorted(g.edges)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return dict(zip(labels, shuffled))


def test_one_pass_words_match_reference_on_desk_sweep():
    # every tree of every desk spec, under the identity ranking and under
    # one seeded random ranking per spec, through activity_word and through
    # tree_words; the dual graph too, on a seeded twentieth of the specs
    t0 = time.perf_counter()
    rng = random.Random(404)
    pick = random.Random(405)
    trees = dual_trees = 0
    for spec in desk_sweep():
        g = build_tait(spec)
        trees += _words_match_reference(
            spec, g, [None, _shuffled_ranks(g, rng)])
        if pick.random() < 0.05:
            d = dual_graph(g)
            dual_trees += _words_match_reference(
                spec, d, [None, _shuffled_ranks(d, pick)])
    assert trees == 181760
    assert dual_trees > 0
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_rollback_trees_match_reference_on_desk_sweep():
    # same trees in the same order from both references and from
    # tree_words, for the Tait graph and its dual
    t0 = time.perf_counter()
    trees = 0
    for spec in desk_sweep():
        g = build_tait(spec)
        for graph in (g, dual_graph(g)):
            got = spanning_trees(graph)
            assert got == reference_spanning_trees(graph), spec
            assert trees_of(graph) == got, spec
            trees += len(got)
    assert trees == 2 * 181760
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_tree_words_list_the_trees_in_spanning_trees_order():
    rng = random.Random(406)
    for spec in rng.sample(desk_sweep(), 200) + [(-2, 3, 41)]:
        g = build_tait(spec)
        for graph in (g, dual_graph(g)):
            assert trees_of(graph) == spanning_trees(graph)


def test_trees_are_not_bounded_by_the_recursion_limit():
    # one search level per edge: a recursive search dies once the edges
    # outnumber the recursion limit, as P(-2,3,995) once did
    limit = sys.getrecursionlimit()
    spec = (-2, 3, 401)
    g = build_tait(spec)
    sys.setrecursionlimit(200)
    try:
        assert len(g.edges) > 2 * sys.getrecursionlimit()
        trees = trees_of(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(trees) == tree_count_formula(spec)
    assert all(len(t) == len(g.vertices) - 1 for t in trees)
    assert trees == sorted(set(trees))


# ---------------------------------------------------------------------------
# graphs no pretzel makes: loops, one vertex, bridges between cycles

def _graph(n, ends, signs=None):
    """Vertices 0..n-1 and edges labelled 1.. in the order given."""
    signs = signs or [1] * len(ends)
    return TaitGraph(vertices=list(range(n)), corners={},
                     edges={i: TaitEdge(i, u, v, s) for i, ((u, v), s)
                            in enumerate(zip(ends, signs), start=1)})


def _random_multigraph(rng):
    """A connected multigraph of 1-7 vertices and at most 10 edges,
    labelled in a random order, loops and parallel edges allowed."""
    n = rng.randint(1, 7)
    ends = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 10 - len(ends))):
        ends.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(ends)
    return _graph(n, ends, [rng.choice((1, -1)) for _ in ends])


def _inner_bridges(g):
    """Edges whose deletion splits g into two parts of two or more
    vertices each, so deleting one leaves no tree yet isolates no vertex."""
    out = []
    for drop in g.edges:
        u, v = g.endpoints(drop)
        side, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for e in g.edges:
                a, b = g.endpoints(e)
                y = b if a == x else a if b == x else None
                if e != drop and y is not None and y not in side:
                    side.add(y)
                    stack.append(y)
        if v not in side and 2 <= len(side) <= len(g.vertices) - 2:
            out.append(drop)
    return out


FIXED_GRAPHS = [
    _graph(1, []),                                    # one vertex
    _graph(1, [(0, 0), (0, 0)]),                      # one vertex, two loops
    _graph(2, [(0, 1), (0, 1), (1, 0)], [1, -1, 1]),  # three parallel edges
    # two triangles joined by a bridge that ranks highest, then lowest
    _graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]),
    _graph(6, [(2, 3), (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
]


def test_tree_words_match_the_definition_on_random_multigraphs():
    # every tree of every graph, under the identity ranking and two
    # shuffled ones, against the definition and against both references
    rng = random.Random(407)
    graphs = FIXED_GRAPHS + [_random_multigraph(rng) for _ in range(400)]
    trees = 0
    for g in graphs:
        assert trees_of(g) == reference_spanning_trees(g)
        trees += _words_match_reference(
            g, g, [None, _shuffled_ranks(g, rng), _shuffled_ranks(g, rng)])
    assert trees > 1000
    assert sum(1 for g in graphs if _inner_bridges(g)) >= 10
    assert trees_of(FIXED_GRAPHS[0]) == [()]
    assert [w for _, w in tree_words(FIXED_GRAPHS[1])] == [("l", "l")]


def test_tree_words_on_a_long_column_are_fast():
    # the series chain of 1601 edges costs O(1) per decision; listing the
    # trees and then rooting each to read its word took 11-15 s
    spec = (-2, 3, 1601)
    g = build_tait(spec)
    t0 = time.perf_counter()
    batch = tree_words(g)
    assert time.perf_counter() - t0 < 6
    assert len(batch) == tree_count_formula(spec) == 8011
    for t, w in random.Random(408).sample(batch, 3) + batch[:1] + batch[-1:]:
        assert w == activity_word(g, t)
