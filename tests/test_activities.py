import itertools
import random
import sys
import time

import pytest
from paper_tables import (classify_parallel, classify_series, column_segments,
                          perfect_matchings, word_str)

from pretzeldimer.activities import (
    activity_word,
    matching_to_tree,
    spanning_trees,
    split_token,
    token,
    tree_words,
)
from pretzeldimer.taitgraphs import (BOT, build_overlay, build_tait,
                                     dual_graph, strip)


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
    assert len(spanning_trees(build_tait(spec))) == count
    assert count == tree_count_formula(spec)


def test_tree_counts_match_formula_random():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randint(2, 4)
        spec = tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(k))
        assert len(spanning_trees(build_tait(spec))) == tree_count_formula(spec)


def test_trees_are_full_column_plus_omissions():
    spec = (-2, 3, 3)
    g = build_tait(spec)
    cols = [set(range(1, 3)), set(range(3, 6)), set(range(6, 9))]
    for t in spanning_trees(g):
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
    words = {activity_word(g, t, ranks) for t in spanning_trees(g)}
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
    trees = spanning_trees(g)
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


def _tree_adjacency(g, tree):
    adj = {}
    for e in tree:
        u, v = g.endpoints(e)
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    return adj


def _component_after_removal(ends, adj, drop):
    """Vertex set of the component of tree - drop containing one endpoint."""
    u0, _ = ends[drop]
    seen = {u0}
    stack = [u0]
    while stack:
        x = stack.pop()
        for y, e in adj.get(x, ()):
            if e != drop and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _tree_path_edges(adj, a, b):
    prev = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y, e in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, e)
                stack.append(y)
    path = []
    x = b
    while prev[x] is not None:
        x, e = prev[x]
        path.append(e)
    return path


def fundamental_sets(g, tree):
    """edge -> (in tree, its fundamental cut or cycle as a list of edges).

    The cut of a tree edge is every edge with one end on each side of the
    tree with that edge removed; the cycle of a non-tree edge is its tree
    path plus itself.
    """
    ends = {e: g.endpoints(e) for e in g.edges}
    adj = _tree_adjacency(g, tree)
    tree_set = set(tree)
    out = {}
    for e, (u, v) in ends.items():
        if e in tree_set:
            side = _component_after_removal(ends, adj, e)
            out[e] = (True, [x for x, (a, b) in ends.items()
                             if (a in side) != (b in side)])
        else:
            out[e] = (False, _tree_path_edges(adj, u, v) + [e])
    return out


def reference_word(g, sets, ranks):
    """Activity word from fundamental_sets: lowest in cut / lowest in cycle."""
    letters = {}
    for e, (in_tree, edges) in sets.items():
        live = ranks[e] == min(map(ranks.__getitem__, edges))
        letter = ("L" if live else "D") if in_tree else ("l" if live else "d")
        letters[e] = token(letter, g.edges[e].sign < 0)
    return tuple(letters[e] for e in sorted(g.edges, key=ranks.__getitem__))


def desk_sweep():
    """k in {2,3,4}, entries +-1..4, at most 12 crossings (4 112 specs)."""
    entries = [v for v in range(-4, 5) if v]
    return [combo for k in (2, 3, 4)
            for combo in itertools.product(entries, repeat=k)
            if sum(abs(v) for v in combo) <= 12]


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


def reference_spanning_trees(g):
    """Contraction/deletion that copies the component map per included edge."""
    labels = sorted(g.edges)
    results = []

    def rec(i, comp, count, chosen):
        if count == 1:
            results.append(tuple(chosen))
            return
        if i == len(labels) or count - 1 > len(labels) - i:
            return
        e = g.edges[labels[i]]
        cu, cv = comp[e.u], comp[e.v]
        if cu == cv:
            rec(i + 1, comp, count, chosen)
            return
        merged = {v: (cu if c == cv else c) for v, c in comp.items()}
        chosen.append(labels[i])
        rec(i + 1, merged, count - 1, chosen)
        chosen.pop()
        rec(i + 1, comp, count, chosen)

    rec(0, {v: v for v in g.vertices}, len(g.vertices), [])
    return results


def test_rollback_trees_match_reference_on_desk_sweep():
    # same trees in the same order, for the Tait graph and its dual
    t0 = time.perf_counter()
    trees = 0
    for spec in desk_sweep():
        g = build_tait(spec)
        for graph in (g, dual_graph(g)):
            got = spanning_trees(graph)
            assert got == reference_spanning_trees(graph), spec
            trees += len(got)
    assert trees == 2 * 181760
    assert time.perf_counter() - t0 < REFERENCE_BUDGET_S


def test_tree_words_list_the_trees_in_spanning_trees_order():
    rng = random.Random(406)
    for spec in rng.sample(desk_sweep(), 200) + [(-2, 3, 41)]:
        g = build_tait(spec)
        for graph in (g, dual_graph(g)):
            assert [t for t, _ in tree_words(graph)] == spanning_trees(graph)


def test_trees_are_not_bounded_by_the_recursion_limit():
    # one search level per edge: a recursive search dies once the edges
    # outnumber the recursion limit, as P(-2,3,995) once did
    limit = sys.getrecursionlimit()
    spec = (-2, 3, 401)
    g = build_tait(spec)
    sys.setrecursionlimit(200)
    try:
        assert len(g.edges) > 2 * sys.getrecursionlimit()
        trees = spanning_trees(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(trees) == tree_count_formula(spec)
    assert all(len(t) == len(g.vertices) - 1 for t in trees)
    # include-first in ascending edge order lists the trees in sorted order
    assert trees == sorted(set(trees))
