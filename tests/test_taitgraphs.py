import random

import pytest
from paper_tables import desk_sweep

from pretzeldimer import matrix
from pretzeldimer.taitgraphs import (
    BOT,
    OUT,
    TOP,
    bigon,
    build_overlay,
    build_tait,
    dual_graph,
    kasteleyn_negatives,
    overlay_to_dot,
    solve_kasteleyn,
    strip,
    tait_to_dot,
    verify_kasteleyn,
)


def test_trefoil_tait_is_theta_graph():
    g = build_tait((1, 1, 1))
    assert set(g.vertices) == {TOP, BOT}
    assert g.n == 3
    for label in (1, 2, 3):
        assert {g.edges[label].u, g.edges[label].v} == {TOP, BOT}
        assert g.edges[label].sign == 1


def test_tait_is_parallel_deck_paths():
    g = build_tait((-2, 3, 3))
    assert len(g.vertices) == 7  # two decks + 5 bigons
    # column 1 (labels top-down 1,2) is a 2-edge path through bigon(1,1)
    assert (g.edges[1].u, g.edges[1].v) == (TOP, bigon(1, 1))
    assert (g.edges[2].u, g.edges[2].v) == (bigon(1, 1), BOT)
    assert g.edges[1].sign == g.edges[2].sign == -1
    # column 2 (labels bottom-up 3,4,5) read top-down is 5,4,3
    assert (g.edges[5].u, g.edges[5].v) == (TOP, bigon(2, 1))
    assert (g.edges[4].u, g.edges[4].v) == (bigon(2, 1), bigon(2, 2))
    assert (g.edges[3].u, g.edges[3].v) == (bigon(2, 2), BOT)
    # every column is a top-to-bottom path: degree check
    deg = {}
    for e in g.edges.values():
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    assert deg[TOP] == deg[BOT] == 3
    assert all(deg[v] == 2 for v in g.vertices if v not in (TOP, BOT))


def test_dual_is_necklace():
    g = build_tait((-2, 3, 3))
    d = dual_graph(g)
    assert set(d.vertices) == {OUT, strip(1), strip(2)}
    gaps = {}
    for e in d.edges.values():
        key = frozenset((e.u, e.v))
        gaps[key] = gaps.get(key, 0) + 1
        assert e.sign == -g.edges[e.label].sign
    assert gaps == {
        frozenset((OUT, strip(1))): 2,
        frozenset((strip(1), strip(2))): 3,
        frozenset((strip(2), OUT)): 3,
    }


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (3, -2), (2,), (4, -3, 2, 1)])
def test_dual_of_dual_round_trip(spec):
    g = build_tait(spec)
    gg = dual_graph(dual_graph(g))
    assert set(gg.vertices) == set(g.vertices)
    assert gg.corners == g.corners
    assert gg.edges == g.edges


def overlay_euler_data(ov):
    v = len(ov.crossings) + len(ov.set2) + len(ov.set3)
    e = len(ov.edges)
    return v, e


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (2, 2), (3, -4, 2)])
def test_overlay_balance_and_faces(spec):
    ov = build_overlay(spec)
    n = sum(abs(x) for x in spec)
    k = len(spec)
    assert len(ov.crossings) == n
    assert len(ov.set2) == n - k + 1
    assert len(ov.set3) == k - 1
    assert len(ov.edges) == 4 * n - k - abs(spec[0]) - abs(spec[-1])
    # one bounded quad per arc not flanked by a deleted region
    assert len(ov.faces) == 2 * n - (k + abs(spec[0]) + abs(spec[-1]) - 1)
    # Euler: bounded faces + the unbounded one
    v, e = overlay_euler_data(ov)
    assert len(ov.faces) + 1 == e - v + 2
    for f in ov.faces:
        assert len(f) == 4
        assert all(edge in set(ov.edges) for edge in f)


def test_single_column_overlay_has_no_bounded_faces():
    ov = build_overlay((3,))
    assert ov.faces == []
    assert solve_kasteleyn(ov) == {e: 1 for e in ov.edges}


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (-2, 3, 7), (2, 2),
                                  (3, -4, 2), (-1, 2, -3, 4)])
def test_solve_kasteleyn_satisfies_parity(spec):
    ov = build_overlay(spec)
    signs = solve_kasteleyn(ov)
    assert set(signs) == set(ov.edges)
    assert verify_kasteleyn(ov.faces, signs)


def test_verify_rejects_corrupted_signing():
    ov = build_overlay((-2, 3, 3))
    signs = solve_kasteleyn(ov)
    victim = ov.faces[0][0]
    bad = dict(signs)
    bad[victim] = -bad[victim]
    assert not verify_kasteleyn(ov.faces, bad)


def test_reference_signing_trefoil():
    # thickened-edge choice: negate the two lower strip entries
    ov = build_overlay((1, 1, 1))
    signs = {e: 1 for e in ov.edges}
    signs[(2, strip(1))] = -1
    signs[(3, strip(2))] = -1
    assert verify_kasteleyn(ov.faces, signs)


def test_reference_signing_torus_819():
    ov = build_overlay((-2, 3, 3))
    signs = {e: 1 for e in ov.edges}
    for e in [(2, strip(1)), (3, bigon(2, 2)), (4, bigon(2, 1)),
              (6, BOT), (7, bigon(3, 2)), (8, bigon(3, 1))]:
        signs[e] = -1
    assert verify_kasteleyn(ov.faces, signs)


def delete_edge_from_faces(faces, e):
    """Face list after deleting edge e (merges the two faces along e).

    If e lies on only one bounded face, that face merges with the unbounded
    one and simply drops out.  Used to check that valid signings stay valid
    under edge deletion.
    """
    containing = [i for i, f in enumerate(faces) if e in f]
    if len(containing) == 0:
        return [list(f) for f in faces]
    if len(containing) == 1:
        return [list(f) for i, f in enumerate(faces) if i != containing[0]]
    i1, i2 = containing
    merged = [x for x in faces[i1] if x != e] + [x for x in faces[i2] if x != e]
    out = [list(f) for i, f in enumerate(faces) if i not in (i1, i2)]
    out.append(merged)
    return out


def test_parity_survives_edge_deletion():
    rng = random.Random(4242)
    for spec in [(-2, 3, 3), (3, -4, 2), (-1, 2, -3, 4)]:
        ov = build_overlay(spec)
        signs = solve_kasteleyn(ov)
        faces = ov.faces
        edges = list(ov.edges)
        rng.shuffle(edges)
        for e in edges[:10]:
            faces = delete_edge_from_faces(faces, e)
            assert verify_kasteleyn(faces, signs)


def test_solver_commutes_with_order_preserving_keys(monkeypatch):
    # the walk's integer keys row * n + column, re-keyed three ways that
    # keep their order: the (row, column) pairs, shifted integers and
    # zero-padded strings; the walk hands over every quad in ascending
    # order, as the solver requires
    calls = []

    def recorded(faces):
        for f in faces:
            assert list(f) == sorted(f), f
        negative = kasteleyn_negatives(faces)
        calls.append((faces, negative))
        return negative

    monkeypatch.setattr(matrix, "kasteleyn_negatives", recorded)
    for spec in desk_sweep():
        n = sum(map(abs, spec))
        matrix.signed_block_matrix(spec)
        faces, negative = calls.pop()
        for key in (lambda e: divmod(e, n), lambda e: 3 * e - 7,
                    lambda e: "%09d" % e):
            mapped = [[key(e) for e in f] for f in faces]
            assert kasteleyn_negatives(mapped) == set(map(key, negative))


def test_solve_kasteleyn_ignores_the_order_of_each_faces_edges():
    # solve_kasteleyn sorts each overlay face itself, so shuffling the
    # edges inside every face changes no sign
    rng = random.Random(2828)
    for spec in rng.sample(desk_sweep(), 300):
        ov = build_overlay(spec)
        want = solve_kasteleyn(ov)
        faces = [rng.sample(f, len(f)) for f in ov.faces]
        assert solve_kasteleyn(ov._replace(faces=faces)) == want, spec


def test_dot_exports():
    g = build_tait((-2, 3, 3))
    dot = tait_to_dot(g)
    assert "style=bold" in dot          # the negative column
    assert dot.count("--") == 8
    d = dual_graph(g)
    ddot = tait_to_dot(d, "dual")
    assert "graph dual" in ddot
    ov = build_overlay((-2, 3, 3))
    odot = overlay_to_dot(ov, solve_kasteleyn(ov))
    assert "x1 --" in odot
    assert "shape=diamond" in odot
