import random

import pytest
from paper_tables import desk_sweep
from tree_reference import reference_trace

from pretzeldimer.diagram import (
    CORNERS,
    build_diagram,
    column_labels,
    parse_spec,
    trace,
)
from pretzeldimer.extend import MOVES, apply_moves, initial_state


def test_parse_spec_forms():
    assert parse_spec("P(-2,3,7)") == (-2, 3, 7)
    assert parse_spec("p( 1 , 1 , 1 )") == (1, 1, 1)
    assert parse_spec("(3,-5)") == (3, -5)
    assert parse_spec("-2,3,3") == (-2, 3, 3)
    assert parse_spec("4") == (4,)


@pytest.mark.parametrize("bad", ["", "P()", "0,1", "a,b", "1,,2", "P(1,0)"])
def test_parse_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_build_rejects_zero():
    with pytest.raises(ValueError):
        build_diagram((1, 0, 2))
    with pytest.raises(ValueError):
        build_diagram(())


def test_trefoil_structure():
    d = build_diagram((1, 1, 1))
    assert d.n == 3
    assert len(d.arc_list()) == 6
    assert len(d.ports()) == 12
    # the arc map is a fixed-point-free involution covering every port
    for p in d.ports():
        q = d.arcs[p]
        assert q != p
        assert d.arcs[q] == p


def test_column_labelling():
    # column 1 top-down, later columns bottom-up
    assert column_labels((2, 3, 3)) == [[1, 2], [5, 4, 3], [8, 7, 6]]
    d = build_diagram((-2, 3, 3))
    assert d.crossings[1].over == "\\"
    assert d.crossings[2].sign == -1
    for label in range(3, 9):
        assert d.crossings[label].over == "/"
        assert d.crossings[label].sign == 1


def test_writhe_frozen_values():
    assert trace(build_diagram((1, 1, 1))).writhe == -3
    assert trace(build_diagram((-2, 3, 3))).writhe == 8
    assert trace(build_diagram((-2, 3, 7))).writhe == 12
    assert trace(build_diagram((1,))).writhe == -1
    assert trace(build_diagram((-1,))).writhe == 1
    assert trace(build_diagram((2,))).writhe == -2


def test_trefoil_all_crossings_negative():
    t = trace(build_diagram((1, 1, 1)))
    assert t.components == 1
    assert t.signs == {1: -1, 2: -1, 3: -1}


def test_torus_knot_all_crossings_positive():
    t = trace(build_diagram((-2, 3, 3)))
    assert all(s == 1 for s in t.signs.values())


def test_component_counts():
    assert trace(build_diagram((1, 1, 1))).components == 1
    assert trace(build_diagram((2, 2))).components == 2
    assert trace(build_diagram((2,))).components == 1
    assert trace(build_diagram((2, 2, 2))).components == 3
    assert trace(build_diagram((-2, 3, 7))).components == 1


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (3, -2)])
def test_crossing_signs_seed_invariant(spec):
    d = build_diagram(spec)
    baseline = trace(d).signs
    for port in d.ports():
        assert trace(d, seed=port).signs == baseline


def test_crossings_are_immutable():
    # no state is ever copied, so a crossing must not change under a holder
    c = build_diagram((1, 1, -1)).crossings[3]
    assert c == (3, "\\", -1) and (c.label, c.over, c.sign) == c
    with pytest.raises(AttributeError):
        c.sign = 1


def test_outer_top_arc_flanks_the_deck():
    d = build_diagram((-2, 3, 3))
    p, q = d.outer_top_arc
    assert d.arcs[p] == q
    assert {p, q} == {(1, "NW"), (8, "NE")}


def reference_arc_list(d):
    """Each arc once as a sorted pair, told apart through frozensets."""
    seen = set()
    out = []
    for p, q in d.arcs.items():
        key = frozenset((p, q))
        if key not in seen:
            seen.add(key)
            out.append(tuple(sorted((p, q))))
    return out


def seeded_grown_diagrams(seed, count):
    """count diagrams grown from desk specs by seeded move chains that use
    every name in extend.MOVES."""
    rng = random.Random(seed)
    specs = desk_sweep(8)
    names = sorted(MOVES)
    used = set()
    grown = []
    while len(grown) < count:
        chain = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        try:
            grown.append(apply_moves(initial_state(rng.choice(specs)),
                                     chain).diagram)
        except ValueError:            # edge extension after a kink
            continue
        used.update(chain)
    assert used == set(MOVES)
    return grown


def test_arc_list_matches_the_frozenset_construction():
    diagrams = [build_diagram(spec) for spec in desk_sweep()]
    for d in diagrams + seeded_grown_diagrams(1729, 300):
        got = d.arc_list()
        assert len(set(got)) == len(got) == len(d.arcs) // 2
        assert set(got) == set(reference_arc_list(d))


def test_trace_matches_reference():
    diagrams = [build_diagram(spec) for spec in desk_sweep()]
    for d in diagrams + seeded_grown_diagrams(1618, 300):
        assert trace(d) == reference_trace(d)


@pytest.mark.parametrize("spec", [(-2, 3, 7), (2, 2), (1, 1, 1)])
def test_trace_matches_reference_from_every_seed(spec):
    d = build_diagram(spec)
    for port in d.ports():
        assert trace(d, seed=port) == reference_trace(d, seed=port)


@pytest.mark.parametrize("seed", [(0, "NW"), (1, "N"), (1, "NW", 0), 1])
def test_trace_refuses_a_seed_off_the_diagram(seed):
    d = build_diagram((1, 1, 1))
    for route in (trace, reference_trace):
        with pytest.raises(ValueError, match="not a port"):
            route(d, seed=seed)
