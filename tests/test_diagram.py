import pytest

from pretzeldimer.diagram import (
    CORNERS,
    Crossing,
    build_diagram,
    build_from_sign_columns,
    components,
    dump_json,
    is_knot,
    parse_spec,
    trace,
    writhe,
)


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
        build_from_sign_columns([])


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
    d = build_diagram((-2, 3, 3))
    # column 1 top-down, later columns bottom-up
    assert d.columns == [[1, 2], [5, 4, 3], [8, 7, 6]]
    assert d.crossings[1].over == "\\"
    assert d.crossings[2].sign == -1
    for label in range(3, 9):
        assert d.crossings[label].over == "/"
        assert d.crossings[label].sign == 1


def test_writhe_frozen_values():
    assert writhe(build_diagram((1, 1, 1))) == -3
    assert writhe(build_diagram((-2, 3, 3))) == 8
    assert writhe(build_diagram((-2, 3, 7))) == 12
    assert writhe(build_diagram((1,))) == -1
    assert writhe(build_diagram((-1,))) == 1
    assert writhe(build_diagram((2,))) == -2


def test_trefoil_all_crossings_negative():
    t = trace(build_diagram((1, 1, 1)))
    assert t.components == 1
    assert t.signs == {1: -1, 2: -1, 3: -1}


def test_torus_knot_all_crossings_positive():
    t = trace(build_diagram((-2, 3, 3)))
    assert all(s == 1 for s in t.signs.values())


def test_component_counts():
    assert components(build_diagram((1, 1, 1))) == 1
    assert components(build_diagram((2, 2))) == 2
    assert components(build_diagram((2,))) == 1
    assert components(build_diagram((2, 2, 2))) == 3
    assert is_knot(build_diagram((-2, 3, 7)))
    assert not is_knot(build_diagram((2, 2)))


def test_writhe_refuses_links():
    with pytest.raises(ValueError):
        writhe(build_diagram((2, 2)))


@pytest.mark.parametrize("spec", [(1, 1, 1), (-2, 3, 3), (3, -2)])
def test_crossing_signs_seed_invariant(spec):
    d = build_diagram(spec)
    baseline = trace(d).signs
    for port in d.ports():
        assert trace(d, seed=port).signs == baseline


def test_copy_is_independent():
    d = build_diagram((1, 1, 1))
    c = d.copy()
    c.crossings[1].sign = -1
    c.arcs[(1, "NW")] = (2, "NW")
    assert d.crossings[1].sign == 1
    assert d.arcs[(1, "NW")] != (2, "NW")


@pytest.mark.parametrize("over, sign", [("x", 1), ("/", 0)])
def test_crossing_refuses_bad_over_or_sign(over, sign):
    with pytest.raises(ValueError):
        Crossing(1, over, sign)


def test_json_and_dot():
    d = build_diagram((1, 1))
    blob = d.to_json()
    assert len(blob["crossings"]) == 2
    assert len(blob["arcs"]) == 4
    assert "c1 -- c2" in d.to_dot()
    assert dump_json(d).startswith("{")


def test_outer_top_arc_flanks_the_deck():
    d = build_diagram((-2, 3, 3))
    p, q = d.outer_top_arc
    assert d.arcs[p] == q
    assert {p, q} == {(1, "NW"), (8, "NE")}
