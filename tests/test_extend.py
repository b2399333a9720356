import random

import pytest

from pretzeldimer.diagram import (MAX_CROSSINGS, Refusal, UsageError,
                                  build_diagram, parse_spec, trace)
from pretzeldimer.evaluate import bracket, jones_in_A, pipeline_matrix
from pretzeldimer.extend import (
    MOVES,
    _splice,
    apply_moves,
    initial_state,
    state_bracket,
    state_jones,
    state_jones_in_A,
    state_jones_raw,
    state_khovanov_poincare,
    state_matrix,
)
from pretzeldimer.matrix import expand, pretty, to_json, word_multiset
from pretzeldimer.oracle import state_sum_bracket

KNOTS = [(1, 1, 1), (1, 1, 3), (-2, 3, 3)]


def token_grid(m):
    """Column kinds in order plus (row label, column position) -> token."""
    return ([c.kind for c in m.columns],
            {(m.rows[r], c): e.tok for (r, c), e in m.entries.items()})


def assert_fresh_diagram(grown, target):
    """The grown diagram is build_diagram(target): wiring, outer top arc
    and crossings."""
    fresh = build_diagram(target)
    assert grown.diagram.arcs == fresh.arcs
    assert grown.diagram.outer_top_arc == fresh.outer_top_arc
    assert grown.diagram.crossings == fresh.crossings


def row_tokens(m, ri):
    """Tokens of row ri, in column order."""
    return [e.tok for (r, _), e in sorted(m.entries.items()) if r == ri]


def sign_split_is_constant(m):
    return len({t.parity * t.ksign for t in expand(m)}) == 1


def grown(spec, *names):
    """A fresh state of P(spec) grown by the named moves."""
    return apply_moves(initial_state(spec), names)


def kink(kind, sign):
    """The MOVES name of a kink of the given kind and sign."""
    return "r1:%s%s" % (kind, "" if sign > 0 else "-")


# ---------------------------------------------------------------------------
# the starting bundle

def test_initial_state_matches_pipeline():
    st = initial_state((-2, 3, 3))
    ref = pipeline_matrix((-2, 3, 3), signed=True, enhanced=False)
    assert token_grid(st.matrix) == token_grid(ref)
    assert st.matrix.signed and not st.matrix.enhanced
    assert st.diagram.outer_top_arc == ((1, "NW"), (8, "NE"))


# ---------------------------------------------------------------------------
# series growth: subdividing the last edge

@pytest.mark.parametrize("spec", [(1, 1, 1), (1, 1, 2), (-2, 3, 3),
                                  (2, 2), (-3, 2)])
def test_subdivide_matches_fresh_build(spec):
    st = grown(spec, "subdivide")
    target = spec[:-1] + (spec[-1] + (1 if spec[-1] > 0 else -1),)
    fresh = pipeline_matrix(target, signed=False, enhanced=False)
    assert word_multiset(st.matrix) == word_multiset(fresh)
    assert state_bracket(st) == bracket(target)


def test_subdivide_diagram_is_the_fresh_diagram():
    assert_fresh_diagram(grown((1, 1, 2), "subdivide"), (1, 1, 3))


def test_subdivide_jones_matches_grown_spec():
    # the base is a link, the grown spec a knot; only the result must trace
    st = grown((-2, 3, 2), "subdivide")
    assert state_jones_in_A(st) == jones_in_A((-2, 3, 3))


def test_subdivide_opposite_sign_still_brackets():
    # a mixed column is not a standard pretzel; the state sum referees
    st = initial_state((1, 1, 3))
    _splice(st, "series", -1)
    assert state_bracket(st) == state_sum_bracket(st.diagram)
    assert sign_split_is_constant(st.matrix)


# ---------------------------------------------------------------------------
# parallel growth: doubling the last edge

@pytest.mark.parametrize("spec,target", [((1, 1, 1), (1, 1, 1, 1)),
                                         ((-1, -1), (-1, -1, -1)),
                                         ((2, -3, 1), (2, -3, 1, 1))])
def test_double_single_column_is_fresh_append(spec, target):
    st = grown(spec, "double")
    fresh = pipeline_matrix(target, signed=False, enhanced=False)
    # letter-for-letter, in the same column order
    assert token_grid(st.matrix) == token_grid(fresh)
    assert_fresh_diagram(st, target)
    assert state_bracket(st) == bracket(target)


def test_double_longer_column():
    st = grown((1, 1, 3), "double")
    assert state_bracket(st) == state_sum_bracket(st.diagram)
    assert sign_split_is_constant(st.matrix)


def test_double_explicit_sign():
    st = initial_state((1, 1, 1))
    _splice(st, "parallel", -1)
    assert token_grid(st.matrix) == token_grid(
        pipeline_matrix((1, 1, 1, -1), signed=False, enhanced=False))
    assert state_bracket(st) == bracket((1, 1, 1, -1))


# ---------------------------------------------------------------------------
# Reidemeister 1: kinks cancel against the writhe correction

@pytest.mark.parametrize("spec", KNOTS)
@pytest.mark.parametrize("kind", ["bridge", "loop"])
@pytest.mark.parametrize("sign", [1, -1])
def test_r1_jones_invariant(spec, kind, sign):
    st = grown(spec, kink(kind, sign))
    assert state_jones_in_A(st) == jones_in_A(spec)
    assert state_bracket(st) == state_sum_bracket(st.diagram)


@pytest.mark.parametrize("kind,sign,delta", [("bridge", 1, -1),
                                             ("bridge", -1, 1),
                                             ("loop", 1, 1),
                                             ("loop", -1, -1)])
def test_r1_writhe_delta(kind, sign, delta):
    base = initial_state((1, 1, 3))
    w0 = trace(base.diagram).writhe
    st = apply_moves(base, [kink(kind, sign)])
    assert trace(st.diagram).writhe == w0 + delta


def test_r1_adds_single_letter_row():
    st = grown((1, 1, 1), "r1:bridge-")
    assert row_tokens(st.matrix, st.n - 1) == ["L~"]
    st = grown((1, 1, 1), "r1:loop")
    assert row_tokens(st.matrix, st.n - 1) == ["l"]
    assert st.matrix.columns[-1].kind == "external"


def test_r1_works_on_one_column_pretzels():
    # P(3) is the trefoil drawn as a single twist column
    st = apply_moves(initial_state((3,)), ["r1:loop", "r1:bridge-"])
    assert state_jones_in_A(st) == jones_in_A((3,))


def test_r1_keeps_outer_arc_usable():
    st = initial_state((1, 1, 3))
    for name in ("r1:bridge", "r1:loop-", "r1:bridge-", "r1:loop"):
        st = apply_moves(st, [name])
        a1, a2 = st.diagram.outer_top_arc
        assert st.diagram.arcs[a1] == a2
    assert state_jones_in_A(st) == jones_in_A((1, 1, 3))


def test_r1_bracket_on_links():
    # no Jones for a two-component link, but the bracket must still agree
    st = grown((2, 2), "r1:bridge")
    assert state_bracket(st) == state_sum_bracket(st.diagram)
    with pytest.raises(ValueError):
        state_jones(st)


# ---------------------------------------------------------------------------
# Reidemeister 2: cancelling pairs, series and parallel

@pytest.mark.parametrize("spec", KNOTS + [(3, -2)])
@pytest.mark.parametrize("placement", ["series", "parallel"])
def test_r2_jones_invariant(spec, placement):
    st = grown(spec, "r2:" + placement)
    assert st.n == len(build_diagram(spec).crossings) + 2
    assert state_jones_in_A(st) == jones_in_A(spec)
    assert state_bracket(st) == state_sum_bracket(st.diagram)
    assert sign_split_is_constant(st.matrix)


def test_r2_pair_signs_cancel():
    st = grown((1, 1, 3), "r2:series")
    signs = [st.diagram.crossings[l].sign for l in st.matrix.rows[-2:]]
    assert sorted(signs) == [-1, 1]
    assert trace(st.diagram).writhe == trace(build_diagram((1, 1, 3))).writhe


def test_r2_on_link_bracket_level():
    st = grown((2, 2), "r2:parallel")
    assert state_bracket(st) == state_sum_bracket(st.diagram)
    assert state_bracket(st) == bracket((2, 2))


# ---------------------------------------------------------------------------
# move chaining and preconditions

def test_apply_moves_chain():
    for spec in KNOTS:
        st = apply_moves(initial_state(spec),
                         ["r2:series", "r2:parallel", "r1:bridge", "r1:loop-"])
        assert state_jones_in_A(st) == jones_in_A(spec)
        assert state_bracket(st) == state_sum_bracket(st.diagram)


def test_move_chains_keep_labels_contiguous():
    # a move labels its crossing n + 1, so rows and crossings stay 1..n
    rng = random.Random(5)
    names = sorted(MOVES)
    for _ in range(200):
        st = initial_state(tuple(rng.choice((-1, 1)) * rng.randint(1, 5)
                                 for _ in range(rng.randint(1, 4))))
        for _ in range(rng.randint(1, 8)):
            try:
                st = apply_moves(st, [rng.choice(names)])
            except ValueError:        # an edge extension off a non-twist top
                continue
            labels = list(range(1, st.n + 1))
            assert st.matrix.rows == labels
            assert sorted(st.diagram.crossings) == labels


def test_apply_moves_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown extension"):
        apply_moves(initial_state((1, 1, 1)), ["r3"])
    assert set(MOVES) == {"subdivide", "double", "r1:bridge", "r1:bridge-",
                          "r1:loop", "r1:loop-", "r2:series", "r2:parallel"}


def test_usage_errors_and_refusals_are_their_own_value_errors():
    # the CLI exits 2 on a UsageError and 3 on a Refusal; both stay
    # ValueErrors for callers of the API
    assert issubclass(UsageError, ValueError)
    assert issubclass(Refusal, ValueError)
    for bad in ("P(0)", "P()", "nope", "P(%d)" % (MAX_CROSSINGS + 1)):
        with pytest.raises(UsageError):
            parse_spec(bad)
    for spec, chain in (((1, 1, 1), ["r3"]), ((3,), ["subdivide"]),
                        ((1, 1, 3), ["r1:loop", "double"])):
        with pytest.raises(UsageError):
            apply_moves(initial_state(spec), chain)
    link = initial_state((2, 2))
    for route in (state_jones_raw, state_khovanov_poincare,
                  lambda st: state_matrix(st, True, True)):
        with pytest.raises(Refusal):
            route(link)


def test_edge_extensions_need_a_twist_top():
    # one-column pretzels end in a (D, L) row, kinks in a lone letter
    for name in ("subdivide", "double", "r2:series", "r2:parallel"):
        with pytest.raises(ValueError, match="twist top"):
            grown((3,), name)
        with pytest.raises(ValueError, match="twist top"):
            grown((1, 1, 3), "r1:loop", name)


class ProbeCounter(dict):
    """An entries dict that counts its key lookups."""
    probes = 0

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_a_long_subdivide_chain_probes_each_row_a_few_times():
    # the moves find the twist top without a lookup per column, so a chain
    # costs a few lookups a move, not one per column of the grown matrix
    st = initial_state((-2, 3, 11))
    st.matrix.entries = counted = ProbeCounter(st.matrix.entries)
    for _ in range(4000):
        MOVES["subdivide"](st)
    assert st.n == 4016
    assert counted.probes <= 16 + 4 * 4000


def test_edge_extension_refusal_names_the_row():
    with pytest.raises(ValueError, match=r"row 6 has \['l'\]$"):
        grown((1, 1, 3), "r1:loop", "subdivide")
    with pytest.raises(ValueError, match=r"row 3 has \['D', 'L'\]$"):
        grown((3,), "subdivide")


def snapshot(st):
    """Everything a move may change, entry order and arc order included."""
    m, d = st.matrix, st.diagram
    return (list(m.rows), list(m.columns), list(m.entries.items()),
            list(d.arcs.items()), list(d.crossings.items()), d.outer_top_arc)


def test_apply_moves_grows_the_state_it_is_given():
    st = initial_state((1, 1, 3))
    assert apply_moves(st, []) is st
    assert apply_moves(st, ["subdivide", "r2:parallel", "r1:loop"]) is st
    assert st.n == 9
    assert state_jones_in_A(st) == jones_in_A((1, 1, 4))


@pytest.mark.parametrize("spec,before,name", [
    ((3,), [], "subdivide"), ((3,), [], "double"),
    ((3,), [], "r2:series"), ((1, 1, 3), ["r1:bridge"], "r2:parallel"),
    ((1, 1, 3), ["double", "r1:loop-"], "subdivide"),
    ((1, 1, 3), ["subdivide"], "r3"),
], ids=["P(3) subdivide", "P(3) double", "P(3) r2", "after a bridge",
        "after a loop", "unknown name"])
def test_a_refused_move_changes_nothing(spec, before, name):
    st = grown(spec, *before)
    was = snapshot(st)
    with pytest.raises(UsageError):
        apply_moves(st, [name])
    assert snapshot(st) == was


# ---------------------------------------------------------------------------
# grown states keep working with the rest of the toolkit

def test_grown_matrix_renders():
    st = apply_moves(initial_state((1, 1, 3)), ["subdivide", "r1:bridge"])
    text = pretty(st.matrix, ascii_bars=True)
    assert text.count("\n") == st.n - 1
    blob = to_json(st.matrix)
    regions = [c["region"] for c in blob["columns"]]
    assert "g6" in regions and "g7" in regions


def test_grown_state_jones_in_t():
    st = apply_moves(initial_state((-2, 3, 3)), ["r2:parallel"])
    assert state_jones(st).to_pairs() == [[3, 1], [5, 1], [8, -1]]
