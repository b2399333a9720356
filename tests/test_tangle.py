"""The matrix bracket held to a spec-only oracle far past expansion.

``tangle_bracket`` reads nothing but the spec.  The standard pretzel
diagram is the numerator closure of the tangle sum of its twist columns
(Conway 1970, "An enumeration of knots and links"), and the Kauffman
bracket of a tangle is f<0> + g<oo> in Conway's basis (Kauffman 1987,
"State models and the Jones polynomial"; Landvoy 1998, "The Jones
polynomial of pretzel knots and links"):

* a column of |n| crossings, each A^s <oo> + A^-s <0> with s the sign of
  n, has g = A^(s|n|) and f the geometric sum of the monomials
  (-1)^j A^(s(|n| - 2 - 4j)), j < |n|, since stacking one crossing maps
  (f, g) to (f (A^s + A^-s delta) + g A^-s, g A^s) and
  A^s + A^-s delta = -A^(-3s);
* columns add by <0> + T = T and <oo> + <oo> = delta <oo>, with
  delta = -A^2 - A^-2;
* the closure sends <0> to delta and <oo> to 1.

A column costs O(|n|) and the sum O(k) polynomial products, so the oracle
reaches sizes where the term expansion, with its sum over i of the product
over j != i of |n_j| terms, cannot.

``chain_bracket`` extends it to a pretzel grown by ``--extend`` moves, again
from the spec and the move names alone: every move acts on the last Tait
edge, so two slots, the bracket with that edge contracted and deleted,
carry the whole chain.  The grown matrix's bracket and the state sum over
the grown wiring are both held to it, far past the sizes the state sum's
own tests reach.
"""
import random
import time

import pytest

from pretzeldimer.diagram import UsageError, build_diagram, trace
from pretzeldimer.extend import (MOVES, apply_moves, initial_state,
                                 state_bracket)
from pretzeldimer.laurent import Laurent
from pretzeldimer.oracle import state_sum_bracket

#: seconds each sweep below may take
TANGLE_BUDGET_S = 60

DELTA = Laurent({2: -1, -2: -1})


def twist_column(n):
    """(f, g): the bracket f<0> + g<oo> of a column of n crossings."""
    s, m = (1, n) if n > 0 else (-1, -n)
    f = Laurent({s * (m - 2 - 4 * j): (-1) ** j for j in range(m)})
    return f, Laurent.term(1, s * m)


def tangle_bracket(spec):
    """Kauffman bracket of P(spec) from the spec alone."""
    f, g = Laurent.one(), Laurent()           # <0>, the sum's identity
    for n in spec:
        cf, cg = twist_column(n)
        f, g = f * cf, f * cg + g * cf + DELTA * g * cg
    return DELTA * f + g


#: edge move -> its steps on the last Tait edge, each a placement and the
#: new edge's sign relative to the edge it extends
EDGE_STEPS = {
    "subdivide": [("series", 1)],
    "double": [("parallel", 1)],
    "r2:series": [("series", 1), ("series", -1)],
    "r2:parallel": [("parallel", 1), ("parallel", -1)],
}

#: kink -> its sign and whether it is a loop (else a bridge)
KINKS = {"r1:bridge": (1, False), "r1:bridge-": (-1, False),
         "r1:loop": (1, True), "r1:loop-": (-1, True)}


def weights(s):
    """(p, q) = (A^s, A^-s), the smoothing weights of an edge of sign s."""
    return Laurent.term(1, s), Laurent.term(1, -s)


def chain_bracket(spec, names):
    """Kauffman bracket of P(spec) grown by the named moves, from the spec
    and the names alone (ROADMAP item 13).

    Every edge move acts on the last Tait edge e, of sign s, so the
    bracket is p alpha + q beta with alpha = Q(G/e), beta = Q(G - e) and
    (p, q) = weights(s) (Kauffman 1989, "A Tutte polynomial for signed
    graphs").  e is the top crossing of the last twist column: alpha is
    P(n1, ..., nk - s), whose 0-crossing column tangle_bracket reads as
    Conway's <oo>, and beta the other |nk| - 1 crossings of the column,
    left as a path hanging off P(n1, ..., nk-1).  A series step maps
    (alpha, beta) to (p alpha + q beta, (p + delta q) beta), a parallel
    one to ((delta p + q) alpha, p alpha + q beta), both at the extended
    edge's weights, and the new edge becomes the last one.  A kink
    multiplies by p + delta q (bridge) or delta p + q (loop) at its own
    sign.  An edge move after a kink, or on a one-column pretzel, finds
    no twist top: UsageError, as apply_moves raises.
    """
    *rest, last = spec
    s = 1 if last > 0 else -1
    p, q = weights(s)
    alpha = tangle_bracket(rest + [last - s])
    beta = (p + DELTA * q) ** (abs(last) - 1) * tangle_bracket(rest)
    kinks, kinked = Laurent.one(), False
    for name in names:
        if name in KINKS:
            ks, loop = KINKS[name]
            kp, kq = weights(ks)
            kinks = kinks * (DELTA * kp + kq if loop else kp + DELTA * kq)
            kinked = True
            continue
        if not rest or kinked:
            raise UsageError("%s needs a twist top" % name)
        for placement, turn in EDGE_STEPS[name]:
            p, q = weights(s)
            if placement == "series":
                alpha, beta = p * alpha + q * beta, (p + DELTA * q) * beta
            else:
                alpha, beta = (DELTA * p + q) * alpha, p * alpha + q * beta
            s *= turn
    p, q = weights(s)
    return (p * alpha + q * beta) * kinks


def test_tangle_bracket_small_cases():
    # a positive kink, the trefoil and the (2,2) torus link, as the state
    # sum's tests pin them
    assert tangle_bracket((1,)) == Laurent({-3: -1})
    assert tangle_bracket((1, 1, 1)) == Laurent({-5: -1, 3: -1, 7: 1})
    assert tangle_bracket((2, 2)) == \
        Laurent({6: -1, -2: -1, -6: 1, -10: -1})


def random_spec(rng, k, largest):
    """k columns of 1 to largest crossings, each of either sign."""
    return tuple(rng.choice((-1, 1)) * rng.randint(1, largest)
                 for _ in range(k))


def random_specs(seed, count, largest):
    """count seeded specs of 1 to 25 columns."""
    rng = random.Random(seed)
    return [random_spec(rng, rng.randint(1, 25), largest)
            for _ in range(count)]


#: mixed signs, 25 columns and 663 crossings: the sparsest-first column
#: order scattered its strips and took 7 s and 123 polynomial divisions
MIXED_SPEC = (28, -11, 23, -26, 25, -30, 48, 40, -50, -50, -21, 17, -18, 25,
              -49, -18, -6, 5, 15, -3, -20, -35, -38, -40, -22)


@pytest.mark.parametrize("specs", [
    [(3,) * k for k in range(1, 102)],
    [(-2, 3, 1601), (-2, 3, 1600), (2, -3, -801)],
    [MIXED_SPEC, random_spec(random.Random(5), 100, 50)],
], ids=["P(3^k), k <= 101", "long columns", "mixed signs"])
def test_matrix_bracket_matches_tangles_at_scale(specs):
    t0 = time.perf_counter()
    for spec in specs:
        assert state_bracket(initial_state(spec)) == tangle_bracket(spec), \
            spec
    assert time.perf_counter() - t0 < TANGLE_BUDGET_S


def check_knots_and_links(specs):
    t0 = time.perf_counter()
    components = set()
    for spec in specs:
        assert state_bracket(initial_state(spec)) == tangle_bracket(spec), \
            spec
        components.add(trace(build_diagram(spec)).components == 1)
    assert components == {True, False}
    assert time.perf_counter() - t0 < TANGLE_BUDGET_S


def test_matrix_bracket_matches_tangles_on_random_specs():
    # knots and links alike, up to 25 columns of up to 50 crossings
    check_knots_and_links(random_specs(2027, 12, 50))


def test_matrix_bracket_matches_tangles_on_columns_of_up_to_500():
    # up to 25 columns of up to 500 crossings, 350 to 2 900 in all
    check_knots_and_links(random_specs(2028, 4, 500))


#: seconds state_bracket may take on P(-2,3,40001), 40 006 columns: about
#: 0.7 s when each step finds its column in a heap of live counts, and
#: 183 s when it scans the remaining columns for the fewest
LONG_COLUMN_BUDGET_S = 15


def test_column_choice_stays_cheap_on_a_long_column():
    spec = (-2, 3, 40001)
    st = initial_state(spec)
    t0 = time.perf_counter()
    bracket = state_bracket(st)
    assert time.perf_counter() - t0 < LONG_COLUMN_BUDGET_S
    assert bracket == tangle_bracket(spec)


def grown_brackets(spec, names):
    """The grown state's bracket from its matrix and from its wiring (the
    state sum), or None when a move refuses."""
    try:
        st = apply_moves(initial_state(spec), names)
    except UsageError:
        return None
    return state_bracket(st), state_sum_bracket(st.diagram)


def oracle_bracket(spec, names):
    """chain_bracket, or None when it finds no twist top."""
    try:
        return chain_bracket(spec, names)
    except UsageError:
        return None


def test_chain_bracket_is_the_bracket_with_no_moves():
    for spec in random_specs(12, 40, 6):
        assert chain_bracket(spec, []) == tangle_bracket(spec), spec


def test_grown_chains_match_the_two_slot_recursion():
    # all eight moves on k = 1..5 columns: the same bracket, or the same
    # refusal, from the grown matrix, the grown wiring and the names alone
    rng = random.Random(13)
    names = sorted(MOVES)
    accepted = refused = 0
    t0 = time.perf_counter()
    for _ in range(1500):
        spec = random_spec(rng, rng.randint(1, 5), 5)
        chain = [rng.choice(names) for _ in range(rng.randint(0, 8))]
        got = grown_brackets(spec, chain)
        want = oracle_bracket(spec, chain)
        assert got == (None if want is None else (want, want)), (spec, chain)
        accepted += got is not None
        refused += got is None
    assert time.perf_counter() - t0 < TANGLE_BUDGET_S
    assert accepted > 500 and refused > 500


def test_a_long_chain_matches_the_two_slot_recursion():
    # a thousand random edge moves off P(-2,3,7), then a kink of each kind
    rng = random.Random(14)
    chain = [rng.choice(sorted(EDGE_STEPS)) for _ in range(1000)]
    chain += ["r1:bridge-", "r1:loop"]
    t0 = time.perf_counter()
    st = apply_moves(initial_state((-2, 3, 7)), chain)
    want = chain_bracket((-2, 3, 7), chain)
    assert state_bracket(st) == want
    assert state_sum_bracket(st.diagram) == want
    assert time.perf_counter() - t0 < TANGLE_BUDGET_S
    assert st.n > 12 + 1000
