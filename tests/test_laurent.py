import random

import pytest

from pretzeldimer.laurent import Laurent, Laurent2, writhe_factor


def L(pairs):
    return Laurent(dict(pairs))


def test_trefoil_bracket_times_writhe_factor():
    # (-A^-3)^-3 * (-A^-5 - A^3 + A^7) = A^4 + A^12 - A^16
    bracket = L([[-5, -1], [3, -1], [7, 1]])
    w_factor = Laurent.term(-1, -3) ** -3
    assert w_factor == Laurent.term(-1, 9)
    assert w_factor * bracket == L([[4, 1], [12, 1], [16, -1]])


def test_trefoil_jones_in_t():
    jones_A = L([[4, 1], [12, 1], [16, -1]])
    jones_t = jones_A.reexpress(-4)
    assert jones_t == L([[-1, 1], [-3, 1], [-4, -1]])
    assert jones_t.to_pairs() == [[-4, -1], [-3, 1], [-1, 1]]


def test_positive_writhe_factor_direction():
    # cubing instead of inverse-cubing lands at A^-14 + A^-6 - A^-2
    bracket = L([[-5, -1], [3, -1], [7, 1]])
    val = (Laurent.term(-1, -3) ** 3) * bracket
    assert val == L([[-14, 1], [-6, 1], [-2, -1]])


def test_writhe_factor_is_the_power_of_minus_a_cubed_inverse():
    # built as the one monomial (-1)^w A^(-3w), it must equal the power
    base = Laurent.term(-1, -3)
    for w in range(-60, 61):
        factor = writhe_factor(w)
        assert factor == base ** w, w
        assert type(factor) is Laurent
        (e, c), = factor.coeffs.items()
        assert (e, c) == (-3 * w, -1 if w % 2 else 1)
        assert type(e) is int and type(c) is int


def test_reexpress_keeps_a_normalised_polynomial():
    val = L([[-8, 3], [0, -1], [12, 2]]).reexpress(-4)
    assert val == L([[2, 3], [0, -1], [-3, 2]])
    assert type(val) is Laurent
    assert Laurent.zero().reexpress(4) == Laurent.zero()


def test_torus_knot_writhe_eight():
    # (-A^-3)^8 * (A^12 + A^4 - A^-8) = A^-12 + A^-20 - A^-32
    bracket = L([[12, 1], [4, 1], [-8, -1]])
    val = (Laurent.term(-1, -3) ** 8) * bracket
    assert val == L([[-12, 1], [-20, 1], [-32, -1]])
    assert val.reexpress(-4) == L([[3, 1], [5, 1], [8, -1]])


def test_loop_value_square():
    delta = L([[2, -1], [-2, -1]])
    assert delta * delta == L([[4, 1], [0, 2], [-4, 1]])


def test_reexpress_rejects_bad_exponent():
    with pytest.raises(ValueError):
        L([[3, 1]]).reexpress(-4)


def test_negative_power_needs_unit():
    with pytest.raises(ValueError):
        L([[0, 1], [1, 1]]) ** -1
    with pytest.raises(ValueError):
        Laurent.term(2, 5) ** -1


def test_format_ascending():
    assert str(L([[-5, -1], [3, -1], [7, 1]])) == "-A^-5 - A^3 + A^7"
    assert L([[-4, -1], [-3, 1], [-1, 1]]).format("t") == "-t^-4 + t^-3 + t^-1"
    assert str(Laurent.zero()) == "0"
    assert str(L([[0, -2], [1, 3]])) == "-2 + 3A"
    assert L([[0, -2], [1, 3]]).format(var="q") == "-2 + 3q"


def rand_laurent(rng):
    return Laurent({rng.randint(-6, 6): rng.randint(-5, 5)
                    for _ in range(rng.randint(0, 5))})


def rand_laurent2(rng):
    return Laurent2({(rng.randint(-3, 3), rng.randint(-3, 3)):
                     rng.randint(-4, 4) for _ in range(rng.randint(0, 4))})


def test_ring_axioms_random():
    rng = random.Random(20260815)
    zero = Laurent.zero()
    for _ in range(200):
        a, b, c = rand_laurent(rng), rand_laurent(rng), rand_laurent(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == zero
        assert a ** 3 == a * a * a
        assert a * Laurent.one() == a


def test_exact_div_inverts_multiplication():
    rng = random.Random(1968)

    def rand_poly():
        return Laurent({rng.randint(-6, 6): rng.randint(-5, 5)
                        for _ in range(rng.randint(1, 5))})

    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        if b:
            assert (a * b).exact_div(b) == a
    delta = L([[2, -1], [-2, -1]])
    assert (delta * delta).exact_div(delta) == delta
    assert Laurent.zero().exact_div(delta) == Laurent.zero()


def test_exact_div_refuses_a_remainder():
    with pytest.raises(ValueError, match="inexact"):
        L([[0, 1], [1, 1]]).exact_div(L([[0, 1], [1, -1]]))   # (1+A)/(1-A)
    with pytest.raises(ValueError, match="inexact"):
        L([[0, 3]]).exact_div(L([[2, 2]]))                     # 3 / 2A^2
    with pytest.raises(ValueError, match="inexact"):
        L([[0, 1], [2, 1]]).exact_div(L([[0, 1], [1, 1]]))     # (1+A^2)/(1+A)
    with pytest.raises(ZeroDivisionError):
        Laurent.one().exact_div(Laurent.zero())


def test_at_one_is_coefficient_sum():
    assert L([[-4, -1], [-3, 1], [-1, 1]]).at_one() == 1
    assert L([[2, -1], [-2, -1]]).at_one() == -2


def test_two_variable_basics():
    uv = Laurent2.term(1, 1, 1)
    poincare = uv + Laurent2.term(1, -1, 1) + Laurent2.term(1, -2, 1)
    assert str(poincare) == "u^-2v + u^-1v + uv"
    assert poincare.format(("x", "y")) == "x^-2y + x^-1y + xy"
    assert poincare.format(vars=("x", "y")) == "x^-2y + x^-1y + xy"
    assert poincare.to_pairs() == [[[-2, 1], 1], [[-1, 1], 1], [[1, 1], 1]]
    assert poincare * Laurent2.one() == poincare
    assert (uv * Laurent2.term(1, -1, -1)) == Laurent2.one()
    assert str(Laurent2.zero()) == "0"


def test_two_variable_ring_random():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = rand_laurent2(rng), rand_laurent2(rng), rand_laurent2(rng)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == Laurent2.zero()


@pytest.mark.parametrize("ring, rand_poly, other, lead, text", [
    (Laurent, rand_laurent, Laurent2, {-2: -1, 1: 3}, "-A^-2 + 3A"),
    (Laurent2, rand_laurent2, Laurent, {(-1, 2): -1, (0, 0): 3},
     "-u^-1v^2 + 3"),
])
def test_shared_ring_body(ring, rand_poly, other, lead, text):
    """Everything but the product is written once for both rings."""
    rng = random.Random(16)
    zero, one = ring.zero(), ring.one()
    assert zero.coeffs == {} and not zero and str(zero) == "0"
    assert one and one * one == one and one != zero
    assert str(ring(lead)) == text
    assert ring() != other() and ring.one() != other.one()
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        for value, sign in ((a + b, 1), (a - b, -1)):
            assert type(value) is ring and 0 not in value.coeffs.values()
            for k in set(a.coeffs) | set(b.coeffs):
                want = a.coeffs.get(k, 0) + sign * b.coeffs.get(k, 0)
                assert value.coeffs.get(k, 0) == want
        assert (-a).coeffs == {k: -c for k, c in a.coeffs.items()}
        assert type(-a) is ring and -(-a) == a
        assert (a == b) == (a.coeffs == b.coeffs)
        assert hash(a) == hash(ring(dict(a.coeffs)))
        assert bool(a) == bool(a.coeffs)
        assert repr(a) == "%s(%r)" % (ring.__name__, a.coeffs)
