"""Exact Laurent polynomial arithmetic over the integers.

Everything downstream (Kauffman bracket, Jones polynomial, Poincare
polynomials) is a finite sum of monomials with possibly negative exponents,
so a dict {exponent: coefficient} with Python ints is all we need.  No
floating point anywhere.
"""


def _super(mapping, other):
    # merge-add two coefficient dicts, dropping zeros
    out = dict(mapping)
    for e, c in other.items():
        c2 = out.get(e, 0) + c
        if c2:
            out[e] = c2
        else:
            out.pop(e, None)
    return out


def _mul(a, b):
    """Product of two one-variable coefficient dicts, as a new dict.

    A monomial factor only shifts and scales the other's terms, so that
    case skips the double loop; over Z no product of nonzero terms is zero.
    """
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        (e0, c0), = b.items()
        return {e + e0: c * c0 for e, c in a.items()}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def _div(num, den):
    """The quotient num / den of two coefficient dicts, in Z[X^+-1].

    Long division from the top exponent down; a remainder, or a
    coefficient the divisor's leading coefficient does not divide, raises
    ValueError.  Fraction-free elimination relies on every one of its
    divisions being exact, so a remainder means a wrong pivot.  den must
    be nonzero.
    """
    if not num:
        return {}
    if len(den) == 1:
        (e0, c0), = den.items()
        out = {}
        for e, c in num.items():
            q, r = divmod(c, c0)
            if r:
                raise ValueError("inexact Laurent division")
            out[e - e0] = q
        return out
    top, low = max(den), min(den)
    lead = den[top]
    rem = dict(num)
    out = {}
    for e in range(max(rem) - top, min(rem) - low - 1, -1):
        c = rem.get(e + top)
        if not c:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ValueError("inexact Laurent division")
        out[e] = q
        for ed, cd in den.items():
            k = e + ed
            v = rem.get(k, 0) - q * cd
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    if rem:
        raise ValueError("inexact Laurent division")
    return out


def _wrap(cls, coeffs):
    # arithmetic results are already normalised: int keys, no zero values
    out = object.__new__(cls)
    out.coeffs = coeffs
    return out


class Laurent:
    """A Laurent polynomial in one variable with integer coefficients.

    Internally a dict {exponent: coefficient} with no zero coefficients.
    Instances are immutable in spirit; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    cc[int(e)] = int(c)
        self.coeffs = cc

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, coeff, exp=0):
        """Monomial coeff * X^exp."""
        return cls({exp: coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def from_pairs(cls, pairs):
        """Inverse of to_pairs(); accepts [[exp, coeff], ...]."""
        out = {}
        for e, c in pairs:
            out[int(e)] = out.get(int(e), 0) + int(c)
        return cls(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return _wrap(Laurent, _super(self.coeffs, other.coeffs))

    def __neg__(self):
        return _wrap(Laurent, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _wrap(Laurent, _mul(self.coeffs, other.coeffs))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            # only units (single terms with coefficient +-1) are invertible
            if len(self.coeffs) != 1:
                raise ValueError("negative power of a non-monomial")
            (e, c), = self.coeffs.items()
            if c not in (1, -1):
                raise ValueError("negative power of a non-unit monomial")
            return Laurent({-e: c}) ** (-n)
        result = Laurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other):
        """The quotient self / other, which must lie in Z[X^+-1].

        See ``_div``; a remainder raises ValueError.
        """
        if not other.coeffs:
            raise ZeroDivisionError("Laurent division by zero")
        return _wrap(Laurent, _div(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def at_one(self):
        """Evaluate at X = 1 (just the coefficient sum)."""
        return sum(self.coeffs.values())

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    # -- change of variable ------------------------------------------------

    def reexpress(self, ratio):
        """Substitute X = Y^(1/ratio), i.e. map each exponent e to e/ratio.

        Used for the Jones change of variable A = t^(-1/4): an A-exponent e
        becomes the t-exponent e/(-4).  Every exponent must be divisible by
        ratio, otherwise the result would leave the Laurent ring and we
        raise ValueError.
        """
        out = {}
        for e, c in self.coeffs.items():
            if e % ratio:
                raise ValueError(
                    "exponent %d not divisible by %d; substitution leaves "
                    "the Laurent ring" % (e, ratio))
            out[e // ratio] = c
        return Laurent(out)

    # -- presentation ------------------------------------------------------

    def to_pairs(self):
        """[[exponent, coefficient], ...] sorted by ascending exponent."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]

    def format(self, var="A"):
        """Canonical human form, terms in ascending exponent order.

        e.g.  -A^-5 - A^3 + A^7
        """
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                pw = var if e == 1 else "%s^%d" % (var, e)
                body = pw if mag == 1 else "%d%s" % (mag, pw)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Laurent(%r)" % (self.coeffs,)


def writhe_factor(w):
    """(-A^-3)^w, which turns a bracket of writhe w into the Jones polynomial."""
    return Laurent.term(-1, -3) ** w


class Laurent2:
    """A Laurent polynomial in two variables (u, v), integer coefficients.

    Same dict trick, keyed by exponent pairs.  Used for the bigraded
    Poincare polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    cc[(int(k[0]), int(k[1]))] = int(c)
        self.coeffs = cc

    @classmethod
    def term(cls, coeff, eu=0, ev=0):
        return cls({(eu, ev): coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def __add__(self, other):
        return _wrap(Laurent2, _super(self.coeffs, other.coeffs))

    def __neg__(self):
        return _wrap(Laurent2, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                c = out.get(k, 0) + c1 * c2
                if c:
                    out[k] = c
                else:
                    del out[k]
        return _wrap(Laurent2, out)

    def __eq__(self, other):
        return isinstance(other, Laurent2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def to_pairs(self):
        """[[[u_exp, v_exp], coefficient], ...] in ascending (u, v) order."""
        return [[[a, b], self.coeffs[(a, b)]] for a, b in sorted(self.coeffs)]

    def format(self, vars=("u", "v")):
        if not self.coeffs:
            return "0"
        parts = []
        for (a, b) in sorted(self.coeffs):
            c = self.coeffs[(a, b)]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = ""
            for var, e in zip(vars, (a, b)):
                if e == 1:
                    body += var
                elif e:
                    body += "%s^%d" % (var, e)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = "%d%s" % (mag, body)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Laurent2(%r)" % (self.coeffs,)
