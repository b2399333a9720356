"""Exact Laurent polynomial arithmetic over the integers.

Everything downstream (Kauffman bracket, Jones polynomial, Poincare
polynomials) is a finite sum of monomials with possibly negative exponents,
so a dict {exponent: coefficient} with Python ints is all we need.  No
floating point anywhere.  ``Laurent`` (in A, int keys) and ``Laurent2`` (in
u and v, pair keys) share one body, ``_Ring``, and differ only in the key,
in how their own ``__mul__`` adds keys and in the names their ``format``
gives the variables.
"""


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


def _power(name, e):
    """name^e as a factor of a printed monomial: "" for e = 0, name for 1."""
    if e == 1:
        return name
    return "%s^%d" % (name, e) if e else ""


def _wrap(cls, coeffs):
    # arithmetic results are already normalised: int keys, no zero values
    out = object.__new__(cls)
    out.coeffs = coeffs
    return out


class _Ring:
    """A dict {exponent key: coefficient} with no zero coefficients; a
    subclass adds ``_key`` (normalises a key), ``term``, ``__mul__`` and a
    ``format`` that prints its monomials.  Instances are immutable in
    spirit (arithmetic returns new objects), and the two rings never
    compare equal."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cc = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    cc[self._key(k)] = int(c)
        self.coeffs = cc

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.term(1)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            c2 = out.get(k, 0) + c
            if c2:
                out[k] = c2
            else:
                out.pop(k, None)
        return _wrap(type(self), out)

    def __neg__(self):
        return _wrap(type(self), {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def _format(self, terms):
        """Canonical human form of (coefficient, monomial) terms given in
        ascending exponent order, the monomial without its coefficient."""
        if not terms:
            return "0"
        text = ""
        for c, body in terms:
            mag = abs(c)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = "%d%s" % (mag, body)
            text += (" - " if c < 0 else " + ") + body
        # the leading term keeps only a minus sign, with no space after it
        return ("-" if text[1] == "-" else "") + text[3:]

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.coeffs)


class Laurent(_Ring):
    """A Laurent polynomial in one variable with integer coefficients,
    keyed by int exponents."""

    __slots__ = ()
    _key = staticmethod(int)

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, coeff, exp=0):
        """Monomial coeff * X^exp."""
        return cls({exp: coeff})

    # -- ring operations ---------------------------------------------------

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

    # -- queries -----------------------------------------------------------

    def at_one(self):
        """Evaluate at X = 1 (just the coefficient sum)."""
        return sum(self.coeffs.values())

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
        return _wrap(Laurent, out)

    # -- presentation ------------------------------------------------------

    def format(self, var="A"):
        """Canonical human form in ascending exponent order, e.g.
        -A^-5 - A^3 + A^7."""
        return self._format([(c, _power(var, e))
                             for e, c in sorted(self.coeffs.items())])

    def to_pairs(self):
        """[[exponent, coefficient], ...] sorted by ascending exponent."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]


def writhe_factor(w):
    """(-A^-3)^w = (-1)^w A^(-3w), which turns a bracket of writhe w into
    the Jones polynomial; built as that one monomial, with no powering."""
    return _wrap(Laurent, {-3 * w: -1 if w & 1 else 1})


class Laurent2(_Ring):
    """A Laurent polynomial in (u, v) with integer coefficients, keyed by
    exponent pairs: the bigraded Poincare polynomial."""

    __slots__ = ()

    @staticmethod
    def _key(k):
        return int(k[0]), int(k[1])

    @classmethod
    def term(cls, coeff, eu=0, ev=0):
        return cls({(eu, ev): coeff})

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

    def format(self, vars=("u", "v")):
        """Canonical human form in ascending (u, v) order, e.g. u^-2v + uv."""
        return self._format([(c, "".join(map(_power, vars, k)))
                             for k, c in sorted(self.coeffs.items())])

    def to_pairs(self):
        """[[[u_exp, v_exp], coefficient], ...] in ascending (u, v) order."""
        return [[[a, b], self.coeffs[(a, b)]] for a, b in sorted(self.coeffs)]
