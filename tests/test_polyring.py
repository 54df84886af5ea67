"""Polynomial layer: the integer-first arithmetic against the
Fraction-everywhere arithmetic it replaced, units of the base rings, and the
polynomial parser."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from c2algebra.polyring import (
    BaseRing, PolyRing, RingError, RingInvolution, integer_lift, parse_poly)


# -- the plain arithmetic -----------------------------------------------------
# PlainBaseRing and PlainPolyRing are BaseRing and PolyRing before the
# integer-first rewrite: every coefficient a Fraction in characteristic 0,
# coerce in every add and mul, normal_form after every product.  The rewrite
# changes the type of a coefficient, never its value.

class PlainBaseRing:
    def __init__(self, kind, modulus=None):
        self.kind = kind
        self.modulus = modulus

    def coerce(self, x):
        if self.kind == "Z/m":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise RingError("fraction in Z/m")
                x = x.numerator
            return x % self.modulus
        x = Fraction(x)
        if self.kind == "Z" and x.denominator != 1:
            raise RingError("%s is not an integer" % x)
        if self.kind == "Z[1/2]":
            d = x.denominator
            while d % 2 == 0:
                d //= 2
            if d != 1:
                raise RingError("%s is not in Z[1/2]" % x)
        return x

    def zero(self):
        return 0 if self.kind == "Z/m" else Fraction(0)

    def one(self):
        return 1 if self.kind == "Z/m" else Fraction(1)

    def is_zero(self, x):
        return self.coerce(x) == self.zero()

    def add(self, a, b):
        return self.coerce(a + b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return self.coerce(-a)


class PlainPolyRing:
    def __init__(self, base, names, rules=None):
        self.base = base
        self.names = list(names)
        self.n = len(self.names)
        self.rules = dict(rules or {})

    def const(self, c):
        c = self.base.coerce(c)
        return {} if self.base.is_zero(c) else {(0,) * self.n: c}

    def normal_form(self, poly):
        out = {}
        work = list(poly.items())
        while work:
            mono, coeff = work.pop()
            coeff = self.base.coerce(coeff)
            if self.base.is_zero(coeff):
                continue
            hit = None
            for i, (p, repl) in self.rules.items():
                if mono[i] >= p:
                    hit = (i, p, repl)
                    break
            if hit is None:
                c = self.base.add(out.get(mono, self.base.zero()), coeff)
                if self.base.is_zero(c):
                    out.pop(mono, None)
                else:
                    out[mono] = c
                continue
            i, p, repl = hit
            rest = list(mono)
            rest[i] -= p
            for rm, rc in repl.items():
                newmono = tuple(a + b for a, b in zip(rest, rm))
                work.append((newmono, self.base.mul(coeff, rc)))
        return out

    def add(self, a, b):
        out = dict(a)
        for m, c in b.items():
            s = self.base.add(out.get(m, self.base.zero()), c)
            if self.base.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def scale(self, c, a):
        c = self.base.coerce(c)
        if self.base.is_zero(c):
            return {}
        return self.normal_form({m: self.base.mul(c, x) for m, x in a.items()})

    def neg(self, a):
        return {m: self.base.neg(c) for m, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                c = self.base.mul(c1, c2)
                out[m] = self.base.add(out.get(m, self.base.zero()), c)
        return self.normal_form(out)

    def apply_map(self, poly, images):
        out = {}
        for mono, coeff in poly.items():
            term = self.const(coeff)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = self.mul(term, images[i])
            out = self.add(out, term)
        return self.normal_form(out)


# -- the two arithmetics agree -------------------------------------------------

BASES = [("Z", None), ("Q", None), ("Z[1/2]", None), ("Z/m", 4), ("Z/m", 6), ("Z/m", 7)]


def coefficients(kind):
    ints = st.integers(-12, 12)
    if kind == "Q":
        return st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 6)))
    if kind == "Z[1/2]":
        return st.one_of(ints, st.builds(Fraction, ints, st.sampled_from([1, 2, 4, 8])))
    return ints


def polys(kind, max_exp=3, max_terms=4):
    monos = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(monos, coefficients(kind), max_size=max_terms)


def rule(kind):
    # x^3 -> a polynomial of x-degree < 3, not necessarily homogeneous
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(monos, coefficients(kind), max_size=3)


def assert_elements(base, poly):
    """Every coefficient is an element in its integer-first form."""
    for c in poly.values():
        assert c != 0
        if base.kind == "Z/m":
            assert type(c) is int and 0 <= c < base.modulus
        elif base.kind == "Z":
            assert type(c) is int
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("kind,modulus", BASES)
@pytest.mark.parametrize("ruled", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_the_plain_arithmetic(kind, modulus, ruled, data):
    rules = {0: (3, data.draw(rule(kind)))} if ruled else None
    new = PolyRing(BaseRing(kind, modulus), ["x", "y"], rules=rules)
    plain = PlainPolyRing(PlainBaseRing(kind, modulus), ["x", "y"], rules=rules)
    base = new.base

    def both(raw):
        a, b = new.normal_form(raw), plain.normal_form(raw)
        assert a == b
        assert_elements(base, a)
        return a, b

    a, pa = both(data.draw(polys(kind)))
    b, pb = both(data.draw(polys(kind)))
    images = [both(data.draw(polys(kind, max_exp=2, max_terms=3))) for _ in range(2)]
    c = data.draw(coefficients(kind))
    e = data.draw(st.integers(0, 5))
    power = plain.const(1)
    for _ in range(e):
        power = plain.mul(power, pa)
    # apply_map takes the power tables [1, image] of the map and extends them;
    # a second call on the extended tables reads the powers already there
    tables = [[new.one_poly(), i] for i, _ in images]
    mapped = plain.apply_map(pa, [p for _, p in images])
    for got, want in ((new.add(a, b), plain.add(pa, pb)),
                      (new.sub(a, b), plain.sub(pa, pb)),
                      (new.mul(a, b), plain.mul(pa, pb)),
                      (new.scale(c, a), plain.scale(c, pa)),
                      (new.apply_map(a, tables), mapped),
                      (new.apply_map(a, tables), mapped),
                      (new.pow(a, e), power)):
        assert got == want
        assert_elements(base, got)


# -- units of the base rings ----------------------------------------------------

def test_units_and_inverses():
    cases = [
        (BaseRing("Z"), [1, -1], [0, 2, -3]),
        (BaseRing("Q"), [2, -3, Fraction(1, 6)], [0]),
        (BaseRing("Z[1/2]"), [2, -4, Fraction(1, 8), 1], [0, 3, Fraction(3, 2)]),
        (BaseRing("Z/m", 8), [1, 3, 5, 7], [0, 2, 4, 6]),
        (BaseRing("Z/m", 7), [1, 2, 3, 4, 5, 6], [0]),
    ]
    for base, units, others in cases:
        for u in units:
            assert base.is_unit(u)
            assert base.mul(u, base.inverse(u)) == 1
        for c in others:
            assert not base.is_unit(c)
            with pytest.raises(RingError):
                base.inverse(c)
    # mod m an inverse is not the element itself in general
    assert BaseRing("Z/m", 7).inverse(3) == 5



# -- sigma read as a signed permutation -------------------------------------------

# (base, integral units, a nonzero non-unit or None)
SIGNED = [(("Z", None), [1, -1], 2), (("Q", None), [1, -1, 2, -3], None),
          (("Z[1/2]", None), [1, -1, 2, -8], 3), (("Z/m", 6), [1, 5], 3),
          (("Z/m", 9), [1, 2, 4, 8], 6), (("Z/m", 15), [1, 2, 4, 14], 5)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_signed_permutation_reads_each_unit_times_one_variable(data):
    (kind, modulus), units, non_unit = data.draw(st.sampled_from(SIGNED))
    base = BaseRing(kind, modulus)
    n = data.draw(st.integers(2, 3))
    ring = PolyRing(base, ["v%d" % j for j in range(n)])
    pi = data.draw(st.permutations(range(n)))
    us = data.draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    images = [ring.scale(u, ring.var(k)) for k, u in zip(pi, us)]
    want = [(k, integer_lift(base.coerce(u))) for k, u in zip(pi, us)]
    assert RingInvolution(ring, images).signed_permutation() == want
    # an image that is not a unit times one variable reads None there alone
    bad = ["v0 + v1", "v1^2", "1 - v0", "3", "0"] + \
        (["%d*v1" % non_unit] if non_unit is not None else [])
    j = data.draw(st.integers(0, n - 1))
    images[j] = parse_poly(ring, data.draw(st.sampled_from(bad)))
    want[j] = None
    assert RingInvolution(ring, images).signed_permutation() == want


# -- the parser -----------------------------------------------------------------

def test_a_sign_applies_to_the_whole_power():
    R = PolyRing(BaseRing("Z"), ["x", "y"])
    assert parse_poly(R, "-x^2") == {(2, 0): -1}
    assert parse_poly(R, "-2^2") == {(0, 0): -4}
    assert parse_poly(R, "(-x)^2") == {(2, 0): 1}
    assert parse_poly(R, "x*-y") == {(1, 1): -1}
    assert parse_poly(R, "-x^2 + 2x - 1") == {(2, 0): -1, (1, 0): 2, (0, 0): -1}
    assert R.poly_string({(2, 0): -1, (3, 0): 1}) == "-x^2 + x^3"
    assert parse_poly(R, "-x^2 + x^3") == {(2, 0): -1, (3, 0): 1}


def test_a_power_is_raised_by_squaring():
    # 10^8 multiplications of 1 by -1 would not return
    R = PolyRing(BaseRing("Q"), ["x"], rules={0: (2, {(0,): 1})})  # x^2 = 1
    assert parse_poly(R, "(-1)^100000001 * x") == {(1,): -1}
    assert parse_poly(R, "x^100000001") == {(1,): 1}
    assert R.pow(parse_poly(R, "x + 1"), 0) == {(0,): 1}


@settings(max_examples=200, deadline=None)
@given(p=st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                         st.sampled_from([1, -1]) | st.integers(-20, 20).filter(bool),
                         max_size=5))
def test_poly_string_parses_back(p):
    # a coefficient of +-1 is printed as a bare sign: "-x^2"
    R = PolyRing(BaseRing("Z"), ["x", "y", "x_s"])
    assert parse_poly(R, R.poly_string(p)) == p
