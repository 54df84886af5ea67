"""The small Hochschild complex of a ring that splits by variable, against
its oracle, the bar complex of trace."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from c2algebra import koszul, trace
from c2algebra.algebra_json import parse_algebra
from c2algebra.polyring import BaseRing, PolyRing, RingInvolution, UnsupportedPresentation
from oracles import hh_groups

BASES = ["Z", "Q", "Z[1/2]", "Z/2", "Z/3", "Z/4", "Z/6", "Z/9"]


def small_hh(sigma, n_max, weight=None):
    C = koszul.hochschild_complex(sigma, n_max + 1, weight)
    return [C.invariants(n) for n in range(n_max + 1)]


def bar_hh(sigma, n_max, weight=None):
    blocks = trace.hochschild_blocks(trace.InvolutiveAlgebra(sigma), n_max + 1, weight)
    return [G.invariant_factors() for G in hh_groups(blocks, range(n_max + 1))]


def _mono(k, i, e):
    return tuple(e if j == i else 0 for j in range(k))


@st.composite
def finite_algebras(draw):
    """(sigma, n_max): one or two variables, each with a random monic rule
    x_i^p = c_0 + ... + c_{p-1} x_i^{p-1}, p <= 4, |c| <= 3, sigma the
    identity; n_max <= 5, lowered until the bar complex stays small."""
    base = BaseRing.parse(draw(st.sampled_from(BASES)))
    k = draw(st.integers(1, 2))
    rules = {}
    for i in range(k):
        p = draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
        rules[i] = (p, {_mono(k, i, e): c for e, c in enumerate(coeffs)
                        if base.coerce(c)})
    ring = PolyRing(base, ["x", "y"][:k], rules=rules)
    dim = len(ring.monomial_basis_all())
    n_max = draw(st.integers(0, 5))
    while n_max and dim * (dim - 1) ** (n_max + 1) > 2000:
        n_max -= 1
    return RingInvolution.identity(ring), n_max


@st.composite
def graded_algebras(draw):
    """(sigma, n_max, weight): up to two variables with x_i^p = 0 and an
    optional free variable, weights 1-3, sigma(x_i) = +-x_i."""
    base = BaseRing.parse(draw(st.sampled_from(BASES)))
    ps = draw(st.lists(st.integers(2, 4), max_size=2))
    free = draw(st.booleans())
    k = len(ps) + free
    ring = PolyRing(base, ["x", "y", "t"][:k], rules={i: (p, {}) for i, p in enumerate(ps)},
                    weights=draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    sigma = RingInvolution(ring, [{_mono(k, i, 1): u} for i, u in enumerate(signs)])
    return sigma, draw(st.integers(0, 5)), draw(st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(finite_algebras())
def test_the_small_complex_of_a_finite_algebra_is_the_bar_complex(case):
    sigma, n_max = case
    assert small_hh(sigma, n_max) == bar_hh(sigma, n_max)


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
def test_the_small_complex_of_a_weight_block_is_the_bar_complex(case):
    sigma, n_max, weight = case
    assert small_hh(sigma, n_max, weight) == bar_hh(sigma, n_max, weight)


FIXED = [([("x", "1 - x")], ["x^2 - x"]),       # an idempotent, swapped with 1 - x
         ([("g", "g^2")], ["g^3 - 1"]),          # Z[C3], sigma the inverse
         ([("x", "-x")], ["x^2 + 1"]),           # the Gaussian integers
         ([("x", "x")], ["x^3 - x^2"])]          # a rule that is not homogeneous


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("gens, rels", FIXED)
def test_the_small_complex_of_fixed_algebras_is_the_bar_complex(base, gens, rels):
    sigma = parse_algebra({"base": base, "gens": [{"name": n, "sigma": s} for n, s in gens],
                           "rels": rels})
    assert small_hh(sigma, 5) == bar_hh(sigma, 5)


def test_the_small_complex_refuses_as_the_bar_complex_does():
    cusp = parse_algebra(json.loads(
        '{"base": "Q", "gens": [{"name": "x"}, {"name": "y", "sigma": "-y"}], '
        '"rels": ["y^2 - x^3"], "weights": {"x": 2, "y": 3}}'))
    with pytest.raises(UnsupportedPresentation, match="more than one variable"):
        koszul.hochschild_complex(cusp, 3, 6)
    free = parse_algebra({"base": "Q", "gens": [{"name": "x"}]})
    idempotent = parse_algebra({"base": "Z", "gens": [{"name": "x"}], "rels": ["x^2 - x"]})
    # each route checks the request where hh enters it, before any block
    for route in (koszul.hochschild_complex, trace.hochschild_complex):
        with pytest.raises(UnsupportedPresentation, match="graded algebra: pass --weight"):
            route(free, 3)
        with pytest.raises(UnsupportedPresentation, match="x\\^2 = x is not homogeneous"):
            route(idempotent, 3, 2)
