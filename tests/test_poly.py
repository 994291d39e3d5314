import random
from fractions import Fraction

import pytest

from qalt.poly import (
    GaussianInt,
    HalfLaurent,
    IntLaurent,
    breadth_t,
    chebyshev_S,
    eval_at_s_equals_i,
    sigma,
)

P = IntLaurent.parse


def rand_poly(rng, max_terms=6, max_exp=8, max_coeff=9):
    return IntLaurent(
        {
            rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def test_mul_examples():
    x = IntLaurent.x()
    assert P("x+2x^-1") * x == P("x^2+2")
    assert P("2x^-1-1") * P("2x^-1-1") == P("4x^-2-4x^-1+1")
    assert P("x^3-2") * IntLaurent.zero() == IntLaurent.zero()


def test_degree_conventions():
    assert IntLaurent.zero().degree() == -1
    assert IntLaurent.const(1).degree() == 0
    q88 = P("1+4x+6x^2-10x^3-14x^4+4x^5+8x^6+2x^7")
    assert q88.degree() == 7


def test_low_degree():
    assert P("2x^-1-1").low_degree() == -1
    assert P("x^2+2").low_degree() == 0
    assert P("4x^-2-4x^-1+1").low_degree() == -2
    with pytest.raises(ValueError):
        IntLaurent.zero().low_degree()


def test_chebyshev():
    assert chebyshev_S(-1) == IntLaurent.zero()
    assert chebyshev_S(0) == IntLaurent.const(1)
    assert chebyshev_S(2) == P("x^2-1")
    assert chebyshev_S(3) == P("x^3-2x")
    with pytest.raises(ValueError):
        chebyshev_S(-2)


def test_sigma():
    assert sigma(0) == IntLaurent.zero()
    assert sigma(1) == IntLaurent.const(1)
    assert sigma(-2) == P("-x")


def test_sigma_three_term_identity():
    # x*sigma_n = sigma_{n+1} + sigma_{n-1}
    x = IntLaurent.x()
    for n in range(-20, 21):
        assert x * sigma(n) == sigma(n + 1) + sigma(n - 1)
        assert sigma(-n) == -sigma(n)


def test_ring_axioms_random():
    rng = random.Random(20140602)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degree_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()
        assert (a * b).low_degree() == a.low_degree() + b.low_degree()


def test_render_parse_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        p = rand_poly(rng)
        assert IntLaurent.parse(p.render()) == p
    assert P("2x^2+2x-3").render() == "2x^2+2x-3"
    assert IntLaurent.zero().render() == "0"


def test_parse_rejects_garbage():
    for bad in ["", "x^", "2y", "x^2^3", "++"]:
        with pytest.raises(ValueError):
            IntLaurent.parse(bad)


def test_unit_monomial_negative_powers():
    assert P("x") ** -3 == P("x^-3")
    assert P("-x^2") ** -1 == P("-x^-2")
    with pytest.raises(ValueError):
        P("x+1") ** -1


def test_half_laurent_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        # t = s^2 doubles every exponent and is a ring map
        assert dict(HalfLaurent.from_t(p).items()) == {2 * e: v for e, v in p.items()}
        assert HalfLaurent.from_t(p) * HalfLaurent.from_t(q) == HalfLaurent.from_t(p * q)
        assert HalfLaurent.from_t(p) + HalfLaurent.from_t(q) == HalfLaurent.from_t(p + q)


def test_eval_at_s_equals_i():
    assert eval_at_s_equals_i(HalfLaurent.const(1)) == GaussianInt(1, 0)
    assert eval_at_s_equals_i(HalfLaurent({2: 1, -2: 1})) == GaussianInt(-2, 0)
    # s + 2 + s^-1  =  t^(1/2) + 2 + t^(-1/2)
    assert eval_at_s_equals_i(HalfLaurent({1: 1, 0: 2, -1: 1})) == GaussianInt(2, 0)


def test_gaussian_abs():
    assert GaussianInt(-5, 0).abs_pure() == 5
    assert GaussianInt(0, 7).abs_pure() == 7
    assert GaussianInt(0, 0).abs_pure() == 0
    with pytest.raises(ValueError):
        GaussianInt(1, 1).abs_pure()


def test_breadth():
    assert breadth_t(HalfLaurent.const(1)) == 0
    trefoil_v = HalfLaurent({-8: -1, -6: 1, -2: 1})  # -t^-4+t^-3+t^-1
    assert breadth_t(trefoil_v) == 3
    shifted = trefoil_v * HalfLaurent.s_term(1, 5)
    assert breadth_t(shifted) == breadth_t(trefoil_v)
    assert breadth_t(HalfLaurent({1: 1, 0: 1})) == Fraction(1, 2)
    with pytest.raises(ValueError):
        breadth_t(HalfLaurent.zero())


def test_rings_stay_apart():
    x, s = IntLaurent({1: 1}), HalfLaurent({1: 1})
    for add in (lambda: x + s, lambda: s + x):
        with pytest.raises(TypeError):
            add()
    for sub in (lambda: x - s, lambda: s - x, lambda: "x" - x):
        with pytest.raises(TypeError, match=r"for -: "):
            sub()
    assert x != s and s != x
    assert type(HalfLaurent.const(1) + 1) is HalfLaurent
    assert type(HalfLaurent.zero()) is HalfLaurent


def test_rendering_is_pinned():
    assert repr(HalfLaurent({2: -1, 1: -1})) == "HalfLaurent('-t-t^(1/2)')"
    assert HalfLaurent({2: -1, 1: -1}).render_t() == "-t-t^(1/2)"
    assert IntLaurent.parse("2x^-1-1").render() == "-1+2x^-1"
    assert repr(IntLaurent.parse("2x^-1-1")) == "IntLaurent('-1+2x^-1')"
