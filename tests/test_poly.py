import random
from fractions import Fraction

import pytest

from qalt.poly import (
    GaussianInt,
    HalfLaurent,
    IntLaurent,
    breadth_t,
    chebyshev_S,
    combine,
    eval_at_s_equals_i,
    nbytes_for,
    pack,
    sigma,
    unpack,
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
    assert 3 - x == P("3-x")  # int - p is p.__rsub__(int)


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
    x = IntLaurent.x()
    for k in range(1, 61):
        assert chebyshev_S(k) == x * chebyshev_S(k - 1) - chebyshev_S(k - 2)


def test_sigma():
    assert sigma(0) == IntLaurent.zero()
    assert sigma(1) == IntLaurent.const(1)
    assert sigma(-2) == P("-x")


def test_sigma_three_term_identity():
    # x*sigma_n = sigma_{n+1} + sigma_{n-1}
    x = IntLaurent.x()
    for n in range(-60, 61):
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


def test_monomial_products_and_identities():
    rng = random.Random(11)
    for cls in (IntLaurent, HalfLaurent):
        for _ in range(100):
            a = cls(dict(rand_poly(rng).items()))
            e, v = rng.randint(-5, 5), rng.choice((-3, -1, 1, 2))
            mono = cls({e: v})
            shifted = cls({e + k: v * c for k, c in a.items()})
            assert a * mono == mono * a == shifted
            assert type(a * mono) is cls
            # shift(e) multiplies by the monomial x^e
            assert a.shift(e) == a * cls({e: 1}) and type(a.shift(e)) is cls
            assert v - a == cls({0: v}) + -a and type(v - a) is cls
            assert a * 1 == 1 * a == a + 0 == 0 + a == a
            assert a * cls.zero() == cls.zero() * a == cls.zero()


def test_constant_hash_matches_int():
    for cls in (IntLaurent, HalfLaurent):
        for c in (-3, 0, 1, 3, 10**30):
            p = cls.const(c)
            assert p == c and hash(p) == hash(c)
            assert c in {p} and p in {c}
            assert {p: "v"}[c] == "v"
        assert hash(cls.zero()) == hash(0)
        # a constant reached by arithmetic hashes like its int as well
        x = cls({1: 1})
        assert hash((x + 3) - x) == hash(3)
    # a purely real Gaussian integer equals its int, so it hashes like it too
    for c in (-3, 0, 1, 3, 10**30):
        g = GaussianInt(c, 0)
        assert g == c and hash(g) == hash(c)
        assert len({g, c}) == 1


def test_routes_to_one_polynomial_agree():
    # 3x^-2 - x + 5x^3 by a mapping with explicit zeros, by parse, by unpack
    # and by ring operations whose ends cancel, all stored alike
    x = IntLaurent.x()
    one = x + 1 - x
    target = IntLaurent({-3: 0, -2: 3, 0: 0, 1: -1, 3: 5, 7: 0})
    routes = [
        target,
        P("5x^3-x+3x^-2"),
        unpack(3 - (1 << 96) + (5 << 160), 4, -2),
        (5 * x**5 - x**3 + 3) * x**-2 * one,
        IntLaurent.term(3, -2) + (x - 5 * x**3) * -one,
        (target + x**10) - x**10,
        (x**-10 + target) - x**-10,
        -(-target),
        target.shift(4).shift(-4),
    ]
    for p in routes:
        assert p == target and hash(p) == hash(target) and p.run() == (-2, (3, 0, 0, -1, 0, 5))
    assert len(set(routes)) == 1
    assert one == 1 and hash(one) == hash(1) and one.run() == (0, (1,))
    # the run spans the exponents, and degrees stay exact at a wide span
    far = x**-100000 + x**100000
    square = far * far
    assert (far.low_degree(), far.degree()) == (-100000, 100000)
    assert (square.low_degree(), square.degree()) == (-200000, 200000)
    assert square.items() == [(-200000, 1), (0, 2), (200000, 1)]
    assert square - x**200000 - 2 == x**-200000
    # items() is sized, ascending and free of zeros
    for p in routes + [far, square, one, IntLaurent.zero()]:
        items = p.items()
        exps = [e for e, _ in items]
        assert len(items) == len(exps) and exps == sorted(set(exps))
        assert all(v for _, v in items) and IntLaurent(dict(items)) == p


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


def test_zero_factor():
    zero, p = IntLaurent.zero(), IntLaurent.parse("3x^2-x+x^-4")
    assert zero * p == p * zero == 0 * p == p * 0 == zero
    h = HalfLaurent({3: 2, -1: 1})
    assert type(HalfLaurent.zero() * h) is type(h * HalfLaurent.zero()) is HalfLaurent
    assert (h * 0).is_zero()
    for mul in (lambda: zero * h, lambda: HalfLaurent.zero() * p, lambda: h * zero):
        with pytest.raises(TypeError):
            mul()


def test_rendering_is_pinned():
    assert repr(HalfLaurent({2: -1, 1: -1})) == "HalfLaurent('-t-t^(1/2)')"
    assert HalfLaurent({2: -1, 1: -1}).render_t() == "-t-t^(1/2)"
    assert IntLaurent.parse("2x^-1-1").render() == "-1+2x^-1"
    assert repr(IntLaurent.parse("2x^-1-1")) == "IntLaurent('-1+2x^-1')"


def _plain_combination(terms):
    """The reference for `combine`: each entry as sum(c * e), zero ones dropped."""
    keys = dict.fromkeys(m for _, v in terms for m in v)
    sums = {m: sum((c * v[m] for c, v in terms if m in v), IntLaurent.zero()) for m in keys}
    return {m: e for m, e in sums.items() if e}


def _rand_factor(rng):
    kind = rng.choice(("monomial", "constant", "dense", "zero"))
    if kind == "monomial":
        return IntLaurent.term(rng.choice((-3, -1, 1, 2)), rng.randint(-6, 6))
    if kind == "constant":
        return IntLaurent.const(rng.randint(-4, 4))
    if kind == "dense":
        return rand_poly(rng, max_terms=9)
    return IntLaurent.zero()


def test_combine_matches_the_plain_sum():
    rng = random.Random(20150720)
    keys = [(), ((0, 1),), ((0, 1), (2, 3)), ((0, 3), (1, 2))]
    for _ in range(400):
        terms = [
            (_rand_factor(rng), {m: _rand_factor(rng) for m in rng.sample(keys, rng.randint(0, 4))})
            for _ in range(rng.randint(0, 5))
        ]
        if terms and rng.random() < 0.3:
            c, v = rng.choice(terms)
            terms.append((-c, v))  # every entry of v cancels
        want = _plain_combination(terms)
        got = combine(iter(terms))
        assert got == want, terms
        assert all(type(e) is IntLaurent and all(v for _, v in e.items()) for e in got.values())


def test_combine_drops_what_cancels():
    x, one = IntLaurent.x(), IntLaurent.const(1)
    v = {"a": P("x+1"), "b": P("x^2-x^-1")}
    assert combine([(x, v), (-x, v)]) == {}
    assert combine([(x, v), (-x, {"a": P("x+1")})]) == {"b": P("x^3-1")}
    # one exponent cancels inside an entry: its coefficient leaves the map
    (e,) = combine([(x, {"a": one}), (one, {"a": P("2-x")})]).values()
    assert e == 2 and dict(e.items()) == {0: 2}
    assert combine([]) == {} and combine([(x, {})]) == {}


def test_combine_keeps_the_rings_apart():
    x, s = IntLaurent.x(), HalfLaurent.s_term(1, 1)
    halves = combine([(s, {"a": s}), (s, {"a": HalfLaurent.const(2)})])
    assert halves == {"a": HalfLaurent({2: 1, 1: 2})} and type(halves["a"]) is HalfLaurent
    for terms in ([(x, {"a": s})], [(s, {"a": x})], [(x, {"a": x}), (s, {"a": s})]):
        with pytest.raises(TypeError):
            _plain_combination(terms)
        with pytest.raises(TypeError):
            combine(terms)


# 1, 2, 4 and 8 bytes are native words, read by one cast; 3, 9 and 16 are not
@pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8, 9, 16])
def test_unpack_inverts_pack(nbytes):
    half = 1 << (8 * nbytes - 1)
    top = half - 1  # the largest absolute coefficient that decodes
    cases = [
        IntLaurent.zero(),
        IntLaurent({-5: top, -4: -top, -2: top, 0: -top, 3: top}),
        IntLaurent({-3: -top, -2: -top, -1: -top}),
        # X^2 - 1 is all 1 bits: its low digit -1 borrows from the top one
        IntLaurent({-7: -1, -5: 1}),
        IntLaurent({0: -1, 1: -top, 2: 1}),
        # zero digits between the terms, and above a negative top term
        IntLaurent({-6: top, 6: -top}),
        IntLaurent({2: 1, 3: 0, 9: -1}),
    ]
    rng = random.Random(nbytes)
    for _ in range(200):
        cases.append(
            IntLaurent({rng.randint(-9, 9): rng.randint(-top, top) for _ in range(rng.randint(1, 8))})
        )
    for p in cases:
        for low in (-12, p.low_degree() - 1 if p else -1, p.low_degree() if p else 0):
            v = pack(p, nbytes, low)
            assert v == sum(c * (1 << 8 * nbytes * (e - low)) for e, c in p.items())
            assert unpack(v, nbytes, low) == p, (p, low)
    assert pack(IntLaurent.zero(), nbytes, 3) == 0 and unpack(0, nbytes, -3) == 0
    # digits 0, 0, d, 0, 0, -d, 0 from the bottom: the stored run drops the
    # zero digits below and above the terms and keeps those between them
    for d in (1, -1, top, -top):
        v = sum(c << 8 * nbytes * k for k, c in enumerate([0, 0, d, 0, 0, -d, 0]))
        assert unpack(v, nbytes, -3).run() == (-1, (d, 0, 0, -d))
    # a digit of X/2 is out of the balanced range: it reads as -X/2 plus a carry
    assert unpack(pack(IntLaurent.const(half), nbytes, 0), nbytes) == IntLaurent({0: -half, 1: 1})


@pytest.mark.parametrize(
    "bound, nbytes",
    [(0, 4), (2**31 - 1, 4), (2**31, 8), (2**63 - 1, 8), (2**63, 9), (2**100, 13)],
)
def test_nbytes_for_is_the_first_width_whose_half_exceeds_the_bound(bound, nbytes):
    assert nbytes_for(bound) == nbytes
    assert bound < 1 << (8 * nbytes - 1)


def test_products_decode_at_the_width_of_their_l1_bound():
    # coefficients at +-bound decode at nbytes_for(bound), a polynomial at
    # nbytes_for of its l1 norm, and a product at that of its factors' norms
    def l1(p):
        return sum(abs(v) for _, v in p.items())

    for bound in (0, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**100):
        n = nbytes_for(bound)
        for p in (IntLaurent({-2: bound, 3: -bound}), IntLaurent({0: -bound, 1: bound, 5: -bound})):
            assert unpack(pack(p, n, -2), n, -2) == p
    rng = random.Random(26)
    for _ in range(300):
        f, g = (
            IntLaurent({rng.randint(-6, 6): rng.randint(-(1 << k), 1 << k) for _ in range(rng.randint(1, 6))})
            for k in (rng.randint(0, 70), rng.randint(0, 70))
        )
        if not (f and g):
            continue
        m = nbytes_for(l1(f))
        assert unpack(pack(f, m, f.low_degree()), m, f.low_degree()) == f
        n = nbytes_for(l1(f) * l1(g))
        lo = f.low_degree() + g.low_degree()
        product = pack(f, n, f.low_degree()) * pack(g, n, g.low_degree())
        assert unpack(product, n, lo) == f * g
