"""Exact Laurent-polynomial arithmetic over arbitrary-precision integers.

One ring class, :class:`IntLaurent`, implements Z[x, x^-1]: the
Q-polynomial, the Chebyshev-like sigma polynomials and Burau matrix entries
(in t) live there.  :class:`HalfLaurent` is the same ring in the variable
s = t^(1/2): it inherits the arithmetic and adds only the embedding t = s^2,
the substitution s -> s^-1 and the spelling of s-powers in t, so half-integer
powers of t (and monomials like (-sqrt(t))^e) are honest monomials.  Jones
polynomials live there.  The two rings stay apart: mixing them in arithmetic
raises TypeError, and they never compare equal.

Everything is immutable and hashable; there is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping


class IntLaurent:
    """Integer Laurent polynomial in one variable x.

    Internally a map from exponent to nonzero coefficient; the zero
    polynomial is the empty map, so the representation is canonical and
    equality/hashing are structural.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        c: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, v in items:
            if v:
                nv = c.get(e, 0) + v
                if nv:
                    c[e] = nv
                else:
                    del c[e]
        self._c = c
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, n: int):
        return cls({0: n})

    @classmethod
    def term(cls, coeff: int, exp: int):
        return cls({exp: coeff})

    @staticmethod
    def x() -> "IntLaurent":
        return IntLaurent({1: 1})

    # -- ring structure ----------------------------------------------

    def _coerce(self, v):
        """`v` in this ring: an element of the same class, or an int constant."""
        if type(v) is type(self):
            return v
        if isinstance(v, int):
            return self.const(v)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        out = object.__new__(type(self))
        out._c = c
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(type(self))
        out._c = {e: -v for e, v in self._c.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    del c[e]
        out = object.__new__(type(self))
        out._c = c
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._c) == 1:
                ((e, v),) = self._c.items()
                if v in (1, -1):
                    return type(self)({e * n: v if n % 2 else 1})
            raise ValueError("negative powers only defined for unit monomials")
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int):
        """Multiply by x^k."""
        return type(self)({e + k: v for e, v in self._c.items()})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Highest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def low_degree(self) -> int:
        """Lowest exponent with nonzero coefficient; undefined for 0."""
        if not self._c:
            raise ValueError("low_degree of the zero polynomial")
        return min(self._c)

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self):
        return self._c.items()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    # -- text form -----------------------------------------------------

    @staticmethod
    def _power(e: int) -> str:
        return "x" if e == 1 else f"x^{e}"

    def render(self) -> str:
        """`2x^2+2x-3` style: descending exponents, x^0 and ^1 elided."""
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            sign = "-" if v < 0 else ("+" if parts else "")
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                var = self._power(e)
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"

    @staticmethod
    def parse(text: str) -> "IntLaurent":
        """Parse the :meth:`render` grammar (optional `*`, optional spaces)."""
        s = text.replace(" ", "").replace("*", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return IntLaurent.zero()
        # protect exponent minus signs, then split on +/-
        s = s.replace("^-", "^~")
        s = s.replace("-", "+-").replace("^~", "^-")
        out: dict[int, int] = {}
        seen = False
        for term in s.split("+"):
            if not term:
                continue
            seen = True
            m = re.fullmatch(r"(-?)(\d*)(?:x(?:\^(-?\d+))?)?", term)
            if not m or (not m.group(2) and "x" not in term):
                raise ValueError(f"bad polynomial term {term!r} in {text!r}")
            sign = -1 if m.group(1) else 1
            coeff = int(m.group(2)) if m.group(2) else 1
            if "x" in term:
                exp = int(m.group(3)) if m.group(3) else 1
            else:
                exp = 0
            out[exp] = out.get(exp, 0) + sign * coeff
        if not seen:
            raise ValueError(f"no terms in polynomial text {text!r}")
        return IntLaurent(out)


def chebyshev_S(k: int) -> IntLaurent:
    """S_{-1} = 0, S_0 = 1, S_k = x*S_{k-1} - S_{k-2}."""
    if k < -1:
        raise ValueError("chebyshev_S defined for k >= -1")
    prev, cur = IntLaurent.zero(), IntLaurent.const(1)  # S_{-1}, S_0
    if k == -1:
        return prev
    x = IntLaurent.x()
    for _ in range(k):
        prev, cur = cur, x * cur - prev
    return cur


def sigma(n: int) -> IntLaurent:
    """sigma_0 = 0, sigma_n = sign(n) * S_{|n|-1}."""
    if n == 0:
        return IntLaurent.zero()
    s = chebyshev_S(abs(n) - 1)
    return s if n > 0 else -s


class GaussianInt:
    """Gaussian integer a + bi; absolute value only for purely real/imaginary."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __eq__(self, other):
        if isinstance(other, int):
            other = GaussianInt(other, 0)
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def abs_pure(self) -> int:
        """|a| when a is purely real or purely imaginary; error otherwise."""
        if self.re and self.im:
            raise ValueError(f"{self} is neither purely real nor purely imaginary")
        return abs(self.re) if self.re else abs(self.im)

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class HalfLaurent(IntLaurent):
    """Integer Laurent polynomial in s, with t = s^2.

    Supported on even s-exponents it is an ordinary polynomial in t; odd
    exponents carry the half-integer t-powers of Jones polynomials of
    even-component links.  The ring is :class:`IntLaurent`'s, in s.
    """

    __slots__ = ()

    # qaltbench/layertrace.py traces these by name in this class's namespace
    __add__ = __radd__ = IntLaurent.__add__
    __neg__ = IntLaurent.__neg__
    __sub__ = IntLaurent.__sub__
    __mul__ = __rmul__ = IntLaurent.__mul__

    @staticmethod
    def s_term(coeff: int, s_exp: int) -> "HalfLaurent":
        return HalfLaurent({s_exp: coeff})

    @staticmethod
    def from_t(p: IntLaurent) -> "HalfLaurent":
        """Embed Z[t, t^-1] via t = s^2."""
        return HalfLaurent({2 * e: v for e, v in p.items()})

    def substitute_s_inverse(self) -> "HalfLaurent":
        """s -> s^-1, i.e. t -> t^-1."""
        return HalfLaurent({-e: v for e, v in self._c.items()})

    @staticmethod
    def _power(e: int) -> str:
        # odd s-powers are the half-integer t-powers
        if e % 2:
            return f"t^({e}/2)"
        return "t" if e == 2 else f"t^{e // 2}"

    render_t = IntLaurent.render  # render in t


def eval_at_s_equals_i(p: HalfLaurent) -> GaussianInt:
    """Exact substitution s = i, i.e. t = -1."""
    re = im = 0
    for e, v in p.items():
        r, i = _I_POWERS[e % 4]
        re += v * r
        im += v * i
    return GaussianInt(re, im)


def breadth_t(p: HalfLaurent) -> Fraction:
    """Highest minus lowest t-degree, as an exact rational."""
    if p.is_zero():
        raise ValueError("breadth of the zero polynomial")
    return Fraction(p.degree() - p.low_degree(), 2)
