"""Exact Laurent-polynomial arithmetic over arbitrary-precision integers.

One ring class, :class:`IntLaurent`, implements Z[x, x^-1]: the
Q-polynomial, the Chebyshev-like sigma polynomials and Burau matrix entries
(in t) live there.  :class:`HalfLaurent` is the same ring in the variable
s = t^(1/2): it inherits the arithmetic and adds only the embedding t = s^2,
the substitution s -> s^-1 and the spelling of s-powers in t, so half-integer
powers of t (and monomials like (-sqrt(t))^e) are honest monomials.  Jones
polynomials live there.  The two rings stay apart: mixing them in arithmetic
raises TypeError, and they never compare equal.

An element is one dense run of coefficients from its lowest exponent to its
highest, both nonzero.  `degree` and `low_degree` are O(1), a sum aligns two
runs, a product sums the products of their nonzero slots, and readers that
need terms by residue or parity take slices of the run (`IntLaurent.run`).
Storage is proportional to the exponent span, not to the number of terms:
every polynomial the package builds spans O(crossings) exponents, a
Kauffman bracket 4 slots per term, since its exponents share one residue
mod 4.

`pack` and `unpack` evaluate a polynomial at x = 2^B and read it back from
balanced base-2^B digits, and `nbytes_for` picks B from a bound on the
coefficients.  Three callers multiply such packed integers and decode once:
`braid3.burau`, the frontier sweep of `diagram.py` and `kanenobu.kanenobu_q`.

Everything is immutable and hashable; there is no floating point anywhere.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, neg
from typing import Iterable, Mapping


class IntLaurent:
    """Integer Laurent polynomial in one variable x.

    Internally one dense run: `_low`, the lowest exponent, and `_c`, the
    tuple of the coefficients of x^_low, x^(_low + 1), ..., whose first and
    last entries are nonzero; the zero polynomial is (0, ()).  So the
    representation is canonical and equality and hashing are structural;
    storage is proportional to the exponent span (see the module notes).
    """

    __slots__ = ("_low", "_c")

    def __init__(self, coeffs: Mapping[int, int] = {}):  # only read, never stored
        terms = {e: v for e, v in coeffs.items() if v}
        low = min(terms, default=0)
        run = [0] * (max(terms, default=-1) - low + 1)
        for e, v in terms.items():
            run[e - low] = v
        self._low, self._c = low, tuple(run)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, n: int):
        return cls.from_run(0, (n,))

    @classmethod
    def term(cls, coeff: int, exp: int):
        return cls.from_run(exp, (coeff,))

    @staticmethod
    def x() -> "IntLaurent":
        return IntLaurent.from_run(1, (1,))

    @classmethod
    def from_run(cls, low: int, run):
        """x^low (run[0] + run[1] x + run[2] x^2 + ...) for a sequence `run`
        of ints; zeros at either end are dropped."""
        hi = len(run)
        while hi and not run[hi - 1]:
            hi -= 1
        start = 0
        while start < hi and not run[start]:
            start += 1
        out = object.__new__(cls)
        if start == hi:
            out._low, out._c = 0, ()
        else:
            out._low, out._c = low + start, tuple(run[start:hi])
        return out

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
        # elements are immutable, so either operand may be the result
        a, b = self._c, other._c
        if not b:
            return self
        if not a:
            return other
        low, off = self._low, other._low - self._low
        if off < 0:
            a, b, low, off = b, a, other._low, -off
        # b starts `off` slots above a: a's head, the zeros between them if
        # they are apart, the overlap summed, then the longer run's tail; only
        # the overlap can cancel
        na = len(a)
        run = a[:off] + (0,) * (off - na) + tuple(map(add, a[off:], b)) + a[off + len(b):] + b[max(na - off, 0):]
        return type(self).from_run(low, run)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(type(self))
        out._low, out._c = self._low, tuple(map(neg, self._c))
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
        a, b = self._c, other._c
        if not a:
            return self
        if not b:
            return other
        out = object.__new__(type(self))
        out._low = self._low + other._low
        # a monomial factor shifts and scales the other one: nothing cancels
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (v0,) = b
            out._c = a if v0 == 1 else tuple([v * v0 for v in a])
            return out
        # the end products are nonzero, so no end cancels; the loops visit
        # nonzero slots only, so a bracket's run, 3 zeros in 4, costs no
        # more than its terms
        run = [0] * (len(a) + len(b) - 1)
        terms = [(j, w) for j, w in enumerate(b) if w]
        for i, v in enumerate(a):
            if v:
                for j, w in terms:
                    run[i + j] += v * w
        out._c = tuple(run)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._c) == 1 and self._c[0] in (1, -1):
                return self.from_run(self._low * n, (self._c[0] if n % 2 else 1,))
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
        return self.from_run(self._low + k, self._c)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Highest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return self._low + len(self._c) - 1 if self._c else -1

    def low_degree(self) -> int:
        """Lowest exponent with nonzero coefficient; undefined for 0."""
        if not self._c:
            raise ValueError("low_degree of the zero polynomial")
        return self._low

    def coeff(self, e: int) -> int:
        k = e - self._low
        return self._c[k] if 0 <= k < len(self._c) else 0

    def items(self) -> list[tuple[int, int]]:
        """The (exponent, coefficient) pairs of the nonzero terms, in
        ascending order of exponent."""
        return [(e, v) for e, v in enumerate(self._c, self._low) if v]

    def run(self) -> tuple[int, tuple[int, ...]]:
        """(lowest exponent, coefficient run): the stored form, (0, ()) for 0."""
        return self._low, self._c

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._low == other._low and self._c == other._c

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        c = self._c
        if self._low or len(c) > 1:
            return hash((self._low, c))
        return hash(c[0] if c else 0)

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
        for e, v in reversed(self.items()):
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


def combine(terms: Iterable[tuple[IntLaurent, Mapping]]) -> dict:
    """The vector sum of c * v over the pairs (c, v) of `terms`, a vector
    being a dict from any key to ring elements; zero entries are dropped.

    The ring's own `*` and `+` form every entry, so mixing IntLaurent with
    HalfLaurent raises TypeError, as their product or sum does.
    """
    out: dict = {}
    for c, v in terms:
        for m, e in v.items():
            out[m] = out[m] + c * e if m in out else c * e
    return {m: e for m, e in out.items() if e}


def pack(p: IntLaurent, nbytes: int, low: int) -> int:
    """The value of x^-low p at x = X = 2^(8 nbytes), `low` at most the
    lowest exponent of p.

    Evaluation at X is a ring homomorphism Z[x] -> Z (Kronecker
    substitution), so sums and products of packed values are exact big-int
    arithmetic at any X; only `unpack` needs the coefficients bounded.
    """
    b = 8 * nbytes
    return sum(v << b * k for k, v in enumerate(p._c, p._low - low) if v)


def nbytes_for(bound: int) -> int:
    """The digit width in bytes at which `unpack` reads back exactly every
    product and sum of packed polynomials whose l1 bound is `bound`: 4 or 8,
    the first whose X/2 exceeds it, else its byte length plus a sign bit.

    The l1 norm, the sum of the absolute values of the coefficients, bounds
    each coefficient, and l1(f g) <= l1(f) l1(g), l1(f + g) <= l1(f) + l1(g).
    So a bound carried beside the packed values by those rules bounds every
    coefficient of the result, and once it is below X/2 each coefficient is
    the balanced digit `unpack` reads.
    """
    bits = bound.bit_length() + 1  # bound < X/2 exactly when bits <= 8 nbytes
    return 4 if bits <= 32 else 8 if bits <= 64 else -(-bits // 8)


# the native signed word formats of `memoryview.cast`, by size in bytes
_WORDS = {struct.calcsize(f): f for f in "bhiq"}


@lru_cache(maxsize=128)  # big_forms decodes at 46 (nbytes, digits) pairs
def _half_digits(nbytes: int, digits: int) -> int:
    """The integer whose `digits` base-2^(8 nbytes) digits are all X/2."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * digits, "little")


def unpack(v: int, nbytes: int, low: int = 0) -> IntLaurent:
    """x^low times the polynomial whose coefficients are the balanced digits
    of v in base X = 2^(8 nbytes), each in [-X/2, X/2).

    Every integer has exactly one such expansion, so this inverts `pack`
    whenever each coefficient of the packed polynomial has absolute value
    below X/2: it is then the digit.  Adding X/2 to every digit d makes it
    an unsigned digit, so the base-X digits of the sum are the d + X/2;
    flipping the top bit of each leaves d in two's complement, and one
    `to_bytes`, in the host's byte order, writes every digit as `nbytes`
    bytes.  bit_length // 8 nbytes + 2 digits hold any v.  When a digit is
    a native word (nbytes 1, 2, 4 or 8), one `memoryview.cast` reads every
    digit into a list; other widths read the bytes digit by digit.  That
    digit list, its zero digits at either end dropped, is the result's
    coefficient run as it is stored, so no Python loop runs per term.
    """
    digits = v.bit_length() // (8 * nbytes) + 2
    offset = _half_digits(nbytes, digits)
    raw = ((v + offset) ^ offset).to_bytes(nbytes * digits, sys.byteorder)
    word = _WORDS.get(nbytes)
    if word:
        coeffs = memoryview(raw).cast(word).tolist()
    else:
        coeffs = [int.from_bytes(raw[i:i + nbytes], sys.byteorder, signed=True) for i in range(0, len(raw), nbytes)]
    if sys.byteorder == "big":  # the top digit came first
        coeffs.reverse()
    return IntLaurent.from_run(low, coeffs)


def chebyshev_S(k: int) -> IntLaurent:
    """S_{-1} = 0, S_0 = 1, S_k = x*S_{k-1} - S_{k-2}, in closed form:

    S_k = sum over 0 <= j <= k/2 of (-1)^j C(k-j, j) x^(k-2j).
    """
    if k < -1:
        raise ValueError("chebyshev_S defined for k >= -1")
    return IntLaurent(
        {k - 2 * j: (-1) ** j * comb(k - j, j) for j in range(k // 2 + 1)}
    )


@lru_cache(maxsize=256)  # the values are immutable, so callers may share them
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
        # a purely real value equals its int, so it must hash like it
        return hash((self.re, self.im) if self.im else self.re)

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
        return HalfLaurent.from_run(s_exp, (coeff,))

    @staticmethod
    def from_t(p: IntLaurent) -> "HalfLaurent":
        """Embed Z[t, t^-1] via t = s^2."""
        run = [0] * (2 * len(p._c) - 1)  # [] for 0
        run[::2] = p._c
        return HalfLaurent.from_run(2 * p._low, run)

    def substitute_s_inverse(self) -> "HalfLaurent":
        """s -> s^-1, i.e. t -> t^-1."""
        return HalfLaurent.from_run(-self.degree(), self._c[::-1])

    @staticmethod
    def _power(e: int) -> str:
        # odd s-powers are the half-integer t-powers
        if e % 2:
            return f"t^({e}/2)"
        return "t" if e == 2 else f"t^{e // 2}"

    render_t = IntLaurent.render  # render in t


def eval_at_s_equals_i(p: HalfLaurent) -> GaussianInt:
    """Exact substitution s = i, i.e. t = -1.

    The slot k of the run holds s^(low + k), which is i^low i^k at s = i,
    so the value is i^low times the run's slot sums by k mod 4 weighted by
    1, i, -1 and -i."""
    low, run = p.run()
    s0, s1, s2, s3 = (sum(run[k::4]) for k in range(4))
    re, im = s0 - s2, s1 - s3
    r, i = _I_POWERS[low % 4]
    return GaussianInt(r * re - i * im, r * im + i * re)


def breadth_t(p: HalfLaurent) -> Fraction:
    """Highest minus lowest t-degree, as an exact rational."""
    if p.is_zero():
        raise ValueError("breadth of the zero polynomial")
    return Fraction(p.degree() - p.low_degree(), 2)
