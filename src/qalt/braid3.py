"""Closed 3-braids: Murasugi normal forms, the Burau representation,
Birman's Jones trace formula, determinant formulas with a matrix-tree
oracle, Baldwin's quasi-alternating classification, and crossing bounds.

Normal forms are input data, never computed from arbitrary words (the
conjugacy problem is out of scope); word-level consistency is checked by
comparing Jones polynomials instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .errors import HypothesisViolationError, MalformedDiagramError, PDParseError
from .intmat import int_det
from .poly import HalfLaurent, IntLaurent


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise MalformedDiagramError("a braid needs at least 2 strands")
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise MalformedDiagramError(
                    f"generator {g} out of range for {self.strands} strands"
                )

    @property
    def exponent_sum(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise MalformedDiagramError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-g for g in reversed(self.letters)))


_WORD_TOKEN = re.compile(r"s?(-?\d+)(?:\^(-?\d+))?$")


def parse_braid_word(text: str, strands: int = 3) -> BraidWord:
    """`s1 s2 s1^-1` or compact `1 2 -1` (whitespace or comma separated)."""
    letters: list[int] = []
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    if not tokens:
        raise PDParseError("empty braid word")
    for tok in tokens:
        m = _WORD_TOKEN.match(tok)
        if not m:
            raise PDParseError(f"bad braid letter {tok!r}")
        idx = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        if idx == 0 or power == 0:
            raise PDParseError(f"bad braid letter {tok!r}")
        g = idx if power > 0 else -idx
        letters.extend([g] * abs(power))
    return BraidWord(strands, tuple(letters))


# -- Murasugi normal forms ----------------------------------------------


@dataclass(frozen=True)
class B3NormalForm:
    """One of the three conjugacy families of 3-braids, h = (s1 s2)^3.

    family 1: h^n s1^p1 s2^-q1 ... s1^ps s2^-qs   (all p_i, q_i >= 1)
    family 2: h^n s2^m                            (m in Z)
    family 3: h^n s1^m s2^-1                      (m in {-1,-2,-3})
    """

    family: int
    n: int
    pairs: tuple[tuple[int, int], ...] = ()
    m: int = 0

    def __post_init__(self):
        if self.family == 1:
            if not self.pairs:
                raise HypothesisViolationError("family 1 needs at least one pair")
            for p, q in self.pairs:
                if p < 1 or q < 1:
                    raise HypothesisViolationError(
                        f"family 1 exponents must be positive, got ({p},{q})"
                    )
        elif self.family == 2:
            if self.pairs:
                raise HypothesisViolationError("family 2 takes no pairs")
        elif self.family == 3:
            if self.m not in (-1, -2, -3):
                raise HypothesisViolationError(
                    f"family 3 needs m in {{-1,-2,-3}}, got {self.m}"
                )
        else:
            raise HypothesisViolationError(f"no family {self.family}")

    @staticmethod
    def family1(n: int, pairs) -> "B3NormalForm":
        return B3NormalForm(1, n, tuple((int(p), int(q)) for p, q in pairs))

    @staticmethod
    def family2(n: int, m: int) -> "B3NormalForm":
        return B3NormalForm(2, n, (), int(m))

    @staticmethod
    def family3(n: int, m: int) -> "B3NormalForm":
        return B3NormalForm(3, n, (), int(m))


def normal_form_from_dict(data: dict) -> B3NormalForm:
    fam = int(data["family"])
    n = int(data["n"])
    if fam == 1:
        return B3NormalForm.family1(n, data["pairs"])
    return B3NormalForm(fam, n, (), int(data["m"]))


def to_word(nf: B3NormalForm) -> BraidWord:
    """Spell the normal form out as a literal braid word."""
    letters: list[int] = []
    if nf.n >= 0:
        letters.extend([1, 2] * (3 * nf.n))
    else:
        letters.extend([-2, -1] * (3 * -nf.n))
    if nf.family == 1:
        for p, q in nf.pairs:
            letters.extend([1] * p)
            letters.extend([-2] * q)
    elif nf.family == 2:
        letters.extend([2] * nf.m if nf.m >= 0 else [-2] * -nf.m)
    else:
        letters.extend([-1] * -nf.m)
        letters.append(-2)
    return BraidWord(3, tuple(letters))


# -- Burau representation ------------------------------------------------

_T = IntLaurent.x()  # the Burau variable t


@dataclass(frozen=True)
class BurauMatrix:
    a: IntLaurent
    b: IntLaurent
    c: IntLaurent
    d: IntLaurent

    def __mul__(self, o: "BurauMatrix") -> "BurauMatrix":
        return BurauMatrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def trace(self) -> IntLaurent:
        return self.a + self.d

    @staticmethod
    def identity() -> "BurauMatrix":
        one, zero = IntLaurent.const(1), IntLaurent.zero()
        return BurauMatrix(one, zero, zero, one)


_BURAU = {
    1: BurauMatrix(-_T, IntLaurent.const(1), IntLaurent.zero(), IntLaurent.const(1)),
    2: BurauMatrix(IntLaurent.const(1), IntLaurent.zero(), _T, -_T),
    # exact inverses (det psi(s_i) = -t)
    -1: BurauMatrix(
        IntLaurent({-1: -1}), IntLaurent({-1: 1}), IntLaurent.zero(), IntLaurent.const(1)
    ),
    -2: BurauMatrix(
        IntLaurent.const(1), IntLaurent.zero(), IntLaurent.const(1), IntLaurent({-1: -1})
    ),
}


def burau(w: BraidWord) -> BurauMatrix:
    """Reduced Burau matrix of a 3-strand word, entries in Z[t, t^-1]."""
    if w.strands != 3:
        raise MalformedDiagramError("the 2x2 Burau matrices are for 3-strand words")
    out = BurauMatrix.identity()
    for g in w.letters:
        out = out * _BURAU[g]
    return out


def _neg_sqrt_t_power(e: int) -> HalfLaurent:
    """(-sqrt(t))^e as a monomial in s."""
    return HalfLaurent.s_term(-1 if e % 2 else 1, e)


def birman_jones(w: BraidWord) -> HalfLaurent:
    """V of the braid closure: (-sqrt t)^e (t + t^-1 + tr(Burau(w)))."""
    tr = burau(w).trace()
    body = IntLaurent({1: 1, -1: 1}) + tr
    return _neg_sqrt_t_power(w.exponent_sum) * HalfLaurent.from_t(body)


def closed_form_jones(nf: B3NormalForm) -> HalfLaurent:
    """The displayed closed forms for families 2 and 3."""
    n = nf.n
    t_pm = IntLaurent({1: 1, -1: 1})  # t + t^-1
    if nf.family == 2:
        m = nf.m
        body = t_pm + IntLaurent({3 * n: 1}) + IntLaurent({3 * n + m: -1 if m % 2 else 1})
        return _neg_sqrt_t_power(m + 6 * n) * HalfLaurent.from_t(body)
    if nf.family == 3:
        if nf.m == -1:
            body = t_pm + IntLaurent({3 * n - 1: -1})  # t^{3n} (-t)^-1
            return _neg_sqrt_t_power(6 * n - 2) * HalfLaurent.from_t(body)
        if nf.m == -2:
            return _neg_sqrt_t_power(6 * n - 3) * HalfLaurent.from_t(t_pm)
        # trace term for m = -3 is -t^{3n-2}: tr Burau(s1^-3 s2^-1) = -t^-2
        # (the n = 0 closure destabilizes to the trefoil, pinning the sign)
        body = t_pm + IntLaurent({3 * n - 2: -1})
        return _neg_sqrt_t_power(6 * n - 4) * HalfLaurent.from_t(body)
    raise HypothesisViolationError("no closed Jones form for family 1")


# -- determinants ---------------------------------------------------------


def _family1_tree_count(pairs) -> int:
    """Spanning trees of the hub-and-cycle graph, by the displayed sum.

    The hub attaches at cumulative positions on a q-cycle (syllable i just
    before its own q_i block, as in :func:`tutte_graph`); each choice of
    attachment subset contributes the product of its parallel-edge counts
    times the product of the cyclic gaps between consecutive chosen points.
    """
    s = len(pairs)
    q = sum(qi for _, qi in pairs)
    cum = []
    acc = 0
    for _, qi in pairs:
        cum.append(acc)
        acc += qi
    total = 0
    for k in range(1, s + 1):
        for subset in combinations(range(s), k):
            term = 1
            for i in subset:
                term *= pairs[i][0]
            if k == 1:
                term *= q
            else:
                for r in range(k):
                    a, b = subset[r], subset[(r + 1) % k]
                    term *= (cum[b] - cum[a]) % q
            total += term
    return total


def det_formula(nf: B3NormalForm) -> int:
    """Exact determinant of the closure, per the family case analysis."""
    if nf.family == 1:
        t = _family1_tree_count(nf.pairs)
        return t + 4 if nf.n % 2 else t
    if nf.family == 2:
        return 4 if nf.n % 2 else 0
    if nf.m == -2:
        return 2
    sign = -1 if (3 * nf.n + nf.m) % 2 else 1
    # m = -1: det = 2 + sign; m = -3 flips (trefoil at n=0, m=-3 has det 3)
    return 2 + sign if nf.m == -1 else 2 - sign


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: vertex count plus edge multiplicities."""

    vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity), u <= v

    @staticmethod
    def from_edges(vertices: int, pairs) -> "Multigraph":
        mult: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + 1
        return Multigraph(
            vertices, tuple(sorted((u, v, m) for (u, v), m in mult.items()))
        )


def tutte_graph(pairs) -> Multigraph:
    """Cycle on q = sum q_i vertices plus a hub joined by p_i parallel edges
    to the cumulative position q_1 + ... + q_(i-1), before the q_i block."""
    pairs = [(int(p), int(q)) for p, q in pairs]
    if not pairs or any(p < 1 or q < 1 for p, q in pairs):
        raise HypothesisViolationError("need positive (p_i, q_i) pairs")
    q = sum(qi for _, qi in pairs)
    hub = q  # vertices 0..q-1 cycle, q is the hub
    edges = []
    if q > 1:
        for j in range(q):
            edges.append((j, (j + 1) % q))
    acc = 0
    for p, qi in pairs:
        edges.extend([(hub, (acc - 1) % q)] * p)
        acc += qi
    return Multigraph.from_edges(q + 1, edges)


def spanning_tree_count(g: Multigraph) -> int:
    """Matrix-tree theorem: determinant of the reduced integer Laplacian."""
    n = g.vertices
    if n == 0:
        return 0
    lap = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        if u == v:
            continue  # self-loops never occur in spanning trees
        lap[u][v] -= m
        lap[v][u] -= m
        lap[u][u] += m
        lap[v][v] += m
    minor = [row[1:] for row in lap[1:]]
    return int_det(minor)


# -- classification and crossing bounds -----------------------------------


def baldwin_is_qa(nf: B3NormalForm) -> bool:
    """Baldwin's classification of quasi-alternating closed 3-braids."""
    if nf.family == 1:
        return nf.n in (-1, 0, 1)
    if nf.family == 2:
        return (nf.n == 1 and nf.m in (-1, -2, -3)) or (
            nf.n == -1 and nf.m in (1, 2, 3)
        )
    return nf.n in (0, 1)


def crossing_upper_bound(nf: B3NormalForm) -> int:
    """Upper bound on the crossing number in the quasi-alternating regime
    of family 1 (n in {-1, 0, 1}).

    For n = +-1 these are the braid-reduction bounds 4+p+q, 3+q, p+4 and 5;
    for n = 0 the closure is alternating and single-syllable words
    destabilize, giving p+q with the s=1 degenerate cases q, p and 0.
    """
    if nf.family != 1 or nf.n not in (-1, 0, 1):
        raise HypothesisViolationError(
            "crossing bound stated for family 1 with n in {-1, 0, 1}"
        )
    s = len(nf.pairs)
    p = sum(pi for pi, _ in nf.pairs)
    q = sum(qi for _, qi in nf.pairs)
    if nf.n == 0:
        if s == 1:
            p1, q1 = nf.pairs[0]
            if p1 == 1 and q1 == 1:
                return 0
            if p1 == 1:
                return q1
            if q1 == 1:
                return p1
        return p + q
    if s == 1:
        p1, q1 = nf.pairs[0]
        if p1 == 1 and q1 == 1:
            return 5
        if p1 == 1:
            return 3 + q1
        if q1 == 1:
            return p1 + 4
    return 4 + p + q
