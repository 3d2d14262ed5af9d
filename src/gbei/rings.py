"""Dense multivariate polynomial arithmetic over a prime field.

Variables live on an ``m x n`` grid, one per matrix entry ``x[i,j]``.
Monomials are plain exponent tuples, and a pure lex comparison is just
tuple comparison.  `mono_mask` gives a monomial's support as a bitmask, the
cheap prefilter for divisibility.  `groebner` and the Hilbert recursion
pack monomials into ints internally and hand exponent tuples back;
`packed_divides` is their shared divisibility test, and `iter_bits` walks
the bitsets they and `hochster` keep.  `minimal_masks` keeps the
inclusion-minimal sets of a family of bitmasks, for `hochster` and `verify`.
`terms_text` writes the terms of a polynomial or of a Hilbert numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, le

DEFAULT_PRIME = 32003


# --------------------------------------------------------------------------
# coefficient primes

# Miller-Rabin with these bases is exact for every n below 2^64
# (indeed below 3.3 * 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n):
    """Deterministic primality test; n >= 2^64 raises ValueError."""
    if n >= 1 << 64:
        raise ValueError(f"primality is only certified below 2^64, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# monomials (exponent tuples)

def mono_one(nvars):
    return (0,) * nvars


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def mono_is_squarefree(a):
    return all(e <= 1 for e in a)


def mono_mask(a):
    """Support as a bitmask: bit v is set when variable v occurs in a.

    mono_divides(a, b) implies mono_mask(a) & ~mono_mask(b) == 0, so the
    mask test is a cheap prefilter for divisibility; the converse holds
    only for squarefree a.
    """
    mask = 0
    for v, e in enumerate(a):
        if e:
            mask |= 1 << v
    return mask


def iter_bits(bits):
    """Positions of the set bits of a nonnegative int, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def minimal_masks(masks):
    """The inclusion-minimal sets among bitmasks, each once, smallest first
    and in the given order among equal sizes."""
    minimal = []
    for s in sorted(masks, key=int.bit_count):
        if all(t & ~s for t in minimal):
            minimal.append(s)
    return minimal


def packed_divides(a, b, guard):
    """True if packed a divides packed b: ints of exponent fields whose top
    bits, `guard`, are clear.  b - a clears a field's guard bit exactly
    where a's exponent is the larger, and no borrow leaves a field, so
    bits above the fields (the Hilbert recursion's degree) do not matter.
    """
    return ((b | guard) - a) & guard == guard


# --------------------------------------------------------------------------
# rings

@dataclass(frozen=True)
class Ring:
    """GF(prime)[x[i,j] for the rows x cols grid], variables row-major."""

    rows: int
    cols: int
    prime: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be nonempty")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime")

    @property
    def nvars(self):
        return self.rows * self.cols

    def var_index(self, i, j):
        """Flat index of x[i,j], 1-based row/column, row-major."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"x[{i},{j}] outside {self.rows}x{self.cols} grid")
        return (i - 1) * self.cols + (j - 1)

    def var_name(self, v):
        i, j = divmod(v, self.cols)
        return f"x[{i + 1},{j + 1}]"

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c %= self.prime
        return Poly(self, {mono_one(self.nvars): c} if c else {})

    def variable(self, i, j):
        mono = [0] * self.nvars
        mono[self.var_index(i, j)] = 1
        return Poly(self, {tuple(mono): 1})


# --------------------------------------------------------------------------
# term orders

class TermOrder:
    """A lex order given by a significance permutation of the variables.

    ``perm`` lists variable indices from most to least significant; a
    monomial's sort key is its exponents read in that sequence.  Pure lex
    orders are all this package needs; lex-row-major is the identity
    permutation, so its key equals the exponent tuple.
    """

    __slots__ = ("name", "perm")

    def __init__(self, name, perm):
        self.name = name
        self.perm = tuple(perm)

    @classmethod
    def lex_row_major(cls, ring):
        """x[1,1] > x[1,2] > ... > x[2,1] > ..."""
        return cls("lex-row-major", range(ring.nvars))

    @classmethod
    def lex_column_major(cls, ring):
        """x[1,1] > x[2,1] > ... > x[1,2] > ..."""
        perm = [i * ring.cols + j for j in range(ring.cols)
                for i in range(ring.rows)]
        return cls("lex-column-major", perm)

    @classmethod
    def by_name(cls, name, ring):
        """The order called `name` (a key of TERM_ORDERS) on ring."""
        if name not in TERM_ORDERS:
            raise ValueError(f"unknown term order {name!r}")
        return TERM_ORDERS[name](ring)

    def key(self, mono):
        return tuple(mono[v] for v in self.perm)

    def __repr__(self):
        return f"TermOrder({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)


# The one table of term-order names (CLI choices included).
TERM_ORDERS = {
    "lex-row-major": TermOrder.lex_row_major,
    "lex-column-major": TermOrder.lex_column_major,
}


# --------------------------------------------------------------------------
# polynomials

def terms_text(terms):
    """Render (coefficient, body) pairs joined by " + ": the coefficient
    alone for an empty body, the body for 1, -body for -1, c*body
    otherwise, and "0" for no pairs."""
    return " + ".join(str(c) if not body
                      else body if c == 1
                      else f"-{body}" if c == -1
                      else f"{c}*{body}"
                      for c, body in terms) or "0"


class Poly:
    """Polynomial as a map from exponent tuple to coefficient in [1, p-1]."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        p, nvars = ring.prime, ring.nvars
        clean = {}
        for mono, c in terms.items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for {nvars} variables")
            c %= p
            if c:
                clean[mono] = c
        self.ring = ring
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def leading_monomial(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        p = self.ring.prime
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = (terms.get(mono, 0) + c) % p
            if s:
                terms[mono] = s
            elif mono in terms:
                del terms[mono]
        out = Poly.__new__(Poly)
        out.ring, out.terms = self.ring, terms
        return out

    def __neg__(self):
        p = self.ring.prime
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = {m: p - c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.prime
            if not c:
                return self.ring.zero()
            return Poly(self.ring, {m: k * c for m, k in self.terms.items()})
        self._check_ring(other)
        p = self.ring.prime
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                terms[m] = (terms.get(m, 0) + ca * cb) % p
        return Poly(self.ring, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- presentation --------------------------------------------------------

    def text(self, order=None):
        """Render as e.g. "3*x[1,2]*x[2,3] + -x[1,1]", terms descending."""
        p, name = self.ring.prime, self.ring.var_name
        monos = sorted(self.terms, key=None if order is None else order.key,
                       reverse=True)
        signed = [c - p if c > p // 2 else c for c in map(self.terms.get, monos)]
        bodies = ["*".join(name(v) if e == 1 else f"{name(v)}^{e}"
                           for v, e in enumerate(m) if e) for m in monos]
        return terms_text(zip(signed, bodies))

    def __repr__(self):
        return f"<Poly {self.text()}>"
