"""Exact integer/rational/finite-field arithmetic over Q.

Places of Q are the rational primes plus one archimedean place.  Everything
with number-theoretic content (sieves, prime sums, Bertrand windows, finite
field factor searches) lives here; the prime-distribution functions are the
log-weighted sums the bound formulas consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .multipoly import MultiPoly

DEFAULT_FF_BUDGET = 4_000_000


@dataclass(frozen=True)
class PrimeTable:
    bound: int
    primes: tuple

    def __len__(self):
        return len(self.primes)


def primes_up_to(x: int) -> PrimeTable:
    """All primes <= x by sieve; empty table for x < 2."""
    x = int(x)
    if x < 0:
        raise DomainError("negative bound")
    if x < 2:
        return PrimeTable(x, ())
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(x ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return PrimeTable(x, tuple(int(p) for p in np.nonzero(sieve)[0]))


def theta_psi_phi(x: float):
    """(theta, psi, phi) at x: sums over primes p <= x of
    log p, (log p)/p and (log p)/p^(3/2)."""
    if x < 0:
        raise DomainError("x must be >= 0")
    if x < 2:
        return (0.0, 0.0, 0.0)
    ps = np.array(primes_up_to(int(math.floor(x))).primes, dtype=np.float64)
    logs = np.log(ps)
    return (float(logs.sum()), float((logs / ps).sum()), float((logs / ps ** 1.5).sum()))


def mertens_check(x_max: float, step: float = 1.0) -> dict:
    """Sampled sup of |psi(x) - log x| on [2, x_max].

    The fitted constant is just that sup; it is a measured quantity, not an
    imported one.
    """
    if x_max < 2:
        raise DomainError("x_max must be >= 2")
    if step <= 0:
        raise DomainError("step must be positive")
    table = primes_up_to(int(math.floor(x_max)))
    ps = np.array(table.primes, dtype=np.float64)
    if len(ps) == 0:
        ps = np.array([np.inf])
        cum = np.array([0.0])
    else:
        cum = np.cumsum(np.log(ps) / ps)
    xs = np.arange(2.0, x_max + step / 2, step)
    if xs[-1] < x_max:
        xs = np.append(xs, x_max)
    idx = np.searchsorted(ps, xs, side="right")
    psi = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    dev = np.abs(psi - np.log(xs))
    k = int(np.argmax(dev))
    return {
        "x_max": float(x_max),
        "step": float(step),
        "samples": int(len(xs)),
        "sup_abs_dev": float(dev[k]),
        "argmax_x": float(xs[k]),
        "eps2_fitted": float(dev[k]),
    }


def factorize(n: int) -> dict:
    """Prime factorization of |n| by trial division, {p: exponent}."""
    n = abs(int(n))
    if n == 0:
        raise DomainError("cannot factor zero")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class PrimeSumReport:
    value: float
    bound: float
    within_bound: bool


def prime_sum_over_divisors(a: int) -> PrimeSumReport:
    """Sum of (log p)/p over primes p | a, with the log log |a| + 2 audit."""
    a = int(a)
    if abs(a) < 2:
        raise DomainError("|a| must be >= 2")
    val = sum(math.log(p) / p for p in factorize(a))
    bound = math.log(math.log(abs(a))) + 2
    return PrimeSumReport(val, bound, val <= bound)


def bertrand_prime(R: int) -> int:
    """Largest prime p with R/2 < p <= R (exists for all R >= 2)."""
    R = int(R)
    if R < 2:
        raise DomainError("R must be >= 2")
    ps = primes_up_to(R).primes
    for p in reversed(ps):
        if 2 * p > R:
            return p
    raise AssertionError("Bertrand interval unexpectedly empty")


# --- finite fields GF(p^e), e <= 3 -------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _find_irreducible(p: int, e: int):
    """First monic irreducible of degree e over F_p in lex coefficient order.
    For e <= 3 irreducibility is exactly root-freeness."""
    if e == 1:
        return (0, 1)
    for tail in range(p ** e):
        coeffs = []
        t = tail
        for _ in range(e):
            coeffs.append(t % p)
            t //= p
        poly = tuple(coeffs) + (1,)
        if all(sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


class GFContext:
    """GF(p^e) with element encoding sum(c_i p^i) and full mul/inv tables.

    The defining polynomial is the deterministic first irreducible in lex
    order, so results are reproducible across runs and platforms.
    """

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        if not 1 <= e <= 3:
            raise DomainError("extension degree must be 1, 2 or 3")
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = _find_irreducible(p, e)
        self._mul = self._build_mul_table()
        self._inv = self._build_inv_table()

    def _decode(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, cs):
        v = 0
        for c in reversed(cs):
            v = v * self.p + (c % self.p)
        return v

    def _poly_mul_mod(self, a, b):
        p, e = self.p, self.e
        ca, cb = self._decode(a), self._decode(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the defining polynomial (monic degree e)
        for d in range(len(prod) - 1, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(e):
                    prod[d - e + i] = (prod[d - e + i] - c * self.modulus[i]) % p
        return self._encode(prod[:e])

    def _build_mul_table(self):
        q = self.q
        tbl = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(a, q):
                v = self._poly_mul_mod(a, b)
                tbl[a, b] = v
                tbl[b, a] = v
        return tbl

    def _build_inv_table(self):
        q = self.q
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            row = self._mul[a]
            inv[a] = int(np.nonzero(row == 1)[0][0])
        return inv

    def add(self, a, b):
        p = self.p
        ca, cb = self._decode(a), self._decode(b)
        return self._encode([(x + y) % p for x, y in zip(ca, cb)])

    def neg(self, a):
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def mul(self, a, b):
        return int(self._mul[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return int(self._inv[a])

    def embed_int(self, n: int):
        return n % self.p

    def element_str(self, a):
        if self.e == 1:
            return str(a)
        cs = self._decode(a)
        bits = []
        for i, c in enumerate(cs):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                bits.append(f"{head}g" + (f"^{i}" if i > 1 else ""))
        return " + ".join(bits) if bits else "0"


class GFPoly:
    """Sparse multivariate polynomial over a GFContext (internal helper)."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx, nvars, terms=None):
        self.ctx = ctx
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def from_multipoly(cls, f: MultiPoly, ctx: GFContext):
        terms = {}
        for e, c in f.terms.items():
            if c.denominator % ctx.p == 0:
                raise DomainError("coefficient denominator divisible by p")
            # prime-field elements encode as themselves
            v = (c.numerator * pow(c.denominator % ctx.p, -1, ctx.p)) % ctx.p
            if v:
                terms[e] = v
        return cls(ctx, len(f.names), terms)

    def is_zero(self):
        return not self.terms

    def add_term(self, e, c):
        if c == 0:
            return
        cur = self.terms.get(e, 0)
        s = self.ctx.add(cur, c)
        if s:
            self.terms[e] = s
        else:
            self.terms.pop(e, None)

    def mul(self, other):
        out = GFPoly(self.ctx, self.nvars)
        ctx = self.ctx
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out.add_term(e, ctx.mul(c1, c2))
        return out

    def exact_divide_linear(self, coeffs):
        """Exact quotient by the linear form sum(coeffs[i] * x_i); None if the
        division leaves a remainder."""
        ctx = self.ctx
        piv = next(i for i, c in enumerate(coeffs) if c)
        piv_inv = ctx.inv(coeffs[piv])
        q = GFPoly(ctx, self.nvars)
        r = dict(self.terms)
        while r:
            e = max(r, key=lambda ex: (sum(ex), ex))
            c = r[e]
            if e[piv] == 0:
                return None
            te = list(e)
            te[piv] -= 1
            te = tuple(te)
            tc = ctx.mul(c, piv_inv)
            q.add_term(te, tc)
            for j, lc in enumerate(coeffs):
                if lc == 0:
                    continue
                ee = list(te)
                ee[j] += 1
                ee = tuple(ee)
                delta = ctx.neg(ctx.mul(tc, lc))
                cur = r.get(ee, 0)
                s = ctx.add(cur, delta)
                if s:
                    r[ee] = s
                else:
                    r.pop(ee, None)
            # the loop subtracted t*ell from r except the leading cancellation
            # is included above (j == piv reproduces e)
        return q


@dataclass(frozen=True)
class LinearFactor:
    """A linear form over GF(p^e), normalized so the first nonzero
    coefficient is 1.  ``coeffs`` are encoded field elements."""

    p: int
    e: int
    coeffs: tuple

    def pretty(self, ctx: GFContext, names):
        bits = []
        for c, n in zip(self.coeffs, names):
            if c == 0:
                continue
            s = ctx.element_str(c)
            bits.append(n if s == "1" else f"({s})*{n}")
        return " + ".join(bits)


def ff_factor_linear(f: MultiPoly, p: int, extension_degree: int = 1,
                     budget: int = DEFAULT_FF_BUDGET):
    """All linear forms over GF(p^extension_degree) dividing f (up to scalar),
    by exhaustive substitution.  An empty result certifies that no linear
    factor exists over that field.
    """
    nvars = len(f.names)
    work = p ** (extension_degree * nvars)
    if work > budget:
        raise BudgetError(
            f"p^(e*nvars) = {work} exceeds budget {budget}", partial=None)
    ctx = GFContext(p, extension_degree)
    fp = GFPoly.from_multipoly(f, ctx)
    if fp.is_zero():
        raise DomainError("form vanishes identically mod p")
    q = ctx.q
    found = []
    # normalized representatives: first nonzero coefficient is 1
    for piv in range(nvars):
        tail = nvars - piv - 1
        for code in range(q ** tail):
            coeffs = [0] * nvars
            coeffs[piv] = 1
            c = code
            for j in range(tail):
                coeffs[piv + 1 + j] = c % q
                c //= q
            quotient = fp.exact_divide_linear(coeffs)
            if quotient is not None:
                # exact-division certificate: quotient * ell == f
                check = quotient.mul(_linear_gfpoly(ctx, nvars, coeffs))
                assert check.terms == fp.terms, "division certificate failed"
                found.append(LinearFactor(p, extension_degree, tuple(coeffs)))
    return found, ctx


def _linear_gfpoly(ctx, nvars, coeffs):
    g = GFPoly(ctx, nvars)
    for i, c in enumerate(coeffs):
        if c:
            e = tuple(1 if j == i else 0 for j in range(nvars))
            g.add_term(e, c)
    return g
