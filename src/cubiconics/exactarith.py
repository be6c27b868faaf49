"""Exact integer/rational/finite-field arithmetic over Q.

Places of Q are the rational primes plus one archimedean place.  Everything
with number-theoretic content (sieves, prime sums, Bertrand windows) lives
here, and so does the one finite-field layer: reading a rational form mod p,
evaluating it over F_p or GF(p^e), and the linear-factor search.  The
prime-distribution functions are the log-weighted sums the bound formulas
consume.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .multipoly import MultiPoly

DEFAULT_FF_BUDGET = 4_000_000
FF_BLOCK = 1 << 13  # candidate coordinates per block of the linear-factor search


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


# --- finite fields: reduction mod p, F_p points, GF(p^e) with e <= 3 --------


def _find_irreducible(p: int, e: int):
    """First monic irreducible of degree e over F_p in lex coefficient order.
    For e <= 3 irreducibility is exactly root-freeness."""
    if e == 1:
        return (0, 1)
    for tail in range(p ** e):
        poly = tuple(tail // p ** i % p for i in range(e)) + (1,)
        if all(sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


class GFContext:
    """GF(p^e) with element encoding sum(c_i p^i) and full numpy add/mul/neg
    tables, in the smallest unsigned dtype that holds q - 1, for gathers
    over arrays of encoded elements.

    The defining polynomial is the deterministic first irreducible in lex
    order, so results are reproducible across runs and platforms.  Elements
    of F_p encode as themselves in every extension.
    """

    def __init__(self, p: int, e: int):
        if not (p >= 2 and factorize(p) == {p: 1}):
            raise DomainError(f"{p} is not prime")
        if not 1 <= e <= 3:
            raise DomainError("extension degree must be 1, 2 or 3")
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = _find_irreducible(p, e)
        a = np.arange(self.q)
        digits = [a // p ** i % p for i in range(e)]
        # digit i of the product is the coefficient of g^i of the digit
        # polynomials' product, reduced modulo the monic defining polynomial
        prod = [sum(np.multiply.outer(digits[i], digits[k - i])
                    for i in range(max(0, k - e + 1), min(k, e - 1) + 1))
                for k in range(2 * e - 1)]
        for k in range(2 * e - 2, e - 1, -1):
            for i in range(e):
                prod[k - e + i] -= prod[k] * self.modulus[i]
        self.add = self._encode([np.add.outer(x, x) for x in digits])
        self.mul = self._encode(prod[:e])
        self.neg = self._encode([-x for x in digits])

    def _encode(self, digits):
        """The read-only table of encoded elements with the given digit
        arrays."""
        out = sum(d % self.p * self.p ** i for i, d in enumerate(digits)).astype(
            np.min_scalar_type(self.q - 1))
        out.setflags(write=False)
        return out

    def element_str(self, a):
        if self.e == 1:
            return str(a)
        bits = []
        for i in range(self.e):
            c = a // self.p ** i % self.p
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                bits.append(f"{head}g" + (f"^{i}" if i > 1 else ""))
        return " + ".join(bits) if bits else "0"


@functools.lru_cache(maxsize=16)
def gf_context(p: int, e: int) -> GFContext:
    """The shared GFContext of GF(p^e); its tables are read-only.  The
    cache is bounded because a context holds two q x q tables."""
    return GFContext(p, e)


def reduce_mod_p(f: MultiPoly, p: int) -> dict:
    """The nonzero coefficients of f as values in F_p, {exponent: int}.

    Raises DomainError when p divides a coefficient denominator.
    """
    red = {}
    for e, c in f.terms.items():
        if c.denominator % p == 0:
            raise DomainError(f"coefficient denominator divisible by {p}")
        v = c.numerator * pow(c.denominator, -1, p) % p
        if v:
            red[e] = v
    return red


def gf_eval(red: dict, pts, ctx: GFContext):
    """Values of a form reduced mod p (``reduce_mod_p``) at the rows of
    ``pts``, points of encoded elements of ``ctx``'s field, as an array, by
    gathers from its tables."""
    add, mul = ctx.add, ctx.mul
    # powers[k][x] = x^k over the whole field, up to the degree of red
    field = np.arange(ctx.q)
    powers = [None, field]
    for _ in range(max(map(sum, red), default=1) - 1):
        powers.append(mul[powers[-1], field])
    total = np.zeros(len(pts), dtype=add.dtype)
    for exps, c in red.items():
        term = np.full(len(pts), c, dtype=add.dtype)
        for j, k in enumerate(exps):
            if k:
                term = mul[term, powers[k][pts[:, j]]]
        total = add[total, term]
    return total


def proj_points(q: int, nvars: int):
    """Canonical representatives of P^{nvars-1}(F_q), first nonzero
    coordinate 1, with coordinates in range(q) (field encodings when q is a
    prime power), as the rows of an array in the dtype of the GF(q) tables:
    by position of the leading 1, then lexicographically."""
    dtype = np.min_scalar_type(q - 1)
    blocks = []
    for lead in range(nvars):
        k = nvars - lead - 1
        block = np.zeros((q ** k, nvars), dtype=dtype)
        block[:, lead] = 1
        block[:, lead + 1:] = np.indices((q,) * k, dtype=dtype).reshape(k, q ** k).T
        blocks.append(block)
    return np.concatenate(blocks)


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
    in the order of ``proj_points``.  An empty result certifies that no
    linear factor exists over that field.

    A candidate ell divides f exactly when f vanishes on the hyperplane
    ell = 0.  There f restricts to a polynomial of degree <= d (the degree
    of f mod p) in each of the other coordinates, and such a polynomial that
    vanishes on a grid S^(nvars-1) with |S| = d + 1 is zero (Alon's
    Combinatorial Nullstellensatz).  S is {0..d} in the smallest GF(p^E)
    containing GF(p^e), E <= 3, with more than d elements.

    The candidates are taken in blocks of FF_BLOCK coordinates.  In each
    block the grid is walked one point at a time, and each point evaluates
    f at once on every candidate still alive, by gathers from the GF(p^E)
    tables (``gf_eval``); a candidate whose value is nonzero is dropped.
    """
    nvars = len(f.names)
    e = extension_degree
    work = p ** (e * nvars)
    if work > budget:
        raise BudgetError(
            f"p^(e*nvars) = {work} exceeds budget {budget}", partial=None)
    ctx = gf_context(p, e)
    red = reduce_mod_p(f, p)
    if not red:
        raise DomainError("form vanishes identically mod p")
    d = max(map(sum, red))
    E = next((E for E in range(e, 4, e) if p ** E > d), None)
    if E is None:
        raise DomainError(f"no field GF({p}^E), E <= 3, has more than {d} elements")
    grid_ctx = gf_context(p, E)
    cands = proj_points(ctx.q, nvars)
    step = max(1, FF_BLOCK // nvars)
    found = []
    for s in range(0, len(cands), step):
        found += _vanishing_hyperplanes(cands[s:s + step], red, d, grid_ctx).tolist()
    return [LinearFactor(p, e, tuple(ell)) for ell in found], ctx


def _vanishing_hyperplanes(cands, red, d, grid_ctx):
    """The rows ell of ``cands`` (each with a leading 1) such that the form
    ``red`` vanishes at every point of ell = 0 with free coordinates in
    {0..d} of GF(p^E), evaluated on all rows still alive at once; elements
    of GF(p^e) keep their codes in GF(p^E)."""
    add, mul, neg = grid_ctx.add, grid_ctx.mul, grid_ctx.neg
    nvars = cands.shape[1]
    piv = np.argmax(cands != 0, axis=1)
    # on ell = 0, x_piv = sum_{j > piv} -c_j x_j, and the other coordinates
    # are the free grid coordinates in order
    after = np.arange(nvars) > piv[:, None]
    slope = np.where(after, neg[cands], 0)
    # descending, so the origin (a zero of every form without a constant
    # term) comes last
    for free in itertools.product(range(d, -1, -1), repeat=nvars - 1):
        if not len(cands):
            break
        pt = np.where(after, np.array((0,) + free, dtype=add.dtype),
                      np.array(free + (0,), dtype=add.dtype))
        x = np.zeros(len(cands), dtype=add.dtype)
        for j in range(nvars):
            x = add[x, mul[slope[:, j], pt[:, j]]]
        pt[np.arange(len(cands)), piv] = x
        alive = gf_eval(red, pt, grid_ctx) == 0
        cands, piv, after, slope = cands[alive], piv[alive], after[alive], slope[alive]
    return cands
