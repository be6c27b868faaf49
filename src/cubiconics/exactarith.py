"""Exact integer/rational/finite-field arithmetic over Q.

Places of Q are the rational primes plus one archimedean place.  Everything
with number-theoretic content (sieves, prime sums, Bertrand windows) lives
here, and so does the one finite-field layer: reading a rational form mod p
and evaluating it over F_p or GF(p^e).  Every finite-field question is
decided by one rule: substitute symbolically over Q once, reduce the
coefficient polynomials of the result mod p, and evaluate them at all
candidates or points at once.  The prime-distribution functions are the
log-weighted sums the bound formulas consume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .multipoly import MultiPoly, coefficients_in, restrict

DEFAULT_FF_BUDGET = 4_000_000


def primes_up_to(x: int) -> tuple:
    """All primes <= x by sieve, as a tuple; empty for x < 2."""
    x = int(x)
    if x < 0:
        raise DomainError("negative bound")
    if x < 2:
        return ()
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(x ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def theta_psi_phi(x: float):
    """(theta, psi, phi) at x: sums over primes p <= x of
    log p, (log p)/p and (log p)/p^(3/2)."""
    if x < 0:
        raise DomainError("x must be >= 0")
    if x < 2:
        return (0.0, 0.0, 0.0)
    ps = np.array(primes_up_to(int(math.floor(x))), dtype=np.float64)
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
    ps = np.array(primes_up_to(int(math.floor(x_max))), dtype=np.float64)
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
    ps = primes_up_to(R)
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
    """GF(p^e) with element encoding sum(c_i p^i) and full numpy add/mul
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

    def _encode(self, digits):
        """The read-only table of encoded elements with the given digit
        arrays."""
        out = sum(d % self.p * self.p ** i for i, d in enumerate(digits)).astype(
            np.min_scalar_type(self.q - 1))
        out.setflags(write=False)
        return out


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


def parameter_ring(f: MultiPoly, nlocal: int = 0):
    """f embedded in a ring that adds one parameter c_k per variable x_k of
    f and ``nlocal`` local variables u_k, named longer than any variable of
    f so that none collides with one: (F, c, u), c and u tuples of
    variables of F."""
    pre = "_" * (1 + max(map(len, f.names), default=0))
    c = tuple(f"{pre}c{k}" for k in range(len(f.names)))
    u = tuple(f"{pre}u{k}" for k in range(nlocal))
    names = f.names + c + u
    return (restrict(f, names), tuple(MultiPoly.variable(v, names) for v in c),
            tuple(MultiPoly.variable(v, names) for v in u))


@functools.lru_cache(maxsize=16)
def _hyperplane_restrictions(f: MultiPoly):
    """For each pivot i, the coefficients (in the x_j, j != i) of
    f(x_i = -sum_{j>i} c_j x_j), as polynomials over Q in the parameters
    c_0..c_{n-1}; bounded like ``gf_context``."""
    F, c, _ = parameter_ring(f)
    x = [MultiPoly.variable(v, F.names) for v in f.names]
    out = []
    for i, v in enumerate(f.names):
        ell = sum((c[j] * x[j] for j in range(i + 1, len(x))), MultiPoly.zero(F.names))
        g = F.substitute({v: -ell})
        out.append(tuple(coefficients_in(g, F.names[len(x):]).values()))
    return tuple(out)


def ff_factor_linear(f: MultiPoly, p: int, extension_degree: int = 1):
    """All linear forms over GF(p^extension_degree) dividing f (up to scalar),
    in the order of ``proj_points``.  An empty result certifies that no
    linear factor exists over that field.

    A candidate ell = x_i + sum_{j>i} c_j x_j divides f exactly when
    f(x_i = -sum_{j>i} c_j x_j) is zero, that is, when every coefficient of
    that restriction, a polynomial over Q in the c_j computed once per f
    and pivot i, vanishes mod p at the candidate's c.  Each coefficient is
    evaluated at all candidates still alive at once (``gf_eval``).
    """
    nvars = len(f.names)
    e = extension_degree
    work = p ** (e * nvars)
    if work > DEFAULT_FF_BUDGET:
        raise BudgetError(
            f"p^(e*nvars) = {work} exceeds budget {DEFAULT_FF_BUDGET}", partial=None)
    ctx = gf_context(p, e)
    if not reduce_mod_p(f, p):
        raise DomainError("form vanishes identically mod p")
    cands = proj_points(ctx.q, nvars)
    piv = np.argmax(cands != 0, axis=1)
    found = []
    for i, coeffs in enumerate(_hyperplane_restrictions(f)):
        alive = cands[piv == i]
        for g in coeffs:
            alive = alive[gf_eval(reduce_mod_p(g, p), alive, ctx) == 0]
        found += alive.tolist()
    return [LinearFactor(p, e, tuple(ell)) for ell in found], ctx
