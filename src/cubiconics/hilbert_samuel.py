"""Local/geometric Hilbert-Samuel combinatorics, reduction censuses, and the
closed-form bound evaluators.

The external analytic constants (B1, kappa's, eps's, and the implicit B(n,d)
threshold) are user-supplied knobs defaulting to 0; every report labels them
"not-paper-derived".  The combinatorial functions themselves are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ConfigError, DegenerateReductionError, DomainError
from .exactarith import (factorize, ff_factor_linear, gf_context, gf_eval,
                         proj_points, reduce_mod_p)
from .heights import harmonic
from .linalg import det, rank, rank_mod_p
from .multipoly import MultiPoly


@dataclass(frozen=True)
class LocalProfile:
    d: int
    mu: int
    delta: int

    def __post_init__(self):
        if not (self.d >= 1 and 1 <= self.mu <= self.delta):
            raise DomainError("need d >= 1 and 1 <= mu <= delta")


@dataclass
class ExternalConstants:
    """Imported analytic constants.  All default to 0 and are flagged as
    not derived here; supply better values via a key=value file."""

    b1: float = 0.0       # lower-bound constant B1(d), applied for every d
    kappa1: float = 0.0
    kappa2: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    b_ndk: float = 0.0    # implicit threshold constant B(n,d,K)

    def B1(self, d: int) -> float:
        return self.b1

    def labels(self) -> dict:
        return {k: "not-paper-derived (user-supplied, default 0)"
                for k in ("b1", "kappa1", "kappa2", "eps1", "eps2", "eps3", "b_ndk")}

    @classmethod
    def from_file(cls, path) -> "ExternalConstants":
        vals = {}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad constants line: {line!r}")
                k, v = line.split("=", 1)
                k = k.strip().lower()
                if k not in cls.__dataclass_fields__:
                    raise ConfigError(f"unknown constant {k!r}")
                vals[k] = float(v)
        return cls(**vals)


# --- local Hilbert-Samuel ------------------------------------------------------


def _comb(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def local_hs(d: int, mu: int, s: int) -> int:
    """Local Hilbert-Samuel value at s for dimension d and multiplicity mu."""
    if d < 1 or mu < 1 or s < 0:
        raise DomainError("need d >= 1, mu >= 1, s >= 0")
    return _comb(d + s, s) - _comb(d + s - mu, s - mu)


def q_series(d: int, mu: int, m: int):
    """First m entries of the series where each integer s >= 0 appears
    local_hs(d, mu, s) times."""
    out = []
    s = 0
    while len(out) < m:
        out.extend([s] * local_hs(d, mu, s))
        s += 1
    return out[:m]


def q_partial_sum(d: int, mu: int, m: int) -> int:
    if m < 1:
        raise DomainError("m must be >= 1")
    return sum(q_series(d, mu, m))


def q_lower_bound(d: int, mu: int, m: int) -> float:
    a = (math.factorial(d) / mu) ** (1.0 / d) * (d / (d + 1.0))
    b = (d ** 3 + 5 * d ** 2 + 8 * d) / (2.0 * (d + 1) * (d + 2))
    return a * m ** ((d + 1.0) / d) - b * m


def q_lower_bound_check(d: int, mu: int, m_max: int) -> dict:
    """Verify Q(m) strictly exceeds its closed-form lower bound for every
    m <= m_max; reports the minimum slack."""
    if d > 4 or mu > 8 or m_max > 10 ** 4:
        raise BudgetError("q_lower_bound_check budget: d <= 4, mu <= 8, m <= 1e4")
    series = q_series(d, mu, m_max)
    Q = 0
    min_slack = None
    argmin = None
    violations = 0
    for m in range(1, m_max + 1):
        Q += series[m - 1]
        slack = Q - q_lower_bound(d, mu, m)
        if slack <= 0:
            violations += 1
        if min_slack is None or slack < min_slack:
            min_slack, argmin = slack, m
    return {"d": d, "mu": mu, "m_max": m_max, "violations": violations,
            "min_slack": min_slack, "argmin_m": argmin}


# --- geometric Hilbert-Samuel ---------------------------------------------------


def geometric_hs(d: int, delta: int, D: int) -> int:
    """Rank of the degree-D graded piece for a degree-delta hypersurface of
    dimension d inside its linear span."""
    if D < 0:
        raise DomainError("D must be >= 0")
    return _comb(d + 1 + D, d + 1) - _comb(d + 1 - delta + D, d + 1)


def geometric_hs_window(d: int, delta: int, D: int):
    """Exact two-sided window for geometric_hs(d, delta, D)^(1/d), valid for
    D >= delta.  Both sides are compared after raising to the d-th power so
    the check is exact rational arithmetic.

    Returns (lower_ok, upper_ok, rg).
    """
    if D < delta:
        raise DomainError("window requires D >= delta")
    rg = geometric_hs(d, delta, D)
    ratio = Fraction(delta, math.factorial(d))
    low = ratio * Fraction(D - (delta - 2)) ** d
    high = ratio * (Fraction(D) + Fraction(d + 1, 2)) ** d
    return low <= rg, rg <= high, rg


# --- reduction censuses -----------------------------------------------------------


def reduction_point_census(f: MultiPoly, p: int):
    """Points of the plane curve f = 0 over F_p with multiplicities.

    Multiplicity at a point is the order of the lowest nonvanishing jet of
    the dehomogenized local expansion.  Returns (n, per-point list) where n
    sums the multiplicities.
    """
    if len(f.names) != 3:
        raise DomainError("plane-curve census expects a ternary form")
    if f.is_zero():
        raise DomainError("zero form")
    red = reduce_mod_p(f, p)
    if not red:
        raise DegenerateReductionError(f"form vanishes identically mod {p}")
    pts = proj_points(p, 3)
    points = map(tuple, pts[gf_eval(red, pts, gf_context(p, 1)) == 0].tolist())

    per_point = []
    n = 0
    for pt in points:
        mu = _jet_multiplicity(red, pt, p)
        per_point.append({"point": pt, "mu": mu})
        n += mu
    return n, per_point


def _jet_multiplicity(red, pt, p: int) -> int:
    """Order of vanishing of the dehomogenized local expansion at pt."""
    i = next(k for k, x in enumerate(pt) if x != 0)  # chart coordinate, value 1
    others = [k for k in range(3) if k != i]
    # local coordinates u,v: x_{others[0]} = a + u, x_{others[1]} = b + v, x_i = 1
    a, b = pt[others[0]], pt[others[1]]
    local = {}
    for e, c in red.items():
        # expand (a+u)^e0 (b+v)^e1 with binomials mod p
        e0, e1 = e[others[0]], e[others[1]]
        for k0 in range(e0 + 1):
            c0 = math.comb(e0, k0) * pow(a, e0 - k0, p) % p
            if c0 == 0:
                continue
            for k1 in range(e1 + 1):
                c1 = math.comb(e1, k1) * pow(b, e1 - k1, p) % p
                if c1 == 0:
                    continue
                key = (k0, k1)
                local[key] = (local.get(key, 0) + c * c0 * c1) % p
    degs = [k0 + k1 for (k0, k1), c in local.items() if c % p]
    return min(degs) if degs else 0


def gram_matrix_doubled(q: MultiPoly):
    """2x Gram matrix of a quadratic form (integer when q is primitive)."""
    if not q.is_homogeneous() or q.total_degree() != 2:
        raise DomainError("quadratic form expected")
    _, prim = q.rational_content()
    nv = len(prim.names)
    A = [[0] * nv for _ in range(nv)]
    for e, c in prim.terms.items():
        idx = [k for k, ei in enumerate(e) if ei]
        if len(idx) == 1:
            A[idx[0]][idx[0]] = 2 * int(c)
        else:
            i, j = idx
            A[i][j] = int(c)
            A[j][i] = int(c)
    return A


def _first_nonzero_minor3(A):
    n = len(A)
    for rows in itertools.combinations(range(n), 3):
        for cols in itertools.combinations(range(n), 3):
            m = int(det([[A[r][c] for c in cols] for r in rows]))
            if m != 0:
                return m
    return 0


def is_geometrically_integral_quadratic(q: MultiPoly, p: int | None = None) -> bool:
    """Geometric integrality of a quadratic form: over Q (or mod odd p) by the
    rank >= 3 criterion; in characteristic 2 by direct linear-factor search
    over F_2 and F_4."""
    if p is None:
        A = gram_matrix_doubled(q)
        return rank(A, len(A)) >= 3
    if p == 2:
        for e in (1, 2):
            factors, _ = ff_factor_linear(q, 2, e)
            if factors:
                return False
        return True
    return rank_mod_p(gram_matrix_doubled(q), p)[0] >= 3


@dataclass
class ReductionCensus:
    delta: int
    threshold: int
    bad_primes: list
    b_prime: float
    certifying_minor: int
    complete: bool


def bad_reduction_census(q: MultiPoly) -> ReductionCensus:
    """Primes above 27*delta^4 where a quadratic form's reduction stops being
    geometrically integral, with the multiplicative penalty they contribute.

    Bad primes annihilate every 3x3 minor of the doubled Gram matrix, so the
    prime factors of one fixed nonzero minor, factored exactly by trial
    division, exhaust the candidates, and the census is complete.
    """
    delta = 2
    threshold = 27 * delta ** 4
    if not is_geometrically_integral_quadratic(q):
        raise DomainError("input quadratic is not geometrically integral over Q")
    A = gram_matrix_doubled(q)
    minor = _first_nonzero_minor3(A)
    assert minor != 0
    candidates = sorted(p for p in factorize(minor) if p > threshold)
    bad = []
    for p in candidates:
        if rank_mod_p(A, p)[0] < 3:
            bad.append((p, "gram rank < 3 mod p"))
    b_prime = 1.0
    for p, _reason in bad:
        b_prime *= math.exp(math.log(p) / p)
    return ReductionCensus(delta, threshold, bad, b_prime, minor, True)


# --- closed-form bound constants and evaluator -----------------------------------


def N_nd(n: int, d: int) -> int:
    return math.comb(n + 1, d + 1) - 1


def C1(n: int, d: int, delta: int, k: ExternalConstants, degK: int = 1) -> float:
    lead = ((d + 1) * degK / (d * delta ** (1.0 / d))) * (0.75 * math.log(n + 1) - k.B1(d))
    tail = ((d ** 3 + 5 * d ** 2 + 8 * d)
            / (2.0 * d * (d + 2) * math.factorial(d) ** (1.0 / d))) \
        * (1 + (d + 1) / 4.0) * (1 + k.kappa1)
    return lead + k.kappa2 + 3 + math.log(math.factorial(d)) / d + tail


def C1_prime(n, d, delta, k: ExternalConstants, degK: int = 1) -> float:
    return (math.exp(C1(n, d, delta, k, degK)) * 7 * (N_nd(n, d) + 1)
            * math.exp(2 * k.eps2 - 3 * math.log(3) + degK) * d)


def C1_doubleprime(n, d, delta, k: ExternalConstants, degK: int = 1) -> float:
    return (C1(n, d, delta, k, degK) * 7 * (N_nd(n, d) + 1)
            * math.exp(2 * k.eps2 - 3 * math.log(3) + degK)
            * (d + 1) * (k.B1(d) + 3.5 * math.log(n + 1)))


def C2(n, d, delta, k: ExternalConstants, degK: int = 1) -> float:
    N = N_nd(n, d)
    return (math.exp(2 * k.eps2 - 3 * math.log(3) + degK)
            * (3 + math.log(math.comb(N + delta, delta)) + (N + 1) * math.log(2)
               + 4 * math.log(N + 1) + math.log(3) - 0.5 * float(harmonic(N))))


def C3(n, d, delta, k: ExternalConstants, degK: int = 1, alphaK: float = 2.0) -> float:
    N = N_nd(n, d)
    return (math.exp(C1(n, d, delta, k, degK)) * 2 ** ((N + 1) / d) * (N + 1) ** (4.0 / d)
            * math.exp(2 * d * float(harmonic(N))) * math.exp((d + 1) / math.e)
            * k.b_ndk ** (d + 1) * C2(n, d, delta, k, degK) * alphaK ** (1.0 / d))


def C4(n, d, delta, k: ExternalConstants, degK: int = 1, alphaK: float = 2.0) -> float:
    N = N_nd(n, d)
    return (C3(n, d, delta, k, degK, alphaK) * C2(n, d, delta, k, degK) * math.e * d * (d + 1)
            + (k.B1(d) - 3.5 * math.log(n + 1) + (N + 1) / (d + 1) * math.log(2)
               + 4.0 / (d + 1) * math.log(N + 1) - float(harmonic(N)) / (2 * (d + 1))))


BOUND_KINDS = ("projective-curve", "projective-surface", "affine-curve",
               "affine-surface", "conics-rational", "conics-integral")

# Exponents of B in the bound shapes (delta-independent ones spelled out).
CONICS_RATIONAL_EXPONENT = 3 * math.sqrt(3) / 8 + 1
CONICS_INTEGRAL_EXPONENT = math.sqrt(3) / 4 + 0.5


def bound_exponent(kind: str, delta: int | None = None) -> float:
    if kind == "projective-curve":
        return 2.0 / delta
    if kind == "projective-surface":
        return 3.0 / (2 * delta ** 0.5)
    if kind == "affine-curve":
        return 1.0 / delta
    if kind == "affine-surface":
        return 1.0 / delta ** 0.5
    if kind == "conics-rational":
        return CONICS_RATIONAL_EXPONENT
    if kind == "conics-integral":
        return CONICS_INTEGRAL_EXPONENT
    raise ConfigError(f"unknown bound kind {kind!r}")


def bound_evaluator(kind: str, params: dict, constants: ExternalConstants) -> float:
    """Evaluate a cited closed-form bound at the supplied parameters.

    ``params`` must carry B and, where relevant, n and delta.  The composite
    conic bounds hard-wire the ambient data of the cubic-surface pipeline.
    """
    if constants is None:
        raise ConfigError("bound_evaluator requires an ExternalConstants record")
    if kind not in BOUND_KINDS:
        raise ConfigError(f"unknown bound kind {kind!r} (choose from {BOUND_KINDS})")
    try:
        B = float(params["B"])
    except KeyError as exc:
        raise ConfigError("missing parameter B") from exc
    k = constants
    if kind == "projective-curve":
        n, delta = int(params["n"]), int(params["delta"])
        return C1_prime(n, 1, delta, k) * delta ** 4 * B ** (2.0 / delta)
    if kind == "projective-surface":
        n, delta = int(params["n"]), int(params["delta"])
        return C1_prime(n, 2, delta, k) * delta ** 3 * B ** (3.0 / (2 * delta ** 0.5))
    if kind == "affine-curve":
        n, delta = int(params["n"]), int(params["delta"])
        return C4(n, 1, delta, k) * delta ** 4 * B ** (1.0 / delta)
    if kind == "affine-surface":
        n, delta = int(params["n"]), int(params["delta"])
        return C4(n, 2, delta, k) * delta ** 3 * B ** (1.0 / delta ** 0.5)
    if kind == "conics-rational":
        pref = (93312 * math.exp(23040 * math.log(2) * math.log(12) / 137)
                * C1_doubleprime(3, 1, 2, k) * C1_prime(20, 1, 2, k)
                * C1_prime(3, 2, 3, k) ** 0.75)
        return pref * B ** CONICS_RATIONAL_EXPONENT * max(math.log(B), 2.0)
    # conics-integral
    base = C4(3, 2, 3, k)
    if base < 0:
        # the composite constant is meaningless until real imported constants
        # are supplied; keep the shape usable but flag the prefactor
        return math.nan
    pref = 93312 * C4(3, 1, 2, k) * C1_prime(5, 2, 2, k) * base ** 0.75
    return pref * B ** CONICS_INTEGRAL_EXPONENT * max(math.log(B), 2.0)
