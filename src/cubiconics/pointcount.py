"""Exhaustive enumeration of rational/integral points of bounded height.

Projective points are primitive integer tuples with the first nonzero
coordinate positive, counted one representative per sign class; the height
is the max coordinate magnitude.  Affine (integral) points live in the
euclidean ball or the max-norm box.  Both counts run one box scan: it fixes
all coordinates but one and solves the remaining univariate equation of
degree at most 3 in exact integers, vectorized over the fibers: its critical
points cut the range into pieces on which it is monotone, an integer
bisection finds the one root a piece can hold, and an exact zero proves it,
so no float rounding can drop or invent a point.  The scan yields its rows
batch by batch, and each count cuts a batch as it arrives.  The projective
scan needs homogeneous forms: it covers only the half of the prefix box
whose first nonzero entry is positive, so each point class is hit once, and
it keeps the primitive rows and fixes their sign.  The affine scan covers
the whole box of side floor(B) and, for the ball, keeps the rows with
sum x_i^2 <= floor(B^2).

Before the root kernel, a local-solubility sieve (as in Stoll's ratpoints)
drops the fibers with no root modulo some m in SIEVE_MODULI.  Whether
c0 + c1 x + c2 x^2 + c3 x^3 has a root mod m depends on the residues of
the coefficients alone, so one root table per m, built once per process,
serves every form.  A scan reads from it one table over the residue
classes of its prefix, at the residues of the solve form's coefficients,
which costs m^k evaluations for k prefix coordinates.  This cannot change
the answer.  Every integer solution is one mod m, so a dropped fiber holds
no point.  A fiber where the solve form vanishes identically passes every
table.  The surviving fibers are re-batched, and one lexsort at the end
orders the rows.  So ``complete=True`` rests on the exact zero that proves
each root and on the mod-m obstruction of each dropped fiber.  The sieve runs where it pays: on
scans whose solve form has degree 2 or 3 in the solved variable, with each
modulus whose table costs less than the scan it sieves.
"""

from __future__ import annotations

import functools
import itertools as it
import math
from dataclasses import dataclass

import numpy as np

from .cayley import T4
from .errors import BudgetError, DomainError
from .hilbert_samuel import (ExternalConstants, bound_evaluator, bound_exponent,
                             gram_matrix_doubled)
from .linalg import det, normalize_primitive_vector
from .multipoly import (CHUNK_FIBERS, MultiPoly, absmax, bezout_cutoff,
                        bounded_height_pairs, coefficients_in, int_dtype, int_eval,
                        restrict)

SURFACE_B_BUDGET = 512
CURVE_B_BUDGET = 10_000
# height up to which conic_points looks for the base point of its chords
BASE_SEARCH = 32
# moduli of the local-solubility sieve; 9 rather than 3, since cubes mod 9
# fall in 3 classes and mod 3 in all of them
SIEVE_MODULI = (9, 7, 13, 19, 5, 11)
# fibers per call of the root kernel after the sieve: enough to amortize
# numpy's per-call cost, few enough to keep the working arrays small
SIEVE_BATCH = 1 << 14


@dataclass
class CountResult:
    count: int
    points: tuple
    complete: bool
    note: str = ""


def _check_budget(nvars: int, B: float, budget: float | None):
    cap = budget if budget is not None else (SURFACE_B_BUDGET if nvars >= 4 else CURVE_B_BUDGET)
    if B > cap:
        raise BudgetError(f"B={B} exceeds enumeration budget {cap}")


def _solve_form_coeffs(forms, var):
    """The equation each fiber solves, the form of least degree in ``var``:
    its coefficients in ``var``, polynomials in the other variables of its
    ring (``coefficients_in``), and the other forms, which each solution
    must also satisfy.  (None, []) for the empty system; DomainError when
    that degree exceeds 3, which the fiber solver does not handle."""
    if not forms:
        return None, []
    i = min(range(len(forms)), key=lambda i: forms[i].degree_in([var]))
    f, d = forms[i], forms[i].degree_in([var])
    if d > 3:
        raise DomainError(f"every form has degree > 3 in the solved variable {var}")
    others = tuple(n for n in f.names if n != var)
    cs = coefficients_in(f, others)
    return [cs.get((k,), MultiPoly.zero(others)) for k in range(d + 1)], forms[:i] + forms[i + 1:]


def _vanish(forms, arrays):
    """Boolean mask of the entries where every form evaluates to 0 exactly."""
    ok = np.ones(len(next(iter(arrays.values()))), dtype=bool)
    for f in forms:
        ok &= int_eval(f, arrays) == 0
    return ok


def _isqrt(D):
    """Elementwise floor square root of a nonnegative integer array: a float
    sqrt corrected by one integer step on each side in int64 (entries that
    ``int_dtype`` keeps there), math.isqrt on Python integers."""
    if D.dtype == object:
        return np.array([math.isqrt(int(d)) for d in D], dtype=object)
    s = np.sqrt(D.astype(np.float64)).astype(np.int64)
    s -= s * s > D
    s += (s + 1) * (s + 1) <= D
    return s


def _horner(c, x):
    """c3 x^3 + c2 x^2 + c1 x + c0 elementwise, c = [c0, c1, c2, c3]."""
    c0, c1, c2, c3 = c
    return ((c3 * x + c2) * x + c1) * x + c0


def _monotone_roots(c, xcap):
    """Integer roots x, |x| <= xcap, of the fiber polynomials
    c3 x^3 + c2 x^2 + c1 x + c0, c = [c0, c1, c2, c3] with c3 or c2 nonzero
    on each fiber.  Returns (fiber_index_array, x_array), each root once.

    The floors a1 <= a2 of the critical points cut [-xcap, xcap] into the
    integer pieces [-xcap, a1], [a1 + 1, a2] and [a2 + 1, xcap], on each of
    which the fiber is strictly monotone, so a piece holds at most one root.
    A lower-bound integer bisection finds it and an exact zero proves it.
    The dtypes come from ``int_dtype``: for the critical points that of
    4 M^2, M the largest |c1|, |c2|, |c3|, which bounds the discriminant,
    and for the bisection that of the fiber polynomials at |x| <= xcap + 1.
    """
    lead = np.where(c[3] != 0, c[3], c[2])
    sign = np.where(lead < 0, -1, 1)
    c = [a * sign for a in c]   # same roots, lead > 0
    dt = int_dtype([(4, 2)], max(map(absmax, c[1:])))
    c1, c2, c3 = (a.astype(dt, copy=False) for a in c[1:])
    cubic = c3 != 0
    # p' = 3 c3 x^2 + 2 c2 x + c1 has roots (-c2 +- sqrt(D)) / (3 c3), or
    # -c1 / (2 c2) for a quadratic; with s = isqrt(D) the floor of the lower
    # root is (-c2 - s - 1) // (3 c3) unless D is a square
    D = c2 * c2 - 3 * c3 * c1
    two = cubic & (D > 0)
    s = _isqrt(np.where(two, D, 0))
    den = np.where(cubic, 3 * c3, 2 * c2)
    a1 = np.where(cubic, -c2 - s - (s * s != D).astype(dt), -c1) // den
    a2 = np.where(cubic, -c2 + s, -c1) // den
    # a cubic with at most one critical point is monotone on the whole box
    a1, a2 = (np.clip(np.where(cubic & ~two, xcap, a), -xcap - 1, xcap).astype(np.int64)
              for a in (a1, a2))

    dt = int_dtype([(absmax(a), k) for k, a in enumerate(c)], xcap + 1)
    c = [a.astype(dt, copy=False) for a in c]
    n = len(a1)
    fib = np.tile(np.arange(n), 3)
    lo = np.concatenate([np.full(n, -xcap), a1 + 1, a2 + 1])
    hi = np.concatenate([a1, a2, np.full(n, xcap)])
    live = lo <= hi
    fib, lo, hi = fib[live], lo[live], hi[live]
    c = [a[fib] for a in c]
    plo, phi = _horner(c, lo), _horner(c, hi)
    # keep the pieces with 0 between their ends, each turned increasing
    keep = np.sign(plo) * np.sign(phi) <= 0
    fib, lo, hi = fib[keep], lo[keep], hi[keep]
    turn = np.where(plo[keep] > phi[keep], -1, 1)
    c = [a[keep] * turn for a in c]
    # least x in [lo, hi] with p(x) >= 0, given p(hi) >= 0: steps of 2^k,
    # k descending, move ``below`` up while p stays < 0 there, and together
    # they span 2 xcap, the longest piece
    below = lo - 1
    for k in reversed(range((2 * xcap).bit_length())):
        x = np.minimum(below + (1 << k), hi)
        below = np.where(_horner(c, x) < 0, x, below)
    root = _horner(c, below + 1) == 0
    return fib[root], below[root] + 1


def _solve_fibers(coeffs, rest, var, prefix_arrays, xcap):
    """All integer values x of ``var`` with |x| <= xcap on the given prefix
    fibers that solve the solve form, whose coefficients ``coeffs`` come from
    _solve_form_coeffs, and every form in ``rest``.  Returns
    (fiber_index_array, x_array), each solution once, plus the fibers where
    the solve form vanishes identically.  The solve form holds exactly at
    every returned x; only the forms in ``rest`` are evaluated there."""
    c = [int_eval(cp, prefix_arrays) for cp in coeffs]
    c += [np.zeros_like(c[0])] * (4 - len(c))
    c0, c1, c2, c3 = c
    curved = (c3 != 0) | (c2 != 0)
    linear = ~curved & (c1 != 0)
    identically_zero = np.nonzero(~curved & (c1 == 0) & (c0 == 0))[0]

    idx = np.nonzero(curved)[0]
    fib, xs = _monotone_roots([a[idx] for a in c], xcap)
    fibs, xss = [idx[fib]], [xs]
    idx = np.nonzero(linear)[0]
    c0, c1 = c0[idx], c1[idx]
    x = -(c0 // c1)
    exact = (c0 % c1 == 0) & (abs(x) <= xcap)
    fibs.append(idx[exact])
    xss.append(x[exact].astype(np.int64))
    fib, xs = np.concatenate(fibs), np.concatenate(xss)
    if rest and len(fib):
        arrays = {k: v[fib] for k, v in prefix_arrays.items()}
        arrays[var] = xs
        ok = _vanish(rest, arrays)
        fib, xs = fib[ok], xs[ok]
    return fib, xs, identically_zero


def _fiber_points(rest, coeffs, names, var, prefix, xcap):
    """Every integer solution with |var| <= xcap over the prefix fibers, as
    rows in ``names`` order, each solution once.  ``coeffs`` and ``rest``
    split the system as _solve_form_coeffs does."""
    n = len(next(iter(prefix.values())))
    if coeffs is None:
        fib = xs = np.empty(0, dtype=np.int64)
        ident = np.arange(n)
    else:
        fib, xs, ident = _solve_fibers(coeffs, rest, var, prefix, xcap)
    # fibers where the solve form vanishes identically: try every x, in
    # batches of at most CHUNK_FIBERS (fiber, x) pairs
    xr = np.arange(-xcap, xcap + 1, dtype=np.int64)
    step = max(1, CHUNK_FIBERS // len(xr))
    fibs, xss = [fib], [xs]
    for s in range(0, len(ident), step):
        f = np.repeat(ident[s:s + step], len(xr))
        x = np.tile(xr, len(f) // len(xr))
        arrays = {k: v[f] for k, v in prefix.items()}
        arrays[var] = x
        ok = _vanish(rest, arrays)
        fibs.append(f[ok])
        xss.append(x[ok])
    fib, xs = np.concatenate(fibs), np.concatenate(xss)
    rows = np.empty((len(fib), len(names)), dtype=np.int64)
    for j, name in enumerate(names):
        rows[:, j] = xs if name == var else prefix[name][fib]
    return rows


def _lead_sign(rows):
    """Sign of the first nonzero entry of each row of a 2-d array (0 for a
    zero row): ``normalize_primitive_vector``'s sign rule on whole arrays."""
    first = np.argmax(rows != 0, axis=1)
    return np.sign(rows[np.arange(len(rows)), first])


@functools.cache
def _root_table(m):
    """Boolean table over (c0, c1, c2, c3) mod m, True exactly where some
    x mod m makes c0 + c1 x + c2 x^2 + c3 x^3 == 0 mod m.  It depends on m
    alone: each x marks, for every (c1, c2, c3), the one c0 it solves, so a
    table costs m^4 work, once per process."""
    r = np.arange(m)
    # the flat offset of the c0 that cancels c1 x + c2 x^2 + c3 x^3 == s,
    # for s < 3m, the sum of three residues
    c0 = (-np.arange(3 * m) % m) * m ** 3
    rest = np.arange(m ** 3)
    table = np.zeros(m ** 4, dtype=bool)
    for x in range(m):
        a, b, c = (r * x ** k % m for k in (1, 2, 3))
        table[c0[a[:, None, None] + b[:, None] + c].ravel() + rest] = True
    table = table.reshape((m,) * 4)
    table.flags.writeable = False
    return table


def _unique_rows(rows):
    """The distinct rows of a 2-d array in lexicographic order, as
    np.unique(rows, axis=0) gives them, from one lexsort."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _sieve_tables(coeffs, others, nfib):
    """The local-solubility tables of the solve form with coefficients
    ``coeffs`` in the solved variable x (from _solve_form_coeffs), over
    prefixes in the coordinates ``others``: for each m in SIEVE_MODULI,
    (m, table) with a boolean table over the prefix residues (Z/m)^k,
    k = len(others), one axis per coordinate, True where some x mod m makes
    the form 0 mod m.  Every integer root is one mod m, so a prefix whose
    entry is False has no solution on its fiber.

    The coefficients are evaluated once, on [0, M)^k with M the largest
    modulus used, and each table is the gather of _root_table(m) at their
    residues on the corner [0, m)^k, so it costs m^k evaluations.  There are
    no tables for a form of degree below 2 in x, whose fibers the kernel
    solves by one division, as fast as a table lookup.  A modulus is left
    out when its table costs more than it can save, m^k against the nfib
    fibers of the scan (or CHUNK_FIBERS), or when it passes every residue."""
    k = len(others)
    moduli = [m for m in SIEVE_MODULI if m ** k <= min(nfib, CHUNK_FIBERS)]
    if coeffs is None or len(coeffs) < 3 or not moduli:
        return []
    M = max(moduli)
    grid = dict(zip(others, (g.ravel() for g in np.indices((M,) * k))))
    c = [int_eval(cp, grid).reshape((M,) * k) for cp in coeffs]
    c += [np.zeros_like(c[0])] * (4 - len(c))
    tables = []
    for m in moduli:
        # int64 residues: on Python integers % m gives object entries
        r = tuple((a[(slice(m),) * k] % m).astype(np.int64) for a in c)
        table = _root_table(m)[r]
        if not table.all():
            tables.append((m, table))
    return tables


def _sieved_prefixes(tables, nvars: int, B: int, half: bool = False):
    """Yield lists of int64 arrays, one per coordinate, of the prefixes in
    [-B, B]^nvars whose residues pass every table of ``_sieve_tables``.
    With ``half`` only the nonzero vectors whose first nonzero coordinate is
    positive are covered.  The survivors of consecutive chunks are joined
    while a batch stays within SIEVE_BATCH prefixes; one chunk is never
    split.

    The grid is never materialized: outer coordinates are looped in Python,
    one chunk per value, over a fixed inner grid.  The flat residue index of
    that grid mod m is computed once per call and table; the mask of a chunk
    under a table is one gather through it at the chunk's outer residues.
    No mask is kept from one chunk to the next.  Beside the inner grid
    (width^inner <= CHUNK_FIBERS entries when inner > 1) and the masks of one
    chunk, the call holds one index of that grid per table, at most 2 bytes
    an entry while m^inner < 2^16.
    """
    if half and nvars == 0:
        return
    rng = np.arange(-B, B + 1, dtype=np.int64)
    width = 2 * B + 1
    inner = nvars
    while inner > 1 and width ** inner > CHUNK_FIBERS:
        inner -= 1
    outer = nvars - inner
    inner_flat = [g.ravel() for g in np.meshgrid(*([rng] * inner), indexing="ij")]
    if half:
        inner_half = _lead_sign(np.stack(inner_flat, axis=1)) > 0
    # the flat residue index of the inner grid mod each m, in the least
    # unsigned dtype that holds it (take reads it as fast as int64)
    index = [np.ravel_multi_index([a % m for a in inner_flat], (m,) * inner)
             .astype(np.min_scalar_type(m ** inner)) for m, _ in tables]
    batch, batched = [], 0

    def joined():
        return batch[0] if len(batch) == 1 else [np.concatenate(a) for a in zip(*batch)]

    for combo in it.product(rng.tolist(), repeat=outer):
        lead = next((v for v in combo if v), 0)
        if half and lead < 0:
            continue
        keep = inner_half if half and lead == 0 else None
        for (m, table), ix in zip(tables, index):
            mask = table[tuple(v % m for v in combo)].take(ix)
            keep = mask if keep is None else np.logical_and(keep, mask, out=mask)
        sel = slice(None) if keep is None else np.flatnonzero(keep)
        cols = [a[sel] for a in inner_flat]
        if batched + len(cols[0]) > SIEVE_BATCH and batched:
            yield joined()
            batch, batched = [], 0
        batch.append([np.full(len(cols[0]), v, dtype=np.int64) for v in combo] + cols)
        batched += len(cols[0])
    if batched:
        yield joined()


def _box_rows(forms, names, var, B: int, half: bool):
    """Yield the integer solutions of the system in the box [-B, B]^n as
    int64 rows in ``names`` order, one batch at a time, each solution once.
    ``var`` is solved exactly per fiber over the prefixes, the other
    coordinates.  With ``half`` only the prefixes whose first nonzero entry
    is positive are scanned."""
    forms = [restrict(f, names) for f in forms]
    if any(f.is_zero() for f in forms):
        raise DomainError("zero form in the system")
    forms = [f.rational_content()[1] for f in forms]
    others = [n for n in names if n != var]
    coeffs, rest = _solve_form_coeffs(forms, var)
    nfib = (2 * B + 1) ** len(others)
    tables = _sieve_tables(coeffs, others, nfib // 2 if half else nfib)
    for prefix in _sieved_prefixes(tables, len(others), B, half=half):
        yield _fiber_points(rest, coeffs, names, var, dict(zip(others, prefix)), B)


def enumerate_projective(forms, names, B, budget: float | None = None,
                         solve_var: str | None = None) -> CountResult:
    """All points of P^n(Q) on the common zero locus with height <= B.

    ``forms`` must be homogeneous (DomainError otherwise) and may be empty
    (the whole projective space).  The last variable is solved exactly per
    fiber unless ``solve_var`` overrides it.  Since f(-v) = +-f(v), only the
    prefixes (the other coordinates) whose first nonzero entry is positive
    are scanned, plus the unit point of the solved variable, so each point
    class has one primitive representative in the scan; rows with a common
    factor are dropped, since their primitive part is found in its own fiber.
    """
    names = tuple(names)
    B = int(B)
    if B < 1:
        raise DomainError("B must be >= 1")
    _check_budget(len(names), B, budget)
    forms = [restrict(f, names) for f in forms]
    for f in forms:
        if not f.is_homogeneous():
            raise DomainError(f"form is not homogeneous: {f}")
    var = solve_var or names[-1]
    # the zero prefix holds one point class, the unit point of var
    unit = np.array([[int(n == var) for n in names]], dtype=np.int64)
    found = [unit if all(f.evaluate(unit[0].tolist()) == 0 for f in forms) else unit[:0]]
    for rows in _box_rows(forms, names, var, B, half=True):
        rows = rows[np.gcd.reduce(np.abs(rows), axis=1) == 1]
        rows *= _lead_sign(rows)[:, None]
        found.append(rows)
    # each point class is found once; _unique_rows only sorts the rows
    pts = _unique_rows(np.concatenate(found))
    return CountResult(len(pts), tuple(zip(*pts.T.tolist())), True)


def enumerate_affine(forms, names, B, budget: float | None = None,
                     norm: str = "euclidean") -> CountResult:
    """Integer points on the affine locus inside the euclidean ball of radius
    B (default) or the max-norm box: the box of side floor(B), its rows cut
    to the ball by the exact test sum x_i^2 <= floor(B^2)."""
    names = tuple(names)
    if len(names) < 2:
        raise DomainError("affine enumeration expects at least two coordinates")
    if B < 0:
        raise DomainError("B must be >= 0")
    if norm not in ("euclidean", "max"):
        raise DomainError("norm must be 'euclidean' or 'max'")
    _check_budget(len(names) + 1, B, budget)
    B2 = int(math.floor(B * B))
    found = [np.empty((0, len(names)), dtype=np.int64)]
    for rows in _box_rows(forms, names, names[-1], int(math.floor(B)), half=False):
        found.append(rows if norm == "max" else rows[(rows * rows).sum(axis=1) <= B2])
    pts = _unique_rows(np.concatenate(found))
    return CountResult(len(pts), tuple(zip(*pts.T.tolist())), True)


# --- conic points, recounted through the chord parameterization --------------------


def conic_points(Q: MultiPoly, ell: MultiPoly, B) -> CountResult:
    """Rational points of height <= B on the conic V(ell, Q) in P^3.

    Brute enumeration solves the plane form's pivot coordinate per fiber.
    When the conic is smooth and has a point of height <= BASE_SEARCH, the
    chords through that point recount it over a certified parameter region,
    and the two counts must agree; otherwise the note names the guard that
    refused.
    """
    Q = restrict(Q, T4).rational_content()[1]
    ell = restrict(ell, T4).rational_content()[1]
    piv = T4[min(e.index(1) for e in ell.terms)]
    brute = enumerate_projective([ell, Q], T4, B, solve_var=piv)
    fast = _conic_points_parameterized(Q, ell, B)
    if isinstance(fast, str):
        note = f"brute ({fast}; acceleration skipped)"
    elif set(fast) != set(brute.points):
        raise AssertionError("accelerated conic enumeration disagrees with brute force")
    else:
        note = "brute + parameterization agree"
    return CountResult(brute.count, brute.points, True, note)


def _conic_points_parameterized(Q, ell, B):
    """Points of height <= B on the conic of the primitive integer forms Q
    and ell, from the chords through its base point P, the point of least
    height (then least tuple) up to BASE_SEARCH.  When a guard refuses, the
    reason instead: the conic is singular, it has no such point, or no pair
    of coordinates is coprime.

    With c the coefficients of ell, any column j with c_j != 0 and any other
    column f0 with P_f0 != 0 leave two columns f, and the vectors
    w_f = c_j e_f - c_f e_j lie in the plane and span it with P (P_f0 != 0
    keeps P out of their span).  The chord through P in direction
    W = s w1 + u w2 meets the conic again at X = Q(W) P - polar(P, W) W,
    polar(x, y) = Q(x + y) - Q(x) - Q(y), which is P itself when W is
    tangent, so every point is X at one primitive (s, u) with s >= 0.  Each
    coordinate of X is a binary quadratic in (s, u), and the Bezout cutoff c
    of a coprime pair of them bounds max(|s|, |u|)^2 by H(X) / c.  The cutoff
    depends on the choice of (j, f0), so the largest one is kept.
    """
    c = [int(ell.coefficient(tuple(int(i == k) for i in range(4)))) for k in range(4)]
    # the conic is smooth iff the Gram matrix of Q bordered by c is invertible
    if det([g + [ci] for g, ci in zip(gram_matrix_doubled(Q), c)] + [c + [0]]) == 0:
        return "singular conic"
    piv = next(k for k in range(4) if c[k])
    found = enumerate_projective([ell, Q], T4, BASE_SEARCH, solve_var=T4[piv]).points
    if not found:
        return "no small base point"
    P = min(found, key=lambda p: (max(map(abs, p)), p))

    def q(x):
        return int(Q.evaluate(x))

    def polar(x, y):
        return q([a + b for a, b in zip(x, y)]) - q(x) - q(y)

    best = None
    for j, f0 in it.permutations(range(4), 2):
        if not (c[j] and P[f0]):
            continue
        w1, w2 = ([c[j] * (i == f) - c[f] * (i == j) for i in range(4)]
                  for f in range(4) if f not in (j, f0))
        q11, q12, q22 = q(w1), polar(w1, w2), q(w2)
        b1, b2 = polar(P, w1), polar(P, w2)
        # X = s^2 (q11 P - b1 w1) + s u (q12 P - b1 w2 - b2 w1) + u^2 (q22 P - b2 w2)
        rows = [[q11 * p - b1 * x, q12 * p - b1 * y - b2 * x, q22 * p - b2 * y]
                for p, x, y in zip(P, w1, w2)]
        cut = bezout_cutoff(rows, 2)
        if cut and (best is None or cut[0] > best[0]):
            best = cut[0], rows
    if best is None:
        return "no coprime pair of coordinates"
    cut, rows = best
    _, blocks = bounded_height_pairs(rows, 2, cut, B)
    pts = set()
    for pairs, _ in blocks:
        for s, u in pairs.tolist():
            X = [r[0] * s * s + r[1] * s * u + r[2] * u * u for r in rows]
            pts.add(normalize_primitive_vector(X)[0])
    return tuple(sorted(pts))


# --- experiments ------------------------------------------------------------------------


def homogenize(f: MultiPoly) -> MultiPoly:
    """Projective closure form in T0..T3 of an affine polynomial in T1..T3."""
    f = restrict(f, T4[1:])
    d = f.total_degree()
    out = {}
    for e, c in f.terms.items():
        out[(d - sum(e),) + e] = c
    return MultiPoly(T4, out)


def points_on_lines(points, lines):
    """Subset of points lying on any of the given lines (exact)."""
    points = list(points)
    if not points or not lines:
        return set()
    arrays = dict(zip(T4, np.array(points, dtype=np.int64).T))
    on = np.zeros(len(points), dtype=bool)
    for rl in lines:
        u, v = (g.rational_content()[1] for g in (rl.line.u, rl.line.v))
        on |= _vanish([u, v], arrays)
    return {p for p, hit in zip(points, on.tolist()) if hit}


def _fit_exponent(Bs, counts):
    pairs = [(math.log(b), math.log(c)) for b, c in zip(Bs, counts) if c > 0]
    if len(pairs) < 2:
        return None, None
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return float(slope), resid


def _offline_census(kind, B_list, res, online, size, constants):
    """The keys both conic experiments report.  ``res`` holds the points up
    to the largest bound and ``online`` those of them on lines; an off-line
    point p counts at B when size(p) <= size((B,)), an exact integer test.
    The counts are fitted and set against the paper's overlay for ``kind``."""
    offline = [size(p) for p in res.points if p not in online]
    counts = [sum(s <= size((Bv,)) for s in offline) for Bv in B_list]
    bounds = [bound_evaluator(kind, {"B": Bv}, constants) for Bv in B_list]
    slope, resid = _fit_exponent(B_list, counts)
    return {
        "B_list": B_list,
        "counts": counts,
        "total_points": res.count,
        "on_line_points": len(online),
        "fitted_exponent": slope,
        "fit_max_residual": resid,
        "overlay_exponent": bound_exponent(kind),
        "overlay_bounds": bounds,
        "proxy_note": "off-line points; conic-membership proxy without multiplicity",
    }


def _height(p):
    return max(map(abs, p))


def _norm2(p):
    return sum(c * c for c in p)


def points_on_conics_experiment(surface, lines, B_list,
                                constants: ExternalConstants | None = None,
                                budget: float | None = None) -> dict:
    """Off-line rational point counts on a cubic surface at each height bound.

    Every off-line point lies on the residual conic of the plane it spans
    with a line, so the off-line census is the conic-covered census; this is
    the membership proxy (covering multiplicity is not tracked).
    """
    B_list = sorted(int(b) for b in B_list)
    if not B_list:
        return {"B_list": [], "counts": [], "fitted_exponent": None}
    res = enumerate_projective([surface.f], T4, max(B_list), budget=budget)
    out = _offline_census("conics-rational", B_list, res, points_on_lines(res.points, lines),
                          _height, constants or ExternalConstants())
    out["bound_satisfied"] = [c <= b for c, b in zip(out["counts"], out["overlay_bounds"])]
    return out


def integral_conics_experiment(f_affine: MultiPoly, B_list,
                               lines=None,
                               constants: ExternalConstants | None = None,
                               budget: float | None = None) -> dict:
    """Integral off-line point counts in the euclidean ball for an affine
    cubic surface, with the trivial-bound audit on every result."""
    B_list = sorted(int(b) for b in B_list)
    if not B_list:
        return {"B_list": [], "counts": [], "fitted_exponent": None}
    res = enumerate_affine([f_affine], ("T1", "T2", "T3"), max(B_list), budget=budget)
    online = ({p[1:] for p in points_on_lines([(1,) + p for p in res.points], lines)}
              if lines else set())
    out = _offline_census("conics-integral", B_list, res, online, _norm2,
                          constants or ExternalConstants())
    totals = [sum(_norm2(p) <= Bv * Bv for p in res.points) for Bv in B_list]
    delta = f_affine.total_degree()
    out["trivial_bound_ok"] = [t <= delta * (2 * Bv + 1) ** 2 for t, Bv in zip(totals, B_list)]
    return out
