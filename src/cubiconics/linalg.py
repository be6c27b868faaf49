"""Exact linear algebra over Z and Q, ranks modulo a prime, and the
primitive normal form of a rational vector.

Every exact routine reads one fraction-free echelon form of an integer
matrix (Bareiss, Math. Comp. 22 (1968)).  The same elimination runs on
polynomial entries, where it gives ``multipoly.det_poly``: Bareiss's update
is the same over Z and over Q[x], only the exact division and the measure
of a pivot's size differ.  Rational rows are first scaled to integers,
which changes neither the row space nor the pivot columns, and every
division in the elimination is exact, so ranks, pivot columns, kernels and
determinants are certified.  A kernel basis vector is the unique one with a
1 in one free column and 0 in the others; A x = b is solved by the kernel
of [A | -b].  ``normalize_primitive_vector`` is the one rule for primitive
integer representatives, ``int_dtype`` the one int64 rule of the array
kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DomainError

_ROW_PRIME = (1 << 30) - 35  # prime below 2^30: products fit int64


def int_dtype(terms, X):
    """The dtype that evaluates a sum of terms c * x^k, given as pairs (c, k),
    exactly at integer entries |x| <= X: np.int64 when sum |c| * X^k < 2^62,
    so no product or partial sum wraps, object (Python integers) otherwise."""
    return np.int64 if sum(abs(int(c)) * X ** k for c, k in terms) < 1 << 62 else object


def _integer_rows(rows):
    """The rows scaled to integers by the lcm of each row's denominators,
    and the product of those multipliers.  Entries are Fractions or
    integers (Python or numpy); the scaling stays in Python integers.

    No gcd is divided out, unlike ``normalize_primitive_vector``: ``det``
    needs the exact scale of each row."""
    out, scale = [], 1
    for r in rows:
        den = lcm(*(x.denominator for x in r if type(x) is Fraction))
        out.append([x.numerator * (den // x.denominator) if type(x) is Fraction
                    else int(x) * den for x in r])
        scale *= den
    return out, scale


def normalize_primitive_vector(coords):
    """(ints, scalar) with coords == scalar * ints, for a nonzero vector of
    ints, Fractions or numpy integers: ints is a tuple of coprime Python
    integers whose first nonzero entry is positive.  A zero vector raises
    DomainError."""
    den = lcm(*(c.denominator for c in coords))
    ints = [int(c.numerator) * (den // c.denominator) for c in coords]
    g = gcd(*ints)
    if not g:
        raise DomainError("zero vector has no primitive representative")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints), Fraction(g, den)


def _echelon(rows, ncols, size=abs):
    """Fraction-free (division-exact) echelon form of a matrix of integers
    or of polynomials (``MultiPoly``, whose ``//`` is exact division).

    Each column's pivot is an entry of least ``size``, to limit entry swell:
    the magnitude for integers, the term count for polynomials.
    Returns (echelon rows, pivot column list, sign of the row permutation).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    prev = 1
    rank = 0
    sign = 1
    pivots = []
    for col in range(ncols):
        piv, best = None, None
        for i in range(rank, nrows):
            v = m[i][col]
            if v:
                a = size(v)
                if best is None or a < best:
                    best, piv = a, i
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pr = m[rank][col]
        for i in range(rank + 1, nrows):
            if not any(m[i][col:]):
                continue
            vi = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * pr - vi * m[rank][j]) // prev
            m[i][col] = 0
        prev = pr
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots, sign


def rank(rows, ncols: int) -> int:
    """Rank over Q of a matrix of integers or Fractions."""
    return len(_echelon(_integer_rows(rows)[0], ncols)[1])


def exact_kernel(rows, ncols=None):
    """Exact rational basis of the right kernel of an integer/rational
    matrix; every basis vector is verified against the input.

    A matrix with more rows than columns is echelonned only on its rows
    that are independent modulo a word-size prime: the pivot columns of its
    transpose mod p, its row rank profile (Dumas, Pernet and Sultan, ISSAC
    2013).  When its rank mod p is its rank over Q, those rows span its row
    space and give the same basis.  A basis vector that some row does not
    annihilate means p divides a minor; then all rows are echelonned.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    int_rows = _integer_rows(rows)[0]
    if len(rows) > ncols:
        tall = np.array([r[:ncols] for r in int_rows], dtype=object)
        keep = rank_mod_p(tall.T, _ROW_PRIME)[1]
        basis = _kernel_basis([int_rows[i] for i in keep], ncols)
        if all(annihilates(rows, v) for v in basis):
            return basis
    basis = _kernel_basis(int_rows, ncols)
    for v in basis:
        if not annihilates(rows, v):
            raise AssertionError("kernel verification failed")
    return basis


def _kernel_basis(int_rows, ncols):
    """The kernel basis read from the echelon form of the integer rows: a 1
    in one free column and 0 in the others.

    With Delta the last pivot, the minor of full rank on the pivot columns,
    the back substitution solves for y = Delta * v, which is integral by
    Cramer's rule, so every division is exact; Fractions appear only in the
    returned vectors."""
    ech, pivots, _ = _echelon(int_rows, ncols)
    delta = ech[-1][pivots[-1]] if pivots else 1
    basis = []
    for c in sorted(set(range(ncols)) - set(pivots)):
        y = [0] * ncols
        y[c] = delta
        for row, pc in zip(reversed(ech), reversed(pivots)):
            s = sum(row[j] * y[j] for j in range(pc + 1, ncols) if row[j] and y[j])
            y[pc] = -s // row[pc]
        basis.append([Fraction(x, delta) for x in y])
    return basis


def annihilates(rows, v) -> bool:
    """Whether every row has zero dot product with the rational vector v.

    The check runs on the primitive integer multiple of v, over its nonzero
    entries only, so integer rows stay in integer arithmetic.
    """
    w = [(j, x) for j, x in enumerate(normalize_primitive_vector(v)[0]) if x]
    return all(sum(r[j] * x for j, x in w) == 0 for r in rows)


def det(rows) -> Fraction:
    """Determinant of a square matrix of integers or Fractions."""
    if not rows:
        return Fraction(1)
    int_rows, scale = _integer_rows(rows)
    ech, pivots, sign = _echelon(int_rows, len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    # the last Bareiss pivot is the determinant of the row-permuted matrix
    return Fraction(sign * ech[-1][-1], scale)


def rank_mod_p(rows, p: int):
    """(rank, pivot columns, free columns) of an integer matrix modulo the
    prime p.

    Residues are below p, so every product and difference of them is below
    p^2: the dtype is ``int_dtype([(1, 2)], p)``, int64 for p < 2^31.
    """
    dtype = int_dtype([(1, 2)], p)
    m = np.asarray(rows)  # int64, or object when an entry overflows int64
    m = ((m if dtype is np.int64 else m.astype(object)) % p).astype(dtype, copy=False)
    nrows, ncols = m.shape
    rank = 0
    pivots = []
    for col in range(ncols):
        nz = np.nonzero(m[rank:, col])[0]
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        row = m[rank, col:] * inv % p
        # only the rows below the pivot are reduced: the echelon form gives
        # the rank and the pivot columns
        nzr = rank + 1 + np.nonzero(m[rank + 1:, col])[0]
        if len(nzr):
            m[nzr, col:] = (m[nzr, col:] - np.outer(m[nzr, col], row)) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    pivset = set(pivots)
    return rank, pivots, [c for c in range(ncols) if c not in pivset]
