import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubiconics import linalg
from cubiconics.linalg import (_ROW_PRIME, _integer_rows, _kernel_basis, exact_kernel,
                              rank, rank_mod_p)

# both above 2^31, so both take the Python-integer path of ``int_dtype``
LARGE_PRIMES = (2147483659, 2 ** 61 - 1)


def test_rank_mod_large_prime_matches_exact_rank():
    rng = random.Random(3)
    for p in LARGE_PRIMES:
        for r in range(1, 6):
            M = _low_rank(rng, 6, 7, r, 81, rational=False)
            # adding multiples of p, of both signs, leaves the matrix mod p alone
            shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in M]
            got, pivots, free = rank_mod_p(shifted, p)
            assert got == rank(M, 7) == len(pivots)
            assert sorted(pivots + free) == list(range(7))
        # a minor divisible by p drops the rank modulo p only
        assert rank_mod_p([[1, 0], [0, 3 * p]], p)[0] == 1
        assert rank([[1, 0], [0, 3 * p]], 2) == 2


def _rank_mod_p_by_python(rows, p):
    """Rank modulo p by plain Gaussian elimination on Python integers."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_mod_p_on_both_sides_of_the_int64_switch(monkeypatch):
    # residues below p multiply to below p^2, which stays below 2^62 for
    # the largest prime below 2^31 and not for the smallest one above it
    seen, int_dtype = [], linalg.int_dtype

    def recorded(terms, X):
        seen.append(int_dtype(terms, X))
        return seen[-1]

    monkeypatch.setattr(linalg, "int_dtype", recorded)
    rng = random.Random(8)
    for p, dtype in ((2 ** 31 - 1, np.int64), (2 ** 31 + 11, object)):
        for r in range(1, 6):
            # r rows of residues near p, and combinations of them mod p
            M = [[p - 1 - rng.randrange(1000) for _ in range(7)] for _ in range(r)]
            for _ in range(6 - r):
                c = [rng.randrange(p) for _ in range(r)]
                M.append([sum(a * x for a, x in zip(c, col)) % p for col in zip(*M[:r])])
            got = rank_mod_p(np.array(M, dtype=object), p)[0]
            assert seen[-1] is dtype and got == _rank_mod_p_by_python(M, p) == r


def _rref(rows, ncols):
    """Reduced row echelon form over Q by plain Gauss-Jordan elimination in
    Fractions: its nonzero rows and their pivot columns."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def fraction_kernel(rows, ncols):
    """Kernel basis from the RREF: a 1 in one free column, 0 in the others."""
    R, pivots = _rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(ncols)]
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def fraction_solve(rows, rhs_cols, ncols):
    """x with A x = b for each column b, free variables 0, from the RREF of
    the augmented matrix; None when some system is inconsistent."""
    aug = [list(r) + [b[i] for b in rhs_cols] for i, r in enumerate(rows)]
    R, pivots = _rref(aug, ncols + len(rhs_cols))
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for j in range(len(rhs_cols)):
        x = [Fraction(0)] * ncols
        for row, pc in zip(R, pivots):
            x[pc] = row[ncols + j]
        sols.append(x)
    return sols


def _low_rank(rng, nrows, ncols, r, size, rational):
    """A random nrows x ncols matrix of rank at most r whose entries reach
    about size; with ``rational`` its rows are divided by random integers."""
    s = int(size ** 0.5)
    A = [[rng.randint(-s, s) for _ in range(r)] for _ in range(nrows)]
    B = [[rng.randint(-s, s) for _ in range(ncols)] for _ in range(r)]
    M = [[sum(A[i][k] * B[k][j] for k in range(r)) for j in range(ncols)]
         for i in range(nrows)]
    if rational:
        M = [[Fraction(x, den) for x in row]
             for row, den in ((row, rng.randint(1, 97)) for row in M)]
    return M


@pytest.mark.parametrize("size", [9, 10 ** 6, 10 ** 12])
def test_kernel_and_rank_match_gauss_jordan(size):
    rng = random.Random(size)
    for trial in range(100):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(nrows, ncols) - (nrows == ncols))
        M = _low_rank(rng, nrows, ncols, r, size, rational=trial % 10 < 3)
        want = fraction_kernel(M, ncols)
        assert exact_kernel(M, ncols) == want
        assert len(want) == ncols - rank(M, ncols)


def test_integer_rows_on_mixed_entries():
    rng = random.Random(5)
    for _ in range(200):
        rows = [[rng.choice((lambda v: v, np.int64, lambda v: Fraction(v, rng.randint(1, 10 ** 6)),
                             lambda v: Fraction(v, rng.choice((1, 6, 2 ** 70)))))(
                     rng.randint(-10 ** 12, 10 ** 12))
                 for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 4))]
        out, scale = _integer_rows(rows)
        exact = [[x if type(x) is Fraction else Fraction(int(x)) for x in r] for r in rows]
        dens = [math.lcm(*(x.denominator for x in r)) for r in exact]
        assert out == [[int(x * d) for x in r] for r, d in zip(exact, dens)]
        assert all(type(x) is int for r in out for x in r)
        assert scale == math.prod(dens)


def test_exact_kernel_on_independent_rows_matches_full_echelon():
    rng = random.Random(13)
    for nrows, ncols, r in ((12, 5, 3), (30, 8, 8), (40, 10, 6), (9, 7, 1), (20, 6, 0)):
        M = _low_rank(rng, nrows, ncols, r, 81, rational=False)
        want = fraction_kernel(M, ncols)
        assert exact_kernel(M, ncols) == _kernel_basis(M, ncols) == want
        assert len(want) == ncols - rank(M, ncols)


def test_exact_kernel_falls_back_when_p_divides_a_minor():
    # a row scaled by p vanishes mod p: the rows independent mod p span a
    # smaller space than all rows, and their kernel vector fails the check
    p = _ROW_PRIME
    rng = random.Random(17)
    u, w = [1, 2, 3], [0, 1, -1]
    M = [[a * x + b * y for x, y in zip(u, w)]
         for a, b in ((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5))]
    M.insert(2, [p * 1, p * 0, p * 2])
    assert rank_mod_p(M, p)[0] == 2 and rank(M, 3) == 3
    assert exact_kernel(M, 3) == _kernel_basis(M, 3) == fraction_kernel(M, 3) == []
