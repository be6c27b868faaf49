import random

from cubiconics.linalg import (_ROW_PRIME, _kernel_basis, exact_kernel, rank,
                              rank_mod_p)

# 2^31 + 11 still runs in int64; (2^61 - 2)^2 overflows int64, so the
# Mersenne prime 2^61 - 1 takes the Python-integer path
LARGE_PRIMES = (2147483659, 2 ** 61 - 1)


def test_rank_mod_large_prime_matches_exact_rank():
    rng = random.Random(3)
    for p in LARGE_PRIMES:
        for r in range(1, 6):
            A = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(6)]
            B = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(r)]
            M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
            # adding multiples of p, of both signs, leaves the matrix mod p alone
            shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in M]
            got, pivots, free = rank_mod_p(shifted, p)
            assert got == rank(M, 7) == len(pivots)
            assert sorted(pivots + free) == list(range(7))
        # a minor divisible by p drops the rank modulo p only
        assert rank_mod_p([[1, 0], [0, 3 * p]], p)[0] == 1
        assert rank([[1, 0], [0, 3 * p]], 2) == 2


def _tall(rng, nrows, ncols, r):
    """A random integer matrix of rank at most r, with more rows than
    columns."""
    A = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(nrows)]
    B = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(r)]
    return [[sum(A[i][k] * B[k][j] for k in range(r)) for j in range(ncols)]
            for i in range(nrows)]


def test_exact_kernel_on_independent_rows_matches_full_echelon():
    rng = random.Random(13)
    for nrows, ncols, r in ((12, 5, 3), (30, 8, 8), (40, 10, 6), (9, 7, 1), (20, 6, 0)):
        M = _tall(rng, nrows, ncols, r)
        want = _kernel_basis(M, ncols)
        assert exact_kernel(M, ncols) == want
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
    assert exact_kernel(M, 3) == _kernel_basis(M, 3) == []
