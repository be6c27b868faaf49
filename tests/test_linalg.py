import random

from cubiconics.linalg import rank, rank_mod_p

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
