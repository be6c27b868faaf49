import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from cubiconics.cayley import PLUCKER, grassmann_relation
from cubiconics.errors import BudgetError, DomainError
from cubiconics.exactarith import (GFContext, bertrand_prime, factorize,
                                   ff_factor_linear, gf_context, gf_eval,
                                   mertens_check,
                                   prime_sum_over_divisors, primes_up_to,
                                   proj_points, reduce_mod_p, theta_psi_phi)
from cubiconics.hilbert_samuel import is_geometrically_integral_quadratic
from cubiconics.multipoly import MultiPoly, monomials_of_degree, restrict


def naive_primes(n):
    return [p for p in range(2, n + 1)
            if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def test_primes_up_to_against_naive_sieve():
    assert primes_up_to(1) == ()
    assert primes_up_to(10) == (2, 3, 5, 7)
    t30 = primes_up_to(30)
    assert len(t30) == 10 and t30[-1] == 29
    for bound in (0, 2, 97, 541):
        assert list(primes_up_to(bound)) == naive_primes(bound)


def test_theta_psi_phi_small_values():
    assert theta_psi_phi(1) == (0.0, 0.0, 0.0)
    th, ps, ph = theta_psi_phi(10)
    # direct summation oracle
    th_direct = sum(math.log(p) for p in (2, 3, 5, 7))
    ps_direct = sum(math.log(p) / p for p in (2, 3, 5, 7))
    ph_direct = sum(math.log(p) / p ** 1.5 for p in (2, 3, 5, 7))
    assert abs(th - th_direct) < 1e-12
    assert abs(ps - ps_direct) < 1e-12
    assert abs(ph - ph_direct) < 1e-12
    assert abs(th - 5.3471) < 5e-4
    assert abs(ps - 1.3127) < 5e-4


def test_theta_psi_phi_monotone_and_chebyshev_range():
    xs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    prev = (0.0, 0.0, 0.0)
    for x in xs:
        cur = theta_psi_phi(x)
        assert all(c >= p for c, p in zip(cur, prev))
        assert 0.8 <= cur[0] / x <= 1.2
        prev = cur


def test_mertens_check():
    one = mertens_check(2, 1.0)
    assert one["samples"] >= 1
    r4 = mertens_check(1e4, 10.0)
    assert r4["sup_abs_dev"] < 2.0
    r6 = mertens_check(1e6, 100.0)
    assert r6["sup_abs_dev"] <= r4["sup_abs_dev"] + 0.05


def test_prime_sum_over_divisors():
    r2 = prime_sum_over_divisors(2)
    assert abs(r2.value - math.log(2) / 2) < 1e-12 and r2.within_bound
    r12 = prime_sum_over_divisors(12)
    assert abs(r12.value - 0.7128) < 5e-4
    assert abs(r12.bound - 2.9104) < 5e-4
    assert r12.within_bound
    assert prime_sum_over_divisors(-30).value == prime_sum_over_divisors(30).value
    with pytest.raises(DomainError):
        prime_sum_over_divisors(1)


def test_bertrand_prime():
    assert bertrand_prime(2) == 2
    assert bertrand_prime(10) == 7
    assert bertrand_prime(100) == 97
    for R in range(2, 200):
        p = bertrand_prime(R)
        assert R / 2 < p <= R
        # oracle: largest prime in the interval
        cands = [q for q in naive_primes(R) if 2 * q > R]
        assert p == max(cands)


def test_factorize():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(-30) == {2: 1, 3: 1, 5: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(DomainError):
        factorize(0)


def test_ff_factor_linear_examples():
    B2 = ("T0", "T1")
    f = MultiPoly.parse("T0^2 - T1^2", B2)
    factors, _ = ff_factor_linear(f, 3, 1)
    coeffs = sorted(x.coeffs for x in factors)
    assert coeffs == [(1, 1), (1, 2)]  # T0 + T1 and T0 - T1 over F_3

    smooth, _ = ff_factor_linear(MultiPoly.parse("T0^2 + T1^2 + T2^2",
                                                 ("T0", "T1", "T2")), 3, 1)
    assert smooth == []

    lin, ctx2 = ff_factor_linear(MultiPoly.parse("T0", B2), 2, 1)
    assert len(lin) == 1 and lin[0].coeffs == (1, 0)


def test_ff_factor_linear_extension_and_budget():
    B2 = ("T0", "T1")
    # split only over the quadratic extension
    f = MultiPoly.parse("T0^2 + T1^2", B2)
    assert ff_factor_linear(f, 3, 1)[0] == []
    ext, _ = ff_factor_linear(f, 3, 2)
    assert len(ext) == 2
    with pytest.raises(BudgetError):
        ff_factor_linear(f, 101, 3)


def test_ff_factor_multiply_back():
    # the search certifies divisibility by evaluation; multiply the factors
    # it finds back together by hand in GF(5)
    names = ("T0", "T1", "T2")
    f = MultiPoly.parse("T0^2*T1 - T1^3", names)  # T1 (T0-T1) (T0+T1)
    factors, ctx = ff_factor_linear(f, 5, 1)
    assert len(factors) == 3
    product = MultiPoly.constant(1, names)
    for x in factors:
        product = product * _linear_form(x.coeffs, names)
    assert reduce_mod_p(product, 5) == reduce_mod_p(f, 5)


def _canonical_points(q, nvars):
    """P^{nvars-1}(F_q) with first nonzero coordinate 1, by position of the
    leading 1, then lexicographically."""
    return [(0,) * lead + (1,) + t for lead in range(nvars)
            for t in itertools.product(range(q), repeat=nvars - lead - 1)]


def _linear_form(coeffs, names):
    return MultiPoly(names, {tuple(int(j == i) for j in range(len(names))): c
                             for i, c in enumerate(coeffs) if c})


def _divides_mod_p(ell, f, p):
    """Reference test over Q: substitute x_piv = -sum c_j x_j into f and
    require every coefficient of the result to vanish mod p."""
    piv = ell.index(1)
    rest = _linear_form([0 if j == piv else c for j, c in enumerate(ell)], f.names)
    g = f.substitute({f.names[piv]: -rest})
    return all(c % p == 0 for c in g.terms.values())


def _random_cubic(rng, names):
    return MultiPoly(names, {e: rng.randint(-3, 3)
                             for e in monomials_of_degree(len(names), 3)
                             if rng.random() < 0.5})


def _product_of_linear_forms(rng, names):
    out = MultiPoly.constant(1, names)
    for _ in range(3):
        out = out * _linear_form([rng.randint(-2, 2) for _ in names], names)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ff_factor_linear_matches_substitution_over_q(p):
    rng = random.Random(p)
    for nvars in (2, 3, 4):
        names = tuple(f"T{i}" for i in range(nvars))
        for make in (_random_cubic, _random_cubic,
                     _product_of_linear_forms, _product_of_linear_forms):
            f = make(rng, names)
            while not reduce_mod_p(f, p):
                f = make(rng, names)
            factors, _ = ff_factor_linear(f, p, 1)
            want = [ell for ell in _canonical_points(p, nvars) if _divides_mod_p(ell, f, p)]
            assert [x.coeffs for x in factors] == want, (str(f), p)


def test_ff_factor_linear_grid_leaves_the_prime_field():
    # x*y*(x+y) vanishes at every F_2-point of T2 = 0, yet T2 is no factor:
    # a grid of F_2 values alone would accept it
    names = ("T0", "T1", "T2")
    f = MultiPoly.parse("T0^2*T1 + T0*T1^2", names)
    assert all(f.evaluate((x, y, 0)) % 2 == 0 for x in (0, 1) for y in (0, 1))
    factors, _ = ff_factor_linear(f, 2, 1)
    assert [x.coeffs for x in factors] == [(1, 0, 0), (1, 1, 0), (0, 1, 0)]


def test_ff_factor_linear_cubic_splitting_over_f8():
    # x^3 + x + 1 is irreducible over F_2 and has its roots in F_8
    names = ("T0", "T1", "T2")
    f = MultiPoly.parse("T0^3 + T0*T1^2 + T1^3", names)
    assert ff_factor_linear(f, 2, 1)[0] == []
    assert ff_factor_linear(f, 2, 2)[0] == []
    factors, _ = ff_factor_linear(f, 2, 3)
    assert len(factors) == 3
    assert all(x.coeffs[0] == 1 and x.coeffs[1] and x.coeffs[2] == 0 for x in factors)


def _normalized_mod_p(coeffs, p):
    lead = next(c for c in coeffs if c % p)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ff_factor_linear_returns_the_distinct_factors_of_a_product(p):
    # over F_p the linear divisors of l1 l2 l3 are the li themselves, by
    # unique factorization; the search returns each once, in proj_points order
    rng = random.Random(100 + p)
    for nvars in (2, 3, 4):
        names = tuple(f"T{i}" for i in range(nvars))
        order = {pt: k for k, pt in enumerate(_canonical_points(p, nvars))}
        for _ in range(6):
            ells = []
            while len(ells) < 3:
                c = [rng.randrange(p) for _ in names]
                if any(c):
                    ells.append(c)
            f = MultiPoly.constant(1, names)
            for c in ells:
                f = f * _linear_form(c, names)
            want = sorted({_normalized_mod_p(c, p) for c in ells}, key=order.__getitem__)
            factors, _ = ff_factor_linear(f, p, 1)
            assert [x.coeffs for x in factors] == want, (str(f), p)


@pytest.mark.parametrize("p", [3, 7])
def test_ff_factor_linear_conjugate_pair_only_over_the_square_extension(p):
    # -1 is not a square mod 3 or 7, so T0^2 + T1^2 splits into
    # T0 + i T1 and T0 - i T1 over GF(p^2) only
    names = ("T0", "T1", "T2")
    f = MultiPoly.parse("T0^2*T2 + T1^2*T2", names)
    assert [x.coeffs for x in ff_factor_linear(f, p, 1)[0]] == [(0, 0, 1)]
    factors, ctx = ff_factor_linear(f, p, 2)
    # F_p elements keep their codes in GF(p^2), so -1 is p - 1
    roots = [a for a in range(ctx.q) if ctx.mul[a, a] == p - 1]
    assert len(roots) == 2
    assert [x.coeffs for x in factors] == [(1, a, 0) for a in roots] + [(0, 0, 1)]


def test_ff_factor_linear_plucker_quadrics_in_characteristic_2():
    # the hilbert_samuel route: six variables, p = 2, e = 1 and 2
    names = PLUCKER
    G = grassmann_relation()
    assert ff_factor_linear(G, 2, 1)[0] == ff_factor_linear(G, 2, 2)[0] == []
    assert is_geometrically_integral_quadratic(G, 2)
    split = MultiPoly.parse("p01*p13 + p01*p23 + p02*p13 + p02*p23", names)
    factors, _ = ff_factor_linear(split, 2, 1)
    want = [ell for ell in _canonical_points(2, 6) if _divides_mod_p(ell, split, 2)]
    assert [x.coeffs for x in factors] == want == [(1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)]
    assert not is_geometrically_integral_quadratic(split, 2)
    # p01^2 + p01 p02 + p02^2 has its two factors over F_4 only
    conj = MultiPoly.parse("p01^2 + p01*p02 + p02^2", names)
    assert ff_factor_linear(conj, 2, 1)[0] == []
    factors, ctx = ff_factor_linear(conj, 2, 2)
    assert [x.coeffs[:2] for x in factors] == [(1, 2), (1, 3)]
    assert all(x.coeffs[2:] == (0, 0, 0, 0) for x in factors)
    assert not is_geometrically_integral_quadratic(conj, 2)


# sha256 of the JSON list of factor codes (or "budget") for the 14 corpus top
# parts f(0, T1, T2, T3) x p in (2, 3, 5, 7) x e in (1, 2, 3), taken before
# the search decided divisibility by symbolic restriction
CORPUS_TOP_PART_FACTORS = "7e5aaf7802454bb21ae7d3484b0799c0c1e714f454532f01a832c0b0ded5aa7f"


def test_ff_factor_linear_corpus_top_parts_digest(corpus_forms):
    out = []
    for f in corpus_forms:
        top = restrict(f.substitute({"T0": 0}), ("T1", "T2", "T3"))
        for p in (2, 3, 5, 7):
            for e in (1, 2, 3):
                try:
                    out.append([x.coeffs for x in ff_factor_linear(top, p, e)[0]])
                except BudgetError:
                    out.append("budget")
    assert len(out) == 14 * 12 and out.count("budget") == 14
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == CORPUS_TOP_PART_FACTORS


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ff_factor_linear_frobenius_consistency(p):
    # F_p elements keep their codes in GF(p^e): the factors over GF(p^e)
    # with every code below p are exactly the factors over F_p
    rng = random.Random(300 + p)
    for nvars in (2, 3):
        names = tuple(f"T{i}" for i in range(nvars))
        for make in (_random_cubic, _product_of_linear_forms):
            f = make(rng, names)
            while not reduce_mod_p(f, p):
                f = make(rng, names)
            base = [x.coeffs for x in ff_factor_linear(f, p, 1)[0]]
            for e in (2, 3):
                ext = [x.coeffs for x in ff_factor_linear(f, p, e)[0]]
                assert [c for c in ext if max(c) < p] == base, (str(f), p, e)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cubic_with_a_factor_over_the_square_extension_has_one_over_f_p(p):
    # a linear factor ell over F_{p^2} is Frobenius-stable, or ell times its
    # conjugate and the linear cofactor are both defined over F_p
    rng = random.Random(400 + p)
    names = ("T0", "T1", "T2")
    x = [MultiPoly.variable(v, names) for v in names]
    nonsquare = next(n for n in range(1, p) if pow(n, (p - 1) // 2, p) != 1) if p > 2 else 1
    # T0^2 + T0 T1 + T1^2 over F_2, T0^2 - n T1^2 otherwise: a conjugate pair
    pair = (x[0] * x[0] + x[0] * x[1] + x[1] * x[1] if p == 2
            else x[0] * x[0] - x[1] * x[1] * nonsquare)
    split = 0
    for k in range(30):
        if k % 3 == 0:
            f = pair * _linear_form([rng.randint(-2, 2) for _ in names], names)
        elif k % 3 == 1:
            f = _product_of_linear_forms(rng, names)
        else:
            f = _random_cubic(rng, names)
        if not reduce_mod_p(f, p):
            continue
        if ff_factor_linear(f, p, 2)[0]:
            split += 1
            assert ff_factor_linear(f, p, 1)[0], (str(f), p)
    assert split >= 10


def test_ff_factor_linear_domain_errors():
    B2 = ("T0", "T1")
    with pytest.raises(DomainError):
        ff_factor_linear(MultiPoly.parse("5*T0^2 + 5*T1^2", B2), 5, 1)
    with pytest.raises(DomainError):
        ff_factor_linear(MultiPoly.parse("1/3*T0^2 + T1^2", B2), 3, 1)
    # any degree is searched: T0^8 + T1^8 = (T0 + T1)^8 mod 2
    factors, _ = ff_factor_linear(MultiPoly.parse("T0^8 + T1^8", B2), 2, 1)
    assert [x.coeffs for x in factors] == [(1, 1)]


def test_reduce_and_evaluate_mod_p():
    names = ("T0", "T1", "T2")
    f = MultiPoly.parse("1/3*T0^2 + 2*T1 - 5*T2", names)
    assert reduce_mod_p(f, 5) == {(2, 0, 0): 2, (0, 1, 0): 2}
    with pytest.raises(DomainError):
        reduce_mod_p(f, 3)
    pt = np.array([(1, 2, 3)])
    assert gf_eval(reduce_mod_p(f, 7), pt, gf_context(7, 1)).tolist() == [(5 + 4 - 15) % 7]
    for q, nvars in ((2, 3), (4, 2), (5, 4)):
        want = _canonical_points(q, nvars)
        assert len(want) == len(set(want)) == (q ** nvars - 1) // (q - 1)
        assert proj_points(q, nvars).tolist() == [list(t) for t in want]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_eval_matches_evaluate(p):
    rng = random.Random(200 + p)
    ctx = gf_context(p, 1)
    for nvars in (2, 3, 4):
        names = tuple(f"T{i}" for i in range(nvars))
        pts = _canonical_points(p, nvars)
        forms = [MultiPoly(names, {e: rng.randint(-9, 9)
                                   for e in monomials_of_degree(nvars, d)
                                   if rng.random() < 0.4}) for d in (1, 2, 3)]
        # every partial of x0^p + 3 x1^p vanishes mod p
        forms.append(MultiPoly(names, {(p, 0) + (0,) * (nvars - 2): 1,
                                       (0, p) + (0,) * (nvars - 2): 3}))
        for f in forms:
            for g in [f] + [f.partial(n) for n in names]:
                want = [g.evaluate(pt) % p for pt in pts]
                got = gf_eval(reduce_mod_p(g, p), proj_points(p, nvars), ctx)
                assert got.tolist() == want, (str(g), p)


def test_gf_context_tables():
    ctx = GFContext(5, 2)
    add, mul = ctx.add, ctx.mul
    a = np.arange(ctx.q)
    # every element has an additive and every nonzero element a
    # multiplicative inverse, and the tables satisfy the field laws on all
    # triples
    assert all(0 in add[x] for x in a)
    assert all(1 in mul[x] for x in a[1:])
    x, y, z = (g.ravel() for g in np.indices((ctx.q,) * 3))
    assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all()
    assert (mul[x, mul[y, z]] == mul[mul[x, y], z]).all()


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_gf_context_refuses_non_primes(p):
    with pytest.raises(DomainError):
        GFContext(p, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_gf_context_cached_tables(p, e):
    ctx = gf_context(p, e)
    assert gf_context(p, e) is ctx
    _, ctx_from_search = ff_factor_linear(MultiPoly.parse("T0 + T1", ("T0", "T1")), p, e)
    assert ctx_from_search is ctx
    fresh = GFContext(p, e)
    assert all(np.array_equal(t, u) and t.dtype == u.dtype == np.uint8
               for t, u in zip((ctx.add, ctx.mul), (fresh.add, fresh.mul)))
    # against digit arithmetic done here, for both orders of every pair
    mod = ctx.modulus

    def decode(a):
        return [a // p ** i % p for i in range(e)]

    def encode(cs):
        return sum(c % p * p ** i for i, c in enumerate(cs))

    def mul_mod(ca, cb):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        for d in range(2 * e - 2, e - 1, -1):
            for i in range(e):
                prod[d - e + i] -= prod[d] * mod[i]
        return encode(prod[:e])

    for a in range(ctx.q):
        da = decode(a)
        for b in range(ctx.q):
            db = decode(b)
            assert ctx.add[a, b] == encode([x + y for x, y in zip(da, db)])
            assert ctx.mul[a, b] == mul_mod(da, db)
