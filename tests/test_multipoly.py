import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiconics import multipoly
from cubiconics.errors import DomainError, NonDivisibleError
from cubiconics.linalg import det, exact_kernel, rank
from cubiconics.multipoly import (MultiPoly, bezout_cutoff, det_poly, int_dtype, int_eval,
                                  iroot, essential_variable_count, gcd_binary_forms,
                                  macaulay_resultant, pivot_substitution, restrict,
                                  sylvester_resultant, sylvester_rows)
from test_linalg import fraction_solve

T = ("T0", "T1", "T2", "T3")
B2 = ("T0", "T1")


def rand_poly(rng, names, deg, nterms, cmax=5):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(names)
        for _ in range(deg):
            e[rng.randrange(len(names))] += 1
        c = rng.randint(-cmax, cmax)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(names, terms)


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(25):
        f = rand_poly(rng, T, 2, 4)
        g = rand_poly(rng, T, 3, 4)
        h = rand_poly(rng, T, 1, 3)
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f * MultiPoly.constant(1, T) == f


def test_exact_divide_examples():
    f = MultiPoly.parse("T2^3 + T3^3", T)
    g = MultiPoly.parse("T2 + T3", T)
    q = f.exact_divide(g)
    assert q == MultiPoly.parse("T2^2 - T2*T3 + T3^2", T)
    assert q * g == f
    with pytest.raises(NonDivisibleError) as ei:
        MultiPoly.parse("T0", T).exact_divide(MultiPoly.parse("T1", T))
    assert ei.value.remainder is not None


def test_exact_divide_multiply_back_random():
    rng = random.Random(5)
    for _ in range(20):
        f = rand_poly(rng, T, 2, 4)
        g = rand_poly(rng, T, 2, 3)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).exact_divide(g) == f


def test_content_primitive():
    c, p = MultiPoly.parse("6*T0 + 4*T1", T).rational_content()
    assert c == 2 and p == MultiPoly.parse("3*T0 + 2*T1", T)
    c2, p2 = MultiPoly.parse("-T0", T).rational_content()
    assert abs(c2) == 1 and p2 == MultiPoly.parse("T0", T)
    assert c2 * p2 == MultiPoly.parse("-T0", T)  # sign lives in the content
    with pytest.raises(DomainError):
        MultiPoly.zero(T).rational_content()


def test_homogeneous_component_partition():
    f = MultiPoly.parse("p01 + p23", ("p01", "p02", "p03", "p12", "p13", "p23"))
    sub = [n for n in f.names if "3" in n[1:]]
    assert f.split_by_degree(sub)[1] == MultiPoly.parse("p23", f.names)
    assert 5 not in f.split_by_degree(sub)
    rng = random.Random(3)
    g = rand_poly(rng, T, 3, 8)
    parts = g.split_by_degree(("T0", "T1"))
    total = MultiPoly.zero(T)
    for part in parts.values():
        total = total + part
    assert total == g


def test_essential_variable_count():
    k1, basis1 = essential_variable_count(
        MultiPoly.parse("T0^3 + 3*T0^2*T1 + 3*T0*T1^2 + T1^3", T))
    assert k1 == 1 and basis1[0] == MultiPoly.parse("T0 + T1", T)
    assert essential_variable_count(MultiPoly.parse("T0*T1", T))[0] == 2
    assert essential_variable_count(
        MultiPoly.parse("T0^3+T1^3+T2^3+T3^3", T))[0] == 4


def test_essential_variables_invariant_under_unimodular_change():
    rng = random.Random(9)
    f = MultiPoly.parse("T0^3 + T1^3 + T0*T1*T2", T)
    k0, _ = essential_variable_count(f)
    for _ in range(5):
        # random shear (unimodular)
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        sub = {T[i]: MultiPoly.variable(T[i], T) + c * MultiPoly.variable(T[j], T)}
        f = f.substitute(sub)
        assert essential_variable_count(f)[0] == k0


def _bezout_cutoff_by_solve(rows, d):
    """Reference: both Bezout vectors in Fractions from a plain Gauss-Jordan
    solve, over the lcm of all their denominators."""
    n = 2 * d
    ends = [[int(i == 0) for i in range(n)], [int(i == n - 1) for i in range(n)]]
    best = None
    for r1, r2 in itertools.combinations([r for r in rows if any(r)], 2):
        sols = fraction_solve([list(c) for c in zip(*sylvester_rows(r1, r2))], ends, n)
        if sols is None:
            continue
        D = lcm(*(x.denominator for sol in sols for x in sol))
        worst = max(sum(abs(int(x * D)) for x in sol) for sol in sols)
        if best is None or Fraction(1, worst) > best[0]:
            best = (Fraction(1, worst), (r1, r2))
    return best


def _poly_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_bezout_cutoff_matches_fraction_solve(d):
    rng = random.Random(40 + d)
    for size in (5, 10 ** 4, 10 ** 12):
        for _ in range(12):
            rows = [[rng.randint(-size, size) for _ in range(d + 1)]
                    for _ in range(rng.randint(2, 4))]
            got = bezout_cutoff(rows, d)
            assert got is not None and got == _bezout_cutoff_by_solve(rows, d)
    # a pair with a common factor is skipped, alone or beside a coprime row
    for size in (5, 10 ** 12):
        lin = [rng.randint(1, size), rng.randint(-size, size)]
        r1 = _poly_times(lin, [rng.randint(1, size) for _ in range(d)])
        r2 = _poly_times(lin, [rng.randint(1, size) for _ in range(d)])
        assert bezout_cutoff([r1, r2], d) is None
        r3 = [1] + [0] * (d - 1) + [1]  # t1^d + t2^d, coprime to both here
        got = bezout_cutoff([r1, r2, r3], d)
        assert got is not None and got[1] != (r1, r2)
        assert got == _bezout_cutoff_by_solve([r1, r2, r3], d)


def _with_repeats(rng, rows, d):
    """rows with exact repeats, zero rows and scaled rows inserted."""
    rows = list(rows)
    for _ in range(rng.randint(1, 4)):
        r = rows[rng.randrange(len(rows))]
        extra = rng.choice((list(r), [0] * (d + 1), [rng.choice((2, -3)) * x for x in r]))
        rows.insert(rng.randint(0, len(rows)), extra)
    return rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bezout_cutoff_with_repeated_zero_and_scaled_rows(d):
    rng = random.Random(70 + d)
    for size in (3, 10 ** 4, 10 ** 12):
        for _ in range(10):
            rows = _with_repeats(rng, [[rng.randint(-size, size) for _ in range(d + 1)]
                                       for _ in range(rng.randint(2, 4))], d)
            got = bezout_cutoff(rows, d)
            assert got == _bezout_cutoff_by_solve(rows, d)
            # the certifying rows are the first occurrences, in order
            if got is not None:
                i, j = (next(k for k, r in enumerate(rows) if r == x) for x in got[1])
                assert i < j and got[1][0] is rows[i] and got[1][1] is rows[j]
    # a repeat of the first row after the second: (a, b) is found, not (b, a)
    a, b = [1] + [0] * (d - 1) + [2], [0] * d + [1]
    for rows in ([a, b, list(a)], [a, [0] * (d + 1), b, list(b), list(a)]):
        got = bezout_cutoff(rows, d)
        assert got == _bezout_cutoff_by_solve(rows, d) and got[1] == (a, b)
        assert got[1][0] is a and got[1][1] is b


def test_bezout_cutoff_tie_goes_to_the_first_pair():
    # t2 -> -t2 fixes a and swaps b and b2, so (a, b) and (a, b2) tie;
    # b and b2 share the factor t1
    a, b, b2 = [1, 0, 1], [1, 1, 0], [1, -1, 0]
    assert bezout_cutoff([a, b], 2)[0] == bezout_cutoff([a, b2], 2)[0]
    assert bezout_cutoff([b, b2], 2) is None
    for rows, first in (([a, b, b2], (a, b)), ([b2, a, b], (b2, a))):
        got = bezout_cutoff(rows, 2)
        assert got == _bezout_cutoff_by_solve(rows, 2) and got[1] == first


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bezout_cutoff_without_a_coprime_pair(d):
    rng = random.Random(90 + d)
    lin = [rng.randint(1, 9), rng.randint(-9, 9)]
    rows = [_poly_times(lin, [rng.randint(-9, 9) for _ in range(d)]) for _ in range(4)]
    rows = _with_repeats(rng, [r for r in rows if any(r)] or [lin + [0] * (d - 1)], d)
    assert bezout_cutoff(rows, d) is None and _bezout_cutoff_by_solve(rows, d) is None
    assert bezout_cutoff([], d) is None and bezout_cutoff([[0] * (d + 1)] * 3, d) is None


def test_bezout_cutoff_on_both_sides_of_the_int64_switch(monkeypatch):
    # rows a t1^3 + t2^3 and t1^3 + a t2^3 give H = (a^2 + 1)^3, and the
    # batch runs in int64 while 2 H^2 < 2^62, so up to a = 33
    assert 2 * (33 ** 2 + 1) ** 6 < 2 ** 62 <= 2 * (34 ** 2 + 1) ** 6
    seen = []

    def recorded(terms, X):
        seen.append(int_dtype(terms, X))
        return seen[-1]

    monkeypatch.setattr(multipoly, "int_dtype", recorded)
    for a, dtype in ((33, np.int64), (34, object)):
        rows = [[a, 0, 0, 1], [1, 0, 0, a], [1, -1, 1, 0]]
        got = bezout_cutoff(rows, 3)
        assert seen[-1] is dtype and got == _bezout_cutoff_by_solve(rows, 3)


def test_bezout_cutoff_refuses_a_winner_that_fails_its_identities(monkeypatch):
    # int64 forced past the Hadamard bound wraps; the exact check catches it
    monkeypatch.setattr(multipoly, "int_dtype", lambda terms, X: np.int64)
    rng = random.Random(7)
    rows = [[rng.randint(-10 ** 4, 10 ** 4) for _ in range(4)] for _ in range(4)]
    with pytest.raises(AssertionError, match="Bezout identities fail"):
        bezout_cutoff(rows, 3)


def test_bezout_cutoff_on_the_corpus_pencils(corpus_forms):
    from cubiconics.cubic_conics import CubicSurface, conic_family, find_lines
    for f in corpus_forms:
        surface = CubicSurface.make(f)
        rows, d = conic_family(surface, find_lines(surface, 2)[0]).int_rows
        assert bezout_cutoff(rows, d) == _bezout_cutoff_by_solve(rows, d)


def test_sylvester_resultant():
    assert sylvester_resultant(MultiPoly.parse("T0^2", B2),
                               MultiPoly.parse("T1^3", B2)) == 1
    assert sylvester_resultant(MultiPoly.parse("T0 - T1", B2),
                               MultiPoly.parse("T0 + T1", B2)) == 2
    f = MultiPoly.parse("T0^2 + T1^2", B2)
    assert sylvester_resultant(f, f) == 0
    # a degree-0 slot: Res(c, g) = c^deg(g)
    assert sylvester_resultant(MultiPoly.constant(3, B2), f) == 9
    assert sylvester_resultant(MultiPoly.parse("1/2*T0 + T1", B2),
                               MultiPoly.parse("T0", B2)) == Fraction(-1)
    with pytest.raises(DomainError):
        sylvester_resultant(MultiPoly.zero(B2), f)
    with pytest.raises(DomainError):
        sylvester_resultant(MultiPoly.parse("T0^2 + T1", B2), f)
    V3 = ("T0", "T1", "T2")
    with pytest.raises(DomainError):
        sylvester_resultant(MultiPoly.parse("T0", V3), MultiPoly.parse("T1", V3))


def test_macaulay_normalization_and_zero():
    V3 = ("T0", "T1", "T2")
    assert macaulay_resultant([MultiPoly.variable(n, V3) for n in V3], V3) == 1
    forms = [MultiPoly.variable("T0", V3), MultiPoly.variable("T1", V3),
             MultiPoly.parse("T0 + T1", V3)]
    assert macaulay_resultant(forms, V3) == 0
    # pure powers stay normalized in mixed degrees
    for degs in ((2, 3), (3, 1, 2), (2, 2, 2, 3)):
        names = tuple(f"T{i}" for i in range(len(degs)))
        fs = [MultiPoly(names, {tuple(d if i == j else 0 for i in range(len(degs))): 1})
              for j, d in enumerate(degs)]
        assert macaulay_resultant(fs, names) == 1


def test_macaulay_linear_forms_equal_determinant():
    rng = random.Random(2)
    for _ in range(5):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        fs = [MultiPoly(T, {tuple(1 if i == k else 0 for i in range(4)): rows[j][k]
                            for k in range(4) if rows[j][k]}) for j in range(4)]
        if any(f.is_zero() for f in fs):
            continue
        assert macaulay_resultant(fs, T) == leibniz_det(rows)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations (sign by inversions)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_linalg_det_matches_leibniz():
    rng = random.Random(4)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            assert det(rows) == leibniz_det(rows)


def test_det_poly_matches_leibniz():
    xy = ("x", "y")
    rng = random.Random(27)

    def entry():
        f = rand_poly(rng, xy, rng.randint(0, 2), rng.randint(0, 3))
        return f * Fraction(1, rng.randint(1, 3))

    assert det_poly([], xy) == 1
    for n in (1, 2, 3, 4):
        for _ in range(5):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            assert det_poly(rows, xy) == leibniz_det(rows)
        if n > 1:
            zero_row = [[entry() for _ in range(n)] for _ in range(n - 1)]
            zero_row.insert(rng.randrange(n), [MultiPoly.zero(xy)] * n)
            equal_rows = [[entry() for _ in range(n)] for _ in range(n - 1)]
            equal_rows.append(list(equal_rows[0]))
            for rows in (zero_row, equal_rows):
                assert det_poly(rows, xy).is_zero() and leibniz_det(rows) == 0


def test_macaulay_symbolic_degree_homogeneity():
    # Res(q, l, h1, h2) has degree prod(deltas)/delta_i in slot i's coefficients
    names = T + ("u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3")
    q = restrict(MultiPoly.parse("T2^2 - T2*T3 + T3^2", T), names)
    ell = restrict(MultiPoly.parse("T0 + T1", T), names)
    h1 = sum((MultiPoly.variable(f"u{i}", names) * MultiPoly.variable(f"T{i}", names)
              for i in range(4)), MultiPoly.zero(names))
    h2 = sum((MultiPoly.variable(f"v{i}", names) * MultiPoly.variable(f"T{i}", names)
              for i in range(4)), MultiPoly.zero(names))
    res = macaulay_resultant([q, ell, h1, h2], T)
    uvars = [f"u{i}" for i in range(4)]
    vvars = [f"v{i}" for i in range(4)]
    assert res.is_homogeneous(uvars) and res.degree_in(uvars) == 2
    assert res.is_homogeneous(vvars) and res.degree_in(vvars) == 2


def test_binary_gcd():
    tn = ("t1", "t2")
    a = MultiPoly.parse("t1^3*t2 + t1^2*t2^2", tn)
    b = MultiPoly.parse("t1^2*t2^2 + t1*t2^3", tn)
    g = gcd_binary_forms([a, b], tn)
    assert g == MultiPoly.parse("t1^2*t2 + t1*t2^2", tn)
    assert gcd_binary_forms([MultiPoly.parse("t1^2", tn),
                             MultiPoly.parse("t2^2", tn)], tn) == \
        MultiPoly.constant(1, tn)


def test_binary_gcd_of_forms_in_a_larger_ring():
    # forms from a larger ring, or with the pair in the other order, are
    # moved into the pair's ring first; a third variable is refused
    big = ("t0", "t1", "t2")
    a = MultiPoly.parse("t1^3*t2 + t1^2*t2^2", big)
    b = MultiPoly.parse("t1^2*t2^2 + t1*t2^3", big)
    tn = ("t1", "t2")
    assert gcd_binary_forms([a, b], tn) == MultiPoly.parse("t1^2*t2 + t1*t2^2", tn)
    swapped = ("t2", "t1")
    assert gcd_binary_forms([a, b], swapped) == \
        MultiPoly.parse("t1^2*t2 + t1*t2^2", swapped)
    with pytest.raises(DomainError, match="two given variables"):
        gcd_binary_forms([a, MultiPoly.parse("t0*t1", big)], tn)
    with pytest.raises(DomainError, match="homogeneous"):
        gcd_binary_forms([a, MultiPoly.parse("t1^2 + t2", tn)], tn)


def _euclid_gcd(forms, names):
    """Gcd of binary forms by Euclid's algorithm on Fraction coefficient
    lists in x at y = 1, times the least power of y that divides every form:
    the route the Sylvester echelon replaced."""
    def poly_rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= q * b[i]
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        return a

    live = [restrict(f, names) for f in forms if not f.is_zero()]
    g = []
    for f in live:
        a = [Fraction(0)] * (max(e[0] for e in f.terms) + 1)
        for (ex, _), c in f.terms.items():
            a[ex] += c
        while a:
            g, a = a, poly_rem(g, a)
    ypow = min(min(e[1] for e in f.terms) for f in live)
    d = len(g) - 1
    g = MultiPoly(names, {(i, d - i + ypow): c for i, c in enumerate(g)})
    return g.rational_content()[1]


def test_gcd_binary_forms_matches_euclid():
    tn = ("x", "y")
    rng = random.Random(5)
    x, y = (MultiPoly.variable(n, tn) for n in tn)
    factors = [x, y, x + y, x - 2 * y, 3 * x + y, 2 * x + 5 * y, x * x + y * y]
    for _ in range(400):
        common = MultiPoly.constant(1, tn)
        for _ in range(rng.randint(0, 3)):
            common = common * rng.choice(factors)
        forms = []
        for _ in range(rng.randint(1, 4)):
            f = common * Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 7]))
            for _ in range(rng.randint(0, 3)):
                f = f * rng.choice(factors)
            forms.append(f)
        # zero forms are skipped, constants end the gcd, degrees mix
        forms += rng.choice([[], [MultiPoly.zero(tn)], [MultiPoly.constant(Fraction(3, 2), tn)]])
        rng.shuffle(forms)
        assert gcd_binary_forms(forms, tn) == _euclid_gcd(forms, tn), [str(f) for f in forms]
    # the forms may live in a larger ring with the pair in either order
    ring = ("y", "z", "x")
    f, g = restrict(x * x * y, ring), restrict(x * y * (x + y), ring)
    assert gcd_binary_forms([f, g], tn) == x * y
    with pytest.raises(DomainError):
        gcd_binary_forms([MultiPoly.zero(tn)], tn)


def test_parse_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        f = rand_poly(rng, T, 3, 6)
        if f.is_zero():
            continue
        assert MultiPoly.parse(str(f), T) == f
    assert MultiPoly.parse("0", T).is_zero()
    assert str(MultiPoly.parse("-2/3*T0^2*T1 + 5", T)) == "-2/3 * T0^2*T1 + 5"


def test_frac_linear_algebra():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(rows, 2) == 1
    ker = exact_kernel(rows, 2)
    assert len(ker) == 1 and rows[0][0] * ker[0][0] + rows[0][1] * ker[0][1] == 0


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def poly_and_point(draw):
    nv = draw(st.integers(1, 4))
    names = T[:nv]
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    terms = draw(st.dictionaries(exps, fractions, max_size=8))
    point = draw(st.lists(fractions, min_size=nv, max_size=nv))
    return MultiPoly(names, terms), point


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(poly_and_point())
def test_evaluate_matches_substitute(case):
    f, point = case
    val = f.substitute(dict(zip(f.names, point)))
    assert val.variables_used() == set()
    assert f.evaluate(point) == val.coefficient((0,) * len(f.names))
    mixed = [x.numerator if x.denominator == 1 else x for x in point]
    assert f.evaluate(mixed) == f.evaluate(point)


def test_evaluate_examples():
    f = MultiPoly.parse("2/3*T0^2*T1 - T2 + 5", T)
    assert f.evaluate((3, Fraction(1, 2), 7, 0)) == 1
    assert f.evaluate((Fraction(1, 2), Fraction(1, 3), 0, 0)) == Fraction(1, 18) + 5
    assert MultiPoly.zero(T).evaluate((1, 2, 3, 4)) == 0
    assert MultiPoly.constant(Fraction(-7, 2), T).evaluate((0, 0, 0, 0)) == Fraction(-7, 2)
    with pytest.raises(DomainError):
        f.evaluate((1, 2, 3))
    with pytest.raises(DomainError):
        f.evaluate((1.0, 2, 3, 4))


def divide_by_max(f, g):
    """Reference division: the leading remainder term is found by a scan
    with ``max`` over the whole remainder.  Returns (quotient, None) or
    (None, remainder at the first leading-term obstruction)."""
    key = lambda e: (sum(e), e)
    ge = max(g.terms, key=key)
    q, r = {}, dict(f.terms)
    while r:
        re = max(r, key=key)
        te = tuple(a - b for a, b in zip(re, ge))
        if min(te) < 0:
            return None, MultiPoly(f.names, r)
        tc = Fraction(r[re]) / g.terms[ge]
        q[te] = q.get(te, 0) + tc
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(te, e2))
            r[e] = r.get(e, 0) - tc * c2
            if r[e] == 0:
                del r[e]
    return MultiPoly(f.names, q), None


@st.composite
def division_pair(draw):
    nv = draw(st.integers(1, 3))
    names = T[:nv]
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    poly = st.dictionaries(exps, small, min_size=1, max_size=6).map(
        lambda t: MultiPoly(names, t))
    g = draw(poly.filter(lambda p: not p.is_zero()))
    q = draw(poly)
    noise = draw(st.one_of(st.just(MultiPoly.zero(names)), poly))
    return q * g + noise, g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(division_pair())
def test_exact_divide_matches_max_scan(case):
    f, g = case
    want_q, want_r = divide_by_max(f, g)
    if want_r is None:
        assert f.exact_divide(g) == want_q
    else:
        with pytest.raises(NonDivisibleError) as ei:
            f.exact_divide(g)
        assert ei.value.remainder == want_r


def stored(value):
    """``value`` (a MultiPoly, or a tuple or dict of them), after checking that
    every coefficient is a nonzero int or a Fraction of denominator > 1."""
    polys = value.values() if isinstance(value, dict) else \
        value if isinstance(value, tuple) else [value]
    for p in polys:
        if isinstance(p, MultiPoly):
            for c in p.terms.values():
                assert c != 0 and (type(c) is int
                                   or type(c) is Fraction and c.denominator > 1), c
    return value


def as_fractions(p):
    """p with every coefficient forced to a Fraction, integral ones too."""
    return MultiPoly._raw(p.names, {e: Fraction(c) for e, c in p.terms.items()})


def divide(f, g):
    try:
        return f.exact_divide(g)
    except NonDivisibleError as exc:
        return "remainder", exc.remainder


# each takes (f, g, f * g + noise, scalar c, variable v, linear form l)
OPERATIONS = {
    "parse": lambda f, g, h, c, v, l: MultiPoly.parse(str(f), f.names),
    "add": lambda f, g, h, c, v, l: f + g,
    "sub": lambda f, g, h, c, v, l: f - g,
    "mul": lambda f, g, h, c, v, l: f * g,
    "scalar": lambda f, g, h, c, v, l: (c * f, f * c, f + c, f - c, c - f),
    "pow": lambda f, g, h, c, v, l: f ** 3,
    "exact_divide": lambda f, g, h, c, v, l: divide(h, g) if g else h,
    "partial": lambda f, g, h, c, v, l: f.partial(v),
    "substitute": lambda f, g, h, c, v, l: (f.substitute({v: g}), f.substitute({v: c})),
    "restrict": lambda f, g, h, c, v, l: (
        restrict(f, f.names + ("U",)), restrict(restrict(f, f.names + ("U",)), f.names)),
    "rational_content": lambda f, g, h, c, v, l: f.rational_content() if f else f,
    "pivot_substitution": lambda f, g, h, c, v, l: pivot_substitution(l),
}

coefficients = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def operands(draw):
    nv = draw(st.integers(1, 3))
    names = T[:nv]
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * nv), coefficients,
                           max_size=6).map(lambda t: MultiPoly(names, t))
    f, g, noise = draw(poly), draw(poly), draw(st.one_of(st.just(MultiPoly.zero(names)), poly))
    linear = draw(st.lists(coefficients, min_size=nv, max_size=nv).filter(any))
    l = MultiPoly(names, {tuple(int(i == j) for i in range(nv)): a
                          for j, a in enumerate(linear)})
    return f, g, f * g + noise, draw(coefficients), draw(st.sampled_from(names)), l


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(operands())
def test_int_coefficients_match_fraction_coefficients(case):
    # a coefficient is stored as an int when integral and never as a float,
    # and each result equals the one computed with every coefficient a Fraction
    f, g, h, c, v, l = stored(case)
    forced = tuple(as_fractions(x) for x in (f, g, h)) + (Fraction(c), v, as_fractions(l))
    for name, op in OPERATIONS.items():
        assert stored(op(f, g, h, c, v, l)) == op(*forced), name
    point = [Fraction(k + 1, 2) for k in range(len(f.names))]
    assert type(f.evaluate(point)) is Fraction and type(f.evaluate([1] * len(point))) is Fraction


def test_iroot_is_the_floor_of_the_root():
    rng = random.Random(11)
    for d in (1, 2, 3, 5):
        for n in list(range(200)) + [k ** d + e for k in (10, 10 ** 6) for e in (-1, 0, 1)] \
                + [rng.randrange(10 ** 40) for _ in range(200)]:
            r = iroot(n, d)
            assert r ** d <= n < (r + 1) ** d


def test_int_eval_exact_on_both_sides_of_the_int64_switch():
    # 3 T1^3 - T1 T2 + e at |T| <= X = 2^20: sum |c| X^k = 3 2^60 + 2^40 + e,
    # one below 2^62 and then 2^62 itself
    X = 1 << 20
    names = ("T1", "T2")
    x = np.array([X, -X, X - 1, 0, 7, -X], dtype=np.int64)
    y = np.array([-X, X, 1, X, -2, -X], dtype=np.int64)
    for e, dtype in (((1 << 60) - (1 << 40) - 1, np.int64), ((1 << 60) - (1 << 40), object)):
        assert int_dtype([(3, 3), (-1, 2), (e, 0)], X) is dtype
        v = int_eval(MultiPoly.parse(f"3*T1^3 - T1*T2 + {e}", names), {"T1": x, "T2": y})
        assert v.dtype == dtype
        assert v.tolist() == [3 * a ** 3 - a * b + e for a, b in zip(x.tolist(), y.tolist())]
    assert max(v.tolist()) == 1 << 62
