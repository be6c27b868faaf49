import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiconics.errors import DomainError, NonDivisibleError
from cubiconics.linalg import det, exact_kernel, rank
from cubiconics.multipoly import (MultiPoly, embed, essential_variable_count,
                                  gcd_binary_forms, macaulay_resultant,
                                  sylvester_resultant)

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
    names = ("p01", "p23", "t1", "t2")
    h = MultiPoly.parse("t1^2*p01 + t1^2*p23", names)
    ct, pt = h.content_primitive(wrt=("t1", "t2"))
    assert pt == MultiPoly.parse("p01 + p23", names)
    assert ct == MultiPoly.parse("t1^2", names)
    with pytest.raises(DomainError):
        MultiPoly.zero(T).rational_content()


def test_homogeneous_component_partition():
    f = MultiPoly.parse("p01 + p23", ("p01", "p02", "p03", "p12", "p13", "p23"))
    sub = [n for n in f.names if "3" in n[1:]]
    assert f.homogeneous_component(sub, 1) == MultiPoly.parse("p23", f.names)
    assert f.homogeneous_component(sub, 5).is_zero()
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


def test_macaulay_symbolic_degree_homogeneity():
    # Res(q, l, h1, h2) has degree prod(deltas)/delta_i in slot i's coefficients
    names = T + ("u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3")
    q = embed(MultiPoly.parse("T2^2 - T2*T3 + T3^2", T), names)
    ell = embed(MultiPoly.parse("T0 + T1", T), names)
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
        tc = r[re] / g.terms[ge]
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
