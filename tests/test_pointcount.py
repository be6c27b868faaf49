import itertools
import math
import random
import os
import subprocess
import sys
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubiconics import pointcount
from cubiconics.cayley import T4
from cubiconics.cubic_conics import find_lines
from cubiconics.errors import BudgetError, DomainError
from cubiconics.multipoly import MultiPoly, int_dtype, int_eval
from cubiconics.pointcount import (conic_points, enumerate_affine,
                                   enumerate_projective, homogenize,
                                   integral_conics_experiment,
                                   points_on_conics_experiment,
                                   points_on_lines)

P2 = ("T0", "T1", "T2")
A3 = ("T1", "T2", "T3")


def _int_forms(forms, names):
    # each form as (coordinate indices, [(exponents, integer coefficient)]),
    # denominators cleared, evaluated on plain ints by _vanishes
    int_forms = []
    for f in forms:
        den = lcm(*(c.denominator for c in f.terms.values()))
        idx = [names.index(n) for n in f.names]
        int_forms.append((idx, [(e, int(c * den)) for e, c in f.terms.items()]))
    return int_forms


def _vanishes(int_forms, raw):
    return not any(sum(c * prod(raw[i] ** k for i, k in zip(idx, e)) for e, c in terms)
                   for idx, terms in int_forms)


def _vanishes_mod(int_forms, raw, m):
    return not any(sum(c * prod(raw[i] ** k for i, k in zip(idx, e)) for e, c in terms) % m
                   for idx, terms in int_forms)


def brute_projective(forms, names, B):
    int_forms = _int_forms(forms, names)
    pts = set()
    for raw in itertools.product(range(-B, B + 1), repeat=len(names)):
        if all(v == 0 for v in raw) or not _vanishes(int_forms, raw):
            continue
        g = 0
        for v in raw:
            g = gcd(g, abs(v))
        pt = tuple(v // g for v in raw)
        lead = next(v for v in pt if v != 0)
        if lead < 0:
            pt = tuple(-v for v in pt)
        pts.add(pt)
    return pts


def brute_affine(forms, names, B, norm):
    int_forms = _int_forms(forms, names)
    Bi = math.floor(B)
    return [raw for raw in itertools.product(range(-Bi, Bi + 1), repeat=len(names))
            if (norm == "max" or sum(v * v for v in raw) <= B * B)
            and _vanishes(int_forms, raw)]


def test_p1_full():
    r = enumerate_projective([], ("T0", "T1"), 1)
    assert r.count == 4
    assert set(r.points) == {(0, 1), (1, 0), (1, 1), (1, -1)}


def test_conic_p2_example():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    r = enumerate_projective([conic], P2, 2)
    assert set(r.points) == {(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)}
    # cross-check with the parameterization [s^2 : s t : t^2]
    par = set()
    for s in range(-2, 3):
        for t in range(-2, 3):
            if (s, t) == (0, 0):
                continue
            v = (s * s, s * t, t * t)
            if max(abs(x) for x in v) > 2:
                continue
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            pt = tuple(x // g for x in v)
            lead = next(x for x in pt if x != 0)
            par.add(tuple(lead // abs(lead) * x for x in pt))
    assert set(r.points) == par


def test_empty_variety():
    r = enumerate_projective([MultiPoly.parse("T0^2 + T1^2 + T2^2", P2)], P2, 10)
    assert r.count == 0


def test_exactness_small_B_rescan():
    f = MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4)
    for B in (2, 4, 8):
        fast = set(enumerate_projective([f], T4, B).points)
        assert fast == brute_projective([f], T4, B)
    # (T3-T0)^2 (T3+T1) + T2^3 - T2*T0^2: its fibers in T3 have integer
    # double roots that float rounding can turn into a negative discriminant
    g = MultiPoly.parse("T3^3 + T1*T3^2 - 2*T0*T3^2 - 2*T0*T1*T3 + T0^2*T3"
                        " + T0^2*T1 + T2^3 - T0^2*T2", T4)
    for B in (2, 4):
        fast = set(enumerate_projective([g], T4, B).points)
        assert fast == brute_projective([g], T4, B)


# systems in T4 and their solved variable; each curved one is thinned by
# the sieve in test_sieve_matches_brute
SIEVE_CASES = {
    # the double-root reproducer (T3-T0)^2 (T3+T1) + T2^3 - T2*T0^2
    "reproducer": (["T3^3 + T1*T3^2 - 2*T0*T3^2 - 2*T0*T1*T3 + T0^2*T3"
                    " + T0^2*T1 + T2^3 - T0^2*T2"], "T3"),
    "quadratic": (["T0*T3^2 + T1^2*T3 - T2^3 + T0*T1*T2"], "T3"),
    # vanishes identically on the fibers T0 = T1 = 0
    "identically_zero": (["T0*T3^2 + T1*T2*T3 + T0*T1^2 + T1^3"], "T3"),
    # a conic, solved on the pivot of its plane as conic_points does
    "plane_system": (["T0 + 2*T1 - T2 + 3*T3", "T0^2 + T1*T2 - 2*T3^2 + T0*T3"], "T0"),
    "fermat": (["T0^3 + T1^3 + T2^3 + T3^3"], "T3"),
    # coefficients of 10^18 put the table grid and the fibers on Python
    # integers, whose residues index the root tables after a cast to int64
    "python_integers": (["T3^3 + 1000000000000000000*T1^2*T3 - 1000000000000000000*T0^2*T3"
                         " + T2^3 - T0^3"], "T3"),
}
CURVED = [name for name in SIEVE_CASES if name != "plane_system"]


def _sieve_case(name):
    texts, var = SIEVE_CASES[name]
    forms = [MultiPoly.parse(t, T4) for t in texts]
    others = tuple(n for n in T4 if n != var)
    coeffs, _ = pointcount._solve_form_coeffs(forms, var)
    # the tables of every modulus, as a scan of the benchmark's size builds
    return forms, var, others, pointcount._sieve_tables(coeffs, others, 10 ** 6)


@pytest.mark.parametrize("name", SIEVE_CASES)
def test_sieve_matches_brute(name, monkeypatch):
    forms, var, others, tables = _sieve_case(name)
    # a form linear in the solved variable is not sieved
    assert (len(tables) >= 2) if name in CURVED else tables == []
    # all those tables at a small B, one outer coordinate per chunk and a
    # few chunks per batch, so masks are cached across outer residues and
    # fibers are re-batched
    monkeypatch.setattr(pointcount, "_sieve_tables", lambda *args: tables)
    monkeypatch.setattr(pointcount, "CHUNK_FIBERS", 15 ** 2)
    monkeypatch.setattr(pointcount, "SIEVE_BATCH", 100)
    B = 7
    batches = list(pointcount._sieved_prefixes(tables, 3, B, half=True))
    # the half box of 1,687 prefixes is cut into chunks of one outer value
    assert len(batches) > 1 and max(len(p[0]) for p in batches) <= 15 ** 2
    if tables:
        # a sieve that lets every fiber through would pass the equalities below
        kept = sum(len(p[0]) for p in batches)
        assert kept < ((2 * B + 1) ** 3 - 1) // 2
    r = enumerate_projective(forms, T4, B, solve_var=var)
    assert r.points == tuple(sorted(brute_projective(forms, T4, B)))
    names = others + (var,)
    for norm in ("euclidean", "max"):
        r = enumerate_affine(forms, names, 6, norm=norm)
        assert r.points == tuple(brute_affine(forms, names, 6, norm))


@pytest.mark.parametrize("name", CURVED)
def test_sieve_tables_match_residue_check(name):
    forms, var, others, tables = _sieve_case(name)
    tables = dict(tables)
    int_forms = _int_forms(forms, T4)
    pos = [T4.index(n) for n in others + (var,)]
    for m in (5, 7, 9):
        want = np.zeros((m,) * 3, dtype=bool)
        for r in itertools.product(range(m), repeat=3):
            raw = [0] * 4
            for i, v in zip(pos, r):
                raw[i] = v
            for x in range(m):
                raw[pos[-1]] = x
                if _vanishes_mod(int_forms, raw, m):
                    want[r] = True
                    break
        # a table that passes every residue is left out
        assert (m not in tables) if want.all() else (tables[m] == want).all()


@pytest.mark.parametrize("m", pointcount.SIEVE_MODULI)
def test_root_table_matches_integer_loop(m):
    table = pointcount._root_table(m)
    assert table.shape == (m,) * 4
    for c0, c1, c2, c3 in itertools.product(range(m), repeat=4):
        root = any((c0 + c1 * x + c2 * x * x + c3 * x ** 3) % m == 0 for x in range(m))
        assert table[c0, c1, c2, c3] == root


def test_unique_rows_matches_np_unique():
    rng = np.random.default_rng(3)
    for n, k, top in ((0, 3, 1), (1, 1, 1), (500, 4, 3), (2000, 3, 10 ** 12)):
        rows = rng.integers(-top, top + 1, (n, k))
        rows = np.concatenate([rows, rows[: n // 3]])
        assert np.array_equal(pointcount._unique_rows(rows), np.unique(rows, axis=0))


def test_import_builds_no_root_table():
    code = ("import cubiconics.cli\n"
            "from cubiconics.pointcount import _root_table\n"
            "print(_root_table.cache_info().currsize)")
    src = str(Path(pointcount.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


@st.composite
def projective_case(draw):
    """A cubic in 3 or 4 variables: sparse random terms, or a product of
    random linear forms (many points, double roots and identically-zero
    fibers) with small coefficients, or with one coefficient near +-10^k,
    k = 6..12 (fiber roots of widely different sizes), with a solve variable
    and a small B."""
    names = T4[:draw(st.sampled_from((3, 4)))]
    nv = len(names)
    coeff = st.integers(-3, 3)
    shape = draw(st.sampled_from(("terms", "lines", "scaled")))
    if shape == "terms":
        monos = [e for e in itertools.product(range(4), repeat=nv) if sum(e) == 3]
        terms = draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=6))
        f = MultiPoly(names, terms)
    else:
        rows = [draw(st.lists(coeff, min_size=nv, max_size=nv)) for _ in range(3)]
        if shape == "scaled":
            rows[draw(st.integers(0, 2))][draw(st.integers(0, nv - 1))] = \
                draw(st.sampled_from((-1, 1))) * 10 ** draw(st.integers(6, 12)) + draw(coeff)
        f = MultiPoly.constant(1, names)
        for row in rows:
            f = f * MultiPoly(names, {tuple(int(i == j) for j in range(nv)): c
                                      for i, c in enumerate(row)})
    if f.is_zero():
        f = MultiPoly.parse("T0^3 + T1^3 + T2^3", names)
    return f, names, draw(st.sampled_from(names)), draw(st.integers(1, 4 if nv == 3 else 3))


def _case(text, names, var, B):
    return MultiPoly.parse(text, names), names, var, B


def _product_case(factors, names, var, B):
    f = MultiPoly.constant(1, names)
    for text in factors:
        f = f * MultiPoly.parse(text, names)
    return f, names, var, B


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(projective_case())
# vanishes at the unit point of the solved variable
@example(_case("T0^3 + T1*T2*T3", T4, "T3", 3))
@example(_case("T0^2*T1 + T2^2*T0", P2, "T2", 4))
# identically-zero fibers where T0 = 0
@example(_case("T0*T1^2 - T0*T2*T3", T4, "T3", 3))
@example(_case("T0*T1^2 - T0*T2*T3", T4, "T1", 3))
# an integer double root on every fiber, and the float-rounding reproducer
@example(_case("T2^3 + T1*T2^2 - 2*T0*T2^2 - 2*T0*T1*T2 + T0^2*T2 + T0^2*T1",
               P2, "T2", 4))  # (T2 - T0)^2 (T2 + T1)
@example(_case("T3^3 + T1*T3^2 - 2*T0*T3^2 - 2*T0*T1*T3 + T0^2*T3"
               " + T0^2*T1 + T2^3 - T0^2*T2", T4, "T3", 3))
# triple roots: (T2 - T1)^3 on every fiber, (T3 - T1)^3 on the fibers
# where T2 (T0^2 - T2^2) vanishes
@example(_case("T2^3 - 3*T1*T2^2 + 3*T1^2*T2 - T1^3", P2, "T2", 4))
@example(_case("T3^3 - 3*T1*T3^2 + 3*T1^2*T3 - T1^3 + T0^2*T2 - T2^3", T4, "T3", 3))
# quartics of degree 3 in the solved variable: c3 = T0 vanishes on the
# fibers T0 = 0, c2 = T1^2 on T0 = T1 = 0
@example(_case("T0*T2^3 + T1^2*T2^2 - T0^3*T2 + T1^4 - T0^4", P2, "T2", 4))
@example(_case("T0*T3^3 + T1^2*T3^2 - T2^3*T3 + T1^4 - T0*T2^3", T4, "T3", 3))
# roots of widely different sizes, whose small ones float root formulas lose:
# 49 points at B = 6 with the cubic's roots 5 T0 and -10^9 T0 on each fiber,
# 14 with the quadratic's 5 T0 and -10^17 T0
@example(_product_case(("T2 - 5*T0", "T2 + 1000000000*T0", "T2 + T0 + T1"), P2, "T2", 6))
@example(_case("T2^2 + 99999999999999995*T0*T2 - 500000000000000000*T0^2", P2, "T2", 6))
def test_projective_matches_brute_exactly(case):
    f, names, var, B = case
    r = enumerate_projective([f], names, B, solve_var=var)
    # the exact tuple: sorted, and each point class once
    assert r.points == tuple(sorted(brute_projective([f], names, B)))
    assert r.count == len(r.points)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(projective_case(), st.integers(-3, 3), st.sampled_from(("euclidean", "max")))
# triple roots: (T2 - T1)^3 on every fiber, (T2 - T1)^3 + T0*T1 on the
# fibers where T0*T1 vanishes
@example(_case("T2^3 - 3*T1*T2^2 + 3*T1^2*T2 - T1^3", P2, "T2", 4), 0, "max")
@example(_case("T2^3 - 3*T1*T2^2 + 3*T1^2*T2 - T1^3 + T0*T1", P2, "T2", 4), 0, "max")
# c3 = T1 vanishes on the fibers T1 = 0, c2 = T0 on T0 = T1 = 0
@example(_case("T1*T2^3 + T0*T2^2 - T0*T2 - T1^2", P2, "T2", 4), 0, "euclidean")
@example(_case("T1*T3^3 + T0*T3^2 - T2*T3 + T1*T2", T4, "T3", 3), 0, "max")
# (T2 - 5)(T2 + 10^9)(T2 + T1): 25 points in the box of B = 6, 16 in the ball
@example(_product_case(("T2 - 5", "T2 + 1000000000", "T2 + T1"), ("T1", "T2"), "T2", 6),
         0, "max")
@example(_product_case(("T2 - 5", "T2 + 1000000000", "T2 + T1"), ("T1", "T2"), "T2", 6),
         0, "euclidean")
# a radius that is not an integer: (1, 2, 0) has norm^2 5, inside the ball
# of radius 2.5 and outside that of radius 2
@example(_case("T0*T1*T2", P2, "T2", 2.5), 0, "euclidean")
@example(_case("T0*T1*T2", P2, "T2", 2.5), 0, "max")
def test_affine_matches_brute_exactly(case, shift, norm):
    # the affine twin: an inhomogeneous system (constant term ``shift``),
    # the solved variable last
    f, names, var, B = case
    f = f - MultiPoly.constant(shift, names)
    if f.is_zero():
        return
    names = tuple(n for n in names if n != var) + (var,)
    r = enumerate_affine([f], names, B, norm=norm)
    assert r.points == tuple(brute_affine([f], names, B, norm))
    assert r.count == len(r.points)


def test_projective_needs_homogeneous_forms():
    with pytest.raises(DomainError):
        enumerate_projective([MultiPoly.parse("T0^2 - T1", P2)], P2, 3)
    with pytest.raises(DomainError):
        enumerate_projective([MultiPoly.parse("T0 - T1", P2),
                              MultiPoly.parse("T2^2 - T0", P2)], P2, 3)


def _expand(k, roots):
    """Coefficients, lowest first and padded to 4, of k * prod (x - r)."""
    c = [k]
    for r in roots:
        c = [a - r * b for a, b in zip([0] + c, c + [0])]
    return c + [0] * (4 - len(c))


def _roots_by_python(c, xcap):
    return sorted((i, x) for i, cs in enumerate(zip(*(a.tolist() for a in c)))
                  for x in range(-xcap, xcap + 1)
                  if sum(ck * x ** k for k, ck in enumerate(cs)) == 0)


def test_monotone_roots_on_both_sides_of_each_int64_switch(monkeypatch):
    # cubics and quadratics with integer roots in and out of the box, then
    # one fiber that puts a rule one below 2^62 or at it: x^3 + c0 the
    # bisection's, sum |c_k| (xcap + 1)^k, and x^3 + M x the critical
    # points', 4 M^2
    rng = random.Random(5)
    xcap = 40
    small = [_expand(rng.choice((-3, -2, -1, 1, 2, 3)),
                     [rng.randint(-45, 45) for _ in range(rng.choice((2, 3)))])
             for _ in range(30)]
    rest = sum(max(abs(f[k]) for f in small) * (xcap + 1) ** k for k in (1, 2, 3))
    cases = [([], [np.int64, np.int64]),
             ([[-((1 << 62) - 1 - rest), 0, 0, 1]], [np.int64, np.int64]),
             ([[-((1 << 62) - rest), 0, 0, 1]], [np.int64, object]),
             ([[0, (1 << 30) - 1, 0, 1]], [np.int64, np.int64]),
             ([[0, 1 << 30, 0, 1]], [object, np.int64])]
    seen = []

    def recorded(terms, X):
        seen.append(int_dtype(terms, X))
        return seen[-1]

    monkeypatch.setattr(pointcount, "int_dtype", recorded)
    for extra, dtypes in cases:
        c = [np.array(col, dtype=np.int64) for col in zip(*(small + extra))]
        seen.clear()
        fib, xs = pointcount._monotone_roots(c, xcap)
        assert seen == dtypes
        want = _roots_by_python(c, xcap)
        assert sorted(zip(fib.tolist(), xs.tolist())) == want and len(want) > 30


def test_large_coefficients_do_not_wrap():
    # 2^62 * T0^3 wraps to 0 in int64 at every even T0, which would turn
    # (2, 1, 1) and its kin into false points of T1^3 - T2^3
    f = MultiPoly.parse(f"T1^3 - T2^3 + {1 << 62}*T0^3", P2)
    r = enumerate_projective([f], P2, 4)
    assert set(r.points) == brute_projective([f], P2, 4) == {(0, 1, 1)}


def test_solve_degree_above_three_is_refused():
    # the fiber solver handles degree <= 3 in the solved variable; solving
    # this quartic in T2 as a cubic would lose (0, 1, 1) and (0, 1, -1)
    f = MultiPoly.parse("T2^4 - T1^4 - T0^3*T1", P2)
    with pytest.raises(DomainError):
        enumerate_projective([f], P2, 6)
    with pytest.raises(DomainError):
        enumerate_affine([f], P2, 6, norm="max")
    # solved for T0 (degree 3) the same curve is counted in full
    r = enumerate_projective([f], P2, 6, solve_var="T0")
    assert r.points == tuple(sorted(brute_projective([f], P2, 6)))
    assert r.count == 4


def test_solve_variable_permutation_invariance():
    f = MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4)
    base = set(enumerate_projective([f], T4, 6).points)
    for var in T4:
        assert set(enumerate_projective([f], T4, 6, solve_var=var).points) == base


def test_heights_filter_exact():
    f = MultiPoly.parse("T0*T3 - T1*T2", T4)
    r = enumerate_projective([f], T4, 5)
    assert all(max(abs(c) for c in p) <= 5 for p in r.points)
    assert all(gcd(gcd(abs(p[0]), abs(p[1])), gcd(abs(p[2]), abs(p[3]))) == 1
               for p in r.points)


def test_affine_examples():
    line = MultiPoly.parse("T1 - T2", ("T1", "T2"))
    # euclidean ball of radius 1 on x = y contains only the origin
    r = enumerate_affine([line], ("T1", "T2"), 1)
    assert set(r.points) == {(0, 0)}
    # the max-norm box of side 1 contains the three diagonal points
    r2 = enumerate_affine([line], ("T1", "T2"), 1, norm="max")
    assert set(r2.points) == {(-1, -1), (0, 0), (1, 1)}
    # B = 0: only the origin when it solves the system
    r3 = enumerate_affine([line], ("T1", "T2"), 0)
    assert set(r3.points) == {(0, 0)}


def test_affine_fraction_coefficients():
    # forms with denominators are made integral before the int64 evaluation
    names = ("T1", "T2")
    for text in ("3/2*T1 - T2", "1/2*T1^2 + 1/2*T2^2 - 25/2"):
        f = MultiPoly.parse(text, names)
        want = {p for p in itertools.product(range(-6, 7), repeat=2)
                if f.evaluate(p) == 0}
        r = enumerate_affine([f], names, 6, norm="max")
        assert r.complete and set(r.points) == want and r.count == len(want) > 0
    assert len(want) == 12
    with pytest.raises(DomainError):
        int_eval(MultiPoly.parse("1/2*T1", names),
                 {n: np.arange(3, dtype=np.int64) for n in names})


def test_points_on_lines_matches_scalar_check(fermat_surface):
    from cubiconics.cayley import LineP3
    from cubiconics.cubic_conics import RationalLine, cofactor_pair
    lines = find_lines(fermat_surface, 1)
    # the same line as T0 + T1 = T2 + T3 = 0, written with denominators
    u = MultiPoly.parse("1/2*T0 + 1/2*T1", T4)
    v = MultiPoly.parse("2/3*T2 + 2/3*T3 + 1/5*T0 + 1/5*T1", T4)
    A, B = cofactor_pair(fermat_surface.f, u, v)
    lines.append(RationalLine(LineP3.make(u, v), A, B))
    pts = enumerate_projective([fermat_surface.f], T4, 12).points
    want = {p for p in pts if any(rl.line.u.evaluate(p) == 0 and
                                  rl.line.v.evaluate(p) == 0 for rl in lines)}
    assert points_on_lines(pts, lines) == want
    same = [rl for rl in lines if rl.line.plucker == lines[-1].line.plucker]
    assert len(same) == 2
    assert points_on_lines(pts, same[:1]) == points_on_lines(pts, same[1:]) != set()
    assert points_on_lines([], lines) == points_on_lines(pts, []) == set()


def test_affine_trivial_bound():
    f = MultiPoly.parse("T1^3 + T2^3 + T3^3 - 1", A3)
    delta = 3
    for B in (4, 16, 64):
        r = enumerate_affine([f], A3, B)
        assert r.count <= delta * (2 * B + 1) ** 2


def test_budget_errors():
    f = MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4)
    with pytest.raises(BudgetError):
        enumerate_projective([f], T4, 10 ** 5)
    with pytest.raises(DomainError):
        enumerate_projective([f], T4, 0)


def test_conic_points_paths_agree():
    Q = MultiPoly.parse("T0*T2 - T1^2", T4)
    ell = MultiPoly.parse("T3", T4)
    r = conic_points(Q, ell, 2)
    assert r.count == 4 and "agree" in r.note
    r2 = conic_points(Q, ell, 32)
    assert "agree" in r2.note
    # growth on an isotropic conic: doubling B doubles the count roughly
    import math
    c1 = conic_points(Q, ell, 16).count
    c2 = conic_points(Q, ell, 32).count
    slope = math.log(c2 / c1) / math.log(2)
    assert abs(slope - 1.0) < 0.5


def test_conic_points_anisotropic():
    Q = MultiPoly.parse("T2^2 - T2*T3 + T3^2", T4)
    ell = MultiPoly.parse("T0 + T1", T4)
    r = conic_points(Q, ell, 50)
    # the scheme has exactly one rational point (the vertex where the two
    # conjugate lines meet); no smooth base point exists so acceleration
    # falls back with a note
    assert r.points == ((1, -1, 0, 0),)
    assert "skipped" in r.note or "brute" in r.note


def test_conic_points_base_point_above_B():
    # the least point, (3, -4, 1, 0), has height 4 > B
    r = conic_points(MultiPoly.parse("T0^2 + T1^2 - 25*T2^2", T4),
                     MultiPoly.parse("T3", T4), 3)
    assert r.count == 0 and "agree" in r.note


@pytest.mark.parametrize("q, count", [
    ("1/3*T0^2 + 1/3*T1^2 - 25/3*T2^2", 12),
    ("1/2*T0*T2 - 1/2*T1^2", 16),
])
def test_conic_points_fractional_coefficients(q, count):
    r = conic_points(MultiPoly.parse(q, T4), MultiPoly.parse("T3", T4), 12)
    assert r.count == count and "agree" in r.note


@pytest.mark.parametrize("q, ell, count", [
    ("T0*T1 - T2^2 + T3^2", "2*T0 + 3*T1 - 6*T3", 16),
    ("T0^2 - 2*T1^2 + T2*T3 - T0*T3", "3*T0 - 5*T2 + 7*T3", 2),
    ("T0*T2 + T1*T3 - T2^2", "T0 + T1 + T2 + T3", 24),
    ("T1^2 + T2^2 - T3^2 + T0*T1", "T1 - 2*T2", 20),
    ("T0*T1 - T2*T3", "T0 - T1", 24),
    ("T0^2 + T1^2 - T2^2 - T3^2", "1/2*T0 - 1/3*T1 + T3", 12),
])
def test_conic_points_oblique_planes(q, ell, count):
    Q, ell = MultiPoly.parse(q, T4), MultiPoly.parse(ell, T4)
    r = conic_points(Q, ell, 6)
    assert "agree" in r.note
    assert set(r.points) == brute_projective([ell, Q], T4, 6)
    r = conic_points(Q, ell, 20)
    assert r.count == count and "agree" in r.note


def test_conic_points_line_pair_skipped():
    # T0^2 - T1^2 = (T0 - T1)(T0 + T1): two rational lines in the plane
    Q = MultiPoly.parse("T0^2 - T1^2", T4)
    ell = MultiPoly.parse("T0 + T1 + T2 + 2*T3", T4)
    r = conic_points(Q, ell, 6)
    assert "skipped" in r.note
    assert "singular" in r.note
    assert r.count == 51 and set(r.points) == brute_projective([ell, Q], T4, 6)


def test_homogenize():
    f = MultiPoly.parse("T1^3 + T2*T3 - 1", A3)
    F = homogenize(f)
    assert F.is_homogeneous() and F.total_degree() == 3
    assert F.coefficient((3, 0, 0, 0)) == -1


def test_points_on_conics_experiment(fermat_surface):
    lines = find_lines(fermat_surface, 1)
    rep = points_on_conics_experiment(fermat_surface, lines, [4, 8, 16])
    assert rep["counts"] == sorted(rep["counts"])
    assert rep["fitted_exponent"] is not None
    assert all(rep["bound_satisfied"])
    assert abs(rep["overlay_exponent"] - 1.6495) < 1e-3


def test_integral_conics_experiment(fermat_surface):
    lines = find_lines(fermat_surface, 1)
    aff = MultiPoly.parse("1 + T1^3 + T2^3 + T3^3", A3)
    rep = integral_conics_experiment(aff, [8, 16, 32], lines=lines)
    assert all(rep["trivial_bound_ok"])
    assert rep["counts"] == sorted(rep["counts"])
    empty = integral_conics_experiment(aff, [])
    assert empty["counts"] == [] and empty["fitted_exponent"] is None
