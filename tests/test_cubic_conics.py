import itertools
import random
import types
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from cubiconics import cubic_conics, multipoly
from cubiconics.cayley import (T4, TPAR, cayley_plane_curve,
                               cayley_plane_curve_macaulay)
from cubiconics.cubic_conics import (CubicSurface, _rref_line_candidates,
                                     absolutely_irreducible_cubic_mod_p,
                                     classify_cubic,
                                     cofactor_pair, conic_census, conic_family,
                                     family_image, find_lines,
                                     height_pairing_check, leading_family,
                                     line_in_forms, residual_conic,
                                     specialized_height)
from cubiconics.errors import BudgetError, DomainError, PropertyViolationError
from cubiconics.multipoly import MultiPoly, bezout_cutoff, binary_heights, gcd_binary_forms

P3C = ("T0", "T1", "T2")


def test_find_lines_fermat(fermat_surface):
    lines = find_lines(fermat_surface, 1)
    assert len(lines) == 3
    pluckers = {l.line.plucker for l in lines}
    assert len(pluckers) == 3
    reps = {(str(l.line.u), str(l.line.v)) for l in lines}
    assert ("1 * T0 + 1 * T1", "1 * T2 + 1 * T3") in reps
    # ideal-membership certificates are part of the result
    for rl in lines:
        assert rl.cofactor_u * rl.line.u + rl.cofactor_v * rl.line.v == fermat_surface.f


def test_found_count_below_27(corpus_forms):
    for f in corpus_forms[:4]:
        surf = CubicSurface.make(f)
        assert len(find_lines(surf, 1)) <= 27


def line_in_forms_by_substitution(rows, forms):
    """Reference ideal-membership test: solve each integer-scaled row for
    its pivot variable and substitute the solutions into every form."""
    for row in rows.tolist():
        piv = next(k for k, c in enumerate(row) if c != 0)
        expr = MultiPoly.zero(T4)
        for c in range(4):
            if c != piv and row[c] != 0:
                expr = expr - Fraction(row[c], row[piv]) * MultiPoly.variable(T4[c], T4)
        forms = [f.substitute({T4[piv]: expr}) for f in forms]
    return all(f.is_zero() for f in forms)


def assert_matches_substitution(forms, height):
    hits = 0
    for block in _rref_line_candidates(height, 10_000):
        got = line_in_forms(block, forms)
        assert got.shape == (len(block),)
        for rows, g in zip(block, got.tolist()):
            assert g == line_in_forms_by_substitution(rows, forms), rows.tolist()
        hits += int(got.sum())
    return hits


@pytest.mark.parametrize("case", ["fermat", "corpus_02", "corpus_06", "skew", "cone",
                                  "inhomogeneous", "fractional"])
def test_line_in_forms_matches_substitution(case, corpus_forms):
    f = {"fermat": MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4),
         "corpus_02": corpus_forms[1],  # no line of height 1
         "corpus_06": corpus_forms[5],
         "skew": MultiPoly.parse("T0^2*T2 + T1^2*T3", T4),
         "cone": MultiPoly.parse("T0^3 + T1^3 - T0*T1*T2", T4),
         # tested one homogeneous part at a time; one Fermat line survives
         "inhomogeneous": MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3 + T0*T2 + T1*T2",
                                          T4),
         # denominators are cleared before the int64 evaluation
         "fractional": MultiPoly.parse("1/2*T0^3 + 1/2*T1^3 + 2/3*T2^3 + 2/3*T3^3",
                                       T4)}[case]
    # the singular-line search of classify_cubic asks for [partials..., f];
    # the cone's T3 partial is the zero form
    forms = [f.partial(n) for n in T4] + [f] if case in ("skew", "cone") else [f]
    hits = assert_matches_substitution(forms, 1)
    assert (hits > 0) == (case != "corpus_02")


def test_line_in_forms_height_2_corpus(corpus_forms):
    # every one of the 2,850 candidates of height 2, whose rows carry
    # denominators 2 and so pivot entries up to 4
    assert assert_matches_substitution([corpus_forms[5]], 2) > 0


def test_line_in_forms_needs_degree_plus_one_zeros():
    # on the line T0 = T1 = 0, cubics with three zeros are not in the ideal
    block = np.array([[[1, 0, 0, 0], [0, 1, 0, 0]]], dtype=np.int64)
    for x, y in (("T2", "T3"), ("T3", "T2")):
        X, Y = MultiPoly.variable(x, T4), MultiPoly.variable(y, T4)
        for a, b in itertools.combinations(range(-3, 4), 2):
            g = X * (X - a * Y) * (X - b * Y)
            assert not line_in_forms(block, [g])[0]
            assert line_in_forms(block, [g * MultiPoly.variable("T0", T4)])[0]
    # rows that could wrap int64 in the spanning points are refused; one
    # below, the scaled rows span the same line
    for h in (g, g * MultiPoly.variable("T0", T4)):
        assert line_in_forms(block * ((1 << 28) - 1), [h])[0] == line_in_forms(block, [h])[0]
    with pytest.raises(DomainError):
        line_in_forms(block << 28, [g])


def test_line_candidates_blocks():
    blocks = list(_rref_line_candidates(2, 10_000))
    # one block per pivot pair: 7 values of height <= 2 in 4, 3, 2, 2, 1, 0 slots
    assert [b.shape for b in blocks] == [(7 ** k, 2, 4) for k in (4, 3, 2, 2, 1, 0)]
    with pytest.raises(BudgetError):
        next(_rref_line_candidates(2, 2849))
    # smaller blocks cut the same candidates, in the same order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubic_conics, "CHUNK_FIBERS", 100)
        small = list(_rref_line_candidates(2, 10_000))
    assert max(len(b) for b in small) == 100
    assert np.array_equal(np.concatenate(small), np.concatenate(blocks))


def test_classify_fermat(fermat_surface):
    rec = classify_cubic(fermat_surface.f)
    assert rec["essential_vars"] == 4
    assert rec["non_ruled"] == "certified"
    assert rec["ncc"]
    assert not rec["cylinder_over_curve"]


def _smooth_by_points(f, p):
    """Reference: no point of P^3(F_p) where f and its partials all vanish,
    by exact evaluation point by point."""
    _, f = f.rational_content()
    polys = [f] + [f.partial(n) for n in T4]
    if all(c % p == 0 for c in f.terms.values()):
        return False
    pts = [(0,) * lead + (1,) + t for lead in range(4)
           for t in itertools.product(range(p), repeat=3 - lead)]
    return not any(all(g.evaluate(pt) % p == 0 for g in polys) for pt in pts)


def test_smooth_mod_p_matches_point_check(corpus_forms):
    assert len(corpus_forms) == 14
    for f in corpus_forms:
        for p in cubic_conics.SMOOTHNESS_PRIMES:
            got = cubic_conics.smooth_mod_p(f, p)
            # a numpy bool would reach the classify JSON as a string
            assert type(got) is bool
            assert got == _smooth_by_points(f, p), (str(f), p)


def test_classify_skew_normal_form():
    rec = classify_cubic(MultiPoly.parse("T0^2*T2 + T1^2*T3", T4))
    assert rec["non_ruled"] == "ruled-skew-evidence"
    assert rec["singular_lines"]


def test_classify_cylinder():
    f = MultiPoly.parse("T0^3 + 3*T0^2*T1 + 3*T0*T1^2 + T1^3 + T2^3", T4)
    rec = classify_cubic(f)
    assert rec["essential_vars"] == 2
    assert rec["is_cone"]


def test_absolutely_irreducible():
    assert absolutely_irreducible_cubic_mod_p(
        MultiPoly.parse("T0^3 + T1^3 + T2^3", P3C), 5) == "certified-irreducible"
    assert absolutely_irreducible_cubic_mod_p(
        MultiPoly.parse("T0*T1^2 + T0*T2^2", P3C), 5) == "reducible"
    # content divisible by p: degenerate reduction
    assert absolutely_irreducible_cubic_mod_p(
        MultiPoly.parse("5*T0^3 + 5*T1^3 + 5*T2^3", P3C), 5) == "inconclusive"
    # reduction with a visible factor mod p only
    assert absolutely_irreducible_cubic_mod_p(
        MultiPoly.parse("3*T0^3 + T1^2*T2", P3C), 3) == "reducible"


def test_cofactor_pair(fermat_surface, fermat_line):
    A, B = fermat_surface.f, None
    a, b = cofactor_pair(fermat_surface.f, fermat_line.line.u, fermat_line.line.v)
    assert a == MultiPoly.parse("T0^2 - T0*T1 + T1^2", T4)
    assert b == MultiPoly.parse("T2^2 - T2*T3 + T3^2", T4)


def test_residual_conic_examples(fermat_surface, fermat_line):
    ell, Q = residual_conic(fermat_surface, fermat_line, (1, 0))
    assert ell == MultiPoly.parse("T0 + T1", T4)
    assert Q == MultiPoly.parse("T2^2 - T2*T3 + T3^2", T4)
    ell2, Q2 = residual_conic(fermat_surface, fermat_line, (0, 1))
    assert ell2 == MultiPoly.parse("T2 + T3", T4)
    assert Q2 == MultiPoly.parse("T0^2 - T0*T1 + T1^2", T4)
    ell_s, Q_s = residual_conic(fermat_surface, fermat_line, None)
    assert Q_s.degree_in(TPAR) <= 3
    with pytest.raises(DomainError):
        residual_conic(fermat_surface, fermat_line, (0, 0))


def test_conic_family_structure(fermat_pencil):
    pencil = fermat_pencil
    live = [q for q in pencil.b_ij.values() if not q.is_zero()]
    # coefficients all homogeneous of one measured degree, gcd-free family
    assert {q.total_degree() for q in live} == {pencil.family_degree}
    assert gcd_binary_forms(live, TPAR).total_degree() == 0
    # the content plus the family degree exhausts the resultant budget 3
    assert pencil.b_content.total_degree() + pencil.family_degree == 3
    # nonvanishing at sampled parameters
    rng = random.Random(2)
    for _ in range(100):
        t1, t2 = rng.randint(-40, 40), rng.randint(-40, 40)
        if (t1, t2) == (0, 0):
            continue
        g = gcd(abs(t1), abs(t2))
        assert specialized_height(pencil, t1 // g, t2 // g) >= 1


def test_family_degree_is_three(fermat_pencil):
    # the universal conic over the pencil sweeps the cubic surface
    # birationally, so a generic line meets deg X = 3 members
    assert fermat_pencil.family_degree == 3


def test_specialization_coherence(fermat_surface, fermat_line, fermat_pencil):
    for t in ((1, 0), (0, 1), (2, 3), (-1, 4)):
        ell, Q = residual_conic(fermat_surface, fermat_line, t)
        direct = cayley_plane_curve(Q, ell)
        assert fermat_pencil.specialize(*t).poly == direct.poly


@pytest.mark.parametrize("case", ["fermat", "corpus_06"])
def test_pencil_matches_macaulay_oracle(case, fermat_surface, fermat_line,
                                        fermat_pencil, corpus_forms):
    # the Macaulay route shares no step with the substitution that builds
    # the pencil, so this catches a wrong sign or index in either
    if case == "fermat":
        surf, line, pencil = fermat_surface, fermat_line, fermat_pencil
    else:
        surf = CubicSurface.make(corpus_forms[5])
        line = find_lines(surf, 1)[0]
        pencil = conic_family(surf, line)
    for t in ((1, 0), (0, 1), (2, -3)):
        ell, Q = residual_conic(surf, line, t)
        assert pencil.specialize(*t).poly == cayley_plane_curve_macaulay(Q, ell).poly


def test_leading_family(fermat_pencil):
    rep = leading_family(fermat_pencil, "certified-irreducible")
    assert rep["rank"] >= 2
    assert rep["no_common_zero"]


def test_family_image(fermat_pencil):
    img_b = family_image(fermat_pencil.b_ij.values())
    assert img_b["image_degree"] * img_b["cover_degree"] == \
        fermat_pencil.family_degree
    img_a = family_image(fermat_pencil.a_family)
    assert img_a["image_degree"] * img_a["cover_degree"] == \
        fermat_pencil.family_degree
    # synthetic rank-3 family: the quadratic monomial curve
    tn = TPAR
    fam3 = [MultiPoly.parse("t1^2", tn), MultiPoly.parse("t1*t2", tn),
            MultiPoly.parse("t2^2", tn)]
    r3 = family_image(fam3)
    assert r3 == {**r3, "rank": 3, "image_degree": 2, "cover_degree": 1,
                  "double_cover": False}
    # synthetic rank-2 family: line with a double cover
    fam2 = [MultiPoly.parse("t1^2", tn), MultiPoly.parse("t2^2", tn)]
    r2 = family_image(fam2)
    assert r2["rank"] == 2 and r2["double_cover"] and r2["image_degree"] == 1
    with pytest.raises(DomainError):
        family_image([MultiPoly.parse("t1^2", tn)])


def test_census(fermat_pencil):
    c = conic_census(fermat_pencil, 100)
    assert c["certified_complete"]
    assert c["count"] >= 1
    # below the minimum family height nothing counts
    mins = min(s["H"] for s in c["samples"])
    if mins > 1:
        c0 = conic_census(fermat_pencil, mins - 1)
        assert all(s["H"] >= mins for s in c0["samples"])
    # monotone in B
    c2 = conic_census(fermat_pencil, 200)
    assert c2["count"] >= c["count"]


def test_census_cutoff_certificate(fermat_pencil):
    cut = bezout_cutoff(*fermat_pencil.int_rows)
    assert cut is not None
    c = cut[0]
    assert c > 0
    # the cutoff really bounds heights from below on a sample
    d = fermat_pencil.family_degree
    rng = random.Random(8)
    for _ in range(60):
        t1, t2 = rng.randint(-25, 25), rng.randint(-25, 25)
        if (t1, t2) == (0, 0):
            continue
        g = gcd(abs(t1), abs(t2))
        t1, t2 = t1 // g, t2 // g
        H = specialized_height(fermat_pencil, t1, t2)
        assert Fraction(H) >= c * max(abs(t1), abs(t2)) ** d


def test_height_pairing(fermat_pencil):
    rep = height_pairing_check(fermat_pencil, n_samples=80, seed=1)
    assert rep["samples"] == 80
    # the fitted height exponent matches the measured family degree
    assert abs(rep["fitted_height_exponent"] - fermat_pencil.family_degree) < 0.2
    # and the 2h(t)-residual slope therefore sits near degree - 2
    assert abs(rep["slope"] - (fermat_pencil.family_degree - 2)) < 0.2


def _height_by_python(rows, d, t1, t2):
    vals = [sum(c * t1 ** (d - i) * t2 ** i for i, c in enumerate(r)) for r in rows]
    return max(map(abs, vals)) // gcd(*vals)


def _random_primitive_pairs(rng, tmax, n):
    out = []
    while len(out) < n:
        t1, t2 = rng.randint(-tmax, tmax), rng.randint(-tmax, tmax)
        if gcd(t1, t2) == 1:
            out.append((t1, t2))
    return out


def test_heights_match_python_on_both_sides_of_the_int64_switch():
    rng = random.Random(21)
    d = 3
    cases = [
        # |c| near 10^10 with small |t| and |c| <= 1 with |t| near 10^6 stay
        # in int64; |c| near 10^10 with |t| near 10^6 does not
        ([[rng.randint(-10 ** 10, 10 ** 10) for _ in range(d + 1)] for _ in range(5)], 60, np.int64),
        ([[rng.choice((-1, 0, 1)) for _ in range(d + 1)] for _ in range(5)] + [[1, 0, 0, 1]],
         10 ** 6, np.int64),
        ([[rng.randint(-10 ** 10, 10 ** 10) for _ in range(d + 1)] for _ in range(5)], 10 ** 6, object),
    ]
    for rows, tmax, dtype in cases:
        pairs = _random_primitive_pairs(rng, tmax, 40) + [(1, 0), (0, 1), (tmax, 1 - tmax)]
        H = binary_heights(rows, d, pairs)
        assert H.dtype == dtype
        assert H.tolist() == [_height_by_python(rows, d, t1, t2) for t1, t2 in pairs]
    # the switch itself: (row sum of |c|) * T^d just below and at 2^62
    T = 2 ** 20
    for s, dtype in ((2 ** 2 - 1, np.int64), (2 ** 2, object)):
        rows = [[s, 0, 0, 0], [0, 0, 0, 1]]
        H = binary_heights(rows, d, [(T, 1), (T, -T + 1)])
        assert H.dtype == dtype
        assert H.tolist() == [_height_by_python(rows, d, t1, t2)
                              for t1, t2 in [(T, 1), (T, -T + 1)]]


def test_heights_reject_a_vanishing_member():
    rows = [[1, -1, 0], [2, -2, 0]]  # t1 (t1 - t2) and twice it
    assert binary_heights(rows, 2, [(1, 2)]).tolist() == [2]
    with pytest.raises(PropertyViolationError, match=r"t = \(1, 1\)"):
        binary_heights(rows, 2, [(1, 2), (1, 1), (0, 1)])


def test_census_blocks_split_the_pair_range(fermat_pencil, monkeypatch):
    whole = conic_census(fermat_pencil, 60)
    rows, d = fermat_pencil.int_rows
    m = whole["cutoff_m"]
    pairs = [(0, 1)] + [(t1, t2) for t1 in range(1, m + 1) for t2 in range(-m, m + 1)
                        if gcd(t1, t2) == 1]
    hits = [(t, H) for t in pairs if (H := _height_by_python(rows, d, *t)) <= 60]
    assert whole["count"] == len(hits)
    assert whole["samples"] == [{"t": t, "H": H} for t, H in hits[:12]]
    # blocks of 7 and 10 parameters, so block edges fall inside t1 rows;
    # the walk reads the block size and the heights from multipoly
    sizes = []

    def recorded(rows, d, pairs):
        sizes.append(len(pairs))
        return binary_heights(rows, d, pairs)

    monkeypatch.setattr(multipoly, "binary_heights", recorded)
    for block in (7, 10):
        sizes.clear()
        monkeypatch.setattr(multipoly, "CHUNK_FIBERS", block * len(rows))
        assert conic_census(fermat_pencil, 60) == whole
        assert len(sizes) > 1 and max(sizes) <= block


def test_census_without_coprime_rows_fails_loudly():
    # t1 t2, t1 (t1 + t2), t2 (t1 + t2): content 1, but every pair shares a
    # factor, so no Bezout cutoff bounds the parameters
    pencil = types.SimpleNamespace(int_rows=([[0, 1, 0], [1, 1, 0], [0, 1, 1]], 2))
    assert gcd_binary_forms([MultiPoly.parse(g, TPAR) for g in
                             ("t1*t2", "t1^2 + t1*t2", "t1*t2 + t2^2")], TPAR).total_degree() == 0
    with pytest.raises(BudgetError, match="no coprime pair"):
        conic_census(pencil, 10)


def test_height_pairing_refuses_more_samples_than_classes(fermat_pencil):
    # 4 * (phi(1) + phi(2) + phi(3)) = 16 primitive classes of height <= 3
    assert height_pairing_check(fermat_pencil, n_samples=16, max_height=3)["samples"] == 16
    for n, M in ((5, 1), (17, 3)):
        with pytest.raises(DomainError, match="exceeds"):
            height_pairing_check(fermat_pencil, n_samples=n, max_height=M)


def _plane_through(x, seed):
    c = [Fraction(v) for v in seed]
    dot = sum(ci * xi for ci, xi in zip(c, x))
    k = next(i for i, v in enumerate(x) if v)
    c[k] -= Fraction(dot, x[k])
    return MultiPoly(T4, {tuple(1 if i == j else 0 for i in range(4)): c[j]
                          for j in range(4) if c[j]})


def test_family_matches_incidence_geometry(fermat_surface, fermat_line,
                                           fermat_pencil):
    """Independent consistency route: specializing the family at the line
    coordinates of any line through a surface point x (off the base line)
    gives a binary form in the pencil parameters that must vanish at the
    parameter of the unique pencil member through x."""
    from cubiconics.cayley import LineP3, PLUCKER
    from cubiconics.multipoly import restrict
    fam = fermat_pencil.psi_family.poly
    for x in ((3, 4, 5, -6), (9, -12, 10, -1), (4, 5, 3, -6)):
        assert sum(v ** 3 for v in x) == 0
        M = LineP3.make(_plane_through(x, (1, 2, 0, 0)),
                        _plane_through(x, (0, 1, 3, 1)))
        subx = {n: Fraction(v) for n, v in zip(T4, x)}
        l1x = fermat_line.line.u.substitute(subx).coefficient((0,) * 4)
        l2x = fermat_line.line.v.substitute(subx).coefficient((0,) * 4)
        assert (l1x, l2x) != (0, 0)
        bin_t = restrict(fam.substitute(
            {n: Fraction(v) for n, v in zip(PLUCKER, M.plucker)}), TPAR)
        assert bin_t.total_degree() == fermat_pencil.family_degree
        assert bin_t.substitute({"t1": l2x, "t2": -l1x}).is_zero()


def test_bad_reduction_census_on_pencil_member(fermat_pencil):
    # the census also consumes the degree-2 forms in the six line coordinates
    from cubiconics.hilbert_samuel import bad_reduction_census
    psi = fermat_pencil.specialize(1, 2)
    c = bad_reduction_census(psi.poly)
    assert c.complete and c.threshold == 432
    assert all(p > 432 for p, _ in c.bad_primes)


def test_pencil_on_corpus_member(corpus_forms):
    f = corpus_forms[3]
    surf = CubicSurface.make(f)
    lines = find_lines(surf, 2)
    assert lines
    pencil = conic_family(surf, lines[0])
    live = [q for q in pencil.b_ij.values() if not q.is_zero()]
    assert gcd_binary_forms(live, TPAR).total_degree() == 0
