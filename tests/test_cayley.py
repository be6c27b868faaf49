import hashlib
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cubiconics.cayley import (PLUCKER, T4, UV, LineP3, PluckerForm,
                               canonical_mod_G, cayley_degree_parts,
                               cayley_hypersurface, cayley_plane_curve,
                               cayley_plane_curve_macaulay, grassmann_relation,
                               incidence_form, minor_biforms, plucker_of_line,
                               rewrite_biform_to_plucker, top_part_check,
                               transform_FH, transform_Ta)
from cubiconics.errors import DomainError, NotFrameInvariantError
from cubiconics.multipoly import MultiPoly, macaulay_resultant, monomials_of_degree, restrict


def lin(s):
    return MultiPoly.parse(s, T4)


def rand_line(rng):
    while True:
        u = MultiPoly(T4, {tuple(1 if i == k else 0 for i in range(4)):
                           rng.randint(-2, 2) for k in range(4)})
        v = MultiPoly(T4, {tuple(1 if i == k else 0 for i in range(4)):
                           rng.randint(-2, 2) for k in range(4)})
        try:
            return LineP3.make(u, v)
        except (DomainError, AssertionError):
            continue


def test_plucker_of_line():
    assert plucker_of_line(lin("T2"), lin("T3")) == (0, 0, 0, 0, 0, 1)
    assert plucker_of_line(lin("T0"), lin("T1")) == (1, 0, 0, 0, 0, 0)
    assert plucker_of_line(lin("T0 + T1"), lin("T2")) == (0, 1, 0, 1, 0, 0)
    with pytest.raises(DomainError):
        plucker_of_line(lin("T0"), lin("2*T0"))


def test_incidence_form_examples():
    assert str(incidence_form(LineP3.make(lin("T2"), lin("T3")))) == "1 * p01"
    assert str(incidence_form(LineP3.make(lin("T0"), lin("T1")))) == "1 * p23"


def test_incidence_exactness_random_pairs():
    # psi_L(p(M)) = 0 exactly when the stacked 4x4 hyperplane matrix is singular
    from cubiconics.linalg import det
    rng = random.Random(12)
    for _ in range(1000):
        L, M = rand_line(rng), rand_line(rng)
        val = incidence_form(L).evaluate(M.plucker)
        rows = []
        for form in (L.u, L.v, M.u, M.v):
            rows.append([form.coefficient(tuple(1 if i == k else 0 for i in range(4)))
                         for k in range(4)])
        assert (val == 0) == (det(rows) == 0)


def test_self_incidence():
    rng = random.Random(5)
    for _ in range(30):
        L = rand_line(rng)
        assert incidence_form(L).evaluate(L.plucker) == 0


def test_grassmann_relation_on_minors():
    G = grassmann_relation()
    minors = minor_biforms()
    big = PLUCKER + UV
    sub = {n: restrict(minors[n], big) for n in PLUCKER}
    assert restrict(restrict(G, big).substitute(sub), UV).is_zero()


def test_canonical_mod_G():
    f = MultiPoly.parse("p01*p23", PLUCKER)
    red = canonical_mod_G(f)
    assert red == MultiPoly.parse("p02*p13 - p03*p12", PLUCKER)
    # no monomial divisible by p01*p23 in any canonical output
    i01, i23 = 0, 5
    assert all(not (e[i01] and e[i23]) for e in red.terms)


@st.composite
def plane_curve(draw):
    coeff = st.integers(-2, 2)
    ell = MultiPoly(T4, {tuple(int(i == k) for i in range(4)): draw(coeff)
                         for k in range(4)})
    monos = monomials_of_degree(4, draw(st.sampled_from((3, 2, 1))))
    picks = draw(st.lists(st.integers(0, len(monos) - 1), min_size=1, max_size=4))
    Q = MultiPoly(T4, {monos[i]: draw(st.sampled_from((1, -1, 2, -2))) for i in picks})
    return Q, ell


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(plane_curve())
def test_cayley_plane_curve_matches_macaulay(case):
    Q, ell = case
    if ell.is_zero() or Q.is_zero() or ell.divides(Q):
        with pytest.raises(DomainError):
            cayley_plane_curve(Q, ell)
        return
    assert cayley_plane_curve(Q, ell).poly == cayley_plane_curve_macaulay(Q, ell).poly


# sha256 of the Macaulay oracle's output on six seeded random conics, then of
# the symbolic resultant Res(q, l, h1, h2) with generic planes h1, h2
MACAULAY_ORACLE = "c6c626a7a1128b1d3fcb14625b717b1ca5244a28a6bc8fe89d6eb0993a6a3405"


def test_macaulay_oracle_output_is_pinned():
    rng = random.Random(27)
    monos = monomials_of_degree(4, 2)
    h = hashlib.sha256()
    done = 0
    while done < 6:
        ell = MultiPoly(T4, {tuple(int(i == k) for i in range(4)): rng.randint(-2, 2)
                             for k in range(4)})
        Q = MultiPoly(T4, {monos[rng.randrange(len(monos))]: rng.choice((1, -1, 2, -2, 3))
                           for _ in range(4)})
        if ell.is_zero() or ell.divides(Q):
            continue
        h.update(str(cayley_plane_curve_macaulay(Q, ell)).encode())
        done += 1
    names = T4 + UV
    planes = [sum((MultiPoly.variable(f"{a}{i}", names) * MultiPoly.variable(f"T{i}", names)
                   for i in range(4)), MultiPoly.zero(names)) for a in "uv"]
    forms = [restrict(MultiPoly.parse(s, T4), names) for s in ("T2^2 - T2*T3 + T3^2", "T0 + T1")]
    h.update(str(macaulay_resultant(forms + planes, T4)).encode())
    assert h.hexdigest() == MACAULAY_ORACLE


def test_cayley_hypersurface():
    w = cayley_hypersurface(MultiPoly.parse("T0", T4))
    assert str(w) == "1 * w123"
    w2 = cayley_hypersurface(MultiPoly.parse("T0 + T1", T4))
    assert w2 == MultiPoly.parse("w123 - w023", ("w123", "w023", "w013", "w012"))
    # degree preserved
    f = MultiPoly.parse("T0^3 + T1^2*T3 + T2^3", T4)
    assert cayley_hypersurface(f).total_degree() == 3


def test_cayley_hypersurface_multiplicative():
    rng = random.Random(7)
    for _ in range(5):
        f = MultiPoly(T4, {tuple(1 if i == k else 0 for i in range(4)):
                           rng.randint(-3, 3) for k in range(4)})
        g = MultiPoly(T4, {(2, 0, 0, 0): rng.randint(-3, 3), (0, 1, 1, 0): 1})
        if f.is_zero() or g.is_zero():
            continue
        lhs = cayley_hypersurface(f * g)
        rhs = cayley_hypersurface(f) * cayley_hypersurface(g)
        _, rhs = rhs.rational_content()
        assert lhs == rhs


def test_rewrite_biform_examples():
    minors = minor_biforms()
    b1 = minors["p01"] * minors["p01"]
    P1 = rewrite_biform_to_plucker(b1)
    assert P1.poly == MultiPoly.parse("p01^2", PLUCKER)
    b2 = minors["p01"] * minors["p23"]
    P2 = rewrite_biform_to_plucker(b2)
    assert P2.poly == MultiPoly.parse("p02*p13 - p03*p12", PLUCKER)
    # degree-1 biform: unique, no G ambiguity
    P3 = rewrite_biform_to_plucker(minors["p13"])
    assert P3.poly == MultiPoly.parse("p13", PLUCKER)


def test_rewrite_round_trips_random_reduced_forms():
    # a G-reduced form P, expanded through the minors, descends back to P
    rng = random.Random(29)
    minors = minor_biforms()
    big = PLUCKER + UV
    sub = {n: restrict(minors[n], big) for n in PLUCKER}
    for k in (1, 1, 2, 2, 3, 3):
        monos = [e for e in monomials_of_degree(6, k) if not (e[0] and e[5])]
        P = MultiPoly(PLUCKER, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                for e in rng.sample(monos, rng.randint(1, 6))})
        if P.is_zero():
            continue
        b = restrict(restrict(P, big).substitute(sub), UV)
        assert rewrite_biform_to_plucker(b).poly == PluckerForm.make(P).poly


def test_rewrite_rejects_non_invariant():
    u0 = MultiPoly.variable("u0", UV)
    v1 = MultiPoly.variable("v1", UV)
    with pytest.raises(NotFrameInvariantError):
        rewrite_biform_to_plucker(u0 * v1)


def test_cayley_plane_curve_line_case():
    psi = cayley_plane_curve(lin("T2"), lin("T3"))
    assert str(psi) == "1 * p01"
    assert psi.poly == incidence_form(LineP3.make(lin("T2"), lin("T3"))).poly


def test_cayley_plane_curve_degenerate():
    with pytest.raises(DomainError):
        cayley_plane_curve(MultiPoly.parse("T3*T2", T4), lin("T3"))


def test_conic_cayley_vs_macaulay_and_vanishing():
    Q = MultiPoly.parse("T2^2 - T2*T3 + T3^2", T4)
    ell = MultiPoly.parse("T0 + T1", T4)
    psi = cayley_plane_curve(Q, ell)
    assert psi.degree == 2
    assert psi.poly == cayley_plane_curve_macaulay(Q, ell).poly
    # vanishing at sampled incident lines: lines through points of the curve
    rng = random.Random(3)
    hits = 0
    pts = [(1, -1, 0, 0)]  # the curve's one rational point
    for p in pts:
        for _ in range(40):
            w = [rng.randint(-3, 3) for _ in range(4)]
            # a line through p: two independent hyperplanes containing p
            u = _plane_through(p, w, rng)
            v = _plane_through(p, w, rng)
            try:
                M = LineP3.make(u, v)
            except (DomainError, AssertionError):
                continue
            assert psi.evaluate(M.plucker) == 0
            hits += 1
    assert hits > 20
    # nonzero at a non-incident line
    assert psi.evaluate(LineP3.make(lin("T0"), lin("T2")).plucker) != 0


def _plane_through(p, w, rng):
    # random hyperplane vanishing at the point p
    while True:
        c = [rng.randint(-4, 4) for _ in range(4)]
        dot = sum(ci * pi for ci, pi in zip(c, p))
        # adjust the coefficient at a nonzero coordinate to hit the point
        k = next(i for i, v in enumerate(p) if v != 0)
        c[k] -= Fraction(dot, p[k])
        f = MultiPoly(T4, {tuple(1 if i == j else 0 for i in range(4)): c[j]
                           for j in range(4) if c[j]})
        if not f.is_zero():
            return f


def test_transform_FH():
    psi = PluckerForm.make(MultiPoly.parse("p01 + p23", PLUCKER))
    assert str(transform_FH(psi, 2)) == "1 * p01 + 2 * p23"
    assert transform_FH(psi, 1).poly == psi.poly
    assert transform_FH(transform_FH(psi, 2), Fraction(1, 2)).poly == psi.poly
    with pytest.raises(DomainError):
        transform_FH(psi, 0)


def _random_conic_pair(rng):
    while True:
        ell = MultiPoly(T4, {tuple(1 if i == k else 0 for i in range(4)):
                             rng.randint(-2, 2) for k in range(4)})
        terms = {}
        for _ in range(5):
            e = [0, 0, 0, 0]
            e[rng.randrange(4)] += 1
            e[rng.randrange(4)] += 1
            terms[tuple(e)] = rng.randint(-2, 2)
        Q = MultiPoly(T4, terms)
        if ell.is_zero() or Q.is_zero() or Q.total_degree() != 2:
            continue
        if ell.divides(Q):
            continue
        return Q, ell


def test_FH_law_direction_on_a_line():
    # V(T0, T2 + T3) maps under x3 -> H*x3 to V(T0, T2 + H^-1 T3) with forms
    # T3 -> T3/H; its incidence form is the law applied to the original
    H = Fraction(3)
    psi = cayley_plane_curve(lin("T2 + T3"), lin("T0"))
    QH = MultiPoly.parse("T2 + T3", T4).substitute(
        {"T3": (1 / H) * MultiPoly.variable("T3", T4)})
    psiH = cayley_plane_curve(QH, lin("T0"))
    assert psiH.poly == transform_FH(psi, H).poly


def test_FH_recompute_agreement_random_conics():
    rng = random.Random(23)
    H = Fraction(2)
    done = 0
    while done < 5:
        Q, ell = _random_conic_pair(rng)
        try:
            psi = cayley_plane_curve(Q, ell)
        except DomainError:
            continue
        # image surface of x3 -> H x3 has defining forms with T3 -> T3/H
        QH = Q.substitute({"T3": (1 / H) * MultiPoly.variable("T3", T4)})
        ellH = ell.substitute({"T3": (1 / H) * MultiPoly.variable("T3", T4)})
        try:
            psiH = cayley_plane_curve(QH, ellH)
        except DomainError:
            continue
        law = transform_FH(psi, H)
        assert psiH.poly == law.poly
        done += 1


def test_Ta_top_part_invariance_random_conics():
    rng = random.Random(29)
    done = 0
    while done < 5:
        Q, ell = _random_conic_pair(rng)
        a = tuple(rng.randint(-2, 2) for _ in range(3))
        try:
            psi = cayley_plane_curve(Q, ell)
            Qt, ellt = transform_Ta([Q, ell], a)
            psit = cayley_plane_curve(Qt, ellt)
        except DomainError:
            continue
        assert top_part_check(psi, psit, psi.degree, index=0)
        done += 1


def test_translation_composes():
    rng = random.Random(31)
    f = MultiPoly.parse("T0^3 + T1^2*T2 + T3^3", T4)
    a = (1, -2, 0)
    b = (0, 1, 1)
    ab = tuple(x + y for x, y in zip(a, b))
    lhs = transform_Ta(transform_Ta([f], a), b)[0]
    rhs = transform_Ta([f], ab)[0]
    assert lhs == rhs
    assert transform_Ta([f], (0, 0, 0))[0] == f


def test_degree_parts():
    psi = PluckerForm.make(MultiPoly.parse("p01*p02", PLUCKER))
    parts = cayley_degree_parts(psi, 0)
    assert list(parts) == [2]
    psi2 = PluckerForm.make(MultiPoly.parse("p12^2", PLUCKER))
    assert list(cayley_degree_parts(psi2, 0)) == [0]
    mixed = MultiPoly.parse("p01*p02 + p12*p13 + p01*p12", PLUCKER)
    parts3 = cayley_degree_parts(mixed, 0)
    total = MultiPoly.zero(PLUCKER)
    for q in parts3.values():
        total = total + q
    assert total == mixed
