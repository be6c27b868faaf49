import itertools
import math
import random

import pytest

from cubiconics.errors import (BudgetError, ConfigError,
                               DegenerateReductionError, DomainError)
from cubiconics.hilbert_samuel import (BOUND_KINDS, C4, C1_prime, ExternalConstants,
                                       bad_reduction_census, bound_evaluator,
                                       bound_exponent, geometric_hs,
                                       geometric_hs_window,
                                       is_geometrically_integral_quadratic,
                                       local_hs, q_lower_bound,
                                       q_lower_bound_check, q_partial_sum,
                                       q_series, reduction_point_census)
from cubiconics.exactarith import reduce_mod_p
from cubiconics.multipoly import MultiPoly, monomials_of_degree

P2 = ("T0", "T1", "T2")


def test_local_hs_values():
    assert local_hs(2, 1, 3) == 4
    assert local_hs(2, 2, 1) == 3
    assert local_hs(3, 5, 0) == 1
    # for multiplicity 1 the values are the full polynomial-ring dimensions
    for d in range(1, 5):
        for s in range(6):
            assert local_hs(d, 1, s) == math.comb(d - 1 + s, d - 1)


def test_q_partial_sum():
    assert q_partial_sum(2, 1, 1) == 0
    assert q_series(2, 1, 6) == [0, 1, 1, 2, 2, 2]
    assert q_partial_sum(2, 1, 6) == 8
    assert q_partial_sum(2, 1, 3) == 2


def test_q_increments_nondecreasing():
    for d in (1, 2, 3):
        for mu in (1, 2, 3):
            s = q_series(d, mu, 200)
            assert all(a <= b for a, b in zip(s, s[1:]))


def test_q_lower_bound_values():
    assert abs(q_lower_bound(2, 1, 6) - 2.8564) < 1e-3
    assert q_lower_bound(1, 1, 1) < 0  # bound is negative at m=1, Q(1)=0 passes
    rep = q_lower_bound_check(2, 1, 500)
    assert rep["violations"] == 0 and rep["min_slack"] > 0
    with pytest.raises(BudgetError):
        q_lower_bound_check(5, 1, 10)


def test_geometric_hs():
    assert geometric_hs(1, 2, 2) == 5
    assert geometric_hs(2, 3, 3) == 19
    lo, hi, rg = geometric_hs_window(1, 2, 2)
    assert (lo, hi, rg) == (True, True, 5)
    # independent monomial-count oracle: degree-D forms minus degree-(D-delta)
    def monoms(nvars, d):
        return math.comb(d + nvars - 1, nvars - 1) if d >= 0 else 0
    for d in (1, 2, 3):
        for delta in (2, 3):
            for D in range(0, 12):
                assert geometric_hs(d, delta, D) == \
                    monoms(d + 2, D) - monoms(d + 2, D - delta)


def test_reduction_point_census():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    n, pts = reduction_point_census(conic, 3)
    assert n == 4 and all(x["mu"] == 1 for x in pts)
    for p in (3, 5, 7, 11):
        n2, _ = reduction_point_census(conic, p)
        assert n2 == p + 1
    two_lines = MultiPoly.parse("T0*T1", P2)
    n3, pts3 = reduction_point_census(two_lines, 2)
    # plain tuples of Python ints, as demos/02 prints them
    assert all(type(x["point"]) is tuple and all(type(c) is int for c in x["point"])
               for x in pts3)
    mus = {x["point"]: x["mu"] for x in pts3}
    assert mus[(0, 0, 1)] == 2
    with pytest.raises(DegenerateReductionError):
        reduction_point_census(MultiPoly.parse("5*T0^2 + 5*T1^2", P2), 5)


def _jet_multiplicity(red, pt, p):
    """Reference: order of vanishing at pt of the dehomogenized local
    expansion, by expanding every monomial with binomials mod p."""
    i = next(k for k, x in enumerate(pt) if x != 0)  # chart coordinate, value 1
    others = [k for k in range(3) if k != i]
    # local coordinates u,v: x_{others[0]} = a + u, x_{others[1]} = b + v, x_i = 1
    a, b = pt[others[0]], pt[others[1]]
    local = {}
    for e, c in red.items():
        e0, e1 = e[others[0]], e[others[1]]
        for k0 in range(e0 + 1):
            c0 = math.comb(e0, k0) * pow(a, e0 - k0, p) % p
            for k1 in range(e1 + 1):
                c1 = math.comb(e1, k1) * pow(b, e1 - k1, p) % p
                local[k0, k1] = (local.get((k0, k1), 0) + c * c0 * c1) % p
    return min((k0 + k1 for (k0, k1), c in local.items() if c), default=0)


def _random_ternary(rng, d):
    return MultiPoly(P2, {e: rng.randint(-4, 4) for e in monomials_of_degree(3, d)
                          if rng.random() < 0.5})


def _product_of_lines(rng, d):
    out = MultiPoly.constant(1, P2)
    for _ in range(d):
        out = out * MultiPoly(P2, {tuple(int(j == i) for j in range(3)): rng.randint(-2, 2)
                                   for i in range(3)})
    return out


def _canonical_plane_points(p):
    return [(0,) * lead + (1,) + t for lead in range(3)
            for t in itertools.product(range(p), repeat=2 - lead)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduction_point_census_matches_binomial_expansion(p):
    rng = random.Random(500 + p)
    for d in (1, 2, 3, 4):
        for make in (_random_ternary, _product_of_lines):
            for _ in range(5):
                f = make(rng, d)
                red = reduce_mod_p(f, p)
                if not red:
                    continue
                n, pts = reduction_point_census(f, p)
                want = [pt for pt in _canonical_plane_points(p)
                        if f.evaluate(pt) % p == 0]
                assert [x["point"] for x in pts] == want, (str(f), p)
                assert [x["mu"] for x in pts] == [_jet_multiplicity(red, pt, p)
                                                  for pt in want], (str(f), p)
                assert n == sum(x["mu"] for x in pts)


def test_bad_reduction_census():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    c = bad_reduction_census(conic)
    assert c.threshold == 432
    assert c.bad_primes == [] and c.b_prime == 1.0
    assert abs(c.certifying_minor) == 2

    q = MultiPoly.parse("T0^2 + T1^2 + 433*T2^2", P2)
    c2 = bad_reduction_census(q)
    assert [p for p, _ in c2.bad_primes] == [433]
    assert abs(c2.b_prime - math.exp(math.log(433) / 433)) < 1e-12

    with pytest.raises(DomainError):
        bad_reduction_census(MultiPoly.parse("T0^2 - T1^2", P2))  # rank 2


def test_geometric_integrality_char2():
    q = MultiPoly.parse("T0*T1 + T2^2", P2)
    assert is_geometrically_integral_quadratic(q)
    assert is_geometrically_integral_quadratic(q, p=3)
    # T0^2 + T1^2 splits over F_4
    assert not is_geometrically_integral_quadratic(
        MultiPoly.parse("T0^2 + T1^2", P2))


def test_bound_exponents():
    assert abs(bound_exponent("conics-rational") - 1.6495) < 1e-4
    assert abs(bound_exponent("conics-integral") - 0.9330) < 1e-4
    assert bound_exponent("projective-curve", 2) == 1.0
    assert abs(bound_exponent("affine-surface", 3) - 3 ** -0.5) < 1e-12


def test_bound_evaluator():
    k = ExternalConstants()
    v = bound_evaluator("conics-rational", {"B": 100}, k)
    assert v > 1e100  # astronomically large with any constants
    with pytest.raises(ConfigError):
        bound_evaluator("nope", {"B": 2}, k)
    with pytest.raises(ConfigError):
        bound_evaluator("conics-rational", {}, k)
    with pytest.raises(ConfigError):
        bound_evaluator("conics-rational", {"B": 2}, None)


@pytest.mark.parametrize("missing", ["B", "n", "delta"])
def test_bound_evaluator_names_a_missing_parameter(missing):
    params = {k: v for k, v in {"B": 2, "n": 3, "delta": 3}.items() if k != missing}
    with pytest.raises(ConfigError, match=f"^missing parameter {missing}$"):
        bound_evaluator("projective-curve", params, ExternalConstants())


def test_bound_evaluator_every_kind():
    # n = 3, delta = 3, with the default constants and with b1 = 3, where the
    # composite constant C4(3, 2, 3) of the integral conic bound turns >= 0
    params = {"n": 3, "delta": 3}
    k0, k3 = ExternalConstants(), ExternalConstants(b1=3.0)
    assert C4(3, 2, 3, k0) < 0 <= C4(3, 2, 3, k3)
    shapes = {"projective-curve": (C1_prime, 1, 3 ** 4, 2 / 3),
              "projective-surface": (C1_prime, 2, 3 ** 3, 3 / (2 * 3 ** 0.5)),
              "affine-curve": (C4, 1, 3 ** 4, 1 / 3),
              "affine-surface": (C4, 2, 3 ** 3, 3 ** -0.5)}
    for kind in BOUND_KINDS:
        for k in (k0, k3):
            v, v2 = (bound_evaluator(kind, {**params, "B": B}, k) for B in (100, 200))
            if kind == "conics-integral" and k is k0:
                assert math.isnan(v) and math.isnan(v2)
                continue
            e = bound_exponent(kind, 3)
            if kind in shapes:
                const, d, scale, exponent = shapes[kind]
                assert e == pytest.approx(exponent)
                assert v == pytest.approx(const(3, d, 3, k) * scale * 100 ** exponent)
                assert v2 / v == pytest.approx(2 ** e)
            else:
                assert v > 0
                assert v2 / v == pytest.approx(2 ** e * math.log(200) / math.log(100))


def test_constants_file_rejects_unused_keys(tmp_path):
    for key in ("eps1", "eps3"):
        p = tmp_path / f"{key}.txt"
        p.write_text(f"{key} = 0.5\n")
        with pytest.raises(ConfigError):
            ExternalConstants.from_file(p)


def test_external_constants_labels(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("b1 = 0.5\nkappa1=0.1\n# comment\n")
    k2 = ExternalConstants.from_file(p)
    assert k2.b1 == 0.5 and k2.kappa1 == 0.1
    bad = tmp_path / "bad.txt"
    bad.write_text("nope = 3\n")
    with pytest.raises(ConfigError):
        ExternalConstants.from_file(bad)
