import hashlib
import random
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np
import pytest

from cubiconics import detmethod
from cubiconics.cli import load_forms
from cubiconics.detmethod import (OMEGA_BUDGET, _hilbert, _kernel_witness,
                                  _matrix_mod_p, _power_table,
                                  _product_of_lines_witness, _quotient,
                                  _standard, auxiliary_form, evaluation_matrix,
                                  exact_kernel, minimal_omega,
                                  translation_search)
from cubiconics.errors import BudgetError, DomainError
from cubiconics.hilbert_samuel import ExternalConstants
from cubiconics.linalg import rank_mod_p
from cubiconics.multipoly import MultiPoly, monomials_of_degree, restrict
from cubiconics.pointcount import enumerate_projective

P2 = ("T0", "T1", "T2")
A3 = ("T1", "T2", "T3")


def test_evaluation_matrix_shapes():
    M = evaluation_matrix([(1, 0)], 1)
    assert len(M.rows) == 1 and len(M.monomials) == 2
    pts = [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
    M4 = evaluation_matrix(pts, 2)
    assert len(M4.rows) == 4 and len(M4.monomials) == 6
    # duplicate rows leave the rank unchanged
    M5 = evaluation_matrix(pts + [pts[0]], 2)
    k4 = exact_kernel(M4.rows, 6)
    k5 = exact_kernel(M5.rows, 6)
    assert len(k4) == len(k5) == 2
    # each entry is the monomial's value, computed term by term
    rng = random.Random(3)
    pts = [tuple(rng.choice((0, -1, rng.randint(-9, 9))) for _ in range(4))
           for _ in range(12)]
    M6 = evaluation_matrix(pts, 5)
    assert M6.rows == [[prod(x ** e for x, e in zip(p, mono)) for mono in M6.monomials]
                       for p in pts]


def test_exact_kernel():
    assert exact_kernel([[1, 0], [0, 1]]) == []
    rng = random.Random(7)
    A = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(10)]
    B = [[rng.randint(-5, 5) for _ in range(10)] for _ in range(7)]
    prod = [[sum(A[i][k] * B[k][j] for k in range(7)) for j in range(10)]
            for i in range(10)]
    ker = exact_kernel(prod, 10)
    assert len(ker) == 3
    for v in ker:
        for row in prod:
            assert sum(Fraction(x) * y for x, y in zip(row, v)) == 0


def test_auxiliary_form_examples():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    pts = [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
    af = auxiliary_form([conic], P2, pts, 2)
    assert af is not None
    for p in pts:
        sub = {n: Fraction(v) for n, v in zip(P2, p)}
        assert af.form.substitute(sub).is_zero()
    assert not conic.divides(af.form)

    line = MultiPoly.parse("T2", P2)
    collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]
    assert auxiliary_form([line], P2, collinear, 2) is None
    assert auxiliary_form([line], P2, collinear, 3) is None

    empty = auxiliary_form([line], P2, [], 1)
    assert empty is not None and empty.form.total_degree() == 1


def test_auxiliary_form_refuses_points_off_the_variety():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    with pytest.raises(DomainError):
        auxiliary_form([conic], P2, [(1, 0, 0), (1, 1, 0)], 2)


def test_non_squarefree_form_is_refused():
    # T2^2 cuts the line T2 = 0 twice: a witness such as T2 vanishes on V,
    # so neither search may certify one
    double = MultiPoly.parse("T2^2", P2)
    collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]
    with pytest.raises(DomainError, match="squarefree"):
        minimal_omega([double], P2, 1)
    with pytest.raises(DomainError, match="squarefree"):
        auxiliary_form([double], P2, collinear, 2)
    # a reducible but squarefree form passes the check
    pair = MultiPoly.parse("T0*T1", P2)
    assert minimal_omega([pair], P2, 1)["certificate"]["not_containing_variety"]


def test_minimal_omega_line_and_conic():
    line = MultiPoly.parse("T2", P2)
    r = minimal_omega([line], P2, 1, constants=ExternalConstants())
    assert r["omega"] == 4
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    r2 = minimal_omega([conic], P2, 2)
    assert r2["omega"] == 2
    assert "bound_shape" not in r2 or r2["bound_shape"]["value"] > 0


def test_minimal_omega_growth_and_monotone():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    omegas = [minimal_omega([conic], P2, B)["omega"] for B in (2, 4, 8, 16)]
    assert omegas == sorted(omegas)
    import math
    slope = (math.log(omegas[-1]) - math.log(omegas[1])) / math.log(4)
    assert 0.5 < slope < 1.5


def test_minimal_omega_kernel_fallback_used_on_small_case():
    # the product-of-lines shortcut does not apply in 4 variables, so this
    # exercises the standard-monomial kernel end to end
    from cubiconics.cayley import T4
    ell = MultiPoly.parse("T3", T4)
    Q = MultiPoly.parse("T0*T2 - T1^2", T4)
    r = minimal_omega([ell, Q], T4, 2)
    assert r["omega"] >= 1
    assert r["certificate"]["not_containing_variety"]


def test_minimal_omega_conic_p3_at_16(data_dir):
    # 24 points on a conic need a form of degree ceil(24/2) = 12; of the
    # 455 monomials of degree 12 in P^3 only 25 are standard
    forms, names = load_forms(data_dir / "conic_p3.txt")
    r = minimal_omega(forms, names, 16)
    assert r["omega"] == 12 and r["points"] == 24
    w = MultiPoly.parse(r["form"], names)
    assert w.total_degree() == 12
    pts = enumerate_projective(forms, names, 16).points
    assert len(pts) == 24 and all(w.evaluate(p) == 0 for p in pts)
    assert not MultiPoly.parse("T0*T2 - T1^2", names).divides(w)
    assert "T3" not in w.variables_used()


SCAN_PRIME = (1 << 30) - 35


def _ideal_dim(forms, nvars, D):
    """Degree-D part of the ideal of one form, or of a complete intersection
    of two, counted in monomials: sum of the multiples of each form minus
    the multiples of their product."""
    def n(d):
        return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0

    degs = [f.total_degree() for f in forms]
    if len(degs) == 1:
        return n(D - degs[0])
    a, b = degs
    return n(D - a) + n(D - b) - n(D - a - b)


@pytest.mark.parametrize("fname,Bmax", [("line_p2.txt", 3), ("conic.txt", 16),
                                        ("conic_p3.txt", 9)])
def test_scan_matches_full_monomial_space(data_dir, fname, Bmax):
    # every scan record restates the full degree-D monomial space: the mod-p
    # kernel of the full evaluation matrix and the ideal's share of it
    forms, names = load_forms(data_dir / fname)
    for B in range(1, Bmax + 1):
        r = minimal_omega(forms, names, B)
        pts = enumerate_projective(forms, names, B).points
        assert len(pts) == r["points"]
        degrees = [rec["D"] for rec in r["scan"]]
        assert degrees == list(range(1, r["omega"]))
        for D in degrees + [r["omega"]]:
            M = evaluation_matrix(pts, D, names)
            rows = np.array([[x % SCAN_PRIME for x in row] for row in M.rows],
                            dtype=np.int64)
            dimker = len(M.monomials) - rank_mod_p(rows, SCAN_PRIME)[0]
            ideal = _ideal_dim(forms, len(names), D)
            if D < r["omega"]:
                assert r["scan"][D - 1] == {"D": D, "dimker_p": dimker,
                                            "ideal_dim": ideal}
            else:
                assert dimker > ideal


def _variety(data_dir, name):
    """(forms, names) of a data file, or of a form or list of forms in P^2."""
    if name.endswith((".txt", ".cubic")):
        return load_forms(data_dir / name)
    return [MultiPoly.parse(g, P2) for g in name.split(";")], P2


@pytest.mark.parametrize("name", ["line_p2.txt", "conic.txt", "conic_p3.txt",
                                  "T0*T1", "fermat.cubic", "T1;T2"])
def test_hilbert_counts_standard_monomials(data_dir, name):
    forms, names = _variety(data_dir, name)
    pivots, f = _quotient(forms, names)
    for D in range(1, 41):
        exps = np.array(monomials_of_degree(len(names), D), dtype=np.int64)
        assert _hilbert(D, len(names), pivots, f) == len(_standard(exps, pivots, f))


def _reference_scan(forms, names, B):
    """minimal_omega as a plain ascending scan, a rank mod p of the standard
    columns at every degree from 1 until a witness turns up: (omega, form,
    scan records, number of ranks computed)."""
    names = tuple(names)
    forms = [restrict(g, names).rational_content()[1] for g in forms]
    points = enumerate_projective(forms, names, B).points
    pivots, f = _quotient(forms, names)
    p, table, scan, ranks = SCAN_PRIME, None, [], 0
    for D in range(1, OMEGA_BUDGET + 1):
        exps = np.array(monomials_of_degree(len(names), D), dtype=np.int64)
        std = _standard(exps, pivots, f)
        rank = 0
        if points and len(std):
            table = _power_table(points, D, p, table)
            rank = rank_mod_p(_matrix_mod_p(table, exps[std], p), p)[0]
            ranks += 1
        record = {"D": D, "dimker_p": len(exps) - rank,
                  "ideal_dim": len(exps) - len(std)}
        if rank == len(std):
            scan.append(record)
            continue
        witness = None
        if len(names) == 3 and not pivots:
            witness = _product_of_lines_witness(f, names, points, D)
        if witness is None:
            witness = _kernel_witness(evaluation_matrix(points, D, names), pivots, f)
        if witness is not None:
            return D, str(witness.form), scan, ranks
        scan.append({**record, "note": "witness search exhausted over Q"})


def _count_ranks(monkeypatch):
    """A list that grows by one for every rank minimal_omega computes."""
    calls = []

    def counted(rows, p):
        calls.append(p)
        return rank_mod_p(rows, p)

    monkeypatch.setattr(detmethod, "rank_mod_p", counted)
    return calls


REDUCIBLE_CUBIC = "T0^2*T2 - T0*T1^2"


@pytest.mark.parametrize("name,Bs", [
    ("line_p2.txt", range(1, 4)), ("conic.txt", range(1, 17)),
    ("conic_p3.txt", range(1, 10)), (REDUCIBLE_CUBIC, [10]),
    ("fermat.cubic", range(1, 9))])
def test_scan_matches_ascending_reference(data_dir, monkeypatch, name, Bs):
    # the Hilbert bound and the curve probe change which ranks are computed,
    # never the report; a surface never takes the probe
    forms, names = _variety(data_dir, name)
    calls = _count_ranks(monkeypatch)
    for B in Bs:
        omega, form, scan, ref_ranks = _reference_scan(forms, names, B)
        calls.clear()
        r = minimal_omega(forms, names, B)
        assert (r["omega"], r["form"], r["scan"]) == (omega, form, scan)
        if name == "fermat.cubic":
            assert len(calls) == ref_ranks
        elif name == REDUCIBLE_CUBIC:
            # omega 9 and D0 48: the probe at 47 is wasted
            assert (omega, len(calls)) == (9, ref_ranks + 1)
        else:
            assert len(calls) == 1


def test_conic_scan_needs_one_rank(data_dir, monkeypatch):
    forms, names = load_forms(data_dir / "conic.txt")
    calls = _count_ranks(monkeypatch)
    r = minimal_omega(forms, names, 64)
    assert (r["omega"], r["points"], len(calls)) == (44, 88, 1)


def test_small_prime_scan_matches_large_prime(data_dir, monkeypatch):
    # mod 7 the probe goes rank-deficient once the points outnumber
    # P^1(F_7), and the exact search runs at degrees without a witness
    cases = [(name, B) for name, Bmax in (("line_p2.txt", 3), ("conic.txt", 16),
                                          ("conic_p3.txt", 9))
             for B in range(1, Bmax + 1)]
    want = {}
    for name, B in cases:
        forms, names = load_forms(data_dir / name)
        want[name, B] = minimal_omega(forms, names, B)
    monkeypatch.setattr(detmethod, "_ROW_PRIME", 7)
    probes, exhausted = [], 0
    for name, B in cases:
        forms, names = load_forms(data_dir / name)
        r = minimal_omega(forms, names, B)
        assert (r["omega"], r["form"]) == (want[name, B]["omega"], want[name, B]["form"])
        pts = enumerate_projective(forms, names, B).points
        pivots, f = _quotient(forms, names)
        h = [None] + [_hilbert(D, len(names), pivots, f) for D in range(1, 60)]
        D0 = next(D for D in range(1, 60) if h[D] > len(pts))
        exps = np.array(monomials_of_degree(len(names), D0 - 1), dtype=np.int64)
        std = exps[_standard(exps, pivots, f)]
        probe = _matrix_mod_p(_power_table(pts, D0 - 1, 7), std, 7)
        full = rank_mod_p(probe, 7)[0] == h[D0 - 1]
        probes.append(full)
        if full:
            assert r["omega"] == D0
            assert all(rec["dimker_p"] == rec["ideal_dim"] and "note" not in rec
                       for rec in r["scan"])
        exhausted += any("note" in rec for rec in r["scan"])
    assert any(probes) and not all(probes) and exhausted


def test_scan_without_hilbert_bound_fails_loudly(data_dir, monkeypatch):
    # the conic's 88 points of height <= 64 need degree 44 > 20, so no
    # degree in the budget has more standard columns than points
    forms, names = load_forms(data_dir / "conic.txt")
    monkeypatch.setattr(detmethod, "OMEGA_BUDGET", 20)
    with pytest.raises(BudgetError) as err:
        minimal_omega(forms, names, 64)
    assert [rec["D"] for rec in err.value.partial] == list(range(1, 21))
    assert all(rec["dimker_p"] == rec["ideal_dim"] for rec in err.value.partial)


@pytest.mark.parametrize("texts", [("T1", "T2"), ("T2", "T0^2 - T1^2")])
def test_finite_variety_spanned_by_its_points_is_refused(monkeypatch, texts):
    # h(D) stops growing at #points, so no degree has a witness; one full
    # rank proves it for all of them
    calls = _count_ranks(monkeypatch)
    with pytest.raises(DomainError, match="none is auxiliary"):
        minimal_omega([MultiPoly.parse(t, P2) for t in texts], P2, 3)
    assert len(calls) == 1


def test_finite_variety_with_deficient_rank_scans_on(monkeypatch):
    # mod 2 the points (1, 1, 0) and (1, -1, 0) of T0^2 - T1^2 look
    # dependent (det [[1, 1], [1, -1]] = -2), so the scan runs on
    monkeypatch.setattr(detmethod, "_ROW_PRIME", 2)
    monkeypatch.setattr(detmethod, "OMEGA_BUDGET", 5)
    with pytest.raises(BudgetError) as err:
        minimal_omega([MultiPoly.parse(t, P2) for t in ("T2", "T0^2 - T1^2")], P2, 3)
    assert [rec["note"] for rec in err.value.partial] == ["witness search exhausted over Q"] * 5


def _multipoly_product_of_lines(points, D):
    """The product-of-lines form built term by term in MultiPoly: the
    factors of _product_of_lines_witness, multiplied sparsely, filler
    T0 + T1 + T2 up to degree D, then the primitive part."""
    pts = sorted(points)
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    if len(pts) % 2:
        last = pts[-1]
        unit = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                    if any(np.cross(last, e)))
        pairs.append((last, unit))
    poly = MultiPoly.constant(1, P2)
    for a, b in pairs:
        cr = [int(c) for c in np.cross(a, b)]
        poly = poly * MultiPoly(P2, {tuple(int(k == j) for k in range(3)): c
                                     for j, c in enumerate(cr)})
    filler = MultiPoly.parse("T0 + T1 + T2", P2)
    for _ in range(D - len(pairs)):
        poly = poly * filler
    return poly.rational_content()[1]


def _random_points_p2(rng, n):
    """n distinct primitive points of P^2, first nonzero entry positive,
    with many zero coordinates."""
    pts = set()
    while len(pts) < n:
        v = [rng.choice((0, 0, rng.randint(-7, 7))) for _ in range(3)]
        if any(v):
            g = gcd(*v)
            v = [x // g for x in v]
            if next(x for x in v if x) < 0:
                v = [-x for x in v]
            pts.add(tuple(v))
    return sorted(pts)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 14])
def test_dense_product_of_lines_matches_multipoly(n):
    rng = random.Random(100 + n)
    pts = _random_points_p2(rng, n)
    nfactors = (n + 1) // 2
    for D in (nfactors, nfactors + 3):
        w = _product_of_lines_witness(None, P2, pts, D)
        assert w.form.terms == _multipoly_product_of_lines(pts, D).terms
        assert all(w.form.evaluate(p) == 0 for p in pts)
    assert _product_of_lines_witness(None, P2, pts, nfactors - 1) is None


def test_matrix_mod_p_matches_pow():
    rng = random.Random(11)
    p = SCAN_PRIME
    pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(30)]
    table = _power_table(pts, 3, p)
    table = _power_table(pts, 9, p, table)  # extended, as the scan grows D
    assert table.shape == (10, 4, 30)
    exps = np.array([[rng.randint(0, 9) for _ in range(4)] for _ in range(25)])
    ref = [[prod(pow(x, int(e), p) for x, e in zip(pt, mono)) % p for mono in exps]
           for pt in pts]
    assert _matrix_mod_p(table, exps, p).tolist() == ref


def test_minimal_omega_conic_forms_pinned(data_dir):
    # sha256 of the witness text: its terms, sign and content stay fixed
    forms, names = load_forms(data_dir / "conic.txt")
    want = {32: "33f83fd8837f7bfb34f537ca723dbf5dd006386de959d21f9b907aef2e780357",
            64: "d16631af24791c45148e48753a0491f5159340e75dd35c6ae44ec7adc75ee141"}
    for B, digest in want.items():
        r = minimal_omega(forms, names, B)
        assert hashlib.sha256(r["form"].encode()).hexdigest() == digest


def test_translation_search():
    aff = MultiPoly.parse("T1^3 + T2^3 + T3^3 - 1", A3)
    rep = translation_search(aff)
    assert rep == {"a": (0, 0, 0), "already_nonzero": True, "delta": 3}
    through_origin = MultiPoly.parse("T1^3 + T2^3 + T3^3 + T1", A3)
    rep2 = translation_search(through_origin)
    a = rep2["a"]
    assert max(abs(x) for x in a) <= rep2["delta"]
    # certificate: the translated polynomial does not vanish at the origin
    sub = {n: -Fraction(v) for n, v in zip(A3, a)}
    assert not through_origin.substitute(sub).is_zero()


def test_translation_search_rejects_zero_input():
    with pytest.raises(DomainError):
        translation_search(MultiPoly.zero(A3))

