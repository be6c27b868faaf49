"""Empirical determinant method: auxiliary hypersurfaces through point sets.

Given the rational points of bounded height on a projective variety V, find
the least degree omega at which some form vanishes on all of them without
vanishing on V.

The search runs in a basis of the coordinate ring, not in the whole monomial
space.  Each linear member of the system eliminates its graded-lex leading
variable (its pivot), and at most one form f is left in the other variables.
The degree-D monomials free of the pivots that the graded-lex leading
monomial of f does not divide (the standard monomials) are a basis of the
degree-D part of Q[T]/I(V), provided f is squarefree; that is certified
exactly on a line, and DomainError raised when no line certifies it.  A
nonzero combination of standard monomials is its own remainder mod f, so it
does not vanish on V: every nonzero kernel vector of the standard columns of
the evaluation matrix is a witness.  Conversely, the
remainder of any witness is such a vector, because the points lie on V.

Both certificate legs are exact, and non-containment is one exact division:
f does not divide the witness.  Vanishing at every point is checked in
integer arithmetic.  exact_kernel echelons only the point rows that are
independent mod p and checks every kernel vector against all rows, falling
back to all rows when a check fails.  The product-of-lines construction in
P^2 multiplies its linear factors on a dense integer coefficient array and
evaluates the expanded form at every point, so the check covers the
expansion, not only the factors.

The degree scan is certified arithmetically: a rank modulo a word-size prime
never exceeds the rational one, so standard columns of full rank mod p prove
that no witness exists at that degree; only then is an exact fraction-free
solve run.  Two exact facts bound the scan.  The number of standard
monomials of degree D has a closed form (_hilbert): with n the variables
left free by the pivots and d = deg f, h(D) = C(D+n-1, n-1) - C(D-d+n-1,
n-1).  At the least D0 with h(D0) > #points the standard columns have a
kernel over Q, so omega <= D0 and no rank is computed from D0 on.  And the
degrees that admit a witness are closed upwards: if g is a witness at D
and l a rational linear form vanishing on no component of V, then l*g
vanishes at the points and, f being squarefree, f does not divide it, so
l*g is a witness at D + 1.  Full rank at D0 - 1 therefore rules out every
lower degree.

On a finite V with no D0, h is constant from Dc = deg f - 1 (1 with no f)
on.  Full rank at Dc rules out Dc, every lower degree and every higher one:
a linear form vanishing at no point maps the values of degree D injectively
to degree D + 1.  DomainError then says that no auxiliary form exists.

On a curve the scan computes that one rank first.  Here a curve is a line
or a plane curve of degree e, with h(D) = eD - e(e-3)/2 once D >= e - 2,
and by Bezout an irreducible one needs omega >= ceil(#points / e); for
e <= 3 that is D0 or D0 - 1, so the probe usually settles the scan.  When
its rank is full, omega = D0 and the records below it are written in
closed form.  Otherwise, and always on a variety of dimension 2 or more,
where omega lies far below D0 (Fermat's cubic surface at B = 20 has 1,677
points, omega 9 and D0 33, so a probe there would eliminate a 1,677 x
1,585 matrix), the scan ascends from D = 1, reusing the probe's rank.  A
rank-deficient probe is one wasted elimination of at most #points
columns: on the reducible cubic T0^2*T2 - T0*T1^2 at B = 10 (143 points,
omega 9, D0 48) it takes about 3 ms of a 13 ms run.  The scan reads its
matrices mod p from one table of the point coordinates' powers, extended
as D grows.

Scan records give the full-space figures, which the quotient determines:
ideal_dim = #monomials - h(D) (the degree-D part of I(V)) and dimker_p =
ideal_dim + h(D) - rank mod p.  Below a full-rank probe the rank is h(D)
by the argument above, so dimker_p = ideal_dim there; a rank computed mod
p gives the same figure whenever p divides none of the minors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import comb, prod

import numpy as np

from .cayley import cayley_degree_parts, cayley_hypersurface, transform_Ta
from .errors import BudgetError, DomainError, PropertyViolationError
from .hilbert_samuel import ExternalConstants, bound_evaluator, geometric_hs
from .linalg import _ROW_PRIME, exact_kernel, rank_mod_p
from .multipoly import (MultiPoly, gcd_binary_forms, monomials_of_degree,
                        pivot_substitution, restrict)
from .pointcount import enumerate_projective, homogenize

# largest degree minimal_omega scans
OMEGA_BUDGET = 200
_SQUAREFREE_LINES = 4


@dataclass
class EvaluationMatrix:
    points: tuple
    monomials: tuple
    rows: list
    names: tuple
    D: int


def evaluation_matrix(points, D: int, names=None) -> EvaluationMatrix:
    """Exact integer matrix of the degree-D monomial evaluations, rows by
    point order, columns in graded-lex order."""
    points = tuple(tuple(int(c) for c in p) for p in points)
    nvars = len(points[0]) if points else (len(names) if names else 0)
    if names is None:
        names = tuple(f"T{i}" for i in range(nvars))
    monos = monomials_of_degree(nvars, D)
    exps = np.array(monos, dtype=np.int64).reshape(-1, nvars).T
    rows = []
    for p in points:
        # the column of each monomial gathered from per-coordinate powers
        powers = (np.array([x ** e for e in range(D + 1)], dtype=object)[ek]
                  for x, ek in zip(p, exps))
        rows.append(prod(powers).tolist())
    return EvaluationMatrix(points, tuple(monos), rows, tuple(names), D)


def _power_table(points, D, p, table=None):
    """table[e, k, n] = points[n][k]^e mod p for e <= D, extending the rows
    of ``table`` already computed."""
    base = np.array(points, dtype=np.int64).T % p
    if table is None:
        table = np.ones((1,) + base.shape, dtype=np.int64)
    rows = [table]
    for _ in range(len(table), D + 1):
        rows.append(rows[-1][-1:] * base % p)
    return np.concatenate(rows)


def _matrix_mod_p(table, exps, p):
    """Evaluation matrix mod p, one row per point, of the monomials whose
    exponent vectors are the rows of ``exps``, gathered from the power
    table of those points."""
    out = table[exps[:, 0], 0]
    for k in range(1, exps.shape[1]):
        out = out * table[exps[:, k], k] % p
    return out.T


# --- the coordinate ring ---------------------------------------------------------


def _quotient(forms, names):
    """(pivots, f): the indices of the variables that the linear members
    eliminate, and the one form left in the other variables (None when no
    form is left)."""
    rest = sorted(forms, key=MultiPoly.total_degree)
    pivots, f = [], None
    for i, g in enumerate(rest):
        if not g.is_homogeneous():
            raise DomainError(f"form is not homogeneous: {g}")
        if g.is_zero():
            continue  # implied by the linear members
        if g.total_degree() == 1:
            sub = pivot_substitution(g)
            rest[i + 1:] = [h.substitute(sub) for h in rest[i + 1:]]
            pivots.extend(names.index(v) for v in sub)
        elif f is None:
            f = g
        else:
            raise DomainError("auxiliary forms need at most one nonlinear form "
                              "besides the linear members")
    if f is not None:
        _certify_squarefree(f)
    return tuple(pivots), f


def _certify_squarefree(f):
    """Certify that f is squarefree, else raise DomainError.

    On a line P + sQ, f restricts to a binary form g(s, u) = f(uP + sQ).  If
    h^2 divides f, the square of h's restriction (of degree deg h, or zero)
    divides g, and a repeated factor of g divides both partial derivatives.
    So a nonzero g whose partials have a constant gcd proves f squarefree.
    A few fixed integer lines are tried.
    """
    ring = f.names + ("_s", "_u")
    s, u = (MultiPoly.variable(n, ring) for n in ring[-2:])
    rng = random.Random(1)
    for _ in range(_SQUAREFREE_LINES):
        g = restrict(f, ring).substitute({
            n: rng.randint(-9, 9) * u + rng.randint(-9, 9) * s for n in f.names})
        partials = [restrict(g.partial(n), ring[-2:]) for n in ring[-2:]]
        if any(partials) and gcd_binary_forms(partials, ring[-2:]).total_degree() == 0:
            return
    raise DomainError(f"cannot certify that {f} is squarefree on "
                      f"{_SQUAREFREE_LINES} lines")


def _standard(exps, pivots, f):
    """Indices of the standard monomials among the rows of the exponent
    array ``exps``: free of the pivots and not divisible by the leading
    monomial of f."""
    mask = ~exps[:, list(pivots)].any(axis=1)
    if f is not None:
        mask &= (exps < np.array(f.leading_term()[0])).any(axis=1)
    return np.flatnonzero(mask)


def _hilbert(D, nvars, pivots, f):
    """Number of standard monomials of degree D >= 1: the Hilbert function
    of the hypersurface f = 0 in the space the pivots leave free, or of that
    whole space when there is no f."""
    free = nvars - len(pivots)
    if f is None:
        return geometric_hs(free - 1, 1, D)
    return geometric_hs(free - 2, f.total_degree(), D)


@dataclass
class AuxiliaryForm:
    D: int
    form: MultiPoly
    certificate: dict


def _kernel_witness(M: EvaluationMatrix, pivots, f):
    """The first basis vector of the exact kernel of the standard columns of
    M, as a certified witness; None when that kernel is zero."""
    exps = np.array(M.monomials, dtype=np.int64).reshape(-1, len(M.names))
    std = _standard(exps, pivots, f)
    kernel = exact_kernel([[r[i] for i in std] for r in M.rows], len(std))
    if not kernel:
        return None
    cand = MultiPoly(M.names, {M.monomials[i]: c for i, c in zip(std, kernel[0])
                               if c != 0}).rational_content()[1]
    if f is not None and f.divides(cand):
        raise AssertionError("a combination of standard monomials lies in (f)")
    return AuxiliaryForm(M.D, cand, {
        "vanishes_on_all_points": True,  # verified inside exact_kernel
        "not_containing_variety": True,
        "points": len(M.points),
    })


def auxiliary_form(forms, names, points, D: int):
    """A degree-D form vanishing at every point but not on the variety, with
    both certificate legs exact; None when every such form contains the
    variety.  DomainError when a point is not on the variety."""
    names = tuple(names)
    forms = [restrict(f, names) for f in forms]
    if any(g.evaluate(p) != 0 for p in points for g in forms):
        raise DomainError("auxiliary_form needs points on the variety")
    pivots, f = _quotient(forms, names)
    return _kernel_witness(evaluation_matrix(points, D, names), pivots, f)


def minimal_omega(forms, names, B,
                  constants: ExternalConstants | None = None,
                  enum_budget: float | None = None) -> dict:
    """Least degree omega admitting an auxiliary form through all points of
    height <= B, by a scan over D with mod-p certified skips.

    No rank is computed from the Hilbert bound D0 on, where a witness is
    certain.  On a curve one rank at D0 - 1 starts the scan at D0 when it
    is full (see the module docstring); otherwise the scan starts at D = 1.
    Returns the witness form with its certificates and the closed-form
    bound shape evaluation for comparison.
    """
    names = tuple(names)
    forms = [f.rational_content()[1] for f in (restrict(f, names) for f in forms)]
    res = enumerate_projective(forms, names, B, budget=enum_budget)
    points = res.points
    nvars = len(names)
    pivots, f = _quotient(forms, names)
    p = _ROW_PRIME
    table = None

    def hilbert(D):
        return _hilbert(D, nvars, pivots, f)

    @cache
    def rank_at(D):
        """Rank mod p of the standard columns of degree D."""
        nonlocal table
        if not points or not hilbert(D):
            return 0
        exps = np.array(monomials_of_degree(nvars, D), dtype=np.int64)
        if table is None or len(table) <= D:
            table = _power_table(points, D, p, table)
        std = exps[_standard(exps, pivots, f)]
        return rank_mod_p(_matrix_mod_p(table, std, p), p)[0]

    def record(D, rank):
        total = comb(D + nvars - 1, nvars - 1)
        return {"D": D, "dimker_p": total - rank, "ideal_dim": total - hilbert(D)}

    # Hilbert bound: more standard columns than points leave a kernel over Q
    D0 = next((D for D in range(1, OMEGA_BUDGET + 1) if hilbert(D) > len(points)),
              OMEGA_BUDGET + 1)
    start, skipped = 1, []
    dim = nvars - len(pivots) - (f is not None)
    if dim == 2 and 1 < D0 <= OMEGA_BUDGET and rank_at(D0 - 1) == hilbert(D0 - 1):
        # no witness at D0 - 1, hence none below it
        start, skipped = D0, [record(D, hilbert(D)) for D in range(1, D0)]
    if dim == 1 and D0 > OMEGA_BUDGET:
        # finitely many points: h(D) = deg f (or 1 with no f) from Dc on
        Dc = f.total_degree() - 1 if f is not None else 1
        if rank_at(Dc) == hilbert(Dc):
            raise DomainError(f"V is finite and its {len(points)} points of height <= {B} "
                              f"have full rank {hilbert(Dc)} from degree {Dc} on: every "
                              "form through them vanishes on V, so none is auxiliary")
    for D in range(start, OMEGA_BUDGET + 1):
        if D < D0 and rank_at(D) == hilbert(D):
            # the rank over Q is at least the rank mod p, so no combination
            # of standard monomials vanishes on the points: no witness at D
            skipped.append(record(D, rank_at(D)))
            continue
        witness = None
        if nvars == 3 and not pivots:
            witness = _product_of_lines_witness(f, names, points, D)
        if witness is None:
            witness = _kernel_witness(evaluation_matrix(points, D, names), pivots, f)
        if witness is not None:
            delta = max(g.total_degree() for g in forms)
            d = nvars - 1 - len(forms)
            report = {
                "omega": D,
                "points": len(points),
                "B": B,
                "form": str(witness.form),
                "certificate": witness.certificate,
                "scan": skipped,
            }
            if constants is not None and d == 1:
                kind = "projective-curve"
                report["bound_shape"] = {"kind": kind, "value": bound_evaluator(
                    kind, {"n": nvars - 1, "delta": delta, "B": B}, constants)}
            return report
        if D >= D0:
            raise AssertionError(f"no witness at degree {D}, past the Hilbert bound {D0}")
        skipped.append({**record(D, rank_at(D)), "note": "witness search exhausted over Q"})
    raise BudgetError(f"no auxiliary form found up to degree {OMEGA_BUDGET}",
                      partial=skipped)


def _product_of_lines_witness(f, names, points, D):
    """Witness in P^2 as a product of linear forms, one through each pair of
    points (plus filler factors up to degree D); both certificates verified
    exactly.

    An irreducible defining form of degree >= 2 never divides a product of
    linear forms, so this is a minimal-cost witness; a None return means the
    construction did not apply and the caller should fall back to exact
    linear algebra.
    """
    if not points:
        return None
    pts = sorted(tuple(int(c) for c in p) for p in points)
    factors = []
    for i in range(0, len(pts) - 1, 2):
        a, b = pts[i], pts[i + 1]
        cr = (a[1] * b[2] - a[2] * b[1],
              a[2] * b[0] - a[0] * b[2],
              a[0] * b[1] - a[1] * b[0])
        if not any(cr):
            return None  # duplicate projective points; should not happen
        factors.append(cr)
    if len(pts) % 2:
        p = pts[-1]
        for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            cr = (p[1] * basis[2] - p[2] * basis[1],
                  p[2] * basis[0] - p[0] * basis[2],
                  p[0] * basis[1] - p[1] * basis[0])
            if any(cr):
                factors.append(cr)
                break
    if len(factors) > D:
        return None
    # filler factors keep the degree at exactly D without new zeros on X
    C = _expand_product(factors + [(1, 1, 1)] * (D - len(factors)))
    e0, e1 = np.nonzero(C)
    coeffs = C[e0, e1]
    # exact certificates: the expanded form vanishes at every point
    for p in pts:
        x, y, z = (np.array([v ** e for e in range(D + 1)], dtype=object) for v in p)
        if (x[e0] * y[e1] * z[D - e0 - e1]).dot(coeffs):
            return None
    poly = MultiPoly._raw(names, {(a, b, D - a - b): c for a, b, c in zip(
        e0.tolist(), e1.tolist(), coeffs.tolist())}).rational_content()[1]
    if f is not None and f.divides(poly):
        return None
    return AuxiliaryForm(D, poly, {
        "vanishes_on_all_points": True,
        "not_containing_variety": True,
        "points": len(pts),
        "construction": "product of lines through point pairs",
    })


def _expand_product(factors):
    """Dense integer coefficients of the product of the linear forms
    a*T0 + b*T1 + c*T2 given as (a, b, c): C[i, j] is the coefficient of
    T0^i T1^j T2^(D-i-j), D the number of factors."""
    D = len(factors)
    C = np.zeros((D + 1, D + 1), dtype=object)
    C[0, 0] = 1
    for a, b, c in factors:
        nxt = C * c
        if a:
            nxt[1:] += C[:-1] * a
        if b:
            nxt[:, 1:] += C[:, :-1] * b
        C = nxt
    return C


# --- translation search -------------------------------------------------------------


def translation_search(f_affine: MultiPoly) -> dict:
    """Integer translation a with |a_i| <= deg f making the translated
    variety's Cayley constant part nonzero; identity when already nonzero.

    An exhaustive failure over the whole box falsifies the existence
    statement and raises PropertyViolationError.
    """
    names = ("T1", "T2", "T3")
    f_affine = restrict(f_affine, names)
    delta = f_affine.total_degree()
    F = homogenize(f_affine)
    psi = cayley_hypersurface(F)
    parts = cayley_degree_parts(psi, 0)
    if delta not in parts or parts[delta].is_zero():
        raise DomainError("top Cayley part vanishes; translation lemma needs it nonzero")
    if 0 in parts and not parts[0].is_zero():
        return {"a": (0, 0, 0), "already_nonzero": True, "delta": delta}
    for a1 in range(-delta, delta + 1):
        for a2 in range(-delta, delta + 1):
            for a3 in range(-delta, delta + 1):
                if (a1, a2, a3) == (0, 0, 0):
                    continue
                Ft = transform_Ta([F], (a1, a2, a3))[0]
                pt = cayley_degree_parts(cayley_hypersurface(Ft), 0)
                if 0 in pt and not pt[0].is_zero():
                    return {"a": (a1, a2, a3), "already_nonzero": False,
                            "delta": delta}
    raise PropertyViolationError(
        f"no translation in the box |a_i| <= {delta} produced a nonzero constant part")
