"""Cubic surfaces, rational lines, and the pencil of residual conics.

A plane through a rational line on a cubic surface cuts the surface in that
line plus a residual conic; as the plane varies over the pencil the conic
Cayley forms assemble into a family whose 21 coefficients are binary forms
in the pencil parameters.  This module computes that family exactly, checks
the structural facts it must satisfy (one common coefficient degree, trivial
family gcd, image degree times covering degree equal to that degree),
measures the coefficient degree (3 on every corpus surface) and the
leading-part rank (4 there), and counts family members of bounded height
with a certified cutoff.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import linalg
from .cayley import (PLUCKER, T4, TPAR, LineP3, PluckerForm,
                     cycle_resultant_biform)
from .errors import (BudgetError, DomainError, PropertyViolationError)
from .exactarith import (factorize, ff_factor_linear, gf_context, gf_eval,
                         proj_points, reduce_mod_p)
from .multipoly import (CHUNK_FIBERS, MultiPoly, absmax, bezout_cutoff, binary_heights,
                        binary_row, bounded_height_pairs, coefficients_in, embed,
                        essential_variable_count, gcd_binary_forms, int_dtype, int_eval,
                        monomials_of_degree, pivot_substitution, restrict,
                        sylvester_resultant)

DEFAULT_LINE_BUDGET = 2_000_000
SMOOTHNESS_PRIMES = (2, 3, 5, 7, 11)
# height bound of the search for lines in the singular locus
SINGULAR_LINE_HEIGHT = 1


# --- surfaces and lines -----------------------------------------------------------


@dataclass
class CubicSurface:
    f: MultiPoly
    classification: dict | None = None

    @classmethod
    def make(cls, f: MultiPoly) -> "CubicSurface":
        f = restrict(f, T4)
        if f.is_zero() or not f.is_homogeneous() or f.total_degree() != 3:
            raise DomainError("need a nonzero homogeneous cubic in T0..T3")
        _, prim = f.rational_content()
        return cls(prim)


@dataclass(frozen=True)
class RationalLine:
    line: LineP3
    cofactor_u: MultiPoly  # f == cofactor_u * u + cofactor_v * v, exactly
    cofactor_v: MultiPoly


def cofactor_pair(f: MultiPoly, l1: MultiPoly, l2: MultiPoly):
    """Quadratic cofactors (A, B) with f = A*l1 + B*l2; DomainError when f is
    not in the ideal."""
    piv = pivot_substitution(l1)
    r1 = f.substitute(piv)
    l2bar = l2.substitute(piv)
    if l2bar.is_zero():
        raise DomainError("plane forms are proportional")
    B = r1.exact_divide(l2bar) if not r1.is_zero() else MultiPoly.zero(f.names)
    A = (f - B * l2).exact_divide(l1)
    assert A * l1 + B * l2 == f
    return A, B


def rationals_of_height(bound: int):
    """All rationals a/b with max(|a|, b) <= bound, gcd(a, b) = 1."""
    out = [Fraction(0)]
    for b in range(1, bound + 1):
        for a in range(1, bound + 1):
            if gcd(a, b) == 1:
                out.append(Fraction(a, b))
                out.append(Fraction(-a, b))
    return out


def _rref_line_candidates(height_bound: int, budget: int):
    """Row-reduced 2x4 hyperplane pairs with entries of height <= bound, as
    int64 blocks of shape (N, 2, 4), N <= CHUNK_FIBERS, one pivot pair per
    block.  Each row is the reduced row scaled by the lcm of its
    denominators, so its pivot entry is that lcm.  The order is pivot pair,
    then the first row's free entries, then the second row's, each running
    over ``rationals_of_height``."""
    vals = rationals_of_height(height_bound)
    num = np.array([v.numerator for v in vals], dtype=np.int64)
    den = np.array([v.denominator for v in vals], dtype=np.int64)
    layouts = []
    for i, j in itertools.combinations(range(4), 2):
        free = ([(0, c) for c in range(4) if c > i and c != j]
                + [(1, c) for c in range(4) if c > j])
        layouts.append((i, j, free, len(vals) ** len(free)))
    if sum(n for *_, n in layouts) > budget:
        raise BudgetError(f"line search would try > {budget} candidates")
    for i, j, free, total in layouts:
        for start in range(0, total, CHUNK_FIBERS):
            idx = np.arange(start, min(total, start + CHUNK_FIBERS))
            digits = np.unravel_index(idx, (len(vals),) * len(free)) if free else ()
            scale = np.ones((len(idx), 2), dtype=np.int64)
            for (r, _), d in zip(free, digits):
                scale[:, r] = np.lcm(scale[:, r], den[d])
            rows = np.zeros((len(idx), 2, 4), dtype=np.int64)
            rows[:, 0, i], rows[:, 1, j] = scale[:, 0], scale[:, 1]
            for (r, c), d in zip(free, digits):
                rows[:, r, c] = num[d] * (scale[:, r] // den[d])
            yield rows


def _fraction_rows(rows):
    """The row-reduced Fraction rows of one integer-scaled candidate."""
    out = []
    for row in rows.tolist():
        lead = next(x for x in row if x)
        out.append([Fraction(x, lead) for x in row])
    return out


def _form_from_row(row):
    return MultiPoly(T4, {tuple(1 if k == m else 0 for k in range(4)): c
                          for m, c in enumerate(row) if c != 0})


def line_in_forms(cands, forms):
    """Exact ideal membership of every form in (l1, l2), for each candidate
    of an (N, 2, 4) block of integer-scaled row-reduced pairs; a boolean
    array of length N.

    For a free column f of a candidate with pivots i < j and pivot entries
    d1, d2, the vector d1*d2*e_f - d2*row1[f]*e_i - d1*row2[f]*e_j is an
    integer point of the line; the two free columns give P and Q spanning
    it.  A form of degree d restricts to a binary form of degree d on the
    line, and vanishing at the d + 1 distinct points P + mQ, m = 0..d,
    proves the restriction zero, which is ideal membership.  Each
    homogeneous part is tested apart, with its denominators cleared, by
    ``int_eval``.  A zero form passes.  A block is refused unless int64
    holds 64 X^2 (``int_dtype``), X its largest entry, which bounds P + mQ.
    """
    cands = np.asarray(cands, dtype=np.int64)
    if int_dtype([(64, 2)], absmax(cands)) is object:
        raise DomainError("candidate rows too large for int64 spanning points")
    n = len(cands)
    at = np.arange(n)
    piv = (cands != 0).argmax(axis=2)                       # (N, 2)
    d1, d2 = cands[at, 0, piv[:, 0]], cands[at, 1, piv[:, 1]]
    cols = np.arange(4)
    free = np.nonzero((cols != piv[:, :1]) & (cols != piv[:, 1:]))[1].reshape(n, 2)
    span = []
    for k in range(2):
        f = free[:, k]
        v = np.zeros((n, 4), dtype=np.int64)
        v[at, f] = d1 * d2
        v[at, piv[:, 0]] = -d2 * cands[at, 0, f]
        v[at, piv[:, 1]] = -d1 * cands[at, 1, f]
        span.append(v)
    P, Q = span
    alive = at
    for form in forms:
        for g in form.split_by_degree(form.names).values():
            _, g = g.rational_content()
            for m in range(g.total_degree() + 1):
                if not len(alive):
                    break
                pts = P[alive] + m * Q[alive]
                vals = int_eval(g, {name: pts[:, k] for k, name in enumerate(g.names)})
                alive = alive[vals == 0]
    hit = np.zeros(n, dtype=bool)
    hit[alive] = True
    return hit


def find_lines(surface: CubicSurface, height_bound: int = 1):
    """All lines on the surface whose row-reduced hyperplane pair has entries
    of height <= height_bound, with exact ideal-membership certificates."""
    f = surface.f
    seen = {}
    for block in _rref_line_candidates(height_bound, DEFAULT_LINE_BUDGET):
        for rows in block[line_in_forms(block, [f])]:
            row1, row2 = _fraction_rows(rows)
            l1, l2 = _form_from_row(row1), _form_from_row(row2)
            line = LineP3.make(l1, l2)
            if line.plucker in seen:
                continue
            A, B = cofactor_pair(f, line.u, line.v)
            seen[line.plucker] = RationalLine(line, A, B)
    return list(seen.values())


# --- classification -----------------------------------------------------------------


def smooth_mod_p(f: MultiPoly, p: int) -> bool:
    """Exhaustive Jacobian scan over P^3(F_p): no common projective zero of f
    and its partials means the reduction is nonsingular."""
    _, prim = f.rational_content()
    polys = [prim] + [prim.partial(n) for n in T4]
    tables = [reduce_mod_p(g, p) for g in polys]
    if not tables[0]:
        return False  # degenerate reduction
    pts, ctx = proj_points(p, 4), gf_context(p, 1)
    return not np.logical_and.reduce([gf_eval(t, pts, ctx) == 0 for t in tables]).any()


def classify_cubic(f: MultiPoly) -> dict:
    """Structure report for a cubic surface: essential variables (cones),
    the affine cylinder test, smoothness evidence mod small primes, and a
    search for lines inside the singular locus.

    Flags carry confidence labels: smoothness mod a good prime certifies
    non-ruledness; a singular line is evidence of a ruled (skew) surface.
    """
    surface = CubicSurface.make(f)
    f = surface.f
    k, basis = essential_variable_count(f)
    is_cone = k <= 3
    # affine question: drop T0 at 1 and test expressibility in two forms
    aff = restrict(f.substitute({"T0": Fraction(1)}), ("T1", "T2", "T3"))
    if aff.is_zero() or aff.total_degree() < 1:
        k_aff = 0
    else:
        k_aff, _ = essential_variable_count(aff)
    cylinder_over_curve = k_aff <= 2

    evidence = []
    certified_smooth = None
    for p in SMOOTHNESS_PRIMES:
        ok = smooth_mod_p(f, p)
        evidence.append((p, ok))
        if ok:
            certified_smooth = p
            break

    singular_lines = []
    if certified_smooth is None:
        partials = [f.partial(n) for n in T4]
        for block in _rref_line_candidates(SINGULAR_LINE_HEIGHT, DEFAULT_LINE_BUDGET):
            for rows in block[line_in_forms(block, partials + [f])]:
                singular_lines.append(tuple(map(tuple, _fraction_rows(rows))))

    if certified_smooth is not None:
        non_ruled = "certified"
    elif singular_lines:
        non_ruled = "ruled-skew-evidence"
    elif is_cone:
        non_ruled = "cone"
    else:
        non_ruled = "evidence-only"

    record = {
        "essential_vars": k,
        "essential_basis": [str(b) for b in basis],
        "is_cone": is_cone,
        "ncc": k >= 3,
        "affine_essential_vars": k_aff,
        "cylinder_over_curve": cylinder_over_curve,
        "smooth_mod_p": evidence,
        "smooth_certified_at": certified_smooth,
        "singular_lines": singular_lines,
        "non_ruled": non_ruled,
    }
    surface.classification = record
    return record


def absolutely_irreducible_cubic_mod_p(f: MultiPoly, p: int) -> str:
    """One-sided absolute-irreducibility certificate for a cubic form.

    A cubic is geometrically reducible over F_p-bar exactly when it has a
    linear factor over the cubic extension or below, so exhaustive linear
    factor search decides the reduction; a certified-irreducible reduction
    of full degree lifts to absolute irreducibility in characteristic zero.
    The representative is reduced as given (content kept), so a content
    or a denominator divisible by p degenerates to "inconclusive".
    """
    try:
        red = reduce_mod_p(f, p)
    except DomainError:
        return "inconclusive"
    if max(map(sum, red), default=-1) != 3:
        return "inconclusive"
    try:
        for e in (1, 2, 3):
            factors, _ = ff_factor_linear(f, p, e)
            if factors:
                return "reducible"
    except BudgetError:
        return "inconclusive"
    return "certified-irreducible"


# --- residual conics and the pencil ---------------------------------------------------


def residual_conic(surface: CubicSurface, rline: RationalLine, t=None):
    """Plane of the pencil and the residual-conic lift at parameter t.

    ``t`` is a rational pair, or None for the symbolic family (coefficients
    in Q[t1, t2]).  The defining identity t1*f = A*ell_t + Q_t*l2 (and its
    t1 = 0 mirror) is asserted exactly.
    """
    f, L = surface.f, rline.line
    A, B = rline.cofactor_u, rline.cofactor_v
    names = T4 + TPAR
    fx, Ax, Bx = embed(f, names), embed(A, names), embed(B, names)
    l1x, l2x = embed(L.u, names), embed(L.v, names)
    t1 = MultiPoly.variable("t1", names)
    t2 = MultiPoly.variable("t2", names)
    ell_t = t1 * l1x + t2 * l2x
    Q_t = t1 * Bx - t2 * Ax
    # exact cycle identities
    assert t1 * fx == Ax * ell_t + Q_t * l2x
    assert t2 * fx == Bx * ell_t - Q_t * l1x
    if t is None:
        _, Q_t = Q_t.rational_content()
        return ell_t, Q_t
    tv1, tv2 = Fraction(t[0]), Fraction(t[1])
    if tv1 == 0 and tv2 == 0:
        raise DomainError("parameter (0, 0) is not a pencil member")
    sub = {"t1": tv1, "t2": tv2}
    ell_num = restrict(ell_t.substitute(sub), T4)
    Q_num = restrict(Q_t.substitute(sub), T4)
    if Q_num.is_zero():
        raise DomainError("residual conic degenerated to zero at this t")
    _, Q_num = Q_num.rational_content()
    _, ell_num = ell_num.rational_content()
    return ell_num, Q_num


@dataclass
class ConicPencil:
    b_content: MultiPoly        # stripped family content b(t1, t2)
    psi_family: PluckerForm     # canonical conic Cayley family, p and t vars
    b_ij: dict                  # degree-2 p-monomial -> binary form in t
    a_family: list              # a1..a6 in the leading-part monomial order
    family_degree: int          # common parameter degree of the coefficients

    def specialize(self, t1, t2) -> PluckerForm:
        return self.psi_family.specialize_t(t1, t2)

    @cached_property
    def int_rows(self):
        """(rows, d): the integer coefficient rows, of length d + 1 with d
        the family degree, of all 21 family coefficients, jointly
        denominator-cleared; built once per pencil."""
        d = self.family_degree
        rows = [binary_row(self.b_ij[e], d) for e in monomials_of_degree(6, 2)]
        den = lcm(*(c.denominator for row in rows for c in row))
        return [[int(c * den) for c in row] for row in rows], d


A_MONOMIAL_ORDER = (
    ("p01", "p01"), ("p02", "p02"), ("p03", "p03"),
    ("p01", "p02"), ("p01", "p03"), ("p02", "p03"),
)


def _pmono_exponent(pair):
    e = [0] * 6
    for name in pair:
        e[PLUCKER.index(name)] += 1
    return tuple(e)


def conic_family(surface: CubicSurface, rline: RationalLine) -> ConicPencil:
    """Symbolic family of residual-conic Cayley forms along the pencil.

    Computes the Cayley form of the residual conic V(ell_t, Q_t) in line
    coordinates and parameters, and strips its polynomial content in the
    parameters.  No division is needed: on the plane, the section's form f
    at the line's meet Y is the fixed line's incidence form times Q_t(Y)
    (the cycle identity t1*f = A*ell_t + Q_t*l2 read at Y), so the residual
    conic's Cayley form is already free of it.

    The enforced invariants are the ones every valid instance satisfies:
    all surviving coefficients are homogeneous of one common parameter
    degree, their gcd is 1, and content degree + family degree exhausts the
    parameter-degree budget 3 of the section resultant.  The common degree
    itself is measured and recorded (see ``family_degree``): the universal
    conic over the pencil sweeps the cubic surface birationally, so a
    generic line meets deg X = 3 members and the honest degree is 3.
    """
    ell_sym, Q_sym = residual_conic(surface, rline, None)
    conic = cycle_resultant_biform(Q_sym, ell_sym, tvars=TPAR)
    # polynomial content in the pencil parameters
    coeffs = list(coefficients_in(conic, TPAR).values())
    b_content = gcd_binary_forms(coeffs, TPAR)
    psi = PluckerForm.make(conic.exact_divide(embed(b_content, conic.names)))
    if psi.degree != 2:
        raise PropertyViolationError(
            f"conic Cayley family has Pluecker degree {psi.degree}, expected 2")

    groups = coefficients_in(psi.poly, TPAR)
    b_ij = {e: groups.get(e, MultiPoly.zero(TPAR)) for e in monomials_of_degree(6, 2)}
    live = [q for q in b_ij.values() if not q.is_zero()]
    degs = {q.total_degree() for q in live}
    for q in live:
        if not q.is_homogeneous():
            raise PropertyViolationError(f"family coefficient {q} is inhomogeneous")
    if len(degs) != 1:
        raise PropertyViolationError(f"family coefficients of mixed degrees {degs}")
    family_degree = degs.pop()
    if b_content.total_degree() + family_degree != 3:
        raise PropertyViolationError(
            "content and family degrees do not exhaust the section's parameter budget")
    if len(live) > 1:
        g = gcd_binary_forms(live, TPAR)
        if g.total_degree() != 0:
            raise PropertyViolationError(f"family coefficients share the factor {g}")

    a_family = [b_ij[_pmono_exponent(pair)] for pair in A_MONOMIAL_ORDER]
    return ConicPencil(b_content, psi, b_ij, a_family, family_degree)


# --- leading family and image shape ---------------------------------------------------


def _family_rows(family):
    live = [q for q in family if q and not q.is_zero()]
    d = max(q.total_degree() for q in live)
    return [binary_row(q, d) for q in live], d


def leading_family(pencil: ConicPencil, irreducibility_certificate: str | None = None) -> dict:
    """The six leading coefficients (top part in the index-0 grading) with
    their rank analysis and the no-common-zero certificate.

    With the absolute-irreducibility hypothesis on the top affine part
    certified, a rank below 2 is impossible (it would force a common factor,
    hence a common zero) and raises PropertyViolationError.
    """
    a = pencil.a_family
    live = [q for q in a if not q.is_zero()]
    if not live:
        raise PropertyViolationError("leading family vanishes identically")
    rows, d = _family_rows(a)
    rank = linalg.rank(rows, d + 1)
    certified = irreducibility_certificate == "certified-irreducible"
    if rank <= 1 and certified:
        raise PropertyViolationError(f"leading-family rank {rank} is below 2")
    coprime_pair = None
    res_val = None
    for q1, q2 in itertools.combinations(live, 2):
        r = sylvester_resultant(restrict(q1, TPAR), restrict(q2, TPAR))
        if r != 0:
            coprime_pair, res_val = (str(q1), str(q2)), r
            break
    if coprime_pair is None:
        g = gcd_binary_forms(live, TPAR)
        if g.total_degree() != 0:
            if certified:
                raise PropertyViolationError("leading family has a common factor")
            return {"a_family": [str(q) for q in a], "rank": rank,
                    "no_common_zero": False, "certificate": f"common factor {g}",
                    "hypothesis_degree3_part": irreducibility_certificate}
        no_common_zero_via = "family gcd = 1"
    else:
        no_common_zero_via = f"Res{coprime_pair} = {res_val}"
    return {
        "a_family": [str(q) for q in a],
        "rank": rank,
        "rank_in_stated_window": rank in (2, 3),
        "no_common_zero": True,
        "certificate": no_common_zero_via,
        "hypothesis_degree3_part": irreducibility_certificate,
    }


def family_image(family) -> dict:
    """Shape of the coefficient map P^1 -> P^k induced by a gcd-1 family of
    binary forms of one degree d.

    The image is a rational curve with deg(image) * deg(cover) = d.  The
    covering degree is measured by solving a generic fiber exactly; full
    rank means the map is a linear embedding of the degree-d parameter curve.
    """
    live = [restrict(q, TPAR) for q in family if q and not q.is_zero()]
    if not live:
        raise DomainError("empty family")
    rows, d = _family_rows(live)
    rank = linalg.rank(rows, d + 1)
    if rank < 2:
        raise DomainError(f"family rank {rank} below 2; no curve image")
    cover = _covering_degree(live, d)
    image_degree = d // cover
    return {
        "rank": rank,
        "family_degree": d,
        "image_degree": image_degree,
        "cover_degree": cover,
        "double_cover": cover == 2,
        "rank_in_stated_window": rank in (2, 3),
        "certificate": (f"generic fiber of the coefficient map has {cover} "
                        f"point(s); image degree {image_degree} = {d}/{cover}"),
    }


def _covering_degree(live, d: int) -> int:
    """Generic fiber size of the full coefficient map t -> [q_1(t): ...].

    The fiber over the image of t* is cut by the forms
    q_0(t*) q_k(t) - q_k(t*) q_0(t) for a base member with q_0(t*) != 0;
    its point count is the distinct-root count of their gcd.  Sampling a few
    generic t* and taking the minimum measures the covering degree.
    """
    best = None
    for m in range(1, 40):
        tstar = (Fraction(1), Fraction(m))
        vals = [q.evaluate(tstar) for q in live]
        base = next((i for i, v in enumerate(vals) if v != 0), None)
        if base is None:
            continue
        fibers = []
        for k, q in enumerate(live):
            if k == base:
                continue
            fb = vals[base] * q - vals[k] * live[base]
            if not fb.is_zero():
                fibers.append(fb)
        if not fibers:
            continue
        g = gcd_binary_forms(fibers, TPAR)
        k = _distinct_projective_roots(g) if g.total_degree() > 0 else 0
        if k == 0:
            continue
        best = k if best is None else min(best, k)
        if best == 1:
            break
    return best or 1


def _distinct_projective_roots(q: MultiPoly) -> int:
    """Number of distinct roots of a binary form in P^1 over the algebraic
    closure: deg(q) - deg(gcd(q, q'))."""
    d = q.total_degree()
    qp = q.partial("t1")
    if qp.is_zero():
        qp = q.partial("t2")
    if qp.is_zero():
        return 0
    g = gcd_binary_forms([q, qp], TPAR)
    return d - g.total_degree()


# --- census of bounded-height members ---------------------------------------------------


def specialized_height(pencil: ConicPencil, t1: int, t2: int) -> int:
    """Naive height of the family member at primitive integer (t1, t2)."""
    return int(binary_heights(*pencil.int_rows, [(t1, t2)])[0])


def conic_census(pencil: ConicPencil, B) -> dict:
    """Count pencil parameters [t1:t2] whose family member has height <= B.

    The region is certified complete by the exact cutoff constant of
    ``bezout_cutoff``, whose Bezout identities also bound the content of
    each member, and walked by ``bounded_height_pairs``.  With no coprime
    pair of coefficient rows there is no cutoff, and BudgetError is raised.
    """
    if B < 1:
        raise DomainError("B must be >= 1")
    rows, d = pencil.int_rows
    cut = bezout_cutoff(rows, d)
    if cut is None:
        raise BudgetError("no coprime pair of coefficient rows exists, so no Bezout "
                          "cutoff bounds the parameters of the census")
    m_max, blocks = bounded_height_pairs(rows, d, cut[0], B)
    count = 0
    samples = []
    for pairs, H in blocks:
        count += len(H)
        for t, h in zip(pairs[:12 - len(samples)].tolist(), H.tolist()):
            samples.append({"t": tuple(t), "H": int(h)})
    return {"B": float(B), "count": count, "certified_complete": True,
            "cutoff_m": m_max, "family_degree": d,
            "cutoff_constant": str(cut[0]), "samples": samples}


def _totient(k: int) -> int:
    """Euler's phi of k >= 1."""
    phi = k
    for p in factorize(k):
        phi -= phi // p
    return phi


def height_pairing_check(pencil: ConicPencil, n_samples: int = 200,
                         max_height: int = 1000, seed: int = 0) -> dict:
    """Residual h(psi^t) - 2 h(t) over sampled parameters of growing height.

    Reports the max residual and the regression slope of the residual
    against h(t), plus the directly fitted exponent of h(psi^t) in h(t).
    With the measured family degree d the honest pairing is
    h(psi^t) = d * h(t) + O(1), so the slope of the 2h(t)-residual comes out
    near d - 2 (zero exactly when the family degree is 2).
    """
    # the classes up to sign of primitive pairs with max |t| = k number
    # 4 phi(k); (1, 0), (0, 1) and (1, 1) are always drawn
    total, k = 0, 0
    while max(3, 4 * total) < n_samples and k < max_height:
        k += 1
        total += _totient(k)
    classes = max(3, 4 * total)
    if classes < n_samples:
        raise DomainError(f"n_samples = {n_samples} exceeds the {classes} primitive "
                          f"classes of height <= {max_height}")
    rng = random.Random(seed)
    pts = {(1, 0), (0, 1), (1, 1)}
    while len(pts) < n_samples:
        m = rng.randint(1, max_height)
        t1 = rng.randint(-m, m)
        t2 = rng.choice((m, -m))
        if rng.random() < 0.5:
            t1, t2 = t2, t1
        if t1 == 0 and t2 == 0:
            continue
        g = gcd(abs(t1), abs(t2))
        t1, t2 = t1 // g, t2 // g
        if t1 < 0 or (t1 == 0 and t2 < 0):
            t1, t2 = -t1, -t2
        pts.add((t1, t2))
    pts = sorted(pts)
    xs, ys, hs = [], [], []
    res_max = 0.0
    for (t1, t2), H in zip(pts, binary_heights(*pencil.int_rows, pts).tolist()):
        ht = math.log(max(abs(t1), abs(t2)))
        resid = math.log(H) - 2 * ht
        xs.append(ht)
        ys.append(resid)
        hs.append(math.log(H))
        res_max = max(res_max, abs(resid))
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    exp_fit = np.polyfit(np.array(xs), np.array(hs), 1)[0] if len(xs) > 1 else 0.0
    return {"samples": len(xs), "max_abs_residual": res_max,
            "slope": float(slope), "intercept": float(intercept),
            "fitted_height_exponent": float(exp_fit),
            "family_degree": pencil.family_degree,
            "seed": seed}
