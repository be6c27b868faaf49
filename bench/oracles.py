"""Answers computed apart from cubiconics, from plain Python integers and numpy.

Nothing here imports the library: forms are read by a parser of their own,
evaluated by integer arithmetic, and points are found by brute force or by
integer cube roots instead of the library's float root isolation.  The
benchmark compares the library's outputs with these answers.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np

INT64_SAFE = 2 ** 62

FERMAT_LINE_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


# --- forms ---------------------------------------------------------------------


def parse_form(text: str, nvars: int):
    """Integer terms [(exponents, coefficient)] of a form written in the
    polynomial text format (``-2 * T0^2*T1 + T3^3``) in T0..T(nvars-1)."""
    s = text.split("#", 1)[0].strip().replace("-", "+-")
    acc = {}
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        coeff = Fraction(1)
        if raw.startswith("-"):
            coeff, raw = -coeff, raw[1:]
        exps = [0] * nvars
        for factor in raw.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            m = re.fullmatch(r"T(\d+)(?:\^(\d+))?", factor)
            if not m or int(m.group(1)) >= nvars:
                raise ValueError(f"cannot read factor {factor!r} in {text!r}")
            exps[int(m.group(1))] += int(m.group(2) or 1)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    terms = []
    for e, c in sorted(acc.items()):
        if c == 0:
            continue
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in {text!r}")
        terms.append((e, int(c)))
    return terms


def eval_form(terms, point) -> int:
    """Exact value of the form at an integer point."""
    total = 0
    for e, c in terms:
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        total += v
    return total


def degree(terms) -> int:
    return max(sum(e) for e, _ in terms)


def _check_int64(terms, B: int) -> None:
    if sum(abs(c) for _, c in terms) * B ** degree(terms) >= INT64_SAFE:
        raise OverflowError("values of the form may not fit in int64 at this B")


# --- projective points --------------------------------------------------------


def canonical(pt):
    """Primitive representative with first nonzero coordinate positive;
    None for the zero vector."""
    g = 0
    for v in pt:
        g = math.gcd(g, abs(v))
    if g == 0:
        return None
    pt = tuple(v // g for v in pt)
    if next(v for v in pt if v) < 0:
        pt = tuple(-v for v in pt)
    return pt


def _keep_canonical(rows):
    """Rows (int64 array, one point each) that are primitive with first
    nonzero coordinate positive, as sorted tuples."""
    if len(rows) == 0:
        return []
    rows = np.asarray(rows, dtype=np.int64)
    g = np.gcd.reduce(np.abs(rows), axis=1)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    keep = (g == 1) & (lead > 0)
    return sorted(tuple(int(v) for v in r) for r in rows[keep])


def _grid(nvars: int, B: int):
    rng = np.arange(-B, B + 1, dtype=np.int64)
    return [g.ravel() for g in np.meshgrid(*([rng] * nvars), indexing="ij")]


def brute_projective(terms, nvars: int, B: int):
    """Every point of height <= B on the hypersurface, found by trying each
    value of the last coordinate in [-B, B] over the whole prefix box."""
    _check_int64(terms, B)
    prefix = _grid(nvars - 1, B)
    deg_last = max(e[-1] for e, _ in terms)
    coeffs = [np.zeros(prefix[0].shape, dtype=np.int64) for _ in range(deg_last + 1)]
    for e, c in terms:
        v = np.full(prefix[0].shape, c, dtype=np.int64)
        for g, k in zip(prefix, e[:-1]):
            for _ in range(k):
                v = v * g
        coeffs[e[-1]] += v
    found = []
    for x in range(-B, B + 1):
        val = coeffs[-1].copy()
        for c in reversed(coeffs[:-1]):
            val = val * x + c
        idx = np.nonzero(val == 0)[0]
        if len(idx):
            found.append(np.stack([g[idx] for g in prefix]
                                  + [np.full(len(idx), x, dtype=np.int64)], axis=1))
    return _keep_canonical(np.concatenate(found) if found else [])


def _integer_cube_roots(s):
    """x with x^3 == s where s (int64 array) is a perfect cube, else a value
    whose cube differs from s; exactness is tested by the caller."""
    r = np.rint(np.cbrt(s.astype(np.float64))).astype(np.int64)
    out = r.copy()
    for d in (-1, 1):
        hit = (r + d) ** 3 == s
        out[hit] = r[hit] + d
    return out


def fermat_projective(B: int):
    """Points of height <= B on x0^3 + x1^3 + x2^3 + x3^3 = 0, solving for
    the last coordinate by integer cube roots."""
    x0, x1, x2 = _grid(3, B)
    s = x0 ** 3 + x1 ** 3 + x2 ** 3
    x3 = _integer_cube_roots(-s)
    ok = (x3 ** 3 == -s) & (np.abs(x3) <= B)
    return _keep_canonical(np.stack([x0[ok], x1[ok], x2[ok], x3[ok]], axis=1))


def fermat_affine(B: int):
    """Integer points (x1, x2, x3) with 1 + x1^3 + x2^3 + x3^3 = 0 in the
    closed euclidean ball of radius B."""
    x1, x2 = _grid(2, B)
    room = B * B - x1 ** 2 - x2 ** 2
    inside = room >= 0
    x1, x2, room = x1[inside], x2[inside], room[inside]
    s = 1 + x1 ** 3 + x2 ** 3
    x3 = _integer_cube_roots(-s)
    ok = (x3 ** 3 == -s) & (x3 ** 2 <= room)
    return sorted(zip(x1[ok].tolist(), x2[ok].tolist(), x3[ok].tolist()))


def on_fermat_line(pt) -> bool:
    """Whether a projective point lies on one of the three rational lines
    x_i + x_j = x_k + x_l = 0 of the Fermat cubic."""
    return any(pt[i] + pt[j] == 0 and pt[k] + pt[l] == 0
               for (i, j), (k, l) in FERMAT_LINE_PAIRINGS)


def fermat_verify_counts(B_list, B_affine):
    """The counts `cubiconics verify --affine` reports for the Fermat cubic:
    off-line projective points per B, all points and on-line points at the
    largest B, and the same for integral points in the euclidean ball."""
    Bmax = max(B_list)
    pts = fermat_projective(Bmax)
    online = [p for p in pts if on_fermat_line(p)]
    offline = [p for p in pts if not on_fermat_line(p)]
    aff = fermat_affine(B_affine)
    aff_on = [p for p in aff if on_fermat_line((1,) + p)]
    aff_off = [p for p in aff if not on_fermat_line((1,) + p)]
    return {
        "rational": {
            "counts": [sum(1 for p in offline if max(map(abs, p)) <= b) for b in B_list],
            "total_points": len(pts),
            "on_line_points": len(online),
        },
        "integral": {
            "counts": [sum(1 for p in aff_off if sum(c * c for c in p) <= b * b)
                       for b in B_list],
            "total_points": len(aff),
            "on_line_points": len(aff_on),
        },
    }


# --- lines ----------------------------------------------------------------------


def integer_vector(coeffs):
    """Rational coefficient vector scaled to a primitive integer vector."""
    vec = [Fraction(c) for c in coeffs]
    den = 1
    for c in vec:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return canonical([int(c * den) for c in vec])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _cross3(u, v, w):
    """The vector orthogonal to three vectors of Z^4 (signed 3x3 minors)."""
    rows = (u, v, w)
    return tuple((-1) ** i * _det3([[r[j] for j in range(4) if j != i] for r in rows])
                 for i in range(4))


def line_points(u, v):
    """Four distinct integer points on the line u = v = 0 in P^3."""
    span = []
    for k in range(4):
        e = tuple(int(j == k) for j in range(4))
        w = _cross3(u, v, e)
        if any(w) and all(any(w[i] * s[j] - w[j] * s[i] for i in range(4) for j in range(4))
                          for s in span):
            span.append(w)
        if len(span) == 2:
            break
    if len(span) < 2:
        raise ValueError("the two planes do not meet in a line")
    P, Q = span
    return [P, Q, tuple(a + b for a, b in zip(P, Q)), tuple(a - b for a, b in zip(P, Q))]


def line_on_surface(terms, u, v) -> bool:
    """A cubic vanishing at four distinct points of a line contains it."""
    pts = line_points(u, v)
    return all(sum(a * b for a, b in zip(w, p)) == 0 for w in (u, v) for p in pts) \
        and all(eval_form(terms, p) == 0 for p in pts)


def plucker(u, v):
    """Primitive 2x2 minors (p01, p02, p03, p12, p13, p23) of the plane pair."""
    return canonical([u[i] * v[j] - u[j] * v[i]
                      for i, j in itertools.combinations(range(4), 2)])


# --- smoothness modulo p -----------------------------------------------------------


def _partial(terms, i):
    out = []
    for e, c in terms:
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out.append((tuple(e2), c * e[i]))
    return out


def smooth_mod_p(terms, nvars: int, p: int) -> bool:
    """No common zero of f and its partials on P^(nvars-1)(F_p)."""
    polys = [terms] + [_partial(terms, i) for i in range(nvars)]
    polys = [[(e, c % p) for e, c in t if c % p] for t in polys]
    if not polys[0]:
        return False
    for lead in range(nvars):
        for tail in itertools.product(range(p), repeat=nvars - lead - 1):
            pt = (0,) * lead + (1,) + tail
            if all(eval_form(t, pt) % p == 0 for t in polys):
                return False
    return True


# --- pencils and censuses ----------------------------------------------------------------


def proportional(a: dict, b: dict) -> bool:
    """Whether two polynomials, given as {exponents: coefficient}, agree up
    to a nonzero scalar."""
    a = {e: Fraction(c) for e, c in a.items() if c}
    b = {e: Fraction(c) for e, c in b.items() if c}
    if not a or a.keys() != b.keys():
        return False
    e0 = next(iter(a))
    r = a[e0] / b[e0]
    return all(a[e] == r * b[e] for e in a)


def census_count(rows, d: int, B: int, M: int) -> int:
    """Parameters [t1:t2], primitive with |t_i| <= M, t1 >= 0 and t2 = 1 when
    t1 = 0, whose family member has height <= B.  Each row holds the
    integer coefficients (of t1^d, t1^(d-1) t2, ..., t2^d) of one
    coefficient of the family."""
    if sum(abs(c) for r in rows for c in r) * M ** d >= INT64_SAFE:
        raise OverflowError("family values may not fit in int64 in this box")
    t1, t2 = np.meshgrid(np.arange(1, M + 1, dtype=np.int64),
                         np.arange(-M, M + 1, dtype=np.int64), indexing="ij")
    t1 = np.concatenate([[0], t1.ravel()])
    t2 = np.concatenate([[1], t2.ravel()])
    prim = np.gcd(t1, np.abs(t2)) == 1
    t1, t2 = t1[prim], t2[prim]
    vals = np.stack([sum(c * t1 ** (d - i) * t2 ** i for i, c in enumerate(r) if c)
                     + np.zeros_like(t1) for r in rows])
    g = np.gcd.reduce(np.abs(vals), axis=0)
    if (g == 0).any():
        raise ArithmeticError("the family vanishes at some parameter")
    H = np.abs(vals).max(axis=0) // g
    return int((H <= B).sum())


# --- rational normal curves ------------------------------------------------------------


def normal_curve_points(e: int, ambient: int, B: int):
    """Points of height <= B on the line T2 = 0 (e = 1) or on the conic
    T0*T2 = T1^2 (e = 2), from their parameterisations, padded with zero
    coordinates up to `ambient` coordinates."""
    m = B if e == 1 else math.isqrt(B)
    pts = set()
    for s in range(-m, m + 1):
        for t in range(-m, m + 1):
            if math.gcd(s, t) != 1:
                continue
            pt = (s, t, 0) if e == 1 else (s * s, s * t, t * t)
            pts.add(canonical(pt + (0,) * (ambient - 3)))
    return sorted(pts)


def normal_curve_param_points(e: int, ambient: int, count: int):
    """`count` distinct points (1, k, k^e) of the curve, k = 0, 1, ..."""
    return [((1, k, 0) if e == 1 else (1, k, k * k)) + (0,) * (ambient - 3)
            for k in range(count)]


def witness_check(form_text: str, e: int, ambient: int, points, omega: int):
    """None when the witness form vanishes at every point and does not
    vanish on the curve, else the reason it fails.  A nonzero restriction to
    a degree-e rational normal curve has at most e*omega zeros there, so it
    is nonzero at one of any e*omega + 1 curve points."""
    terms = parse_form(form_text, ambient)
    if degree(terms) != omega:
        return f"witness degree {degree(terms)} != omega {omega}"
    bad = [p for p in points if eval_form(terms, p)]
    if bad:
        return f"witness does not vanish at {bad[:3]}"
    if not any(eval_form(terms, p) for p in normal_curve_param_points(e, ambient, e * omega + 1)):
        return "witness vanishes on the whole curve"
    return None
