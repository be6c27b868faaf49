"""Sparse exact multivariate polynomials over Q and over Q[t1,t2].

A polynomial is a map from exponent vectors to nonzero Fraction coefficients,
over a fixed tuple of variable names.  Graded-lexicographic order (total degree
first, then lex with earlier names larger) is the single canonical term order:
it fixes serialization, sign normalization and the leading-term conventions of
exact division.

The module also houses the two resultants (Sylvester for binary forms, the
Macaulay two-determinant quotient in general) and the structural tests on
polynomials that the rest of the library consumes.  Binary forms are read as
coefficient rows, leading coefficient first (``binary_row``); their gcd is
read off the fraction-free echelon form of a Sylvester matrix, so it runs on
the same integer elimination as the rest of the library.

The integer-array layer of the fibre scan, line search, census and chord
recount is here too, in the dtype of ``linalg.int_dtype``: ``int_eval``,
``binary_heights``, the batched ``bezout_cutoff`` and ``bounded_height_pairs``.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from math import floor, gcd, isqrt, lcm, prod

import numpy as np

from .errors import (DomainError, MacaulayDegenerateError, NonDivisibleError,
                     PropertyViolationError)
from .linalg import _echelon, _integer_rows, det, exact_kernel, int_dtype

_ZERO = Fraction(0)
_ONE = Fraction(1)
# entries per block of the integer-array kernels; bounds their working memory
CHUNK_FIBERS = 1 << 18


def _heap_entry(exps):
    """Min-heap entry whose order is the reverse of graded-lex order."""
    return (-sum(exps), tuple(-x for x in exps)), exps


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise DomainError(f"not an exact rational: {c!r}")


class MultiPoly:
    """Sparse polynomial with Fraction coefficients over named variables."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        if terms:
            nv = len(self.names)
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv or any(e < 0 for e in exps):
                    raise DomainError(f"bad exponent vector {exps} for {self.names}")
                clean[exps] = clean.get(exps, _ZERO) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, names):
        return cls(names, {})

    @classmethod
    def constant(cls, c, names):
        names = tuple(names)
        c = _as_fraction(c)
        if c == 0:
            return cls(names, {})
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def variable(cls, name, names):
        names = tuple(names)
        i = names.index(name)
        e = [0] * len(names)
        e[i] = 1
        return cls(names, {tuple(e): _ONE})

    # --- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, subset) -> int:
        """Max total degree over the variables in ``subset``; -1 if zero."""
        if not self.terms:
            return -1
        idx = [self.names.index(n) for n in subset]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous(self, subset=None) -> bool:
        if not self.terms:
            return True
        if subset is None:
            degs = {sum(e) for e in self.terms}
        else:
            idx = [self.names.index(n) for n in subset]
            degs = {sum(e[i] for i in idx) for e in self.terms}
        return len(degs) == 1

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.names[i])
        return used

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    # --- term order -------------------------------------------------------

    def _glex_key(self, exps):
        return (sum(exps), exps)

    def leading_term(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=self._glex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._glex_key(kv[0]), reverse=True)

    # --- ring operations ----------------------------------------------------

    def _check_ring(self, other):
        if self.names != other.names:
            raise DomainError(f"ring mismatch: {self.names} vs {other.names}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        r = MultiPoly.__new__(MultiPoly)
        r.names, r.terms = self.names, out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = MultiPoly.__new__(MultiPoly)
        r.names = self.names
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return MultiPoly.zero(self.names)
            r = MultiPoly.__new__(MultiPoly)
            r.names = self.names
            r.terms = {e: cc * c for e, cc in self.terms.items()}
            return r
        self._check_ring(other)
        out = {}
        if len(other.terms) > len(self.terms):
            a, b = other, self
        else:
            a, b = self, other
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        r = MultiPoly.__new__(MultiPoly)
        r.names, r.terms = self.names, out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative power")
        result = MultiPoly.constant(1, self.names)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    # --- exact division -----------------------------------------------------

    def exact_divide(self, g: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/g; raises NonDivisibleError (with the remainder
        reached) when g does not divide self.

        The leading remainder term comes from a max-heap of exponents in
        graded-lex order (Monagan and Pearce, CASC 2007).  A cancelled term
        stays in the heap and is skipped when popped.  Every term a step adds
        lies below the term it cancels, so an exponent, once popped, never
        returns, and the terms are processed in the order a full scan for
        the largest one would take.
        """
        self._check_ring(g)
        if g.is_zero():
            raise DomainError("division by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.names)
        ge, gc = g.leading_term()
        q = {}
        r = dict(self.terms)
        heap = [_heap_entry(e) for e in r]
        heapq.heapify(heap)
        while r:
            _, re = heapq.heappop(heap)
            if re not in r:
                continue  # cancelled after it was pushed
            rc = r[re]
            te = tuple(a - b for a, b in zip(re, ge))
            if any(x < 0 for x in te):
                rem = MultiPoly(self.names, r)
                raise NonDivisibleError("non-divisible (leading term obstruction)", rem)
            tc = rc / gc
            q[te] = q.get(te, _ZERO) + tc
            for e2, c2 in g.terms.items():
                e = tuple(x + y for x, y in zip(te, e2))
                c, t = r.get(e), tc * c2
                if c is None:
                    r[e] = -t
                    heapq.heappush(heap, _heap_entry(e))
                elif c == t:
                    del r[e]
                else:
                    r[e] = c - t
        return MultiPoly(self.names, q)

    def divides(self, f: "MultiPoly") -> bool:
        try:
            f.exact_divide(self)
            return True
        except NonDivisibleError:
            return False

    # --- calculus / structure -------------------------------------------------

    def partial(self, name: str) -> "MultiPoly":
        i = self.names.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return MultiPoly(self.names, out)

    def substitute(self, mapping) -> "MultiPoly":
        """Substitute variables by polynomials (same ring) or exact scalars.

        Variables absent from ``mapping`` are kept.
        """
        polys = {}
        for k, v in mapping.items():
            i = self.names.index(k)
            if isinstance(v, (int, Fraction)):
                v = MultiPoly.constant(v, self.names)
            polys[i] = v
        out = MultiPoly.zero(self.names)
        pow_cache = {}
        for e, c in self.terms.items():
            piece = MultiPoly.constant(c, self.names)
            rest = [0] * len(self.names)
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                if i in polys:
                    key = (i, ei)
                    if key not in pow_cache:
                        pow_cache[key] = polys[i] ** ei
                    piece = piece * pow_cache[key]
                else:
                    rest[i] = ei
            if any(rest):
                piece = piece * MultiPoly(self.names, {tuple(rest): _ONE})
            out = out + piece
        return out

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one int or Fraction per variable.

        Denominators of the coefficients and of the point are cleared once,
        so the terms are summed as Python integers.
        """
        if len(point) != len(self.names):
            raise DomainError(f"point {point!r} does not match the ring {self.names}")
        if not self.terms:
            return _ZERO
        xs = [x if isinstance(x, int) else _as_fraction(x) for x in point]
        den = lcm(*(x.denominator for x in xs))
        nums = [x.numerator * (den // x.denominator) for x in xs]
        cden = lcm(*(c.denominator for c in self.terms.values()))
        # x = nums/den: a term of degree k is scaled by den^(top - k)
        top = self.total_degree() if den != 1 else 0
        total = 0
        for e, c in self.terms.items():
            t = c.numerator * (cden // c.denominator)
            for x, k in zip(nums, e):
                if k:
                    t *= x ** k
            if den != 1:
                t *= den ** (top - sum(e))
            total += t
        return Fraction(total, cden * den ** top)

    def split_by_degree(self, subset):
        """Partition into {degree over subset -> component}; parts sum to self."""
        idx = [self.names.index(n) for n in subset]
        parts = {}
        for e, c in self.terms.items():
            d = sum(e[j] for j in idx)
            parts.setdefault(d, {})[e] = c
        return {d: MultiPoly(self.names, t) for d, t in sorted(parts.items())}

    # --- content / primitive part ---------------------------------------------

    def rational_content(self):
        """Signed rational content: self == content * primitive, where the
        primitive part has coprime integer coefficients and positive
        graded-lex leading coefficient."""
        if self.is_zero():
            raise DomainError("content of zero polynomial")
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        _, lc = self.leading_term()
        if lc < 0:
            content = -content
        prim = self * (1 / content)
        return content, prim

    # --- serialization -----------------------------------------------------

    def _monomial_str(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            m = self._monomial_str(e)
            chunks.append(f"{c} * {m}" if m else f"{c}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self})"

    @classmethod
    def parse(cls, text: str, names) -> "MultiPoly":
        """Parse the canonical text format: terms ``coeff * v^e*v^e`` joined
        by '+'; bare monomials and leading '-' are accepted."""
        names = tuple(names)
        s = text.split("#", 1)[0].strip()
        if not s or s == "0":
            return cls.zero(names)
        s = s.replace("-", "+-")
        out = {}
        for raw in s.split("+"):
            raw = raw.strip()
            if not raw:
                continue
            coeff = _ONE
            exps = [0] * len(names)
            neg = raw.startswith("-")
            if neg:
                raw = raw[1:].strip()
            for factor in re.split(r"\*", raw):
                factor = factor.strip()
                if not factor:
                    continue
                if re.fullmatch(r"\d+(/\d+)?", factor):
                    coeff *= Fraction(factor)
                    continue
                m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(\d+))?", factor)
                if not m:
                    raise DomainError(f"cannot parse factor {factor!r}")
                name, e = m.group(1), int(m.group(2) or 1)
                if name not in names:
                    raise DomainError(f"unknown variable {name!r} (ring {names})")
                exps[names.index(name)] += e
            if neg:
                coeff = -coeff
            key = tuple(exps)
            out[key] = out.get(key, _ZERO) + coeff
        return cls(names, out)


# --- ring-changing helpers -----------------------------------------------


def embed(f: MultiPoly, names) -> MultiPoly:
    """Reinterpret f inside a larger ring containing all of f's variables."""
    names = tuple(names)
    pos = [names.index(n) for n in f.names]
    out = {}
    for e, c in f.terms.items():
        e2 = [0] * len(names)
        for p, ei in zip(pos, e):
            e2[p] = ei
        out[tuple(e2)] = c
    return MultiPoly(names, out)


def restrict(f: MultiPoly, names) -> MultiPoly:
    """Move f into the (possibly smaller) ring ``names``; fails if f involves
    a variable outside it."""
    names = tuple(names)
    missing = f.variables_used() - set(names)
    if missing:
        raise DomainError(f"cannot restrict: {sorted(missing)} occur in f")
    keep = []
    for n in names:
        keep.append(f.names.index(n) if n in f.names else None)
    out = {}
    for e, c in f.terms.items():
        out[tuple(e[i] if i is not None else 0 for i in keep)] = c
    return MultiPoly(names, out)


def pivot_substitution(l: MultiPoly):
    """{pivot -> expression}: the linear form l solved for its graded-lex
    leading variable, the first one with a nonzero coefficient."""
    e, c = l.leading_term()
    v = l.names[e.index(1)]
    return {v: MultiPoly.variable(v, l.names) - l * (1 / c)}


def coefficients_in(f: MultiPoly, coeff_vars):
    """View f as a polynomial in the variables *outside* ``coeff_vars``:
    returns {outer exponent vector -> coefficient polynomial in coeff_vars}.
    """
    coeff_vars = tuple(coeff_vars)
    cidx = [f.names.index(n) for n in coeff_vars]
    oidx = [i for i in range(len(f.names)) if i not in cidx]
    groups = {}
    for e, c in f.terms.items():
        outer = tuple(e[i] for i in oidx)
        inner = tuple(e[i] for i in cidx)
        groups.setdefault(outer, {})[inner] = c
    return {k: MultiPoly(coeff_vars, t) for k, t in groups.items()}


# --- binary forms -----------------------------------------------------------


def binary_row(f: MultiPoly, d: int):
    """Coefficients (c_{d,0}, c_{d-1,1}, ..., c_{0,d}) of a binary form of
    degree d, leading coefficient first; a form of lower degree e is read as
    f * y^(d - e)."""
    row = [_ZERO] * (d + 1)
    for (i, _), c in f.terms.items():
        row[d - i] = c
    return row


def gcd_binary_forms(forms, names) -> MultiPoly:
    """Gcd of homogeneous binary forms in the two named variables, returned
    integer-primitive with positive leading (graded-lex) coefficient.

    Nonzero inputs may have different degrees; zero entries are skipped.
    The rows of the Sylvester matrix of g and h, of degrees m and n, span
    the forms of degree m + n - 1 divisible by gcd(g, h), so the last row of
    its fraction-free echelon form is c * gcd * y^(rank - 1) and the gcd is
    that row from index rank - 1 on (Laidacker, Math. Mag. 42 (1969)).  The
    forms are folded in one at a time, until the gcd is constant.
    """
    names = tuple(names)
    x, y = names
    live = [f for f in forms if f and not f.is_zero()]
    if not live:
        raise DomainError("gcd of all-zero family")
    for f in live:
        if not f.is_homogeneous():
            raise DomainError("gcd_binary_forms expects homogeneous forms")
        if f.variables_used() - {x, y}:
            raise DomainError("forms must live in the two given variables")
    g = None
    for f in live:
        if f.names != names:
            f = restrict(f, names)
        row = _integer_rows([binary_row(f, f.total_degree())])[0][0]
        if g is not None:
            ech, pivots, _ = _echelon(sylvester_rows(g, row), len(g) + len(row) - 2)
            row = ech[-1][len(pivots) - 1:]
            content = gcd(*row)
            row = [c // content for c in row]
        g = row
        if len(g) == 1:
            break
    d = len(g) - 1
    return MultiPoly(names, {(d - k, k): c for k, c in enumerate(g)}).rational_content()[1]


# --- determinants over a ring ------------------------------------------------


def _peel_singleton_rows(m):
    """Laplace-eliminate rows with a single nonzero entry (cheap and common
    for Macaulay matrices of near-pure-power systems).  Mutates nothing;
    returns (sign, factors, reduced matrix) with det = sign * prod(factors)
    * det(reduced)."""
    rows = list(range(len(m)))
    cols = list(range(len(m)))
    sign = 1
    factors = []
    changed = True
    while changed and rows:
        changed = False
        for ri, i in enumerate(rows):
            nz = [cj for cj, j in enumerate(cols) if not m[i][j].is_zero()]
            if len(nz) == 0:
                return sign, factors, None  # zero row: determinant vanishes
            if len(nz) == 1:
                cj = nz[0]
                # sign of the (ri, cj) Laplace position in the current minor
                sign *= -1 if (ri + cj) % 2 else 1
                factors.append(m[i][cols[cj]])
                rows.pop(ri)
                cols.pop(cj)
                changed = True
                break
    return sign, factors, [[m[i][j] for j in cols] for i in rows]


def det_poly(rows, names):
    """Determinant of a square matrix of MultiPoly entries (Bareiss
    fraction-free elimination on top of singleton-row peeling; every
    division is exact)."""
    n = len(rows)
    if n == 0:
        return MultiPoly.constant(1, names)
    m = [[e if isinstance(e, MultiPoly) else MultiPoly.constant(e, names) for e in r] for r in rows]
    sign, factors, m = _peel_singleton_rows(m)
    lead = MultiPoly.constant(sign, names)
    for f in factors:
        lead = lead * f
    if m is None:
        return MultiPoly.zero(names)
    if not m:
        return lead
    n = len(m)
    sign = 1
    prev = MultiPoly.constant(1, names)
    for c in range(n - 1):
        piv = None
        best = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                w = len(m[i][c].terms)
                if best is None or w < best:
                    best, piv = w, i
        if piv is None:
            return MultiPoly.zero(names)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pc = m[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = m[i][j] * pc - m[i][c] * m[c][j]
                m[i][j] = num.exact_divide(prev)
            m[i][c] = MultiPoly.zero(names)
        prev = pc
    out = m[n - 1][n - 1] * lead
    return out if sign > 0 else -out


# --- resultants ---------------------------------------------------------------


def sylvester_rows(fc, gc):
    """Sylvester matrix rows of two binary forms given by their coefficient
    lists, leading coefficient first."""
    m, n = len(fc) - 1, len(gc) - 1
    return ([[0] * k + list(fc) + [0] * (n - 1 - k) for k in range(n)]
            + [[0] * k + list(gc) + [0] * (m - 1 - k) for k in range(m)])


def absmax(a):
    """Largest entry magnitude of an integer array (0 when it is empty)."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def int_eval(poly: MultiPoly, arrays: dict):
    """Exact values of a polynomial with integer coefficients on int64
    arrays, in the dtype of ``int_dtype``.  A coefficient that is not an
    integer raises DomainError: clear the denominators first."""
    if any(c.denominator != 1 for c in poly.terms.values()):
        raise DomainError(f"non-integer coefficient in {poly}")
    shape = next(iter(arrays.values())).shape
    X = max(map(absmax, arrays.values()), default=0)
    dtype = int_dtype([(c, sum(e)) for e, c in poly.terms.items()], X)
    if dtype is object:
        arrays = {k: a.astype(object) for k, a in arrays.items()}
    total = np.zeros(shape, dtype=dtype)
    for e, c in poly.terms.items():
        term = np.full(shape, int(c), dtype=dtype)
        for name, ei in zip(poly.names, e):
            for _ in range(ei):
                term = term * arrays[name]
        total += term
    return total


def binary_heights(rows, d: int, pairs):
    """Naive heights of the vectors of degree-d binary forms with integer
    coefficient ``rows`` (leading coefficient first, as for
    ``bezout_cutoff``) at the primitive integer pairs (t1, t2) of ``pairs``,
    as an array: max |v| // gcd(v) over the values v = rows @
    (t1^d, t1^(d-1) t2, ..., t2^d), in the dtype of ``int_dtype``.  A zero
    vector raises PropertyViolationError.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    dtype = int_dtype([(max(sum(map(abs, r)) for r in rows), d)], absmax(pairs))
    t1, t2 = pairs[:, 0].astype(dtype), pairs[:, 1].astype(dtype)
    vals = np.array(rows, dtype=dtype) @ np.stack([t1 ** (d - i) * t2 ** i
                                                   for i in range(d + 1)])
    g = np.gcd.reduce(vals, axis=0)
    zero = np.flatnonzero(g == 0)
    if len(zero):
        t1, t2 = pairs[zero[0]].tolist()
        raise PropertyViolationError(f"family vanishes at t = ({t1}, {t2})")
    return abs(vals).max(axis=0) // g


def iroot(n: int, d: int) -> int:
    """Floor of the d-th root of an integer n >= 0, by Newton's iteration
    from above, in integers."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def bezout_cutoff(rows, d: int):
    """Exact c > 0 with H(q(t)) >= c * H(t)^d at every primitive integer
    t = (t1, t2), where q(t) is the vector of the degree-d binary forms with
    integer coefficient ``rows`` (leading coefficient first) and H the height
    of its primitive part, with the pair of rows that certifies it:
    (c, (r1, r2)), or None when no pair of rows is coprime.

    A coprime pair has the Bezout identities A q1 + B q2 = D t1^(2d-1) and
    A' q1 + B' q2 = D t2^(2d-1) with integer A, B, A', B' of degree d - 1
    over one common multiplier D.  At primitive t they bound the content of
    q(t) by |D| and give max(|q1(t)|, |q2(t)|) >= H(t)^d * |D| / w, w the
    largest coefficient sum of |A| + |B| and |A'| + |B'|, so c = 1 / w.

    The first pair of least w in combinations order is kept, and its
    identities are checked in Python integers (AssertionError if they
    fail).  Zero rows and repeats of an earlier row are dropped: w is
    symmetric, so a pair with a repeat has the w of an earlier pair of
    first occurrences or is not coprime.  All pairs' transposed Sylvester
    matrices S, with e_0 and e_(n-1) appended (n = 2d), form one
    (P, n, n + 2) array, and one fraction-free Gauss-Jordan elimination
    (Bareiss's update applied to every other row), pivoting on the first
    nonzero entry of each column, turns each into [Delta I | X] with
    S^T X = Delta [e_0 | e_(n-1)]: the columns of X are (A, B) and
    (A', B') over D = Delta.  A column without a pivot means det S = 0, and
    the pair leaves the batch.  The pivot order does not change w: Delta =
    +-det S, and max(sum |X|) / gcd(X, Delta) is the same for every
    integral multiple of the least (A, B, A', B', D).  Each entry is a
    minor of [S^T | e_0 | e_(n-1)], so at most H = (|r1|_2 |r2|_2)^d by
    Hadamard's bound on its columns (the rows of S and two unit vectors),
    and each update, a difference of two products of entries, is below
    2 H^2: the batch runs in the dtype of ``int_dtype([(2, 2)], H)``, H
    taken exactly from the squared norms and largest over the batch.
    """
    seen = {}
    live = [seen.setdefault(tuple(r), r) for r in rows if any(r) and tuple(r) not in seen]
    n, (first, second) = 2 * d, np.triu_indices(len(live), 1)  # combinations order
    norms = sorted(sum(int(x) ** 2 for x in r) for r in live)[-2:]
    dtype = int_dtype([(2, 2)], isqrt(prod(norms) ** d - 1) + 1)
    # M[p, c, k] = S[k, c] = r1[c - k], M[p, c, d + k] = r2[c - k], 0 for c - k outside 0..d
    off = np.arange(n)[:, None] - np.arange(d)
    R = np.array([[int(x) for x in r] + [0] * d for r in live], dtype).reshape(-1, n + 1)
    M, pairs = np.zeros((len(first), n, n + 2), dtype), np.arange(len(first))
    M[:, :, :d], M[:, :, d:n] = R[first][:, off], R[second][:, off]
    M[:, 0, n] = M[:, n - 1, n + 1] = 1
    for k in range(n):
        keep = (M[:, k:, k] != 0).any(axis=1)  # no pivot: det S = 0
        M, pairs = M[keep], pairs[keep]
        at, piv = np.arange(len(M)), k + (M[:, k:, k] != 0).argmax(axis=1)
        M[at, k], M[at, piv] = M[at, piv], M[at, k]
        prev, other = M[:, k - 1, k - 1, None, None] if k else 1, np.arange(n) != k
        M[:, other, k + 1:] = (M[:, other, k + 1:] * M[:, k, k, None, None]
                               - M[:, other, k, None] * M[:, k, None, k + 1:]) // prev
    if not len(M):
        return None
    D, X = M[:, n - 1, n - 1], M[:, :, n:]  # S^T X = D [e_0 | e_(n-1)]
    worst = abs(X).sum(axis=1).max(axis=1) // np.gcd(np.gcd.reduce(X, axis=(1, 2)), D)
    w = int(np.argmin(worst))
    r1, r2 = live[first[pairs[w]]], live[second[pairs[w]]]
    (x1, x2), S, D = X[w].T.tolist(), sylvester_rows(r1, r2), int(D[w])
    if not D or any(sum(a * s[c] for a, s in zip(x, S)) != D * (c == j * (n - 1))
                    for j, x in enumerate((x1, x2)) for c in range(n)):
        raise AssertionError(f"Bezout identities fail for the cutoff pair {r1}, {r2}")
    return Fraction(1, max(sum(map(abs, x)) for x in (x1, x2)) // gcd(D, *x1, *x2)), (r1, r2)


def bounded_height_pairs(rows, d: int, cut, B):
    """(m_max, blocks): the parameters that cut = c from ``bezout_cutoff(rows,
    d)`` certifies for height B.  A member of height <= B has c H(t)^d <= B,
    so H(t) < m_max = iroot(floor(B / c), d) + 1.  ``blocks`` yields
    (pairs, H) for the primitive (0, 1), then (t1, t2) with 1 <= t1 <= m_max,
    |t2| <= m_max, t2 fastest, whose member has height H <= B."""
    m_max = iroot(floor(Fraction(B) / cut), d) + 1
    width, step = 2 * m_max + 1, max(1, CHUNK_FIBERS // len(rows))

    def blocks():
        # k < 0 gives t1 = 0 and t2 = 1..m_max, of which (0, 1) is primitive
        for start in range(-m_max, m_max * width, step):
            k = np.arange(start, min(m_max * width, start + step))
            t1, t2 = 1 + k // width, k % width - m_max
            pairs = np.stack([t1, t2], axis=1)[np.gcd(t1, t2) == 1]
            H = binary_heights(rows, d, pairs)
            # integer H: H <= B exactly when H <= floor(B), with no float cast
            keep = H <= floor(B)
            yield pairs[keep], H[keep]

    return m_max, blocks()


def sylvester_resultant(f: MultiPoly, g: MultiPoly) -> Fraction:
    """Classical Sylvester resultant of two numeric homogeneous binary forms,
    normalized so Res(x^m, y^n) = 1."""
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero form")
    if len(f.names) != 2 or g.names != f.names:
        raise DomainError("binary forms expected (ring with two variables)")
    for h in (f, g):
        if not h.is_homogeneous():
            raise DomainError("form is not homogeneous in the binary pair")
    return det(sylvester_rows(binary_row(f, f.total_degree()), binary_row(g, g.total_degree())))


def monomials_of_degree(nvars, d):
    """Exponent vectors of total degree d, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def macaulay_resultant(forms, ambient_names):
    """Macaulay resultant of n+1 forms in the n+1 ``ambient_names`` variables.

    Coefficients may involve extra (symbolic) variables; the result is then a
    polynomial in those.  Normalized so Res of pure powers is 1.  When the
    denominator minor vanishes, the variable order is re-partitioned by
    deterministic cyclic shifts before failing.
    """
    ambient_names = tuple(ambient_names)
    nv = len(ambient_names)
    if len(forms) != nv:
        raise DomainError(f"need {nv} forms for {nv} variables")
    degrees = []
    for f in forms:
        if f.is_zero():
            raise DomainError("zero form in resultant slot")
        if not f.is_homogeneous(ambient_names):
            raise DomainError("forms must be homogeneous in the ambient variables")
        degrees.append(f.degree_in(ambient_names))
    if any(d < 1 for d in degrees):
        raise DomainError("all degrees must be >= 1")
    symbol_names = None
    coeff_tables = []
    for f in forms:
        # coefficient data in the complement of the ambient variables
        extra = tuple(n for n in f.names if n not in ambient_names)
        table = {}
        for e, c in f.terms.items():
            amb = tuple(e[f.names.index(n)] for n in ambient_names)
            rest = tuple((n, e[f.names.index(n)]) for n in extra if e[f.names.index(n)])
            table.setdefault(amb, []).append((rest, c))
        coeff_tables.append(table)
        if extra:
            symbol_names = tuple(sorted(set(extra) | set(symbol_names or ())))
    symbol_names = symbol_names or ()

    def coeff_as_poly(table_entry):
        out = {}
        for rest, c in table_entry:
            e = [0] * len(symbol_names)
            for n, ei in rest:
                e[symbol_names.index(n)] = ei
            key = tuple(e)
            out[key] = out.get(key, _ZERO) + c
        return MultiPoly(symbol_names, out)

    nu = sum(d - 1 for d in degrees) + 1
    cols = monomials_of_degree(nv, nu)
    col_index = {m: i for i, m in enumerate(cols)}

    last_error = None
    for shift in range(nv):
        order = [(i + shift) % nv for i in range(nv)]

        def assign(alpha):
            for i in order:
                if alpha[i] >= degrees[i]:
                    return i
            raise AssertionError("pigeonhole failure in Macaulay partition")

        rows = []
        reduced_flags = []
        for alpha in cols:
            i = assign(alpha)
            hits = sum(1 for j in range(nv) if alpha[j] >= degrees[j])
            reduced_flags.append(hits == 1)
            shiftexp = list(alpha)
            shiftexp[i] -= degrees[i]
            row = [MultiPoly.zero(symbol_names) for _ in cols]
            for amb, entry in coeff_tables[i].items():
                tgt = tuple(a + b for a, b in zip(shiftexp, amb))
                row[col_index[tgt]] = row[col_index[tgt]] + coeff_as_poly(entry)
            rows.append(row)

        sub_idx = [k for k, fl in enumerate(reduced_flags) if not fl]
        if not symbol_names:
            frows = [[e.coefficient(()) for e in r] for r in rows]
            det_m = det(frows)
            det_sub = det([[frows[i][j] for j in sub_idx] for i in sub_idx])
            if det_sub == 0:
                last_error = MacaulayDegenerateError(
                    f"denominator minor vanished for variable shift {shift}")
                continue
            return det_m / det_sub
        det_m = det_poly(rows, symbol_names)
        sub = [[rows[i][j] for j in sub_idx] for i in sub_idx]
        det_sub = det_poly(sub, symbol_names)
        if det_sub.is_zero():
            last_error = MacaulayDegenerateError(
                f"denominator minor vanished for variable shift {shift}")
            continue
        if det_m.is_zero():
            return MultiPoly.zero(symbol_names)
        try:
            res = det_m.exact_divide(det_sub)
        except NonDivisibleError as exc:
            last_error = MacaulayDegenerateError(f"inexact Macaulay quotient: {exc}")
            continue
        return res
    raise last_error


# --- essential variables -------------------------------------------------------


def essential_variable_count(f: MultiPoly):
    """Least number k of linear forms in which f can be written, with a basis.

    k is the rank of the coefficient matrix of the first partial derivatives;
    the returned forms are a basis of the orthogonal complement of the space
    of constant directions annihilating f.
    """
    if f.is_zero():
        raise DomainError("essential variables of the zero polynomial")
    nv = len(f.names)
    partials = [f.partial(n) for n in f.names]
    monos = sorted({e for p in partials for e in p.terms})
    # rows indexed by variables: coefficient vectors of the partials
    rows = [[p.terms.get(e, _ZERO) for e in monos] for p in partials]
    # kernel of the map v -> sum_i v_i d_i f, i.e. right kernel of the
    # (monomials x variables) matrix; with no rows it is the identity basis
    kernel = exact_kernel([list(col) for col in zip(*rows)], nv)
    k = nv - len(kernel)
    # basis of the annihilator of the kernel: right kernel of kernel matrix
    forms_vecs = exact_kernel(kernel, nv)
    forms = []
    for v in forms_vecs:
        p = MultiPoly(f.names, {tuple(1 if i == j else 0 for i in range(nv)): v[j]
                                for j in range(nv) if v[j] != 0})
        _, p = p.rational_content()
        forms.append(p)
    assert len(forms) == k
    return k, forms
