#!/usr/bin/env python3
"""Auxiliary hypersurfaces through all points of bounded height.

The search runs over the standard monomials of the curve's coordinate ring,
so every nonzero kernel vector is a witness.  The degree scan is certified:
a rank mod p bounds the rational rank from below, so standard columns of
full rank mod p prove that no witness exists at that degree.  Once the
standard monomials outnumber the points (the Hilbert bound D0) a witness
must exist, and a witness times a linear form is one a degree higher, so
on a curve one full rank at D0 - 1 settles the whole scan.  The returned
forms carry exact certificates for both legs.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from cubiconics import (MultiPoly, auxiliary_form, evaluation_matrix,
                        exact_kernel, minimal_omega, translation_search)

P2 = ("T0", "T1", "T2")
A3 = ("T1", "T2", "T3")

print("== evaluation matrices and exact kernels ==")
pts = [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
M = evaluation_matrix(pts, 2)
print(f"  4 conic points, degree 2: {len(M.rows)} x {len(M.monomials)} matrix")
ker = exact_kernel(M.rows, len(M.monomials))
print(f"  kernel dimension: {len(ker)} (verified exactly)")

conic = MultiPoly.parse("T0*T2 - T1^2", P2)
af = auxiliary_form([conic], P2, pts, 2)
print("  an auxiliary conic through all four points:", af.form)

print("\n== minimal witness degrees ==")
line = MultiPoly.parse("T2", P2)
r = minimal_omega([line], P2, 1)
print(f"  line in P2, B = 1: omega = {r['omega']}  witness: {r['form']}")
omegas = []
for B in (4, 16, 64):
    rr = minimal_omega([conic], P2, B)
    omegas.append(rr["omega"])
    print(f"  conic, B = {B:>2}: omega = {rr['omega']:>2} ({rr['points']} points,"
          f" {rr['certificate'].get('construction', 'kernel witness')})")
slope = float(np.polyfit(np.log([4, 16, 64]), np.log(omegas), 1)[0])
print(f"  growth exponent of omega in B: {slope:.3f}")

print("\n== translation search (constant part of the Cayley form) ==")
for s in ("T1^3 + T2^3 + T3^3 - 1", "T1^3 + T2^3 + T3^3 + T1"):
    rep = translation_search(MultiPoly.parse(s, A3))
    print(f"  {s}: a = {rep['a']} (already nonzero: {rep['already_nonzero']})")
