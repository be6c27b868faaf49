#!/usr/bin/env python3
"""Exhaustive point enumeration and the conic-count experiments."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubiconics import (CubicSurface, ExternalConstants, MultiPoly,
                        conic_points, enumerate_affine, enumerate_projective,
                        find_lines, integral_conics_experiment,
                        points_on_conics_experiment)
from cubiconics.cayley import T4

P2 = ("T0", "T1", "T2")
A3 = ("T1", "T2", "T3")

print("== projective enumeration ==")
conic = MultiPoly.parse("T0*T2 - T1^2", P2)
for B in (2, 8, 32):
    r = enumerate_projective([conic], P2, B)
    print(f"  conic in P2, B = {B:>2}: {r.count} points", r.points[:4], "...")

print("\n== conics in P^3: brute force and parameterization must agree ==")
r = conic_points(MultiPoly.parse("T0*T2 - T1^2", T4), MultiPoly.parse("T3", T4), 32)
print("  isotropic conic, B = 32:", r.count, "points |", r.note)
r2 = conic_points(MultiPoly.parse("T2^2 - T2*T3 + T3^2", T4),
                  MultiPoly.parse("T0 + T1", T4), 32)
print("  two conjugate lines, B = 32:", r2.count, "point(s) |", r2.note)

print("\n== affine enumeration in the euclidean ball ==")
aff = MultiPoly.parse("T1^3 + T2^3 + T3^3 - 1", A3)
for B in (16, 64):
    r = enumerate_affine([aff], A3, B)
    print(f"  x^3+y^3+z^3 = 1, |x| <= {B}: {r.count} integral points")

print("\n== off-line counts on the Fermat cubic, with the overlay shape ==")
surface = CubicSurface.make(MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4))
lines = find_lines(surface, 1)
rep = points_on_conics_experiment(surface, lines, [16, 32, 64],
                                  constants=ExternalConstants())
print("  B list       :", rep["B_list"])
print("  off-line     :", rep["counts"], f"(of {rep['total_points']} total)")
print("  fitted exp   : %.3f" % rep["fitted_exponent"])
print("  overlay exp  : %.4f (with vacuously large stated constants)"
      % rep["overlay_exponent"])
print("  counts under overlay:", all(rep["bound_satisfied"]))

print("\n== integral off-line counts on an affine cubic ==")
closure = CubicSurface.make(MultiPoly.parse("T1^3 + T2^3 + T3^3 - T0^3", T4))
rep2 = integral_conics_experiment(aff, [32, 64, 128], lines=find_lines(closure, 1),
                                  constants=ExternalConstants())
print("  counts:", rep2["counts"], " fitted exp: %.3f" % rep2["fitted_exponent"],
      " overlay: %.4f" % rep2["overlay_exponent"])
print("  trivial bound holds:", all(rep2["trivial_bound_ok"]))
