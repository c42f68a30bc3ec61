"""
Recovering a two-coset crystal from a skewed planar window
==========================================================

Walks the full pipeline by hand on a set everyone can check on paper:
the lattice spanned by (1, 0) and (0.3, 1.1), doubled up with a residue
at the half cell. The analysis only ever sees the bare point coordinates.
"""

import numpy as np

from idealcrystal import RunConfig, recover_crystal
from idealcrystal.generators import gen_ideal_crystal
from idealcrystal.geometry import denseness_radius, finite_type_gap
from idealcrystal.pointset import min_separation

B = np.array([[1.0, 0.0], [0.3, 1.1]])
F = np.array([[0.0, 0.0], [0.5, 0.55]])
S = gen_ideal_crystal(B, F, 44.0)
print(f"window: {len(S)} points, radius {S.radius}")

# step 1: every ball of radius D around a point holds another point;
# D bounds how far structure can hide
D = denseness_radius(S, core_margin=4.4)
print(f"denseness radius D = {D:.6f}")

# step 2: the difference-set gap certifies finite type at this scale and
# fixes the working tolerance epsilon
gap = finite_type_gap(S, D)
print(f"finite-type gap = {gap.gap:.6f} over {gap.pair_count} difference "
      f"vectors, epsilon = {gap.epsilon:.6f}")
print(f"(minimum point separation is {min_separation(S):.6f})")

# step 3..6 run inside recover_crystal: candidate translations c - a from
# the anchor a nearest the origin (a period T with |T| <= r maps a onto a
# window point), exact verification on the shrunken core, greedy basis,
# rational closure, residues, and the two-sided inclusion check
dec = recover_crystal(S, RunConfig())
print(f"verdict: {'crystal' if dec.verified else 'no crystal'}")
print(f"lattice determinant {dec.lattice.det:.9f} "
      f"(generator cell has det {np.linalg.det(B):.9f})")
print("recovered basis rows:")
for row in dec.lattice.basis:
    print(f"  ({row[0]: .9f}, {row[1]: .9f})")
print(f"residues ({len(dec.residues)}):")
for f in dec.residues:
    print(f"  ({f[0]: .9f}, {f[1]: .9f})")
print(f"coverage in/out: {dec.coverage_in:.6f} / {dec.coverage_out:.6f}, "
      f"max residual {dec.max_residual:.3e}")
