"""
Two verdict gates on the verified periods
=========================================

Both strategies close the verified periods into one lattice, seeded by the
shortest independent ones. greedy-det accepts it once the periods span p
directions. paper-cone also demands one period inside each axis cone
{x : 12 < |x| < 1.0625 |x_j|} (for p = 2): membership makes those periods'
coordinate matrix diagonally dominant, which certifies independence without
ever computing a determinant. Either way the run lands on the same group.
"""

import numpy as np

from idealcrystal import RunConfig, recover_crystal
from idealcrystal.crystal import cone_filter, dominance_check
from idealcrystal.generators import gen_ideal_crystal

theta = 0.35
Q = np.array([[np.cos(theta), -np.sin(theta)],
              [np.sin(theta), np.cos(theta)]])
B = Q @ np.diag([1.05, 0.95])
S = gen_ideal_crystal(B, [[0.0, 0.0]], 62.0)
print(f"rotated rectangular lattice, {len(S)} points in radius 62")

greedy = recover_crystal(S, RunConfig(strategy="greedy-det"))
cone = recover_crystal(S, RunConfig(strategy="paper-cone"))
print(f"greedy-det: det = {greedy.lattice.det:.9f}")
print(f"paper-cone: det = {cone.lattice.det:.9f}")

# show the certificates the cone route found
P = np.array([q.T for q in cone.periods])
for j in (1, 2):
    members = cone_filter(P, j, 2)
    tau = members[np.argmin(np.linalg.norm(members, axis=1))]
    print(f"axis {j} cone member tau = ({tau[0]: .6f}, {tau[1]: .6f}), "
          f"|tau| = {np.linalg.norm(tau):.6f}, "
          f"dominant: {dominance_check(tau, j, 2)}")

assert abs(greedy.lattice.det - cone.lattice.det) < 1e-9
print("same lattice either way")
