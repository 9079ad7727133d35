"""Nerve vs Vietoris on the same cover, and the metric ball filtration.

Dowker's duality says the two complexes are homotopy equivalent; here we
watch their Betti numbers agree on a hand-built cover, on random covers,
and along a growing family of ball covers of a point set.
"""

import random

import numpy as np

from pershom import Cover, balls_cover, dowker_check, homology_ranks, nerve, vietoris

print("cover of a 4-cycle by its edges:")
four_cycle = Cover([("A", [1, 2]), ("B", [2, 3]), ("C", [3, 4]), ("D", [4, 1])])
agree, n_ranks, v_ranks = dowker_check(four_cycle)
print(f"  nerve betti    = {n_ranks}")
print(f"  vietoris betti = {v_ranks}")
print(f"  agree: {agree}\n")

print("random covers (8 sets over 12 elements):")
rng = random.Random(3)
for trial in range(5):
    ground = list(range(12))
    sets = [(f"U{i}", rng.sample(ground, rng.randint(1, 6))) for i in range(8)]
    cover = Cover(sets, ground=ground)
    agree, n_ranks, v_ranks = dowker_check(cover)
    print(f"  trial {trial}: nerve {n_ranks} vs vietoris {v_ranks} -> {agree}")

print("\nball covers of 8 points on a circle, growing radius:")
angles = np.arange(8) * (2 * np.pi / 8)
points = np.column_stack([np.cos(angles), np.sin(angles)])
dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
np.fill_diagonal(dists, 0.0)
previous = None
for delta in (0.5, 0.8, 1.6, 2.5):
    cover = balls_cover(dists, delta)
    complex_ = vietoris(cover)
    simplices = {simplex for simplex, _ in complex_.simplices}
    nested = "" if previous is None else f"  contains previous: {previous <= simplices}"
    print(
        f"  delta={delta:3.1f}  vietoris betti = {homology_ranks(complex_)}"
        f"  nerve betti = {homology_ranks(nerve(cover))}"
        f"  ({len(complex_)} simplices){nested}"
    )
    previous = simplices
print("\nthe loop is born once neighboring balls overlap and dies when the")
print("complex fills in; the nerve tracks it with the same Betti numbers.")
