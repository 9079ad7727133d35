"""Bottleneck distance, explicit matchings, and a stability spot check.

The distance is located exactly on the finite candidate grid of pairwise
and diagonal costs; the matching at that threshold is printed, and a random
filtration perturbation confirms the 1-Lipschitz behavior of diagrams.
"""

import math
import random

from pershom import (
    PersistenceDiagram,
    bottleneck,
    bottleneck_bruteforce,
    lower_star,
    matching_at,
    persistence_diagram,
)

a = PersistenceDiagram({0: [(0.0, 4.0), (1.0, 3.5), (2.0, 2.2)]})
b = PersistenceDiagram({0: [(0.2, 4.1), (1.4, 3.2)]})

dist = bottleneck(a, b, 0)
print(f"bottleneck(A, B) = {dist}  (brute force: {bottleneck_bruteforce(a, b, 0)})")

result = matching_at(a, b, 0, dist)
print(f"\nmatching at delta = {dist}:")
for x, y in result.matched:
    print(f"  {x}  <->  {y}")
for pt in result.unmatched_a:
    print(f"  {pt}  -> diagonal (cost {pt.gap / 2})")
for pt in result.unmatched_b:
    print(f"  diagonal <- {pt}  (cost {pt.gap / 2})")

tight = max(0.0, math.nextafter(dist, -math.inf))
print(f"\njust below ({tight}): feasible = {matching_at(a, b, 0, tight).feasible}")

# stability: perturb vertex heights by at most delta and watch the diagrams
print("\nstability spot check (vertex heights jittered by at most 0.05):")
rng = random.Random(0)
faces = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)]
heights = {v: rng.uniform(0, 1) for v in range(4)}
jittered = {v: h + rng.uniform(-0.05, 0.05) for v, h in heights.items()}
sup_diff = max(abs(heights[v] - jittered[v]) for v in heights)
d_before = persistence_diagram(lower_star(heights, faces))
d_after = persistence_diagram(lower_star(jittered, faces))
for d in (0, 1):
    print(
        f"  degree {d}: bottleneck = {bottleneck(d_before, d_after, d)}"
        f"  <= sup-norm change {sup_diff:.4f}"
    )
