"""End-to-end persistence pipeline on a circular terrain profile.

Six vertices around a loop carry alternating valley/ridge heights; the
lower-star filtration then has three valley components that merge at the
ridges, and the loop itself closes at the highest ridge.  The barcode is
cross-checked against Betti numbers and the Euler profile at every value.
"""

from pershom import (
    betti_at,
    compute_persistence,
    diagram_of,
    euler_profile,
    lower_star,
)
from pershom.io import format_diagram

# heights around the loop: valleys at 0.0, 0.1, 0.3; ridges at 0.8, 0.9, 0.7
heights = {0: 0.0, 1: 0.8, 2: 0.1, 3: 0.9, 4: 0.3, 5: 0.7}
loop = [(v,) for v in range(6)] + [tuple(sorted((v, (v + 1) % 6))) for v in range(6)]

complex_ = lower_star(heights, loop)
print("simplices by filtration value:")
for simplex, value in complex_.sorted_simplices():
    print(f"  {value:4.1f}  {simplex}")

barcode = compute_persistence(complex_)
print("\nbarcode over F_2:")
for degree, interval in barcode:
    print(f"  H_{degree}: {interval}")
print("each shallow valley dies at the first ridge connecting it to an")
print("older one; the loop appears once the last ridge is flooded.")

print("\ndiagram (.dgm lines):")
print(format_diagram(diagram_of(barcode)), end="")

print("\nconsistency at each filtration value:")
for t, chi in euler_profile(complex_):
    b0 = betti_at(complex_, t, 0)
    b1 = betti_at(complex_, t, 1)
    alive0 = sum(
        1 for d, iv in barcode if d == 0 and iv.lo <= t < iv.hi
    )
    alive1 = sum(
        1 for d, iv in barcode if d == 1 and iv.lo <= t < iv.hi
    )
    status = "ok" if (alive0, alive1) == (b0, b1) and b0 - b1 == chi else "MISMATCH"
    print(f"  t={t:4.1f}  betti=({b0},{b1})  alive bars=({alive0},{alive1})  chi={chi:2d}  {status}")
