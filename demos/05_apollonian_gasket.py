#!/usr/bin/env python3
"""From three curvatures to a rendered Apollonian gasket.

Curvatures come from Vieta reflection, which keeps integer seeds integer
forever; centers come from the same reflection applied to curvature times
center (the complex Descartes theorem).  The SVG output is byte-deterministic.
"""

from collections import Counter
from pathlib import Path

from soddy import generate, initial_configuration, render_svg

# Seed (-1, 2, 2): a unit enclosing circle with two half-radius circles.
g0 = initial_configuration([-1, 2, 2])
print("initial configuration:")
for c in g0.circles:
    print(f"  k={c.curvature:6.1f}  center=({c.center[0]:+.4f}, {c.center[1]:+.4f})")

g = generate([-1, 2, 2], max_depth=6)
print(f"\ndepth 6: {len(g.circles)} circles")

ks = Counter(round(c.curvature) for c in g.circles)
print("smallest curvatures:", sorted(ks)[:10])
print("largest curvature:", max(ks))
drift = max(abs(c.curvature - round(c.curvature)) for c in g.circles)
print("worst drift from integer:", drift)

# Tangency audit: every circle against the triple that spawned it.
worst = 0.0
for c in g.circles:
    for p in c.parents:
        pc = g.circles[p]
        d2 = (c.center[0] - pc.center[0]) ** 2 + (c.center[1] - pc.center[1]) ** 2
        worst = max(worst, abs(d2 - (c.radius + pc.radius) ** 2))
print("worst tangency error (squared distances):", worst)

out = Path("gasket_-1_2_2.svg")
out.write_text(render_svg(g), encoding="utf-8")
print(f"\nwrote {out} ({out.stat().st_size} bytes)")

# A second flavor: three unit circles grow both Soddy circles, including
# the enclosing one with curvature 3 - 2*sqrt(3) < 0.
g3 = generate([1, 1, 1], max_depth=4)
enclosing = g3.enclosing()
print(f"\nseed (1,1,1), depth 4: {len(g3.circles)} circles, "
      f"enclosing curvature {enclosing.curvature:.6f}")
Path("gasket_1_1_1.svg").write_text(render_svg(g3), encoding="utf-8")
print("wrote gasket_1_1_1.svg")
