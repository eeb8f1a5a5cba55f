"""One semigroup, three engines.

Evaluate T(t)f(x) for the Neumann Ornstein-Uhlenbeck semigroup with the
exact whole-space quadrature oracle, the weighted grid, and reflected-path
Monte Carlo, and watch the three agree. On a bounded interval only the
grid and the paths are available; they still agree, which is the
cross-check the whole verification suite leans on.
"""
import math

import numpy as np

from oulab import (WholeSpace, interval, coordinate, from_profile, var, tanh,
                   mehler_apply, mc_apply_many, grid_build, grid_apply)

line = WholeSpace(1)
f = from_profile(tanh(var(1)), [[1.0]])
t = 0.6
x = 0.9

print("== whole line, f = tanh(x), t = 0.6, x = 0.9 ==")
exact = mehler_apply(f, t, [x], quad_order=60)
print(f"mehler quadrature   : {exact.value:+.6f}")

op = grid_build(line, 400)
u = grid_apply(op, op.sample(f), t)
grid_val = float(np.interp(x, op.nodes[:, 0], u))
print(f"grid (400 cells)    : {grid_val:+.6f}   "
      f"(|diff| = {abs(grid_val - exact.value):.2e})")

mc, = mc_apply_many([f], line, t, [x], n_paths=200_000, h=1e-3, seed=42)
print(f"monte carlo (2e5)   : {mc.value:+.6f} +- {mc.std_error:.5f}   "
      f"(|diff| = {abs(mc.value - exact.value):.2e})")

print()
print("== interval (-1, 1): no closed form, grid vs paths ==")
dom = interval(-1.0, 1.0)
op = grid_build(dom, 300)
for t in (0.2, 1.0):
    u = grid_apply(op, op.sample(coordinate(1)), t)
    grid_val = float(np.interp(0.4, op.nodes[:, 0], u))
    mc, = mc_apply_many([coordinate(1)], dom, t, [0.4], n_paths=200_000,
                        h=2e-3, seed=7)
    print(f"t = {t}: grid {grid_val:+.5f}   paths {mc.value:+.5f} "
          f"+- {mc.std_error:.5f}")

print()
print("the linear function decays at the spectral rate on the whole line:")
for t in (0.5, 1.0, 2.0):
    val = mehler_apply(coordinate(1), t, [1.0]).value
    print(f"  T({t})x at 1 = {val:.6f}   e^-t = {math.exp(-t):.6f}")
