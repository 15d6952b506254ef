"""Base-manifold curvature from an orthonormal coframe: the unit 2-sphere,
radius scaling, and a flat x sphere product metric.

Coframe entries are strings in the x1, x2, ... chart variables; derivatives
are taken symbolically by the expression layer.  A field takes its chart
dimension first, and that is the algebra's n: here an abelian algebra with
no fiber over the coframe's chart.

Run with:  python3 demos/sphere_curvature.py
"""

import math

import numpy as np

from kkgeom import (CoframeField, GaugeField, base_curvature_from_geometry,
                    geometry_at_point)
from kkgeom.liealg import abelian_algebra

np.set_printoptions(precision=5, suppress=True)


def base_curvature(coframe, point):
    """Curvature of the Euclidean-frame metric: no fiber, b = identity."""
    spec = abelian_algebra(coframe.n, 0)
    no_gauge = GaugeField.zero(coframe.n, 0)
    return base_curvature_from_geometry(geometry_at_point(coframe, no_gauge, spec, point))


# Unit sphere in polar coordinates: e^1 = dx1, e^2 = sin(x1) dx2.
sphere = CoframeField(2, [["1", "0"], ["0", "sin(x1)"]])

point = np.array([1.1, 0.4])
gamma = geometry_at_point(sphere, GaugeField.zero(2, 0), abelian_algebra(2, 0),
                          point).gamma
print("connection coefficient gamma^1_{2 2} at x1=1.1:", gamma[0, 1, 1])
print("analytic -cot(x1):                             ",
      -math.cos(1.1) / math.sin(1.1))

# Scalar curvature of the unit sphere is 2 everywhere away from the poles.
print("\nscalar curvature across the chart:")
for x1 in np.linspace(0.4, math.pi - 0.4, 5):
    curv = base_curvature(sphere, np.array([x1, 0.0]))
    print(f"  x1 = {x1:.3f}   R = {curv.scalar:.12f}")

# Radius r scales the curvature by 1/r^2.
big = CoframeField(2, [["3", "0"], ["0", "3*sin(x1)"]])
print("\nradius-3 sphere: R =", base_curvature(big, point).scalar, " (2/9 =",
      2.0 / 9.0, ")")

# Product manifold R^2 x S^2: the Ricci tensor is supported on the sphere
# block only, with eigenvalue 1 on each sphere direction.
product = CoframeField(4, [["1", "0", "0", "0"],
                           ["0", "1", "0", "0"],
                           ["0", "0", "1", "0"],
                           ["0", "0", "0", "sin(x3)"]])
curv = base_curvature(product, np.array([0.2, -0.1, 1.0, 0.5]))
print("\nflat x sphere Ricci diagonal:", np.diag(curv.ricci))
print("scalar curvature:", curv.scalar)
print("Einstein tensor diagonal:", np.diag(curv.einstein))
