"""Fiber-group machinery: matrix representations, adjoint action, horizontal
path lifting with the RK4 + polar-projection integrator, and the gauge
covariance of the curvature under a fiber-dependent frame change.

A path velocity is vectorised: it maps an array of times, shape (T,), to
the algebra coordinates at those times, shape (T, r).  The lift samples it
once at all RK4 stage times and returns every step as one batched group
element, which indexes and iterates like a list of elements.

Run with:  python3 demos/path_lifting.py
"""

import numpy as np

from kkgeom import (ChartSpec, CoframeField, GaugeField, PathSpec, adjoint_of,
                    builtin_rep, geometry_at_point, lift_path, verify_deextra,
                    verify_gauge_covariance)

np.set_printoptions(precision=5, suppress=True)

rep = builtin_rep("su2_as_so3")
print("su2 as so(3): generators close on the structure constants,",
      "residual", rep.closure_residual())

# Constant velocity: the lift is the matrix exponential.
xi = np.array([0.3, -0.7, 0.5])
out = lift_path(PathSpec(rep, lambda t: np.tile(xi, (len(t), 1)),
                         rep.identity_element()), 1000)
want = rep.exp(xi).matrix
print("constant-velocity lift:", len(out), "elements, matrices of shape",
      out.matrix.shape)
print("constant-velocity lift vs exp(xi):",
      np.abs(out[-1].matrix - want).max())

# Varying velocity: measure the convergence order by step halving.
def v(t):
    return np.stack([np.sin(3 * t), t, np.cos(2 * t)], axis=-1)

ref = lift_path(PathSpec(rep, v, rep.identity_element()), 4000)[-1].matrix
print("\nconvergence as the step count doubles:")
prev = None
for steps in (50, 100, 200, 400):
    got = lift_path(PathSpec(rep, v, rep.identity_element()), steps)[-1].matrix
    err = np.abs(got - ref).max()
    note = "" if prev is None else f"   order {np.log2(prev / err):.2f}"
    print(f"  {steps:4d} steps   error {err:.3e}{note}")
    prev = err

# Every sample stays on the group manifold thanks to the polar projection
# (the residual of a batched element is the worst over all its steps).
print("worst manifold drift along the lift:", out.manifold_residual())

# The adjoint action preserves the algebra metric and rotates the fiber.
g = rep.exp(np.array([0.0, 0.0, 0.9]))
S = adjoint_of(g, 2)  # over a 2-D base
print("\nadjoint of exp(0.9 T3), fiber block (a rotation by 0.9):")
print(S[2:, 2:])
print("S^T h S - h max:", np.abs(S.T @ rep.spec.h @ S - rep.spec.h).max())

# Structural checks tie the group layer back to the geometry: the extra
# coframe directions satisfy their structure equation, and the curvature
# transforms covariantly under a fiber-dependent gauge change.
spec = rep.spec
chart = ChartSpec(2)
coframe = CoframeField(chart, [["1 + 0.1*x2^2", "0.1*x1"],
                               ["0", "1 + 0.2*sin(x1)"]])
gauge = GaugeField(chart, [["0.3*x2", "0.1*x1"],
                           ["0.1*x1*x2", "0.2*sin(x2)"],
                           ["0.1*x2^2", "0"]])
geom = geometry_at_point(coframe, gauge, spec, np.array([0.4, -0.3]))
g = rep.exp(np.array([0.2, 0.5, -0.1]))
print("\nstructure-equation residual:", verify_deextra(geom, g))
print("gauge covariance residual:  ",
      verify_gauge_covariance(geom, g))
