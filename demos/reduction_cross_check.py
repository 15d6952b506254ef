"""The central consistency check of the package: assemble the full
block-diagonal geometry (base + gauge field + fiber algebra), compute the
Ricci/Einstein tensors two independent ways, and compare.

Route 1 (direct):      connection 1-form -> curvature 2-form -> contraction.
Route 2 (closed form): the block formulas in terms of the base curvature,
                       the field strength, and the structure constants.

Run with:  python3 demos/reduction_cross_check.py
"""

import numpy as np

from kkgeom import (CoframeField, GaugeField, assemble_omega,
                    cosmological_constant, cross_check, curvature_direct,
                    eym_residuals, geometry_at_point, ricci_closed_form,
                    su2_algebra)

np.set_printoptions(precision=5, suppress=True)

# the chart dimension is the algebra's n, the size of its base block b
spec = su2_algebra(2)
coframe = CoframeField(spec.n, [["1 + 0.1*x2^2", "0.1*x1"],
                                ["0", "1 + 0.2*sin(x1)"]])
gauge = GaugeField(spec.n, [["0.3*x2", "0.1*x1"],
                            ["0.1*x1*x2", "0.2*sin(x2)"],
                            ["0.1*x2^2", "0"]])

point = np.array([0.4, -0.3])
geom = geometry_at_point(coframe, gauge, spec, point)

conn = assemble_omega(geom)
print("connection antisymmetry residual:", conn.antisymmetry_residual())
print("connection torsion residual:     ", conn.torsion_residual())

direct = curvature_direct(conn)
closed = ricci_closed_form(geom)
print("\nscalar curvature  direct:", direct.scalar)
print("scalar curvature  closed:", closed.scalar)

print("\nper-block agreement (max abs difference):")
for name, value in cross_check(direct, closed).items():
    print(f"  {name:24s} {value:.2e}")

# Flat base, zero gauge field: only the fiber bracket curves the space, and
# the base Einstein block reduces to minus the cosmological constant.
flat = CoframeField(spec.n, [["1", "0"], ["0", "1"]])
geom0 = geometry_at_point(flat, GaugeField.zero(spec.n, spec.r), spec,
                          np.zeros(2))
res = eym_residuals(ricci_closed_form(geom0))
print("\nflat base, A = 0:")
print("  einstein block:")
print(" ", str(res.einstein_block).replace("\n", "\n  "))
print("  -Lambda =", -cosmological_constant(spec))
print("  yang-mills residual norm:", res.ym_norm)

# The same residuals at the generic point measure how far this configuration
# is from solving the coupled field equations.
res = eym_residuals(closed)
print("\ngeneric configuration residual norms:")
print("  einstein:", res.einstein_norm, "  yang-mills:", res.ym_norm)
