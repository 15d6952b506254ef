"""Sparse antisymmetric forms: wedge products, interior products, the
epsilon coefficient forms, and the dimension-independent identity suite.

Run with:  python3 demos/exterior_identities.py
"""

import numpy as np

from kkgeom import (basis_one_form, check_identities, epsilon_form, interior,
                    top_form, wedge)

N = 5

# Forms store only increasing multi-indices; get() applies the permutation
# sign for any other index order.
alpha = wedge(basis_one_form(N, 0), basis_one_form(N, 2))
print("alpha = theta^1 ^ theta^3 on N =", N)
print("  alpha(0,2) =", alpha.get((0, 2)), "  alpha(2,0) =", alpha.get((2, 0)))

# Graded commutativity: a 1-form and a 2-form commute, two 1-forms anticommute.
a = basis_one_form(N, 1)
b = basis_one_form(N, 3)
print("theta^2 ^ theta^4 + theta^4 ^ theta^2 is zero:",
      (wedge(a, b) + wedge(b, a)).is_zero())

# The interior product contracts a vector into the first slot and is an
# antiderivation; contracting twice with the same vector gives zero.
rng = np.random.default_rng(0)
v = rng.normal(size=N)
omega = wedge(wedge(basis_one_form(N, 0), basis_one_form(N, 1)),
              basis_one_form(N, 2))
print("i_v i_v omega = 0:", interior(v, interior(v, omega)).is_zero(tol=1e-12))

# epsilon_form(N, fixed) is the volume form contracted with the frame vectors
# of the fixed indices, first index first; coefficients are just signs.
eps = epsilon_form(N, (1, 3))
print("\nepsilon with indices (2,4) fixed, degree", eps.degree, "coefficients:")
print(" ", eps.dump().replace("\n", "\n  "))

check = top_form(N)
for A in (1, 3):
    check = interior(np.eye(N)[A], check)
print("matches iterated interior of the volume form:", eps.equal_to(check))

# The identity suite replays the epsilon/interior/wedge relations over all
# index choices (exhaustively for small N, by random sampling above).
for n in (3, 4, 5):
    rep = check_identities(n)
    print(f"identity suite N={n}: max residual {rep.max_residual}")
rep = check_identities(7, trials=200, seed=1)
print("identity suite N=7 (200 random trials): max residual", rep.max_residual)
