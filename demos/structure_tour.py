"""Tour of the structure tensors on the 7-sphere.

Builds the three compatible almost-contact structures, evaluates every
tensor at a sampled point, and prints the identities they satisfy.
"""

import numpy as np

from hkc import SpherePoint, ThreeSasakiStructure, dot

s = ThreeSasakiStructure(n=1)
print(f"ambient dimension : {s.ambient_dim}")
print(f"manifold dimension: {s.manifold_dim}")
print(f"distribution rank : {s.h_dim}")

rng = np.random.default_rng(7)
v = rng.standard_normal(s.ambient_dim)
x = SpherePoint.normalized(v / np.linalg.norm(v))
y = x.x
print(f"\nsampled base point (|x| = {np.linalg.norm(x.x):.15f})")

# the three Reeb vectors are orthonormal and tangent
print("\nReeb vectors:")
xi = {a: s.reeb_raw(a, y) for a in (1, 2, 3)}
for a in (1, 2, 3):
    print(f"  |xi_{a}| = {np.linalg.norm(xi[a]):.15f}   <xi_{a}, x> = "
          f"{dot(xi[a], y)[0]:+.2e}")
for a, b in ((1, 2), (2, 3), (3, 1)):
    print(f"  <xi_{a}, xi_{b}> = {dot(xi[a], xi[b])[0]:+.2e}")

# phi_a kills its own Reeb vector and rotates the other two
print("\nphi action on the Reeb span:")
for a in (1, 2, 3):
    print(f"  |phi_{a} xi_{a}| = {np.linalg.norm(s.phi_raw(a, xi[a], y)):.2e}")
print(f"  |phi_1 xi_2 - xi_3| = "
      f"{np.linalg.norm(s.phi_raw(1, xi[2], y) - xi[3]):.2e}")

# a unit vector inside the distribution H
w = s.project_h_raw(rng.standard_normal(s.ambient_dim), y)
X = w / np.linalg.norm(w)
PX = s.phi_raw(1, X, y)
PPX = s.phi_raw(1, PX, y)
print("\nfor a unit X in the distribution H:")
print(f"  |phi_1 X|            = {np.linalg.norm(PX):.15f}")
print(f"  |phi_1^2 X + X|      = {np.linalg.norm(PPX + X):.2e}")
print(f"  Omega^1(X, phi_1 X)  = {s.omega_raw(1, X, PX, y)[0]:+.15f}")
print(f"  eta^a(X)             = "
      + ", ".join(f"{s.eta_raw(a, X, y)[0]:+.1e}" for a in (1, 2, 3)))

# the composition law phi_1 phi_2 = phi_3 modulo Reeb terms
comp = s.phi_raw(1, s.phi_raw(2, X, y), y) - s.phi_raw(3, X, y)
print(f"  |phi_1 phi_2 X - phi_3 X| = {np.linalg.norm(comp):.2e}")

# a deterministic orthonormal frame of H
frame = s.frame_H(x, seed=0)
G = np.array([[dot(u.v, w.v)[0] for w in frame] for u in frame])
print(f"\nframe of H: {len(frame)} vectors, "
      f"|G - I| = {np.abs(G - np.eye(len(frame))).max():.2e}")
