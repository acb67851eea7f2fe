"""The adapted connection next to the round one.

Shows what the correction tensor does: the Reeb fields become parallel,
the distribution becomes invariant, the structure tensors become parallel
along it, and the price is a prescribed torsion.
"""

import numpy as np

from hkc import (
    ConnectionKind,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
    VectorField,
    cov_deriv,
    nabla_bar_phi_defect,
    torsion,
)

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION

s = ThreeSasakiStructure(n=1)
rng = np.random.default_rng(11)
v = rng.standard_normal(s.ambient_dim)
x = SpherePoint.normalized(v / np.linalg.norm(v))


def unit_h(seed_vec):
    w = s.project_h_raw(seed_vec, x.x)
    return TangentVector(x, w / np.linalg.norm(w))


Xt = unit_h(rng.standard_normal(s.ambient_dim))
Yt = unit_h(rng.standard_normal(s.ambient_dim))
X = VectorField.extension(s, Xt)
Y = VectorField.extension(s, Yt)

# the round connection moves Reeb fields, the adapted one does not
print("derivative of the Reeb fields along X:")
for a in (1, 2, 3):
    xi = VectorField.reeb(s, a)
    d_lc = cov_deriv(LC, X, xi, x)
    d_hc = cov_deriv(HC, X, xi, x)
    print(f"  a={a}:  round |D_X xi| = {d_lc.norm():.6f}   "
          f"adapted |D_X xi| = {d_hc.norm():.2e}")

# the adapted derivative of an H-valued field stays in H
Yh = Y.project_H()
d = cov_deriv(HC, X, Yh, x)
print("\nADAPTED derivative of an H-valued field:")
print("  eta components:",
      ", ".join(f"{s.eta_raw(a, d.v, x.x):+.1e}" for a in (1, 2, 3)))

# the structure tensors are parallel along H for the adapted connection
print("\nstructure-tensor parallelism on H-pairs:")
for a in (1, 2, 3):
    defect = nabla_bar_phi_defect(a, X.project_H(), Yh, x)
    print(f"  a={a}:  |(D phi_a)| = {defect.norm():.2e}")

# torsion: zero for the round connection, prescribed for the adapted one
print("\ntorsion:")
print(f"  round, generic pair       : {torsion(LC, X, Y, x).norm():.2e}")
t = torsion(HC, X.project_H(), Yh, x)
want = np.zeros(s.ambient_dim)
for a in (1, 2, 3):
    want = want + 2.0 * s.omega_raw(a, Xt.v, Yt.v, x.x) * s.reeb_raw(a, x.x)
print(f"  adapted, H pair           : |T| = {t.norm():.6f}   "
      f"|T - 2 Omega^a xi_a| = {np.linalg.norm(t.v - want):.2e}")
t12 = torsion(HC, VectorField.reeb(s, 1), VectorField.reeb(s, 2), x)
print(f"  adapted, Reeb pair (1,2)  : |T + 2 xi_3| = "
      f"{np.linalg.norm(t12.v + 2.0 * s.reeb_raw(3, x.x)):.2e}")
t_mix = torsion(HC, X.project_H(), VectorField.reeb(s, 1), x)
print(f"  adapted, mixed pair       : |T| = {t_mix.norm():.2e}")
