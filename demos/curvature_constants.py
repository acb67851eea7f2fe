"""Curvature constants of the adapted connection, measured.

Every number here is computed by nested forward-mode differentiation of
the connection — no closed form is assumed.  The script also measures the
two places where the computation contradicts the stated constants, and
prints the measured values next to the stated ones; two more routes, the
difference-tensor formula and the HP^n(4) closed form, confirm the
measured side.
"""

import numpy as np

from hkc import (
    ConnectionKind,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
    cross_check_rbar,
    holomorphic_sectional_bar,
    rbar_difference_tensor,
    rbar_quaternionic_projective,
    ricci,
    sectional,
    two_route_gap_form,
)

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION

s = ThreeSasakiStructure(n=1)
rng = np.random.default_rng(23)
v = rng.standard_normal(s.ambient_dim)
x = SpherePoint.normalized(v / np.linalg.norm(v))


def unit_h():
    w = s.project_h_raw(rng.standard_normal(s.ambient_dim), x.x)
    return TangentVector(x, w / np.linalg.norm(w))


def unit_tangent():
    w = s.tangent_project_raw(rng.standard_normal(s.ambient_dim), x.x)
    return TangentVector(x, w / np.linalg.norm(w))


X = unit_h()
Y = unit_h()

# round sectional curvature: constant +1 under the selected normalization,
# the sign -1 that multiplies sectional's -R4/gram
print(f"round plane value         : "
      f"{-sectional(s, X, Y):+.12f} (expected +1)")

# holomorphic plane values of the adapted connection
print("adapted holomorphic values:")
total = 0.0
for a in (1, 2, 3):
    h = holomorphic_sectional_bar(s, a, X)
    total += h
    print(f"  alpha={a}: {h:+.12f} (expected +4)")
print(f"  sum    : {total:+.12f} (expected +12)")

# traces: the round one matches 4n+2; the adapted one matches the derived
# 4n+8 (the Einstein constant of HP^n(4)), not the stated 4n+5
T = unit_tangent()
print(f"\nround trace on (T, T)     : {ricci(s, LC, T, T):+.12f} "
      f"(stated 4n+2 = 6)")
hc = ricci(s, HC, X, X)
print(f"adapted trace on (X, X)   : {hc:+.12f} (derived 4n+8 = 12, "
      f"stated 4n+5 = 9)")

# the stated expansion against the curvature: equal on H, split by an
# exact tensor otherwise
Z = unit_h()
sample = cross_check_rbar(s, (x, X, Y, Z))
print(f"\ntwo-route residual, H triple      : {sample.residual:.3e}")
mixed = (x, unit_tangent(), unit_tangent(), unit_tangent())
sample = cross_check_rbar(s, mixed)
gap = two_route_gap_form(s, *mixed[1:])
rec = np.linalg.norm(sample.value_algebraic - sample.value_direct - gap.v)
print(f"two-route residual, mixed triple  : {sample.residual:.6f}")
print(f"  ... reconstructed by the closed-form gap tensor to {rec:.3e}")
third = rbar_difference_tensor(s, *mixed[1:])
print(f"difference-tensor route vs nested : "
      f"{np.linalg.norm(third.v - sample.value_direct):.3e}")
closed = rbar_quaternionic_projective(s, *mixed[1:])
print(f"HP^n(4) closed form vs nested     : "
      f"{np.linalg.norm(closed.v - sample.value_direct):.3e}")
