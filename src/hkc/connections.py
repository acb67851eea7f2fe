"""Vector fields, both connections, torsion, and curvature evaluation.

Two connections act on the model:

* the Levi-Civita connection of the round metric, realized by the Gauss
  formula (ambient directional derivative followed by tangential
  projection), and
* the distribution-adapted metric connection, written ``nabla-bar``
  throughout: it parallelizes the three Reeb fields, preserves the
  distribution H, and restricts to a metric connection on H.

``nabla-bar`` differs from Levi-Civita by the explicit difference tensor

    A(X, Y) = eta^a(X) phi_a Y + eta^a(Y) phi_a X + Omega^a(X, Y) xi_a

(summation over a = 1, 2, 3).  Every derivative of ``nabla-bar`` uses
this closed form, which is cheap and dual-generic.  Its definitional form,
through Levi-Civita derivatives of the Reeb fields, is evaluated only by
the plan that measures how far the two forms disagree (``_form_gap_plan``:
:func:`h_form_gap`, and the connection suite, which records that gap once
per sample).  Both connections come out of one covariant-derivative
kernel, ``_cov_raw``: one D_X Y, and nabla_X Y and (where it is read)
nabla-bar_X Y off it, on every row.

Curvature is evaluated literally as

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z

by pushing nested dual numbers through the fields.  The
quadrilinear form uses the slot convention

    R4(X, Y, Z, W) := g(R(X, Y)W, Z),

the inner product of ``curvature(kind, X, Y, W, x)`` with Z.

Every typed operation takes a point that is one row or a stack of rows
and gives one value per row: a tangent vector of the point's shape, or
floats of shape ``(P, 1)`` for a stack (a float for one row).  Below
them everything takes and gives stacks; one row enters as a stack of
one (``sphere3s.on_stacks``).  The row rule: a field's extension vectors
are one row per row of the point, or one row that serves every row.  All
run on one driver, ``_fused_pass``: one pass per
kernel (the first derivatives D_X Y, or the nested curvature, whose
[X, Y] is read off its nested terms) serves many slot patterns, each on
its own row block with the bits of its own pass.  It cuts each field's
data to the rows of a chunk, merges the data of one form on adjacent
blocks and evaluates it, and raises ``StructuralError`` for a field of
any other row count or of another structure; a field's own data is
checked where the field is made, finite and of the ambient dimension.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from itertools import groupby, zip_longest

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    Dual,
    InternalConsistencyError,
    StructuralError,
    derivative_of,
    directional_derivative,
    dot,
    leafmap,
    norm,
    value_and_derivative,
)
from .sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure, on_stacks

BRACKET_TANGENCY_TOL = 1e-9


class ConnectionKind(Enum):
    LEVI_CIVITA = "levi-civita"
    H_CONNECTION = "h-connection"


LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


# ============================================================
# vector fields
# ============================================================

class VectorField:
    """A smooth tangent field, held as its data: extension vectors (``vec``,
    a float array whose last axis is the ambient dimension, under the row
    rule) or a Reeb index (``alpha``), exactly one of them, then the maps
    ``ops`` (a for phi_a, None for the projection onto H).  The identities
    checked here differentiate no other field, so a function is none
    (``TypeError``).  The data is checked where the field is made, the
    vectors finite and every index a count 1, 2 or 3 (``StructuralError``).
    Calling the field evaluates its data (dual-generic); a field hashes by
    identity."""

    def __init__(self, structure, *, vec=None, alpha=None, ops=()):
        if (vec is None) == (alpha is None):
            raise StructuralError("a field is extension vectors or a Reeb index: give one")
        d = structure.ambient_dim
        if vec is not None:
            vec = np.asarray(vec, dtype=float)
            if vec.shape[-1:] != (d,):
                raise StructuralError(f"extension vectors {vec.shape} in dimension {d}")
            if not np.isfinite(vec).all():
                raise StructuralError("extension vectors are not finite")
        for a in (alpha, *ops):
            if a is not None:
                structure._I(a)
        self.structure, self.vec, self.alpha, self.ops = structure, vec, alpha, ops

    def __call__(self, y):
        return _value(self.structure, self.vec, self.alpha, self.ops, y)

    @classmethod
    def extension(cls, structure, X):
        """Canonical global extension y -> v - <v, y> y of a tangent
        vector or of raw rows."""
        return cls(structure, vec=getattr(X, "v", X))

    @classmethod
    def reeb(cls, structure, alpha):
        return cls(structure, alpha=alpha)

    def phi(self, alpha):
        return VectorField(self.structure, vec=self.vec, alpha=self.alpha,
                           ops=self.ops + (alpha,))

    def project_H(self):
        return VectorField(self.structure, vec=self.vec, alpha=self.alpha,
                           ops=self.ops + (None,))


def _value(s, vec, alpha, ops, y):
    """The value at y of a field's data: the extension y -> v - <v, y> y of
    the vectors, or the Reeb field, then each map in order.  Dual-generic;
    in a pass alpha and an op may be an integer array of each row's."""
    v = s.reeb_raw(alpha, y) if vec is None else s.tangent_project_raw(vec, y)
    for op in ops:
        v = s.project_h_raw(v, y) if op is None else s.phi_raw(op, v, y)
    return v


# ============================================================
# raw engine (dual-generic)
# ============================================================

def _a_raw(s: ThreeSasakiStructure, u, w, y):
    """The difference tensor A(u, w) at y, for ambient tangent values
    (either may be a stack): one pass with alpha on axis -2, its terms
    summed in the order alpha = 1, 2, 3, as one pass each would be."""
    xi, phi_w, phi_u = s.reeb_all_raw(y), s.phi_all_raw(w, y), s.phi_all_raw(u, y)
    u, w = (leafmap(lambda a: a[..., None, :], v) for v in (u, w))
    # Omega^a(u, w) = g(u, phi_a w)
    t = dot(xi, u) * phi_w + dot(xi, w) * phi_u + dot(u, phi_w) * xi
    return leafmap(lambda a: (a[..., 0, :] + a[..., 1, :]) + a[..., 2, :], t)


def _cov_raw(s, Xv, Yf, y, scheme, adapted):
    """D_X Y at y (key None) for the value Xv of X at y and the field
    closure Yf, and off it nabla_X Y (LC) and, if ``adapted``,
    nabla-bar_X Y (HC; else None, and Y's value and A are not made), all
    on every row.  The lower slot is tensorial, so X enters by its value
    alone.  Dual-generic in y; Xv may be a stack of directions, giving a
    stack of derivatives.  Yf is evaluated as the scheme needs (once,
    exact-forward), at y itself only for A."""
    if not adapted:
        d = directional_derivative(Yf, y, Xv, scheme)
    else:  # A before the projection: less is held while it is made
        Yv, d = value_and_derivative(Yf, y, Xv, scheme)
        a = _a_raw(s, Xv, Yv, y)
    lc = d - dot(d, y) * y
    return {None: d, LC: lc, HC: lc + a if adapted else None}


def _curvature_raw(s, kind, Xf, Yf, Zf, y, scheme):
    """R(X,Y)Z at y as an ambient vector.  Dual-generic in y; Xf may
    return a stack of directions, giving a stack of curvature values in
    one nested pass.  [X, Y] is read off the evaluations of Y inside
    nabla_X nabla_Y Z and of X inside nabla_Y nabla_X Z."""
    def nabla(Fv, G, q):  # nabla_F G of ``kind`` at q (F(q) = Fv), all rows
        return _cov_raw(s, Fv, G, q, scheme, kind is HC)[kind]

    def term(Fv, G):  # nabla_F nabla_G Z (F(y) = Fv), and D_F G off G's evaluations in it
        seen = []
        t = nabla(Fv, lambda q: nabla(seen.append(G(q)) or seen[-1], Zf, q), y)
        return t, derivative_of(seen, y, Fv, scheme)

    (t1, d_xy), (t2, d_yx) = term(Xf(y), Yf), term(Yf(y), Xf)
    br = s.tangent_project_raw(d_xy - d_yx, y)
    t3 = nabla(br, Zf, y)
    return s.tangent_project_raw(t1 - t2 - t3, y)


# ============================================================
# the fused pass
# ============================================================

CURVATURE_CHUNK = 3200  # floats per leaf of one fused pass: rows x d (400 rows at n=1)

# The passes build their tuples from lists.  A tuple built from an iterator
# starts at ten slots and is cut to size in a new block, which once freed
# stays in CPython's free list for its size (up to 2000 a size) until a
# full collection: memory would creep run after run.


def _form(f):
    """A run of one form is evaluated as one: 0 extensions or 1 Reeb fields,
    through maps of the same kinds (phi_a for any a, the projection onto H)."""
    return int(f.vec is None), tuple([op is None for op in f.ops])


def _merged(s, ds, C):
    """An evaluator of the field data ``ds`` (vec, alpha, ops) of one form on C
    rows each, over their stacked rows: their vectors concatenated (a one-row
    one repeated on its C rows) or their Reeb field, through their maps; an
    index that differs among them, an integer array of each row's."""
    def per_row(v):
        return v[0] if len(set(v)) == 1 else np.repeat(v, C)

    # repeated, not broadcast: ``dot`` keeps row bits on C-contiguous rows only
    vs = [np.atleast_2d(v) for v, _, _ in ds if v is not None]
    return partial(_value, s, np.concatenate([v if len(v) == C else np.repeat(v, C, axis=0)
                                              for v in vs]) if vs else None,
                   per_row([a for _, a, _ in ds]),
                   tuple([per_row(v) for v in zip(*[ops for *_, ops in ds])]))


def _blocks(s, data, forms, C):
    """An evaluator of the field data ``data[k]`` on rows k*C .. (k+1)*C - 1:
    each run of one form (``forms[k]``) merged on its slice of the point."""
    parts, lo = [], 0
    for _, run in groupby(zip(data, forms), lambda t: t[1]):
        ds = [d for d, _ in run]
        parts.append((partial(_value, s, *ds[0]) if len(ds) == 1 else _merged(s, ds, C),
                      lo, lo + len(ds) * C))
        lo += len(ds) * C
    if len(parts) == 1:
        return parts[0][0]
    return lambda q: _join([f(leafmap(lambda a: a[i:j], q)) for f, i, j in parts])


def _join(parts):
    """Duals of one nesting (or plain arrays) joined on axis 0, leaf by leaf."""
    if isinstance(parts[0], Dual):
        return Dual(_join([p.val for p in parts]), _join([p.dot for p in parts]))
    return np.concatenate(parts)


def _fused_pass(s, kind, patterns, y, scheme):
    """The values of slot patterns of fields over the rows of the point
    ``y``, all of one order: (X, Y, reads) (``kind`` None) a tuple, off one
    D_X Y, of the rows read: D_X Y (None), nabla_X Y (LC), nabla-bar_X Y
    (HC); (X, Y, Z) the rows of R(X,Y)Z, (X, Y, Z, W) g(R(X,Y)Z, W), or
    |R(X,Y)Z - W| for W rows (None: 0).  Ordered by what they read (HC,
    LC, D) and the forms of their slots, as many patterns over all rows as
    fit in ``CURVATURE_CHUNK`` floats per leaf make a pass (else one, in
    chunks of rows), pattern k on rows k*C .. (k+1)*C - 1 of a chunk of C
    rows; passes are evened out, and first-order ones, if more than one,
    cut where the patterns that read HC (and make A) end, each run evened.
    The point is a stack (P, d); a value is (P, d) or (P, 1)."""
    K = len(patterns)
    slots = 2 if kind is None else 3
    rank = [min(map((HC, LC, None).index, p[2])) if kind is None else 0 for p in patterns]
    fields = dict.fromkeys([f for p in patterns for f in p if isinstance(f, VectorField)])
    for f in fields:
        v = f.vec
        if f.structure is not s:
            raise StructuralError("vector fields belong to different structures")
        if v is not None and v.ndim > 1 and len(v) not in (1, len(y)):
            raise StructuralError(f"a field of {len(v)} rows at a point of {len(y)}")
    # floats per row: the broadcast of each vector's row shape
    width = math.prod(map(max, zip_longest(*(
        f.vec.shape[f.vec.ndim > 1:][::-1] if f.vec is not None else ()
        for f in fields), (s.ambient_dim,), fillvalue=1)))
    form = {f: _form(f) for f in fields}
    order = sorted(range(K), key=lambda k: (rank[k], [form[f] for f in patterns[k][:slots]]))
    group = max(1, CURVATURE_CHUNK // (len(y) * width))  # patterns a pass holds
    step = max(1, CURVATURE_CHUNK // (group * width))  # rows a chunk holds
    h = rank.count(0) if K > group else K  # the patterns before the cut (nested: all)
    passes = [r[i:i + e] for r in (order[:h], order[h:]) if r  # as many passes, evened out
              for e in [-(-len(r) // -(-len(r) // group))] for i in range(0, len(r), e)]

    def chunk(ks, c):  # a chunk's pass and cut data are freed before the next
        ps = [patterns[k] for k in ks]
        # each field's data on the chunk's rows: views, a one-row vector as it is
        yc, cut = y[c], {g: (g.vec[c] if g.vec is not None and g.vec.ndim > 1
                              and len(g.vec) > 1 else g.vec, g.alpha, g.ops)
                          for p in ps for g in p if isinstance(g, VectorField)}
        C = len(yc)
        F = [_blocks(s, [cut[p[j]] for p in ps], [form[p[j]] for p in ps], C)
             for j in range(slots)]
        q = yc if len(ps) == 1 else np.concatenate([yc] * len(ps))
        if kind is None:  # each read as an array of its own
            R = _cov_raw(s, F[0](q), F[1], q, scheme, any(rank[k] == 0 for k in ks))
            return [tuple([R[r][k * C:(k + 1) * C].copy() for r in p[2]])
                    for k, p in enumerate(ps)]
        R = _curvature_raw(s, kind, *F, q, scheme)
        return [Rk if len(p) == slots
                else dot(Rk, _value(s, *cut[p[3]], yc)) if isinstance(p[3], VectorField)
                else norm(Rk if p[3] is None else Rk - np.atleast_2d(p[3])[c])
                for p, Rk in zip(ps, (R[k * C:(k + 1) * C] for k in range(len(ps))))]

    out = {}
    for ks in passes:
        chunks = [chunk(ks, slice(i, i + step)) for i in range(0, len(y), step)]
        out.update(zip(ks, chunks[0] if len(chunks) == 1 else
                       [tuple([np.concatenate(c) for c in zip(*v)]) if kind is None
                        else np.concatenate(v) for v in zip(*chunks)]))
    return [out[k] for k in range(K)]


# ============================================================
# first-order plans: requests and how their rows combine
# ============================================================

def _run(s, groups, y, scheme):
    """The values of groups of first-order plans at the rows of the point
    ``y``, a list per group.  A plan is (requests, combine): ``combine(s,
    y, *rows)`` maps the rows of its requests (kind, X, Y), nabla_X Y of a
    connection or D_X Y (``kind`` None), to its value.  Each distinct pair
    of fields (same objects) is differentiated once, all in one pass; its
    rows are dropped once the plans that read them are combined."""
    plans = [plan for g in groups for plan in g]
    last, pairs = {k: (i, j) for i, (ks, _) in enumerate(plans) for j, k in enumerate(ks)}, {}
    for requests, _ in plans:
        for kind, X, Y in requests:
            pairs.setdefault((X, Y), (X, Y, {}))[2][kind] = None
    rows = {(kind, X, Y): v for (X, Y, r), vs in zip(
        pairs.values(), _fused_pass(s, None, list(pairs.values()), y, scheme))
            for kind, v in zip(r, vs)}
    values = iter([combine(s, y, *[rows.pop(k) if last[k] == (i, j) else rows[k]
                                   for j, k in enumerate(ks)])
                   for i, (ks, combine) in enumerate(plans)])
    return [[next(values) for _ in g] for g in groups]


def _cov_plan(kind, X, Y):
    return [(kind, X, Y)], lambda s, y, d: s.tangent_project_raw(d, y)


def _bracket_plan(X, Y):  # [X, Y] = D_X Y - D_Y X
    def tangent(s, y, d_xy, d_yx):
        raw = d_xy - d_yx
        drift = np.abs(np.ravel(dot(raw, y)))
        bad = drift >= BRACKET_TANGENCY_TOL
        if bad.any():
            raise InternalConsistencyError(
                f"bracket of tangent fields drifted off the tangent space "
                f"by {drift[bad][0]:.3e}")
        return s.tangent_project_raw(raw, y)
    return [(None, X, Y), (None, Y, X)], tangent


def _torsion_plan(kind, X, Y):
    return ([(kind, X, Y), (kind, Y, X), (None, X, Y), (None, Y, X)],
            lambda s, y, XY, YX, d_xy, d_yx: s.tangent_project_raw(XY - YX - (d_xy - d_yx), y))


def _sasaki_plan(alpha, X, Y):
    def defect(s, y, d_phiY, dY):
        Xv, Yv = X(y), Y(y)
        out = (d_phiY - s.phi_raw(alpha, dY, y)
               - dot(Xv, Yv) * s.reeb_raw(alpha, y)
               + s.eta_raw(alpha, Yv, y) * Xv)
        return s.tangent_project_raw(out, y)
    return [(LC, X, Y.phi(alpha)), (LC, X, Y)], defect


def _phi_parallel_plan(alpha, Xp, Yp):  # (nabla-bar_X phi_a)Y, Xp and Yp in H
    return ([(HC, Xp, Yp.phi(alpha)), (HC, Xp, Yp)],
            lambda s, y, d_phiY, dY: s.tangent_project_raw(
                d_phiY - s.phi_raw(alpha, dY, y), y))


def _form_gap_plan(X, Y, xi):  # xi: the Reeb fields xi_1, xi_2, xi_3
    def gap(s, y, sub, defn, *d_xi):  # d_xi: along X, then Y, of xi_1, xi_2, xi_3
        Xv, Yv = X(y), Y(y)
        for a, d_xi_X, d_xi_Y in zip((1, 2, 3), d_xi[::2], d_xi[1::2]):
            defn = (defn
                    - s.eta_raw(a, Xv, y) * d_xi_Y
                    - s.eta_raw(a, Yv, y) * d_xi_X
                    + s.omega_raw(a, Xv, Yv, y) * s.reeb_raw(a, y))
        return norm(sub - defn)
    return [(HC, X, Y), (LC, X, Y)] + [(LC, F, f) for f in xi for F in (X, Y)], gap


def _h_tensor_plan(xi, beta, X):  # (L_xi phi_beta) X / 2, xi a Reeb field
    P = X.phi(beta)
    return ([(None, xi, P), (None, P, xi), (None, xi, X), (None, X, xi)],
            lambda s, y, a, b, c, d: s.tangent_project_raw(
                0.5 * ((a - b) - s.phi_raw(beta, c - d, y)), y))


# ============================================================
# typed operations
# ============================================================

def _at(plan, x, scheme):
    """A plan's value at the stack of points x."""
    return _run(plan[0][0][1].structure, [[plan]], x.x, scheme)[0][0]


@on_stacks
def lie_bracket(X: VectorField, Y: VectorField, x: SpherePoint,
                scheme=EXACT_FORWARD) -> TangentVector:
    return TangentVector(x, _at(_bracket_plan(X, Y), x, scheme))


@on_stacks
def cov_deriv(kind: ConnectionKind, X: VectorField, Y: VectorField,
              x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """Covariant derivative at a point.  The adapted connection is
    evaluated through its closed form only; :func:`h_form_gap` measures
    its agreement with the definitional form."""
    return TangentVector(x, _at(_cov_plan(kind, X, Y), x, scheme))


@on_stacks
def h_form_gap(X: VectorField, Y: VectorField, x: SpherePoint,
               scheme=EXACT_FORWARD):
    """Disagreement between the substituted and the definitional forms of
    the adapted covariant derivative at x (zero when the structure's
    first-derivative identities hold): the definitional form goes through
    Levi-Civita derivatives of the Reeb fields, not the tensor A."""
    xi = [VectorField.reeb(X.structure, a) for a in (1, 2, 3)]
    return _at(_form_gap_plan(X, Y, xi), x, scheme)


@on_stacks
def torsion(kind: ConnectionKind, X: VectorField, Y: VectorField,
            x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    return TangentVector(x, _at(_torsion_plan(kind, X, Y), x, scheme))


@on_stacks
def curvature(kind: ConnectionKind, X: VectorField, Y: VectorField,
              Z: VectorField, x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    evaluated by nesting dual numbers through the fields; one
    nested pass per chunk of a stack of points."""
    return TangentVector(x, _fused_pass(X.structure, kind, [(X, Y, Z)], x.x, scheme)[0])


@on_stacks
def sphere_curvature_oracle(X: TangentVector, Y: TangentVector,
                            Z: TangentVector) -> TangentVector:
    """Closed-form curvature of the unit sphere,
    R(X,Y)Z = g(Y,Z) X - g(X,Z) Y, in the convention of :func:`curvature`
    (the report's ``curvature-sign`` entry measures that convention).
    """
    return TangentVector(X.base, dot(Y.v, Z.v) * X.v - dot(X.v, Z.v) * Y.v)
