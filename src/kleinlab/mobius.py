"""Normal-form conformal maps of R^n cup {inf} and their ball extensions.

A map is stored as gamma(x) = b + r A iota^eps (x - a) with iota(x) = x/|x|^2,
r > 0, A orthogonal. Composition and inversion stay inside this normal form
through exact algebraic identities, so deep words never leave the
representation; A is re-projected to the nearest orthogonal matrix after every
composition to stop drift.

The Poincare extension of a map is evaluated in upper half-space only, where
its lift has a closed form in the same fields (_lift). The lift serves one
map at many points (ExtendedMap, the round derivative) and many maps at one
point: orbit_distances gives rho(x, gamma_i y) for a whole stack of maps.

Stacks of maps are held as their stacked fields (eps, a, r, A, b), one row
per map. compose_rows and inverse_rows work on such stacks; compose and
inverse are their one-row calls, so a map gets the same bits alone or in
a stack of any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (
    BallPoint,
    DimensionMismatch,
    ExtPoint,
    distance_from_gauge_ratio,
    embed_rows,
    unembed_rows,
)

IDENTITY_TOL = 1e-10
ORTHO_TOL = 1e-10
_POLE_CANCEL_TOL = 1e-13


class PoleEvaluation(ValueError):
    """Derivative or value requested at the pole of an inverting map."""


class AmbiguousClassification(ValueError):
    """Map sits numerically between dynamical types; refusing to guess."""


def nearest_orthogonal(A: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(A)
    return U @ Vt


@dataclass(frozen=True)
class MobiusMap:
    """gamma(x) = b + r A iota^eps (x - a).

    eps = 0 is the affine conformal case and a is normalized to zero;
    eps = 1 sends the pole a to infinity and infinity to b.
    """

    n: int
    eps: int
    a: np.ndarray
    r: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if self.r <= 0:
            raise ValueError("scale r must be positive")
        a = np.asarray(self.a, dtype=float).reshape(self.n)
        b = np.asarray(self.b, dtype=float).reshape(self.n)
        A = np.asarray(self.A, dtype=float).reshape(self.n, self.n)
        if self.eps == 0:
            a = np.zeros(self.n)
        if np.max(np.abs(A.T @ A - np.eye(self.n))) > ORTHO_TOL:
            A = nearest_orthogonal(A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "r", float(self.r))


def identity(n: int) -> MobiusMap:
    return MobiusMap(n, 0, np.zeros(n), 1.0, np.eye(n), np.zeros(n))


def affine(n: int, r: float = 1.0, A: np.ndarray | None = None,
           b: np.ndarray | None = None) -> MobiusMap:
    """x -> b + r A x."""
    A = np.eye(n) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return MobiusMap(n, 0, np.zeros(n), r, A, b)


def translation(h) -> MobiusMap:
    h = np.asarray(h, dtype=float)
    return affine(h.size, b=h)


def unit_inversion(n: int) -> MobiusMap:
    """iota(x) = x/|x|^2, inversion in the unit sphere about the origin."""
    return MobiusMap(n, 1, np.zeros(n), 1.0, np.eye(n), np.zeros(n))


def sphere_inversion(center, radius: float) -> MobiusMap:
    """Inversion in the sphere of the given center and radius."""
    c = np.asarray(center, dtype=float)
    return MobiusMap(c.size, 1, c, radius ** 2, np.eye(c.size), c)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def apply(g: MobiusMap, x: ExtPoint) -> ExtPoint:
    """Total action on R^n cup {inf}."""
    if g.n != x.dim:
        raise DimensionMismatch(f"map dim {g.n} vs point dim {x.dim}")
    if x.is_infinity:
        if g.eps == 0:
            return ExtPoint.infinity(g.n)
        return ExtPoint.finite(g.b.copy())
    v = x.coords - g.a
    if g.eps == 1:
        s = float(v @ v)
        if s < 1e-280:
            return ExtPoint.infinity(g.n)
        v = v / s
    return ExtPoint.finite(g.b + g.r * (g.A @ v))


def apply_rows(g: MobiusMap, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized action on rows of finite points.

    Returns (images, to_infinity_mask); rows at the pole of an eps=1 map are
    flagged and zero-filled.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = X - g.a
    if g.eps == 1:
        s = np.einsum("ij,ij->i", V, V)
        at_pole = s < 1e-280
        s_safe = np.where(at_pole, 1.0, s)
        V = V / s_safe[:, None]
    else:
        at_pole = np.zeros(X.shape[0], dtype=bool)
    Y = g.b + g.r * (V @ g.A.T)
    Y[at_pole] = 0.0
    return Y, at_pole


def sphere_action_rows(g: MobiusMap, U: np.ndarray) -> np.ndarray:
    """Action of one map on unit rows: see sphere_action_stack."""
    return sphere_action_stack(stack_fields([g]), U)


def sphere_action_stack(fields, U: np.ndarray) -> np.ndarray:
    """Action on S^n through the stereographic identification; total.

    Row i of the unit rows U goes through the map of row i of the stacked
    fields, or through their only map, to a unit row (the north pole plays
    the role of infinity). One map takes one matmul of all the rows, a stack
    one small matmul per row. The two round differently: a map repeated in
    a stack can move a row by an ulp from that map given once.
    """
    eps, a, r, A, b = fields
    U = np.atleast_2d(np.asarray(U, dtype=float))
    coords, at_inf = unembed_rows(U)
    V = coords - a
    s = np.einsum("ij,ij->i", V, V)
    inv = eps == 1
    at_pole = inv & (s < 1e-280)
    V = V / np.where(inv & ~at_pole, s, 1.0)[:, None]
    if len(A) == 1:
        lin = V @ A[0].T
    else:
        lin = np.matmul(V[:, None, :], A.transpose(0, 2, 1))[:, 0, :]
    out = embed_rows(b + r[:, None] * lin)
    out[at_pole | (at_inf & ~inv)] = np.eye(U.shape[1])[-1]
    out[at_inf & inv] = embed_rows(np.broadcast_to(b, coords.shape)[at_inf & inv])
    return out / np.linalg.norm(out, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def stack_fields(maps) -> tuple[np.ndarray, ...]:
    """(eps, a, r, A, b) of a list of maps, each stacked along a leading axis."""
    return (np.array([g.eps for g in maps]), np.array([g.a for g in maps]),
            np.array([g.r for g in maps]), np.array([g.A for g in maps]),
            np.array([g.b for g in maps]))


def map_row(fields, i: int) -> MobiusMap:
    """Row i of stacked fields as a map."""
    eps, a, r, A, b = fields
    return MobiusMap(a.shape[1], int(eps[i]), a[i], float(r[i]), A[i], b[i])


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def compose_rows(f1, f2) -> tuple[np.ndarray, ...]:
    """Stacked fields of x -> g1_i(g2_i(x)) for the rows of two stacks.

    The rows split by the eps cases: an affine outer map keeps the inner
    structure, an inverting one after an affine one moves its pole, two
    inverting maps whose poles cancel compose to an affine map, and else
    iota(c + s M iota(v)) = iota(c) + (s/|c|^2) M R_{M^T c} iota(v + s M^T
    iota(c)), c = b2 - a1. Each product is a matmul per row, so a row gets
    the same bits in any stack. A is re-projected to the nearest orthogonal
    matrix on the rows whose drift passes ORTHO_TOL.
    """
    e1, a1, r1, A1, b1 = f1
    e2, a2, r2, A2, b2 = f2
    k, n = a1.shape
    eps, a, r = e2.copy(), np.zeros((k, n)), np.empty(k)
    A, b = np.matmul(A1, A2), np.empty((k, n))
    i = np.flatnonzero(e1 == 0)
    if i.size:
        a[i], r[i] = a2[i], r1[i] * r2[i]
        b[i] = b1[i] + r1[i, None] * _mv(A1[i], b2[i])
    i = np.flatnonzero((e1 == 1) & (e2 == 0))
    if i.size:
        # iota(r2 A2 x + b2 - a1) = (1/r2) A2 iota(x - d)
        eps[i], r[i], b[i] = 1, r1[i] / r2[i], b1[i]
        a[i] = _mv(A2[i].transpose(0, 2, 1), a1[i] - b2[i]) / r2[i, None]
    both = np.flatnonzero((e1 == 1) & (e2 == 1))
    if both.size:
        c = b2[both] - a1[both]
        scale = 1.0 + np.sqrt(_dot(a1[both], a1[both])) + np.sqrt(
            _dot(b2[both], b2[both]))
        cancel = np.sqrt(_dot(c, c)) < _POLE_CANCEL_TOL * scale
        i = both[cancel]
        eps[i], r[i] = 0, r1[i] / r2[i]
        b[i] = b1[i] - r[i, None] * _mv(A[i], a2[i])
        i, c = both[~cancel], c[~cancel]
        c2 = _dot(c, c)
        u = _mv(A2[i].transpose(0, 2, 1), c)
        R = np.eye(n) - 2.0 * (u[:, :, None] * u[:, None, :]) / _dot(u, u)[:, None, None]
        a[i] = a2[i] - r2[i, None] * u / c2[:, None]
        r[i] = r1[i] * r2[i] / c2
        A[i] = np.matmul(A1[i], np.matmul(A2[i], R))
        b[i] = b1[i] + r1[i, None] * _mv(A1[i], c) / c2[:, None]
    drift = np.abs(np.matmul(A.transpose(0, 2, 1), A) - np.eye(n)).max(axis=(1, 2))
    i = np.flatnonzero(drift > ORTHO_TOL)
    if i.size:
        U, _, Vt = np.linalg.svd(A[i])
        A[i] = np.matmul(U, Vt)
    return eps, a, r, A, b


def compose(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    """The map x -> g1(g2(x)): a one-row call of compose_rows."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"{g1.n} vs {g2.n}")
    return map_row(compose_rows(stack_fields([g1]), stack_fields([g2])), 0)


def inverse_rows(fields) -> tuple[np.ndarray, ...]:
    """Stacked fields of the inverses: a field swap for inverting maps."""
    eps, a, r, A, b = fields
    At = A.transpose(0, 2, 1)
    aff = (eps == 0)[:, None]
    return (eps.copy(), np.where(aff, 0.0, b), np.where(eps == 0, 1.0 / r, r),
            At.copy(), np.where(aff, -_mv(At, b) / r[:, None], a))


def inverse(g: MobiusMap) -> MobiusMap:
    return map_row(inverse_rows(stack_fields([g])), 0)


def is_identity_rows(fields, tol: float = IDENTITY_TOL) -> np.ndarray:
    eps, _, r, A, b = fields
    return ((eps == 0) & (np.abs(r - 1.0) < tol)
            & (np.abs(A - np.eye(A.shape[1])).max(axis=(1, 2)) < tol)
            & (np.abs(b).max(axis=1) < tol))


def is_identity(g: MobiusMap, tol: float = IDENTITY_TOL) -> bool:
    return bool(is_identity_rows(stack_fields([g]), tol)[0])


def maps_close(g: MobiusMap, h: MobiusMap, tol: float = IDENTITY_TOL) -> bool:
    """Whether g and h agree as transformations (g^-1 h within identity tolerance)."""
    return is_identity(compose(inverse(g), h), tol=tol)


# ---------------------------------------------------------------------------
# conformal derivatives
# ---------------------------------------------------------------------------

def deriv_euclid_rows(g: MobiusMap, X: np.ndarray) -> np.ndarray:
    """|gamma'(x)| in the Euclidean metric on finite rows off the pole: r for
    affine maps, r/|x-a|^2 else."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if g.eps == 0:
        return np.full(X.shape[0], g.r)
    d2 = np.einsum("ij,ij->i", X - g.a, X - g.a)
    return g.r / d2


def _lift(fields, P: np.ndarray, H) -> tuple[np.ndarray, np.ndarray]:
    """Lifts of stacked maps at upper half-space points (p, h), row by row.

    The lift of x -> b + r A iota^eps(x - a) sends (p, h) to
    (b + c A(p - a), c h) with c = r/(|p - a|^2 + h^2) for inverting maps and
    c = r for affine ones (Ratcliffe, Foundations of Hyperbolic Manifolds,
    ch. 4). At h = 0 this is the boundary action and c is |gamma'(p)|_e.
    Maps and points broadcast against each other. Returns (image p, c).
    """
    eps, a, r, A, b = fields
    D = P - a
    s = np.where(eps == 1, np.einsum("...i,...i->...", D, D) + H * H, 1.0)
    c = r / s
    return b + c[..., None] * np.einsum("...ij,...j->...i", A, D), c


def deriv_sphere_rows(fields, X: np.ndarray, at_inf: np.ndarray) -> np.ndarray:
    """|gamma_i'(x_i)| in the round metric for the rows of stacked fields.

    Row i of X holds x_i (ignored where at_inf[i], the point at infinity).
    For finite x with finite image this is (1+|x|^2)/(1+|gx|^2) |gamma'(x)|_e;
    the pole and infinity get the continuous extensions.
    """
    eps, a, r, _, b = fields
    X = np.atleast_2d(np.asarray(X, dtype=float))
    at_inf = np.asarray(at_inf, dtype=bool)
    pole = (eps == 1) & ~at_inf & (np.einsum("ij,ij->i", X - a, X - a) < 1e-280)
    with np.errstate(divide="ignore", invalid="ignore"):
        Y, c = _lift(fields, X, 0.0)
        out = (1.0 + np.einsum("ij,ij->i", X, X)) / (
            1.0 + np.einsum("ij,ij->i", Y, Y)) * c
    at_inf_value = np.where(eps == 1, r / (1.0 + np.einsum("ij,ij->i", b, b)),
                            1.0 / r)
    out = np.where(at_inf, at_inf_value, out)
    return np.where(pole, (1.0 + np.einsum("ij,ij->i", a, a)) / r, out)


def deriv_sphere(g: MobiusMap, x: ExtPoint) -> float:
    """|gamma'(x)| in the round metric: a one-row call of deriv_sphere_rows."""
    X = np.zeros((1, g.n)) if x.is_infinity else x.coords[None, :]
    return float(deriv_sphere_rows(stack_fields([g]), X,
                                   np.array([x.is_infinity]))[0])


# ---------------------------------------------------------------------------
# Poincare extension, evaluated in upper half-space
# ---------------------------------------------------------------------------

def _cayley(m: int) -> MobiusMap:
    """Ball -> upper-half-space map whose boundary trace is stereo_project.

    Reflection in {x_m = 0} composed with inversion in the sphere of center
    e_m and radius sqrt(2); sends the unit ball onto {x_m > 0} and the ball
    center to e_m.
    """
    north = np.zeros(m)
    north[-1] = 1.0
    A = np.eye(m)
    A[-1, -1] = -1.0
    return MobiusMap(m, 1, north, 2.0, A, -north)


def orbit_distances(fields, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rho(x, gamma_i y) for ball points x, y and every row of stacked fields.

    The Cayley map sends x and y to z and w in upper half-space, the lift of
    each map sends w to w_i, and cosh rho = 1 + |z - w_i|^2 / (2 z_h w_ih).
    """
    (z, w), _ = apply_rows(_cayley(len(x)), np.vstack([x, y]))
    P, c = _lift(fields, w[:-1], w[-1])
    d2 = np.einsum("ij,ij->i", P - z[:-1], P - z[:-1]) + (c * w[-1] - z[-1]) ** 2
    return distance_from_gauge_ratio(d2 / (4.0 * z[-1] * c * w[-1]))


@dataclass(frozen=True)
class ExtendedMap:
    """Poincare extension of a boundary map: an isometry of the unit ball B^{n+1}.

    Ball rows go through the Cayley map to upper half-space, through the lift
    of source there (see _lift) and back; each factor is well conditioned,
    whatever the map. On S^n the extension is the stereographic conjugate of
    source.
    """

    source: MobiusMap

    def apply_ball(self, x: BallPoint) -> BallPoint:
        y = self.apply_ball_rows(x.vec[None, :])[0]
        return BallPoint(y)

    def apply_ball_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k = _cayley(X.shape[1])
        Z, at_pole = apply_rows(k, X)
        if np.any(at_pole):
            raise PoleEvaluation("ball row at the north pole, not inside the ball")
        P, c = _lift(stack_fields([self.source]), Z[:, :-1], Z[:, -1])
        Y, _ = apply_rows(inverse(k), np.column_stack([P, c * Z[:, -1]]))
        norms = np.linalg.norm(Y, axis=1)
        crowded = norms >= 1.0
        if np.any(crowded):
            # numerical grazing of the boundary; pull back inside
            Y[crowded] *= ((1.0 - 1e-15) / norms[crowded])[:, None]
        return Y


def poincare_extend(g: MobiusMap) -> ExtendedMap:
    """The extension of g to the ball, evaluated through its half-space lift."""
    return ExtendedMap(source=g)


# ---------------------------------------------------------------------------
# dynamical classification
# ---------------------------------------------------------------------------

def _fields_blown_up(g: MobiusMap) -> bool:
    vals = [g.r, 1.0 / g.r, float(np.max(np.abs(g.a), initial=0.0)),
            float(np.max(np.abs(g.b), initial=0.0))]
    return not all(np.isfinite(vals)) or max(vals) > 1e60


def _classify_by_fixed_points(g: MobiusMap) -> str:
    """Fallback for maps that throw the basepoint very far in one step.

    Iterates the sphere action forward and backward; convergence to fixed
    points with round-metric derivative away from 1 signals a loxodromic
    map, a single neutral fixed point signals a parabolic one.
    """
    from .geom import SpherePoint, stereo_project

    m = g.n + 1
    seeds = np.eye(m)[: min(3, m)]
    limits = []
    for h in (g, inverse(g)):
        u = seeds.copy()
        prev = u
        for _ in range(400):
            prev = u
            u = sphere_action_rows(h, u)
            if np.max(np.linalg.norm(u - prev, axis=1)) < 1e-13:
                break
        if np.max(np.linalg.norm(u - prev, axis=1)) > 1e-9:
            raise AmbiguousClassification("sphere iteration does not settle")
        if np.max(np.linalg.norm(u - u[0], axis=1)) > 1e-7:
            raise AmbiguousClassification("sphere iteration splits across seeds")
        limits.append(u[0])
    fwd, bwd = limits
    d_fwd = deriv_sphere(g, stereo_project(SpherePoint(fwd)))
    if np.linalg.norm(fwd - bwd) > 1e-6:
        if d_fwd < 1.0 - 1e-9:
            return "loxodromic"
        raise AmbiguousClassification("two limit points but neutral derivative")
    if abs(d_fwd - 1.0) < 1e-6:
        return "parabolic"
    return "loxodromic"


def classify(g: MobiusMap) -> str:
    """One of 'identity', 'elliptic', 'parabolic', 'loxodromic'.

    Affine maps are classified exactly from the normal form. Inverting maps
    are probed through repeated squaring: the hyperbolic displacement of the
    ball center under gamma^(2^j) grows exponentially for loxodromic maps,
    by about 2 ln 2 per doubling for parabolic maps, and stays bounded for
    elliptic ones. Gray-zone behaviour raises AmbiguousClassification.
    """
    if is_identity(g):
        return "identity"
    if g.eps == 0:
        if abs(g.r - 1.0) > IDENTITY_TOL:
            return "loxodromic"
        M = np.eye(g.n) - g.A
        sol, *_ = np.linalg.lstsq(M, g.b, rcond=None)
        resid = np.linalg.norm(M @ sol - g.b)
        if resid < 1e-9 * (1.0 + np.linalg.norm(g.b)):
            return "elliptic"
        return "parabolic"
    # Orbit growth of the ball center under gamma^(2^j). The probe stops once
    # the displacement leaves the float-trustworthy window (~30): by then the
    # growth pattern is already decisive (multiplicative doubling for
    # loxodromic, additive ~2 ln 2 steps for parabolic).
    displacements: list[float] = []
    h = g
    escaped = False
    origin = np.zeros(g.n + 1)
    for _ in range(34):
        displacements.append(float(orbit_distances(stack_fields([h]), origin, origin)[0]))
        if displacements[-1] > 30.0:
            escaped = True
            break
        h = compose(h, h)
        if _fields_blown_up(h):
            return "loxodromic"
    ds = np.array(displacements)
    if ds.max() < 1e-7:
        return "elliptic"  # fixes the ball center
    if escaped:
        if len(ds) < 3:
            return _classify_by_fixed_points(g)
        incs = np.diff(ds)
        # doubling increments: multiplicative escape; flat ~2 ln 2 steps: parabolic
        if incs[-1] / max(incs[-2], 1e-12) > 1.6:
            return "loxodromic"
        if np.all((incs[-2:] > 0.2) & (incs[-2:] < 3.0)):
            return "parabolic"
        raise AmbiguousClassification(
            f"escaping displacements {ds[-4:].tolist()} fit no growth pattern"
        )
    if ds[-5:].max() <= ds[:-5].max() + 1.0:
        return "elliptic"  # bounded oscillating orbit
    raise AmbiguousClassification(
        "displacement growth fits no dynamical type cleanly; "
        f"powers-of-two displacements end {ds[-4:].tolist()}"
    )
