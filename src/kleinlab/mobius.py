"""Normal-form conformal maps of R^n cup {inf} and their ball extensions.

A map is stored as gamma(x) = b + r A iota^eps (x - a) with iota(x) = x/|x|^2,
r > 0, A orthogonal. Composition and inversion stay inside this normal form
through exact algebraic identities, so deep words never leave the
representation; A is re-projected to the nearest orthogonal matrix after every
composition to stop drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import (
    BallPoint,
    DimensionMismatch,
    ExtPoint,
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
    """Action on S^n through the stereographic identification; total.

    U holds unit vectors in R^{n+1}; the result is again unit rows (the north
    pole plays the role of infinity).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    coords, at_inf = unembed_rows(U)
    out = np.empty_like(U)
    if np.any(~at_inf):
        Y, to_inf = apply_rows(g, coords[~at_inf])
        emb = embed_rows(Y)
        if np.any(to_inf):
            north = np.zeros(U.shape[1])
            north[-1] = 1.0
            emb[to_inf] = north
        out[~at_inf] = emb
    if np.any(at_inf):
        if g.eps == 0:
            north = np.zeros(U.shape[1])
            north[-1] = 1.0
            out[at_inf] = north
        else:
            out[at_inf] = embed_rows(g.b[None, :])[0]
    return out / np.linalg.norm(out, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def compose(g1: MobiusMap, g2: MobiusMap) -> MobiusMap:
    """The map x -> g1(g2(x)), renormalized to the canonical form."""
    if g1.n != g2.n:
        raise DimensionMismatch(f"{g1.n} vs {g2.n}")
    n = g1.n
    if g1.eps == 0:
        # affine post-composition keeps the inner structure
        return MobiusMap(
            n, g2.eps, g2.a, g1.r * g2.r, g1.A @ g2.A,
            g1.b + g1.r * (g1.A @ g2.b),
        )
    if g2.eps == 0:
        # iota(r2 A2 x + b2 - a1) = (1/r2) A2 iota(x - d)
        d = g2.A.T @ (g1.a - g2.b) / g2.r
        return MobiusMap(n, 1, d, g1.r / g2.r, g1.A @ g2.A, g1.b)
    c = g2.b - g1.a
    scale = 1.0 + np.linalg.norm(g1.a) + np.linalg.norm(g2.b)
    if np.linalg.norm(c) < _POLE_CANCEL_TOL * scale:
        # poles cancel: the composition is affine
        r = g1.r / g2.r
        A = g1.A @ g2.A
        return MobiusMap(n, 0, np.zeros(n), r, A, g1.b - r * (A @ g2.a))
    # iota(c + s M iota(v)) = iota(c) + (s/|c|^2) M R_{M^T c} iota(v + s M^T iota(c))
    c2 = float(c @ c)
    u = g2.A.T @ c
    R = np.eye(n) - 2.0 * np.outer(u, u) / float(u @ u)
    a = g2.a - g2.r * u / c2
    r = g1.r * g2.r / c2
    A = g1.A @ (g2.A @ R)
    b = g1.b + g1.r * (g1.A @ c) / c2
    return MobiusMap(n, 1, a, r, A, b)


def inverse(g: MobiusMap) -> MobiusMap:
    if g.eps == 0:
        Ainv = g.A.T
        return MobiusMap(g.n, 0, np.zeros(g.n), 1.0 / g.r, Ainv,
                         -(Ainv @ g.b) / g.r)
    return MobiusMap(g.n, 1, g.b, g.r, g.A.T, g.a)


def is_identity(g: MobiusMap, tol: float = IDENTITY_TOL) -> bool:
    return (
        g.eps == 0
        and abs(g.r - 1.0) < tol
        and np.max(np.abs(g.A - np.eye(g.n))) < tol
        and np.max(np.abs(g.b)) < tol
    )


def maps_close(g: MobiusMap, h: MobiusMap, tol: float = IDENTITY_TOL) -> bool:
    """Whether g and h agree as transformations (g^-1 h within identity tolerance)."""
    return is_identity(compose(inverse(g), h), tol=tol)


# ---------------------------------------------------------------------------
# conformal derivatives
# ---------------------------------------------------------------------------

def deriv_euclid(g: MobiusMap, x: ExtPoint) -> float:
    """|gamma'(x)| in the Euclidean metric: r for affine maps, r/|x-a|^2 else."""
    if x.is_infinity:
        raise PoleEvaluation("Euclidean derivative is not defined at infinity")
    if g.eps == 0:
        return g.r
    d2 = float(np.sum((x.coords - g.a) ** 2))
    if d2 < 1e-280:
        raise PoleEvaluation("derivative requested at the pole")
    return g.r / d2


def deriv_euclid_rows(g: MobiusMap, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if g.eps == 0:
        return np.full(X.shape[0], g.r)
    d2 = np.einsum("ij,ij->i", X - g.a, X - g.a)
    return g.r / d2


def deriv_sphere(g: MobiusMap, x: ExtPoint) -> float:
    """|gamma'(x)| in the round metric, total on R^n cup {inf} via chordal limits.

    For finite x with finite image this is (1+|x|^2)/(1+|gx|^2) |gamma'(x)|_e;
    the pole and infinity get the continuous extensions.
    """
    if x.is_infinity:
        if g.eps == 0:
            return 1.0 / g.r
        return g.r / (1.0 + float(g.b @ g.b))
    if g.eps == 1:
        d2 = float(np.sum((x.coords - g.a) ** 2))
        if d2 < 1e-280:
            return (1.0 + float(g.a @ g.a)) / g.r
    gx = apply(g, x)
    nx = float(x.coords @ x.coords)
    ngx = float(gx.coords @ gx.coords)
    return (1.0 + nx) / (1.0 + ngx) * deriv_euclid(g, x)


# ---------------------------------------------------------------------------
# Poincare extension to the hyperbolic ball
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


@dataclass(frozen=True)
class ExtendedMap:
    """Poincare extension of a boundary map: an isometry of the unit ball B^{n+1}.

    ball_map acts on R^{n+1} cup {inf}, preserves the open unit ball and the
    unit sphere, and restricts on S^n to the stereographic conjugate of source.
    """

    source: MobiusMap
    ball_map: MobiusMap

    def apply_ball(self, x: BallPoint) -> BallPoint:
        y = self.apply_ball_rows(x.vec[None, :])[0]
        return BallPoint(y)

    def apply_ball_rows(self, X: np.ndarray) -> np.ndarray:
        Y, at_pole = apply_rows(self.ball_map, X)
        if np.any(at_pole):
            raise PoleEvaluation("ball map pole inside the ball; map is not ball-preserving")
        norms = np.linalg.norm(Y, axis=1)
        crowded = norms >= 1.0
        if np.any(crowded):
            # numerical grazing of the boundary; pull back inside
            Y[crowded] *= ((1.0 - 1e-15) / norms[crowded])[:, None]
        return Y

    def apply_sphere_rows(self, U: np.ndarray) -> np.ndarray:
        """Action on unit rows of the boundary sphere S^n inside R^{n+1}.

        The pole of a ball-preserving map lies strictly outside the closed
        ball, so the action is total here.
        """
        V, at_pole = apply_rows(self.ball_map, np.atleast_2d(U))
        if np.any(at_pole):
            raise PoleEvaluation("ball map pole on the unit sphere")
        return V / np.linalg.norm(V, axis=1, keepdims=True)


def poincare_extend(g: MobiusMap) -> ExtendedMap:
    """Extend g verbatim to R^{n+1} (upper half-space) and conjugate to the ball."""
    m = g.n + 1
    a = np.append(g.a, 0.0)
    b = np.append(g.b, 0.0)
    A = np.zeros((m, m))
    A[:-1, :-1] = g.A
    A[-1, -1] = 1.0
    g_half = MobiusMap(m, g.eps, a, g.r, A, b)
    k = _cayley(m)
    ball = compose(inverse(k), compose(g_half, k))
    return ExtendedMap(source=g, ball_map=ball)


# ---------------------------------------------------------------------------
# dynamical classification
# ---------------------------------------------------------------------------

def ball_displacement_rows(ext: ExtendedMap, X: np.ndarray) -> np.ndarray:
    """rho(x, gamma x) for ball rows, stable arbitrarily close to the sphere.

    Uses 1 - |gamma x|^2 = |gamma'(x)|_e (1 - |x|^2), exact for isometries of
    the ball, so the complement never suffers boundary cancellation.
    """
    from .geom import distance_from_gauge_ratio

    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = ext.apply_ball_rows(X)
    nx = 1.0 - np.einsum("ij,ij->i", X, X)
    ny = deriv_euclid_rows(ext.ball_map, X) * nx
    d2 = np.einsum("ij,ij->i", X - Y, X - Y)
    return distance_from_gauge_ratio(d2 / (nx * ny))


def _origin_displacement(g: MobiusMap) -> float:
    ext = poincare_extend(g)
    origin = np.zeros((1, g.n + 1))
    return float(ball_displacement_rows(ext, origin)[0])


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
    for _ in range(34):
        displacements.append(_origin_displacement(h))
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
