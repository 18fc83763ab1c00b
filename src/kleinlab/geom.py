"""Points and metrics: S^n, R^n with a point at infinity, and the hyperbolic ball.

Three coordinate pictures are used throughout the package:

* extended space R^n cup {inf}, where conformal maps have a clean normal form;
* the unit sphere S^n in R^{n+1}, where the chordal metric is plain Euclidean
  distance of embedded points;
* the open unit ball B^{n+1}, carrying the Poincare metric 2|dx|/(1-|x|^2).

The stereographic convention below is pinned so that the chordal distance of
two extended points equals the Euclidean distance of their sphere embeddings:
the north pole e_{n+1} corresponds to infinity, the south pole to the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPHERE_NORM_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class NotInBall(ValueError):
    """Point expected strictly inside the unit ball."""


def _as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class ExtPoint:
    """Point of R^n cup {inf}; ``coords is None`` encodes the point at infinity."""

    dim: int
    coords: np.ndarray | None

    def __post_init__(self):
        if self.coords is not None and self.coords.size != self.dim:
            raise DimensionMismatch(
                f"coords of size {self.coords.size} vs declared dim {self.dim}"
            )

    @staticmethod
    def finite(v) -> "ExtPoint":
        arr = _as_vector(v, "point")
        return ExtPoint(dim=arr.size, coords=arr)

    @staticmethod
    def infinity(dim: int) -> "ExtPoint":
        return ExtPoint(dim=dim, coords=None)

    @property
    def is_infinity(self) -> bool:
        return self.coords is None


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector in R^{n+1}; represents a point of S^n."""

    vec: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.vec, "sphere point")
        object.__setattr__(self, "vec", v)
        if abs(np.linalg.norm(v) - 1.0) > SPHERE_NORM_TOL:
            raise ValueError(f"not a unit vector: |v| = {np.linalg.norm(v)!r}")

    @property
    def n(self) -> int:
        """Dimension of the sphere S^n (ambient is R^{n+1})."""
        return self.vec.size - 1


@dataclass(frozen=True)
class BallPoint:
    """Vector of norm < 1 in R^{n+1}; a point of the hyperbolic ball."""

    vec: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.vec, "ball point")
        object.__setattr__(self, "vec", v)
        if np.linalg.norm(v) >= 1.0:
            raise NotInBall(f"|v| = {np.linalg.norm(v)!r} >= 1")


# ---------------------------------------------------------------------------
# chordal metric on R^n cup {inf}
# ---------------------------------------------------------------------------

def chordal_distance(x: ExtPoint, y: ExtPoint) -> float:
    """Chordal distance q(x, y) = 2|x-y| / (sqrt(1+|x|^2) sqrt(1+|y|^2)).

    q(x, inf) = 2 / sqrt(1+|x|^2); the maximum value 2 is attained by
    antipodal pairs such as (0, inf).
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"{x.dim} vs {y.dim}")
    if x.is_infinity and y.is_infinity:
        return 0.0
    if x.is_infinity:
        return 2.0 / np.sqrt(1.0 + float(y.coords @ y.coords))
    if y.is_infinity:
        return 2.0 / np.sqrt(1.0 + float(x.coords @ x.coords))
    dx = x.coords - y.coords
    num = 2.0 * np.linalg.norm(dx)
    den = np.sqrt(1.0 + float(x.coords @ x.coords)) * np.sqrt(
        1.0 + float(y.coords @ y.coords)
    )
    return float(num / den)


def chordal_to_infinity(X: np.ndarray) -> np.ndarray:
    """q(x, inf) for rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return 2.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", X, X))


# ---------------------------------------------------------------------------
# stereographic projection (north pole <-> infinity)
# ---------------------------------------------------------------------------

def stereo_project(p: SpherePoint) -> ExtPoint:
    """S^n -> R^n cup {inf}; the north pole e_{n+1} maps to infinity."""
    v = p.vec
    n = v.size - 1
    if v[-1] >= 1.0 - 1e-15:
        return ExtPoint.infinity(n)
    return ExtPoint.finite(v[:-1] / (1.0 - v[-1]))


def stereo_unproject(x: ExtPoint) -> SpherePoint:
    """Inverse of stereo_project; the origin maps to the south pole."""
    return SpherePoint(embed_ext(x))


def embed_ext(x: ExtPoint) -> np.ndarray:
    """Unit-vector embedding of an extended point into R^{n+1}."""
    if x.is_infinity:
        v = np.zeros(x.dim + 1)
        v[-1] = 1.0
        return v
    return embed_rows(x.coords[None, :])[0]


def embed_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise embedding of finite points of R^n onto S^n in R^{n+1}.

    x maps to (2x, |x|^2 - 1)/(1+|x|^2), so Euclidean distance of images
    equals the chordal distance of the arguments.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s = np.einsum("ij,ij->i", X, X)
    out = np.empty((X.shape[0], X.shape[1] + 1))
    out[:, :-1] = 2.0 * X / (1.0 + s)[:, None]
    out[:, -1] = (s - 1.0) / (s + 1.0)
    return out


def unembed_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise stereographic projection of unit vectors in R^{n+1}.

    Returns (coords, at_infinity_mask); rows at the north pole get zero
    coords and a True mask entry.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    denom = 1.0 - V[:, -1]
    at_inf = denom < 1e-15
    safe = np.where(at_inf, 1.0, denom)
    coords = V[:, :-1] / safe[:, None]
    coords[at_inf] = 0.0
    return coords, at_inf


# ---------------------------------------------------------------------------
# hyperbolic metric on the ball
# ---------------------------------------------------------------------------

def hyperbolic_distance(x: BallPoint, y: BallPoint) -> float:
    """Distance in the Poincare ball metric 2|dx|/(1-|x|^2)."""
    return float(hyperbolic_distance_rows(x.vec[None, :], y.vec[None, :])[0])


def hyperbolic_distance_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise Poincare distance; arguments must lie strictly inside the ball."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    nx = np.einsum("ij,ij->i", X, X)
    ny = np.einsum("ij,ij->i", Y, Y)
    if np.any(nx >= 1.0) or np.any(ny >= 1.0):
        raise NotInBall("hyperbolic distance needs interior points")
    d2 = np.einsum("ij,ij->i", X - Y, X - Y)
    s = d2 / ((1.0 - nx) * (1.0 - ny))
    return distance_from_gauge_ratio(s)


def distance_from_gauge_ratio(s: np.ndarray) -> np.ndarray:
    """rho from s = |x-y|^2 / ((1-|x|^2)(1-|y|^2)).

    Equals 2 artanh sqrt(s/(1+s)) = arcosh(1+2s); the log1p form stays exact
    for s up to overflow, i.e. for distances far beyond float boundary points.
    """
    s = np.asarray(s, dtype=float)
    return np.log1p(s) + 2.0 * np.log1p(np.sqrt(s / (1.0 + s)))


def ball_gauge(x: BallPoint, y: BallPoint) -> float:
    """|T_x y| = tanh(rho(x, y)/2), the Mobius-invariant gauge of a ball pair."""
    d2 = float(np.sum((x.vec - y.vec) ** 2))
    nx = float(x.vec @ x.vec)
    ny = float(y.vec @ y.vec)
    s = d2 / ((1.0 - nx) * (1.0 - ny))
    return float(np.sqrt(s / (1.0 + s)))


# ---------------------------------------------------------------------------
# sphere utilities
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^n in R^{n+1}."""
    from scipy.special import gamma

    return float(2.0 * np.pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0))


def uniform_sphere(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """size uniform samples on S^n, returned as rows of unit vectors."""
    v = rng.standard_normal((size, n + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def angular_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle angle between unit vectors (row-wise broadcastable)."""
    dots = np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)
    return np.arccos(dots)


def chord_from_angle(theta):
    """Chordal length subtending angle theta on the unit sphere."""
    return 2.0 * np.sin(np.asarray(theta) / 2.0)


def angle_from_chord(c):
    """Inverse of chord_from_angle."""
    return 2.0 * np.arcsin(np.clip(np.asarray(c) / 2.0, -1.0, 1.0))
