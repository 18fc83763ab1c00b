"""Spherical caps on S^n and their images under conformal maps.

A cap is stored by its unit-vector center and angular radius. Conformal maps
send caps to caps. Every image cap comes from cap_images, which maps cap i
of a stack by map i of stacked fields in closed form: the cap is a ball of
R^n under stereographic projection, the map sends that ball to a ball, and
the image ball is a cap again. Nothing is sampled or fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mobius
from .geom import chord_from_angle

CAP_MAX_ANGLE = np.pi / 2.0
# A unit-vector center is good to about an ulp, 1.1e-16 of a radian, so it
# cannot place a cap whose angular radius is below a few ulps. Such an image
# cap keeps its exact radius but is centred on its mapped source center,
# which lies inside it.
TINY_THETA = 1e-15


class CapDegenerate(ValueError):
    """Cap is empty, a point, or at least a hemisphere."""


@dataclass(frozen=True)
class SphericalCap:
    """Cap {p in S^n : angle(p, center) <= theta} with 0 < theta < pi/2.

    The center is scaled to unit norm.
    """

    center: np.ndarray
    theta: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"cap center must be a unit vector, |c| = {norm!r}")
        object.__setattr__(self, "center", c / norm)
        object.__setattr__(self, "theta", float(self.theta))
        if not (0.0 < self.theta < CAP_MAX_ANGLE):
            raise CapDegenerate(f"angular radius {self.theta!r} outside (0, pi/2)")

    @property
    def ambient_dim(self) -> int:
        return self.center.size

    @property
    def chordal_diameter(self) -> float:
        """Largest chordal distance between two cap points (chord of 2 theta)."""
        return float(chord_from_angle(2.0 * self.theta))

    def contains(self, U: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Membership of unit rows, with optional angular slack."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        dots = U @ self.center
        return dots >= np.cos(min(self.theta + slack, np.pi - 1e-12))


@dataclass(frozen=True)
class CapStack:
    """Caps as rows: unit centers (S, m) and angular radii (S,). A sequence
    of SphericalCap; a cap is built only when its row is indexed."""

    centers: np.ndarray
    thetas: np.ndarray

    @staticmethod
    def of(caps, m: int) -> CapStack:
        """The stack of a sequence of caps of ambient dimension m."""
        if isinstance(caps, CapStack):
            return caps
        return CapStack(np.array([c.center for c in caps]).reshape(-1, m),
                        np.array([c.theta for c in caps], dtype=float))

    def __len__(self) -> int:
        return self.thetas.size

    def __getitem__(self, i: int) -> SphericalCap:
        return SphericalCap(self.centers[i], self.thetas[i])


def caps_disjoint(c1: SphericalCap, c2: SphericalCap) -> bool:
    """Whether the closed caps are disjoint."""
    gap = float(np.arccos(np.clip(c1.center @ c2.center, -1.0, 1.0)))
    return gap > c1.theta + c2.theta


def cap_image(g: mobius.MobiusMap, cap: SphericalCap) -> SphericalCap:
    """Image of a cap under g, from a one-row call of cap_images."""
    nu, theta, valid, _ = cap_images(mobius.stack_fields([g]), cap.center[None],
                                     np.array([cap.theta]))
    if not valid[0]:
        raise CapDegenerate(
            f"image cap has angular radius {theta[0]!r} or covers a hemisphere; "
            "family shape bound broken"
        )
    return SphericalCap(center=nu[0], theta=theta[0])


def cap_images(fields, centers: np.ndarray,
               thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Image caps of a stack of source caps, cap i under map i of fields.

    The cap (c, theta), c = (c', c_m), is the stereographic ball
    |x - p| <= rho with k = cos(theta) - c_m, p = c'/k and rho = sin(theta)/k;
    a negative rho (the cap holds the north pole) stands for the ball's
    exterior. The map b + r A iota^eps(x - a) sends it, with q = p - a, to
    the ball of center b + (r/D) A q and signed radius R = r rho / D, where
    D = |q|^2 - rho^2 for eps = 1 and D = 1 for eps = 0; a negative D (the
    pole inside the ball) flips the side. The ball (P, R) is the cap of
    center v/|v|, v = sign(R) (2P, s - 2), and angular radius
    atan2(2|R|, sign(R) s), s = 1 + |P|^2 - R^2. Every step is elementwise
    or one matmul per row, so a row gets the same bits in any stack; a lone
    row's one-map matmul in sphere_action_stack gives it those bits too.
    Returns (centers, thetas, valid, mapped source centers), with valid
    false where the image reaches a hemisphere or is not finite.
    """
    eps, a, r, A, b = fields
    cp, cm = centers[:, :-1], centers[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # 1 - c_m, as |c'|^2/(1 + c_m) where that cancels
        far = np.where(cm < 0.0, 1.0 - cm,
                       (cp * cp).sum(axis=1) / np.maximum(1.0 + cm, 1.0))
        k = far - 2.0 * np.sin(0.5 * thetas) ** 2
        q = cp / k[:, None] - a
        rho = np.sin(thetas) / k
        qn, rn = np.linalg.norm(q, axis=1), np.abs(rho)
        D = np.where(eps == 1, (qn - rn) * (qn + rn), 1.0)
        P = b + (r / D)[:, None] * np.matmul(A, q[:, :, None])[:, :, 0]
        R = r * rho / D
        Pn, Rn = np.linalg.norm(P, axis=1), np.abs(R)
        s = 1.0 + (Pn - Rn) * (Pn + Rn)
        side = np.sign(R)
        v = side[:, None] * np.concatenate([2.0 * P, (s - 2.0)[:, None]], axis=1)
        nu = v / np.linalg.norm(v, axis=1, keepdims=True)
        theta = np.arctan2(2.0 * Rn, side * s)
    valid = (theta > 0.0) & (theta < CAP_MAX_ANGLE)
    mapped = mobius.sphere_action_stack(fields, centers)
    tiny = theta < TINY_THETA
    nu[tiny] = mapped[tiny]
    return nu, theta, valid, mapped


# ---------------------------------------------------------------------------
# stereographic cap <-> Euclidean ball
# ---------------------------------------------------------------------------

def cap_to_euclidean_ball(cap: SphericalCap) -> tuple[np.ndarray, float]:
    """Stereographic image of a cap avoiding the north pole, as (center, radius).

    The image-ball diameter endpoints are the projections of the two cap
    boundary points on the meridian through the cap center.
    """
    m = cap.ambient_dim
    north = np.zeros(m)
    north[-1] = 1.0
    u = float(np.arccos(np.clip(cap.center @ north, -1.0, 1.0)))
    if u - cap.theta <= 1e-12:
        raise CapDegenerate("cap touches the north pole; no bounded Euclidean image")
    lo = 1.0 / np.tan((u - cap.theta) / 2.0)
    hi = 1.0 / np.tan((u + cap.theta) / 2.0)
    planar = cap.center[:-1]
    pnorm = np.linalg.norm(planar)
    if pnorm < 1e-14:
        e = np.zeros(m - 1)
        e[0] = 1.0
    else:
        e = planar / pnorm
    center = 0.5 * (lo + hi) * e
    radius = 0.5 * (lo - hi)
    return center, float(radius)
