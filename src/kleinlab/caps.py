"""Spherical caps on S^n and their images under conformal maps.

A cap is stored by its unit-vector center and angular radius. Conformal maps
send caps to caps. Every image cap comes from cap_images, which maps cap i
of a stack by map i of stacked fields and fits the whole stack at once: the
n+1 mapped boundary probes of a cap lie on an affine hyperplane of R^{n+1},
as the boundary of a cap is a round subsphere, the image cap is centred on
the direction of their circumcenter, and the mapped center decides the side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom, mobius
from .geom import chord_from_angle, unembed_rows

CAP_MAX_ANGLE = np.pi / 2.0


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

    def boundary_frame(self) -> np.ndarray:
        """Orthonormal basis of the center's orthogonal complement."""
        return boundary_frames(self.center[None])[0]

    def boundary_points(self) -> np.ndarray:
        """The n+1 boundary probes; a one-row call of boundary_probes."""
        return boundary_probes(self.center[None], np.array([self.theta]))[0]


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


def boundary_frames(centers: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the complements of unit rows, shape (S, m-1, m).

    Each center is completed to an orthonormal basis by the QR of [c | I],
    one stacked QR for every row; the first column of Q is +-c and the
    others span its complement. A row gets the same bits in any stack.
    """
    S, m = centers.shape
    M = np.concatenate(
        [centers[:, :, None], np.broadcast_to(np.eye(m), (S, m, m))], axis=2)
    Q, _ = np.linalg.qr(M)
    return np.swapaxes(Q[:, :, 1:m], 1, 2)


def boundary_probes(centers: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The n+1 boundary probes of the caps (centers, thetas), (S, n+1, m):
    the points at angle theta from the center toward the frame directions
    and the negated first one. They span the boundary's hyperplane in any n.
    """
    frames = boundary_frames(centers)  # (S, m-1, m)
    dirs = np.concatenate([frames, -frames[:, :1]], axis=1)
    thetas = np.asarray(thetas, dtype=float)[:, None, None]
    pts = np.cos(thetas) * centers[:, None, :] + np.sin(thetas) * dirs
    return pts / np.linalg.norm(pts, axis=2, keepdims=True)


def caps_disjoint(c1: SphericalCap, c2: SphericalCap) -> bool:
    """Whether the closed caps are disjoint."""
    gap = float(np.arccos(np.clip(c1.center @ c2.center, -1.0, 1.0)))
    return gap > c1.theta + c2.theta


def cap_image(g: mobius.MobiusMap, cap: SphericalCap) -> SphericalCap:
    """Image of a cap under g, from a one-row call of cap_images."""
    nu, theta, valid, _ = cap_images(
        mobius.stack_fields([g]), cap.boundary_points()[None], cap.center[None],
        np.array([cap.theta]))
    if not valid[0]:
        raise CapDegenerate(
            f"image cap has angular radius {theta[0]!r} or covers a hemisphere; "
            "family shape bound broken"
        )
    return SphericalCap(center=nu[0], theta=theta[0])


def cap_images(fields, boundary: np.ndarray, centers: np.ndarray,
               thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Image caps of a stack of source caps, cap i under map i of fields.

    boundary holds k >= n+1 boundary probes per cap, (S, k, m), as
    boundary_probes gives them. Blocks of at most SAMPLE_BLOCK probe rows
    map each cap's probes and center by its repeated field row
    (sphere_action_stack, never one row) and are fitted by fit_image_caps,
    so a cap gets the same bits in any stack or split. Returns the fit's
    (centers, thetas, valid), then the mapped source centers, (S, m).
    """
    S, k, m = boundary.shape
    out = (np.empty((S, m)), np.empty(S), np.empty(S, dtype=bool),
           np.empty((S, m)))
    step = max(geom.SAMPLE_BLOCK // (k + 1), 1)
    for lo in range(0, S, step):
        at = slice(lo, lo + step)
        block = tuple(f[at] for f in fields)
        src = np.concatenate([boundary[at], centers[at, None]], axis=1)
        rows = np.repeat(np.arange(len(src)), k + 1)
        P = mobius.sphere_action_stack(tuple(f[rows] for f in block),
                                       src.reshape(-1, m)).reshape(src.shape)
        fit = fit_image_caps(P[:, :-1], P[:, -1], block, centers[at], thetas[at])
        for a, b in zip(out, fit + (P[:, -1],)):
            a[at] = b
    return out


def fit_image_caps(imgs: np.ndarray, c_img: np.ndarray, fields,
                   centers: np.ndarray, src_thetas: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The caps through stacks of mapped boundary probes, one cap per row.

    Row i holds the images of k >= n+1 boundary probes of the source cap
    (centers[i], src_thetas[i]), shape (S, k, m), and of its center, c_img
    (S, m), under the map of row i of the stacked fields. Each row is fitted
    on its own, so a row gets the same bits in any stack. The image
    boundary is a round subsphere: the plane normal is the smallest
    principal direction of the mean-centred probes, oriented toward the
    mapped center, and the circumcenter z solves the equal-distance
    equations with the plane constraint by a batched QR, in coordinates
    scaled by a power of two near the probe spread, so tiny images keep
    their relative accuracy. The cap is centred on z / |z|, a direction
    good to about an ulp (the normal's is good only to ulps over the
    radius), and its angular radius is atan2 of the circumradius and the
    plane offset along the normal. Rows whose probes spread less than 1e-14, or whose system is
    rank-deficient, take the first-order image: the mapped center, with the
    radius scaled by the derivative. Returns (centers, thetas, valid); rows
    whose image is degenerate (at least a hemisphere) are flagged invalid.
    """
    S, k, m = imgs.shape
    mean = imgs.mean(axis=1)
    spread = imgs - mean[:, None, :]
    scale = np.linalg.norm(spread, axis=2).max(axis=1)
    rows = np.flatnonzero(scale >= 1e-14)
    _, _, Vt = np.linalg.svd(spread[rows], full_matrices=False)
    nu = Vt[:, -1, :]
    nu[(c_img[rows] * nu).sum(axis=1) < 0] *= -1.0
    h = (imgs[rows] * nu[:, None, :]).sum(axis=2).mean(axis=1)
    # |q_j - x|^2 = |q_0 - x|^2 for every probe j, and x in the plane
    e = np.frexp(scale[rows])[1]
    q = np.ldexp(spread[rows], -e[:, None, None])
    sq = (q * q).sum(axis=2)
    A = np.concatenate([q[:, 1:] - q[:, :1], nu[:, None, :]], axis=1)
    b = np.concatenate([0.5 * (sq[:, 1:] - sq[:, :1]), np.zeros((rows.size, 1))],
                       axis=1)
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    full = diag.min(axis=1) > diag.max(axis=1) * k * np.finfo(float).eps
    rows, nu, h, e, q, Q, R, b = (a[full] for a in (rows, nu, h, e, q, Q, R, b))
    y = (Q * b[:, :, None]).sum(axis=1)
    x = np.zeros_like(y)
    for j in range(m - 1, -1, -1):  # back substitution in R x = Q^T b
        x[:, j] = (y[:, j] - (R[:, j, j + 1:] * x[:, j + 1:]).sum(axis=1)) / R[:, j, j]
    r_c = np.ldexp(np.linalg.norm(q - x[:, None, :], axis=2).mean(axis=1), e)
    z = mean[rows] + np.ldexp(x, e[:, None])
    out_centers = c_img.copy()
    out_centers[rows] = z / np.linalg.norm(z, axis=1, keepdims=True)
    out_thetas = np.empty(S)
    out_thetas[rows] = np.arctan2(r_c, h)
    first = np.ones(S, dtype=bool)
    first[rows] = False
    first = np.flatnonzero(first)
    if first.size:
        out_thetas[first] = src_thetas[first] * mobius.deriv_sphere_rows(
            tuple(f[first] for f in fields), *unembed_rows(centers[first]))
    valid = (out_thetas > 0.0) & (out_thetas < CAP_MAX_ANGLE)
    # a mapped center below the plane: the image covers more than a hemisphere
    valid[rows] &= (c_img[rows] * nu).sum(axis=1) >= h - 1e-9
    return out_centers, out_thetas, valid


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
