"""Spherical caps on S^n and their images under conformal maps.

A cap is stored by its unit-vector center and angular radius. Conformal maps
send caps to caps; the image cap is recovered from n+1 boundary probes, which
lie on an affine hyperplane of R^{n+1} (the boundary of a cap is a round
subsphere), plus a side disambiguation through the mapped center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mobius
from .geom import chord_from_angle

CAP_MAX_ANGLE = np.pi / 2.0


class CapDegenerate(ValueError):
    """Cap is empty, a point, or at least a hemisphere."""


@dataclass(frozen=True)
class SphericalCap:
    """Cap {p in S^n : angle(p, center) <= theta} with 0 < theta < pi/2."""

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
        m = self.center.size
        # complete the center to an orthonormal basis by QR on [c | I]
        M = np.concatenate([self.center[:, None], np.eye(m)], axis=1)
        Q, _ = np.linalg.qr(M)
        # first column is +-center; the rest spans its complement
        return Q[:, 1:m].T

    def boundary_points(self, count: int | None = None) -> np.ndarray:
        """Points on the cap boundary; defaults to the n+1 probes used for images.

        With count given, spreads points along a circle in the first two frame
        directions (falls back to the two boundary points when n = 1).
        """
        frame = self.boundary_frame()  # (m-1, m)
        if count is None:
            dirs = np.vstack([frame, -frame[0]])
        elif frame.shape[0] == 1:
            dirs = np.vstack([frame[0], -frame[0]])
        else:
            ts = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
            dirs = np.outer(np.cos(ts), frame[0]) + np.outer(np.sin(ts), frame[1])
        pts = np.cos(self.theta) * self.center + np.sin(self.theta) * dirs
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def caps_disjoint(c1: SphericalCap, c2: SphericalCap, margin: float = 0.0) -> bool:
    """Whether the closed caps are disjoint (with optional extra angular margin)."""
    gap = float(np.arccos(np.clip(c1.center @ c2.center, -1.0, 1.0)))
    return gap > c1.theta + c2.theta + margin


def cap_area(cap: SphericalCap) -> float:
    """Surface measure of the cap inside S^n."""
    from scipy.integrate import quad

    from .geom import sphere_area

    n = cap.ambient_dim - 1
    boundary_area = sphere_area(n - 1)
    val, _ = quad(lambda t: np.sin(t) ** (n - 1), 0.0, cap.theta)
    return float(boundary_area * val)


def cap_image(g: mobius.MobiusMap, cap: SphericalCap) -> SphericalCap:
    """Image of a cap under the sphere action of g, again as a cap.

    The image boundary is a round subsphere through n+1 mapped probes; its
    affine hyperplane gives the cap center (the oriented normal) and the
    angular radius comes from atan2(circumradius, offset), which stays
    accurate for both tiny and wide images.
    """
    probes = cap.boundary_points()
    imgs = mobius.sphere_action_rows(g, probes)
    center_img = mobius.sphere_action_rows(g, cap.center[None, :])[0]
    mean = imgs.mean(axis=0)
    spread = imgs - mean
    scale = float(np.max(np.linalg.norm(spread, axis=1)))
    if scale < 1e-14:
        # probes collapse at float precision; first-order image of a tiny cap
        theta = cap.theta * _sphere_deriv_at_unit(g, cap.center)
        if not (0.0 < theta < CAP_MAX_ANGLE):
            raise CapDegenerate("degenerate tiny image cap")
        return SphericalCap(center=center_img, theta=theta)
    # plane normal: smallest principal direction of the centered probes,
    # oriented toward the mapped cap center
    _, _, Vt = np.linalg.svd(spread)
    nu = Vt[-1]
    if center_img @ nu < 0:
        nu = -nu
    h = float(np.mean(imgs @ nu))
    # circumcenter of the image subsphere, solved in mean-centered coordinates
    # so nothing cancels at the O(1) scale for tiny images
    q = spread
    D = q[1:] - q[0]
    rhs = 0.5 * (np.einsum("ij,ij->i", q[1:], q[1:]) - q[0] @ q[0])
    A = np.vstack([D, nu])
    bvec = np.append(rhs, float(h - nu @ mean))
    c_centered, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    r_c = float(np.mean(np.linalg.norm(q - c_centered, axis=1)))
    theta = float(np.arctan2(r_c, h))
    if not (0.0 < theta < CAP_MAX_ANGLE):
        raise CapDegenerate(
            f"image cap has angular radius {theta!r}; family shape bound broken"
        )
    if center_img @ nu < h - 1e-9:
        # mapped center fell outside: the true image covers more than a hemisphere
        raise CapDegenerate("image is the complement of a cap; shape bound broken")
    return SphericalCap(center=nu, theta=theta)


def _sphere_deriv_at_unit(g: mobius.MobiusMap, u: np.ndarray) -> float:
    """Round-metric derivative of the sphere action at a unit vector."""
    from .geom import SpherePoint, stereo_project

    return mobius.deriv_sphere(g, stereo_project(SpherePoint(u)))


def cap_images_batch(g: mobius.MobiusMap, boundary: np.ndarray,
                     centers: np.ndarray, src_thetas: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Image caps of many source caps under one map, vectorized.

    boundary holds k >= n+1 boundary probes per cap, shape (S, k, m);
    centers the cap centers (S, m). Returns (centers, thetas, valid, probes)
    of the image caps, where probes stacks the exactly mapped boundary points
    and mapped center, shape (S, k+1, m), for downstream shape checks. Rows
    whose image is degenerate (at least a hemisphere) are flagged invalid;
    rows whose probes collapse below float resolution fall back to the
    first-order image (mapped center, derivative-scaled radius).
    """
    S, k, m = boundary.shape
    imgs = mobius.sphere_action_rows(g, boundary.reshape(S * k, m)).reshape(S, k, m)
    c_img = mobius.sphere_action_rows(g, centers)
    mean = imgs.mean(axis=1)
    spread = imgs - mean[:, None, :]
    scale = np.linalg.norm(spread, axis=2).max(axis=1)
    tiny = scale < 1e-14
    out_centers = np.empty_like(centers)
    out_thetas = np.empty(S)
    valid = np.ones(S, dtype=bool)
    big = ~tiny
    if np.any(big):
        sp = spread[big]
        _, _, Vt = np.linalg.svd(sp)
        nu = Vt[:, -1, :]
        sign = np.sign(np.einsum("ij,ij->i", c_img[big], nu))
        sign[sign == 0] = 1.0
        nu *= sign[:, None]
        h = np.einsum("ijk,ik->ij", imgs[big], nu).mean(axis=1)
        D = sp[:, 1:, :] - sp[:, :1, :]
        rhs = 0.5 * (
            np.einsum("ijk,ijk->ij", sp[:, 1:, :], sp[:, 1:, :])
            - np.einsum("ik,ik->i", sp[:, 0, :], sp[:, 0, :])[:, None]
        )
        plane_rhs = h - np.einsum("ij,ij->i", nu, mean[big])
        A = np.concatenate([D, nu[:, None, :]], axis=1)
        b = np.concatenate([rhs, plane_rhs[:, None]], axis=1)
        AtA = np.einsum("ijk,ijl->ikl", A, A)
        Atb = np.einsum("ijk,ij->ik", A, b)
        c_cent = _solve_normal_rows(AtA, Atb, A, b)
        r_c = np.linalg.norm(sp - c_cent[:, None, :], axis=2).mean(axis=1)
        theta = np.arctan2(r_c, h)
        side_ok = np.einsum("ij,ij->i", c_img[big], nu) >= h - 1e-9
        out_centers[big] = nu
        out_thetas[big] = theta
        valid[big] = (theta > 0) & (theta < CAP_MAX_ANGLE) & side_ok
    if np.any(tiny):
        for i in np.nonzero(tiny)[0]:
            th = src_thetas[i] * _sphere_deriv_at_unit(g, centers[i])
            out_centers[i] = c_img[i]
            out_thetas[i] = th
            valid[i] = 0.0 < th < CAP_MAX_ANGLE
    probes = np.concatenate([imgs, c_img[:, None, :]], axis=1)
    return out_centers, out_thetas, valid, probes


def _solve_normal_rows(AtA: np.ndarray, Atb: np.ndarray, A: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Row-wise solutions of the normal equations AtA x = Atb, batched.

    A matrix whose LU factorization meets an exact zero pivot (image spreads
    near 1e-12) has determinant exactly 0; its row takes cap_image's
    least-squares fit of A x = b instead. The batched solve treats each
    matrix on its own, so the other rows keep the bits it gives them.
    """
    try:
        return np.linalg.solve(AtA, Atb[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.det(AtA) == 0.0
    out = np.empty_like(Atb)
    ok = ~singular
    out[ok] = np.linalg.solve(AtA[ok], Atb[ok][:, :, None])[:, :, 0]
    for i in np.flatnonzero(singular):
        out[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return out


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
