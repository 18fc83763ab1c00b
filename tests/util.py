"""Shared helpers for the test suite: random maps, points, reference groups,
and the letter-by-letter fundamental-domain walk of a schottky group."""

import numpy as np

from kleinlab import mobius
from kleinlab.caps import SphericalCap
from kleinlab.geom import ExtPoint, SpherePoint, embed_ext, stereo_project
from kleinlab.group import TAG_SCHOTTKY, make_schottky
from kleinlab.limitset import _CHUNK, dist_rows
from kleinlab.mobius import MobiusMap


REFERENCE_THETA = float(2.0 * np.arcsin(0.05))  # caps of chordal radius 0.1


def reference_schottky(theta=REFERENCE_THETA):
    """Rank-2 Schottky group: four equatorial caps paired across the sphere.

    Matches groups/reference_schottky.json so test margins measure the same
    configuration the CLI pipelines run on.
    """
    centers = np.array([
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
    ])
    c = [SphericalCap(center=v, theta=theta) for v in centers]
    return make_schottky([(c[0], c[1]), (c[2], c[3])])


# row counts at the edges of limitset.pair_blocks, the first past one block
# for each: with step = _CHUNK // m rows a block, m = k step (a full last
# block), k step + 1 (the last row a column only), k step + 2, k step - 1
BLOCK_EDGES = [next(m for m in range(257, 2000)
                    if m % (_CHUNK // m) == r % (_CHUNK // m))
               for r in (0, 1, 2, -1)]


def level_children(tree, d):
    """(parent word, last letter) of each word of level d of a WordTree."""
    lv, up = tree.level(d), tree.level(d - 1)
    return [(up[int(p)], int(s)) for p, s in zip(lv.parent, lv.letter)]


def random_orthogonal(rng, n):
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def random_mobius(rng, n, inverting=None):
    """A generic normal-form map; scales kept moderate to avoid overflow in chains."""
    eps = int(rng.integers(0, 2)) if inverting is None else int(inverting)
    a = rng.normal(0.0, 1.0, n) if eps else np.zeros(n)
    r = float(np.exp(rng.normal(0.0, 0.7)))
    A = random_orthogonal(rng, n)
    b = rng.normal(0.0, 1.0, n)
    return MobiusMap(n, eps, a, r, A, b)


def random_point_off_pole(rng, g, min_gap=0.1):
    """A finite point staying min_gap away from the pole of g (if any)."""
    while True:
        x = rng.normal(0.0, 1.5, g.n)
        if g.eps == 0 or np.linalg.norm(x - g.a) > min_gap:
            return x


def random_ball_point(rng, m, rmax=0.95):
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    return v * rmax * rng.uniform(0.0, 1.0) ** (1.0 / m)


class LocatorFailed(RuntimeError):
    """Fundamental-domain walk did not terminate."""


def locate_in_domain(G, u: np.ndarray, max_steps: int = 200
                     ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Walk a sphere point into the schottky fundamental region.

    Repeatedly applies the escape letter of whichever defining cap contains
    the point. Returns the landed point and the applied letters (so the
    composite map delta with delta(u) in the region is their product).
    """
    if G.tag != TAG_SCHOTTKY:
        raise ValueError("domain locator requires a schottky presentation")
    letters: list[int] = []
    point = np.asarray(u, dtype=float).copy()
    for _ in range(max_steps):
        inside = None
        for idx, cap in enumerate(G.ball_caps):
            if cap.contains(point[None, :])[0]:
                inside = idx
                break
        if inside is None:
            return point, tuple(letters)
        gen = inside // 2
        s = (gen + 1) if inside % 2 == 0 else -(gen + 1)
        point = mobius.sphere_action_rows(G.letter(s), point[None, :])[0]
        letters.append(s)
    raise LocatorFailed(f"no fundamental-domain landing in {max_steps} steps")


def equivariant_extend(u0, G, x, max_steps: int = 200
                       ) -> tuple[float, tuple[int, ...]]:
    """Extend a fundamental-domain conformal factor to x by equivariance.

    With delta the locator word (delta x = y in the domain), the invariance
    law e^{u(x)} = e^{u(delta x)} |delta'(x)|_s defines the value; ties on
    domain boundaries are broken by the locator's deterministic cap order.
    u0 maps a sphere unit vector in the domain to the factor there.
    """
    if isinstance(x, SpherePoint):
        u = x.vec
    elif isinstance(x, ExtPoint):
        u = embed_ext(x)
    else:
        u = np.asarray(x, dtype=float)
    y, letters = locate_in_domain(G, u, max_steps=max_steps)
    delta = mobius.identity(G.n)
    for s in letters:
        delta = mobius.compose(G.letter(s), delta)
    ds = mobius.deriv_sphere(delta, stereo_project(SpherePoint(u / np.linalg.norm(u))))
    return float(u0(y) * ds), tuple(letters)


def extension_band(u0, G, cloud,
                   samples: np.ndarray) -> np.ndarray:
    """e^{u(x)} dist(x, cloud) over sample rows (the two-sided band data)."""
    vals = []
    _, upper = dist_rows(samples, cloud)
    for row, up in zip(samples, upper):
        if up <= (cloud.resolution or 0.0):
            continue
        val, _ = equivariant_extend(u0, G, row)
        vals.append(val * up)
    return np.array(vals)


def brute_sq(Q, P):
    """Every squared distance sum((q - p)^2), summed one column at a time
    from the left, the reference order, shape (len(Q), len(P))."""
    D = Q[:, None, :] - P[None, :, :]
    s = D[..., 0] * D[..., 0]
    for k in range(1, D.shape[2]):
        s = s + D[..., k] * D[..., k]
    return s


def boundary_frame(cap: SphericalCap) -> np.ndarray:
    """Orthonormal basis of the complement of a cap's center, (m-1, m): the
    last m-1 columns of the QR of [c | I]."""
    m = cap.center.size
    Q, _ = np.linalg.qr(np.concatenate([cap.center[:, None], np.eye(m)], axis=1))
    return Q[:, 1:m].T


def scalar_boundary_points(cap: SphericalCap) -> np.ndarray:
    """n+1 points on the boundary of one cap: angle theta from the center
    toward the boundary_frame directions and the negated first one. They
    span the boundary's hyperplane in any n."""
    frame = boundary_frame(cap)
    dirs = np.vstack([frame, -frame[0]])
    pts = np.cos(cap.theta) * cap.center + np.sin(cap.theta) * dirs
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def rim_points(cap: SphericalCap, rng, count: int) -> np.ndarray:
    """count random points on the boundary subsphere of a cap, in any n:
    angle theta from the center toward random unit directions of the
    center's complement."""
    dirs = rng.standard_normal((count, cap.center.size - 1)) @ boundary_frame(cap)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.cos(cap.theta) * cap.center + np.sin(cap.theta) * dirs


def poisson_kernel(x, y) -> float:
    """k(x, y) = (1 - |x|^2) / |x - y|^2 for y on the boundary sphere."""
    yv = np.asarray(y.vec if hasattr(y, "vec") else y, dtype=float)
    num = 1.0 - float(x.vec @ x.vec)
    den = float(np.sum((x.vec - yv) ** 2))
    return num / den


def poisson_kernel_rows(x, Y: np.ndarray) -> np.ndarray:
    Y = np.atleast_2d(Y)
    num = 1.0 - float(x.vec @ x.vec)
    den = np.einsum("ij,ij->i", Y - x.vec, Y - x.vec)
    return num / den


def dome_entry_radius(cap: SphericalCap, x):
    """Radius where the ray through x first meets the dome over cap, else None.

    The dome is the sphere of center c/cos(theta) and radius tan(theta); the
    entry radius solves t^2 - 2 t d + 1 = 0 with d = (x . c)/cos(theta), so
    t = d - sqrt(d^2 - 1) whenever d >= 1 (the ray through the closed cap).
    """
    u = x.vec if isinstance(x, SpherePoint) else np.asarray(x, float)
    d = float(u @ cap.center) / np.cos(cap.theta)
    if d < 1.0:
        return None
    return float(d - np.sqrt(d * d - 1.0))
