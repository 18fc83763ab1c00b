"""Limit-set sampling, distance queries, box-counting dimension, spectral bottom.

The limit set is represented by a finite point cloud on S^n. For schottky
presentations the sampling is certified: every sample is the image of a
defining-cap center under a full-length reduced word and lies in the
corresponding nested cap, so every true limit point is within the largest
nested-cap diameter (the resolution) of some sample. Distance queries return
a (lower, upper) interval that downstream bounds propagate worst-case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mobius
from .geom import ExtPoint, SpherePoint, chord_from_angle, embed_ext
from .group import FitResult, GroupPresentation, TAG_CYCLIC, TAG_SCHOTTKY, _slope_fit
from .mobius import sphere_action_rows


class UncertifiedDistance(RuntimeError):
    """Query point sits inside the resolution band of the cloud."""


class EmptyScaleWindow(RuntimeError):
    """No valid scales between the resolution and the cloud diameter."""


def kdtree(points: np.ndarray):
    """A cKDTree of the rows, for nearest-neighbour and mixed-radius queries.

    The only import of scipy.spatial, made on the first call, so a run that
    asks fixed-radius questions only never loads SciPy.
    """
    from scipy.spatial import cKDTree

    return cKDTree(points)


# Relative widening of a sweep window. A pair whose squared distance rounds
# to at most r^2 differs along the axis by at most r (1 + 3u) (u = eps / 2),
# and the window ends x -+ w are rounded once more; the absolute pad covers
# that last rounding and r = 0. Every candidate is confirmed exactly.
_WINDOW_SLACK = 1e-9


def _sq_dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise sum((p - q)^2), summed in the order a kd-tree sums it."""
    d = P - Q
    return np.add.reduce(d * d, axis=1)


class _Sweep:
    """Rows sorted along their coordinate of largest extent.

    window(x, r) gives, for values x on that axis, the sorted positions
    [lo, hi) of the rows whose axis coordinate lies within about r of x:
    every row within chordal distance r of a query is inside its window.
    """

    def __init__(self, points: np.ndarray):
        self.axis = int(np.argmax(np.ptp(points, axis=0))) if len(points) else 0
        self.order = np.argsort(points[:, self.axis], kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(points))
        self.points = points[self.order]
        self.keys = np.ascontiguousarray(self.points[:, self.axis])
        top = float(np.abs(self.keys).max()) if len(points) else 0.0
        self._pad = 4.0 * np.finfo(float).eps * max(1.0, top)

    def window(self, x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        w = r * (1.0 + _WINDOW_SLACK) + self._pad
        return (np.searchsorted(self.keys, x - w, "left"),
                np.searchsorted(self.keys, x + w, "right"))

    def pairs(self, Q: np.ndarray, r: float, later: bool = False,
              budget: int = 1 << 20):
        """(row of Q, sorted position, squared distance) arrays of every
        candidate in the windows of the rows of Q, in chunks of whole windows
        of about budget pairs. With later, Q is self.points and each row is
        paired with the rows after it only.
        """
        lo, hi = self.window(Q[:, self.axis], r)
        if later:
            lo = np.arange(1, len(Q) + 1)
        counts = np.maximum(hi - lo, 0)
        ends = np.cumsum(counts)
        start = 0
        while start < len(Q):
            done = int(ends[start - 1]) if start else 0
            stop = max(int(np.searchsorted(ends, done + budget, "right")),
                       start + 1)
            c = counts[start:stop]
            i = np.repeat(np.arange(start, stop), c)
            # pair k of the chunk is lo_i + k - (the chunk's first pair of i)
            j = np.arange(i.size) + np.repeat(
                lo[start:stop] - (ends[start:stop] - c - done), c)
            yield i, j, _sq_dist(self.points[j], Q[i])
            start = stop


@dataclass(frozen=True)
class LimitSetCloud:
    """Finite sample of a limit set.

    resolution is the certified covering radius (None when the sampling
    carries no certificate); warnings records degeneracies such as elementary
    groups with fewer than three limit points. Fixed-radius queries go
    through the sweep, the samples sorted along one axis; nearest queries go
    through a kd-tree. Both are built on first use.
    """

    n: int
    points: np.ndarray
    depth: int
    resolution: float | None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)

    @cached_property
    def tree(self):
        """kd-tree of the samples (None for an empty cloud)."""
        return kdtree(self.points) if self.size else None

    @cached_property
    def sweep(self) -> _Sweep:
        """The samples sorted along one axis, for fixed-radius queries."""
        return _Sweep(self.points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def certified(self) -> bool:
        return self.resolution is not None

    def diameter(self) -> float:
        if self.size < 2:
            return 0.0
        # exact for modest clouds; the hull extremes dominate anyway
        sub = self.points
        if self.size > 4000:
            sub = self.points[:: self.size // 4000 + 1]
        # The Gram form |u|^2 + |v|^2 - 2 u.v, in 256-row blocks, is off the
        # squared distance by a few ulps of max |u|^2, far below tol, so the
        # farthest pair screens within tol of its block's maximum. The
        # difference formula on those pairs gives the bits it gives on all.
        sq = np.einsum("ij,ij->i", sub, sub)
        tol = 4e-12 * sq.max()
        pairs = []
        for i in range(0, sub.shape[0], 256):
            g = sub[i:i + 256] @ sub.T
            g *= -2.0
            g += sq[None, :]
            g += sq[i:i + 256, None]
            rows, cols = np.nonzero(g >= g.max() - tol)
            pairs.append((rows + i, cols))
        u, v = (np.concatenate(ix) for ix in zip(*pairs))
        return float(np.sqrt(np.max(np.sum((sub[u] - sub[v]) ** 2, axis=-1))))

    def nearest(self, U: np.ndarray) -> np.ndarray:
        """Chordal distance from unit rows to the nearest sample."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        d, _ = self.tree.query(U)
        return d


@dataclass(frozen=True)
class DistInterval:
    lower: float
    upper: float
    certified: bool


def dist_to_limit_set(x, L: LimitSetCloud) -> DistInterval:
    """Chordal distance interval from x to the true limit set.

    upper is the distance to the nearest sample; lower subtracts the
    certified resolution (0 with an uncertified flag otherwise).
    """
    if L.size == 0:
        raise ValueError("empty cloud")
    if isinstance(x, ExtPoint):
        v = embed_ext(x)
    elif isinstance(x, SpherePoint):
        v = x.vec
    else:
        v = np.asarray(x, dtype=float)
    upper = float(L.nearest(v[None, :])[0])
    if L.certified:
        return DistInterval(max(0.0, upper - L.resolution), upper, True)
    return DistInterval(0.0, upper, False)


def dist_rows(U: np.ndarray, L: LimitSetCloud) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) distance arrays for unit rows."""
    upper = L.nearest(U)
    if L.certified:
        return np.maximum(0.0, upper - L.resolution), upper
    return np.zeros_like(upper), upper


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_limit_set(G: GroupPresentation, depth: int,
                     seeds: tuple[ExtPoint, ...] = ()) -> LimitSetCloud:
    """Point cloud approximating the limit set at the given word depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if G.tag == TAG_SCHOTTKY:
        return _sample_schottky(G, depth)
    if G.tag == TAG_CYCLIC:
        return _sample_cyclic(G, depth)
    if not seeds:
        raise ValueError("custom groups need at least one seed point")
    return _sample_custom(G, depth, seeds)


def _sample_schottky(G: GroupPresentation, depth: int) -> LimitSetCloud:
    """One sample per reduced word of length depth: the image of its last
    letter's target-cap center under the rest of the word.

    The certified resolution is the largest nested-cap diameter, floored at
    a bound on the float error of the unit sample rows. Each row is the
    embedding (2y, |y|^2 - 1) / (1 + |y|^2) of a computed point y of R^n.
    With unit round-off u = eps / 2 (eps = np.finfo(float).eps), |y|^2
    carries a relative error of at most n u. As every coordinate is at most
    1 in size, each of the first n, 2 y_i / (1 + |y|^2), is then off by at
    most (n + 2) u and the last, (|y|^2 - 1) / (|y|^2 + 1), by at most
    (n / 2 + 3) u. The row is thus within sqrt(n + 1) (n + 3) u of the
    embedding of y, 9.6e-16 for n = 2. A nested cap smaller than that
    cannot be resolved by the rows, so a resolution below it is not
    claimed. The floor covers the last step only: on the reference group,
    samples computed by composing the word and by applying its letters one
    at a time differ by up to 4.4e-16 at depths 6 to 8.

    The samples are the points of G.word_tree.nested_caps(depth), mapped
    there once with the caps; the tree composes words up to length
    depth - 1 only.
    """
    _, thetas, pts = G.word_tree.nested_caps(depth)
    max_diam = float(np.max(chord_from_angle(2.0 * thetas)))
    round_off = np.sqrt(G.n + 1) * (G.n + 3) * np.finfo(float).eps / 2
    return LimitSetCloud(
        n=G.n, points=pts, depth=depth,
        resolution=max(max_diam, float(round_off)),
    )


def _fixed_points_on_sphere(g: mobius.MobiusMap) -> list[np.ndarray]:
    kind = mobius.classify(g)
    if kind == "identity":
        return []
    north = np.zeros(g.n + 1)
    north[-1] = 1.0
    if g.eps == 0:
        if abs(g.r - 1.0) > 1e-12:
            x = np.linalg.solve(np.eye(g.n) - g.r * g.A, g.b)
            return [embed_ext(ExtPoint.finite(x)), north]
        if kind == "parabolic":
            return [north]
        return []  # elliptic isometries of R^n have no sphere limit points
    if kind == "elliptic":
        return []
    pts = []
    for h in (g, mobius.inverse(g)):
        u = np.eye(g.n + 1)[:1]
        for _ in range(2000):
            nxt = sphere_action_rows(h, u)
            if np.linalg.norm(nxt - u) < 1e-15:
                u = nxt
                break
            u = nxt
        pts.append(u[0])
    if kind == "parabolic" or np.linalg.norm(pts[0] - pts[1]) < 1e-9:
        return [pts[0]]
    return pts


def _sample_cyclic(G: GroupPresentation, depth: int) -> LimitSetCloud:
    pts = _fixed_points_on_sphere(G.generators[0])
    warnings = ()
    if len(pts) < 3:
        warnings = (f"elementary group with {len(pts)} limit points",)
    return LimitSetCloud(
        n=G.n,
        points=np.array(pts).reshape(len(pts), G.n + 1),
        depth=depth,
        resolution=0.0 if pts else None,
        warnings=warnings,
    )


def _sample_custom(G: GroupPresentation, depth: int,
                   seeds: tuple[ExtPoint, ...]) -> LimitSetCloud:
    """Images of the seeds under every reduced word of length depth."""
    seed_rows = np.array([embed_ext(p) for p in seeds])
    level = G.word_tree.level(depth)
    rows = np.repeat(np.arange(len(level)), len(seed_rows))
    pts = mobius.sphere_action_stack(tuple(f[rows] for f in level.fields),
                                     np.tile(seed_rows, (len(level), 1)))
    pts = _dedup_rows(pts, 1e-12)
    return LimitSetCloud(n=G.n, points=pts, depth=depth, resolution=None)


def _dedup_rows(pts: np.ndarray, tol: float) -> np.ndarray:
    """The rows without the later row of every pair within tol."""
    sw = _Sweep(pts)
    drop = np.zeros(len(pts), dtype=bool)
    for s, t, d2 in sw.pairs(sw.points, tol, later=True):
        near = d2 <= tol * tol
        drop[np.maximum(sw.order[s[near]], sw.order[t[near]])] = True
    return pts[~drop]


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------

def greedy_net_count(L: LimitSetCloud, scale: float) -> int:
    """Size of the greedy chordal net at the given scale (deterministic).

    The samples are visited in order; each one not yet covered opens a ball
    that covers every sample p with sum((p - q)^2) <= scale^2.
    """
    sw = L.sweep
    lo, hi = (x.tolist() for x in sw.window(sw.keys, scale))
    r2 = scale * scale
    # by sorted position; a bytearray reads faster one item at a time
    covered = bytearray(L.size)
    cover = np.frombuffer(covered, dtype=bool)
    count = 0
    for s in sw.rank.tolist():
        if covered[s]:
            continue
        count += 1
        a, b = lo[s], hi[s]
        cover[a:b] |= _sq_dist(sw.points[a:b], sw.points[s]) <= r2
    return count


def default_scale_grid(L: LimitSetCloud, levels: int = 24) -> np.ndarray:
    hi = L.diameter() / 4.0
    if hi <= 0:
        raise EmptyScaleWindow("cloud has no extent")
    if L.certified and L.resolution > 0:
        lo = 4.0 * L.resolution
    elif L.certified:
        lo = hi * 1e-3  # exact point cloud; counts saturate immediately
    else:
        gaps, _ = L.tree.query(L.points, k=2)
        lo = 4.0 * float(np.quantile(gaps[:, 1], 0.95))
    if lo >= hi:
        raise EmptyScaleWindow(f"no scales between {lo} and {hi}")
    return np.geomspace(hi, lo, levels)


def box_dimension(L: LimitSetCloud, scale_grid: np.ndarray | None = None
                  ) -> FitResult:
    """Box-counting estimate: slope of log(net count) against log(1/scale)."""
    if L.size < 2:
        raise ValueError("need at least two distinct points")
    if scale_grid is None:
        scales = default_scale_grid(L)
    else:
        scales = np.asarray(scale_grid, dtype=float)
        if scales.size == 0:
            raise EmptyScaleWindow("empty scale grid")
    counts = np.array([greedy_net_count(L, s) for s in scales], dtype=float)
    slope, se = _slope_fit(np.log(1.0 / scales), np.log(counts))
    return FitResult(
        estimate=slope,
        stderr=se,
        diagnostics={
            "scales": scales.tolist(),
            "counts": counts.tolist(),
            "certified": L.certified,
            "resolution": L.resolution,
        },
    )


# ---------------------------------------------------------------------------
# spectral bottom and distortion
# ---------------------------------------------------------------------------

def sullivan_lambda0(delta: float, n: int) -> float:
    """Bottom of the spectrum from the exponent: (n/2)^2 below n/2, else delta(n-delta)."""
    if not 0.0 <= delta <= n:
        raise ValueError(f"exponent {delta} outside [0, {n}]")
    if delta <= n / 2.0:
        return (n / 2.0) ** 2
    return delta * (n - delta)


def distortion_ratio(G: GroupPresentation, x: ExtPoint, g: mobius.MobiusMap,
                     L: LimitSetCloud) -> float:
    """|g'(x)|_s dist(x, L) / dist(g x, L), with sample-cloud distances."""
    band = L.resolution if L.certified else 0.0
    d_x = dist_to_limit_set(x, L)
    if d_x.upper <= band:
        raise UncertifiedDistance("x sits inside the cloud resolution band")
    gx = mobius.apply(g, x)
    d_gx = dist_to_limit_set(gx, L)
    if d_gx.upper <= 0.0:
        raise UncertifiedDistance("g x collides with the cloud")
    return float(mobius.deriv_sphere(g, x) * d_x.upper / d_gx.upper)


def export_csv(L: LimitSetCloud, path) -> None:
    """Unit-vector rows with a header, stable byte-for-byte for a fixed cloud."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(L.points.shape[1])])
        for row in L.points:
            writer.writerow([repr(float(v)) for v in row])
