"""Limit-set sampling, distance queries, box-counting dimension, spectral bottom.

The limit set is represented by a finite point cloud on S^n. For schottky
presentations the sampling is certified: every sample is the image of a
defining-cap center under a full-length reduced word and lies in the
corresponding nested cap, so every true limit point is within the largest
nested-cap diameter (the resolution) of some sample. Distance queries return
a (lower, upper) interval that downstream bounds propagate worst-case.

The box count reads exact values from pruned searches. greedy_net_counts
builds the nets of all its scales in one pass over the samples; each ball's
candidates come from a sweep window that holds every sample within the
largest of its radii, so every net equals the one a pass per scale gives.
PointIndex.diameter compares only the kd-tree leaf pairs whose box bound
exceeds the best pair so far; rounding is monotone, so no pair it skips
computes a larger distance than the bound, and the result has the bits of
the all-pairs maximum.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geom, mobius
from .geom import chord_from_angle, embed_rows
from .group import FitResult, GroupPresentation, TAG_CYCLIC, TAG_SCHOTTKY, _slope_fit


class UncertifiedDistance(RuntimeError):
    """Query point sits inside the resolution band of the cloud."""


class EmptyScaleWindow(RuntimeError):
    """No valid scales between the resolution and the cloud diameter."""


# Relative widening of a sweep window or column. A pair whose squared
# distance rounds to at most r^2 differs along an axis by at most r (1 + 3u)
# (u = eps / 2), and the window ends x -+ w, or the column coordinates, are
# rounded once more; the absolute pad covers that rounding and r = 0. Every
# candidate is confirmed exactly.
_WINDOW_SLACK = 1e-9

# Candidate pairs are confirmed, and nearest-neighbour candidates ranked,
# about this many at a time.
_CHUNK = 1 << 16


def _sq_dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise sum((p - q)^2), summed one coordinate column at a time, left
    to right: the order a kd-tree sums it in."""
    d = P - Q
    d *= d
    s = d[:, 0].copy()
    for k in range(1, d.shape[1]):
        s += d[:, k]
    return s


def _sq_dist_cols(P, Q) -> np.ndarray:
    """sum((p - q)^2) from the coordinate columns P[k] and Q[k], broadcast
    against each other and summed left to right, as by _sq_dist."""
    s = None
    for p, q in zip(P, Q):
        d = p - q
        d *= d
        if s is None:
            s = d
        else:
            s += d
    return s


def pair_blocks(P: np.ndarray):
    """(a, s) blocks of about _CHUNK pairs, s[r, c] the squared distance of
    rows a + r and a + c of P, every pair i < j in one block; columns are
    summed left to right, as by _sq_dist and np.linalg.norm (<= 7 columns)."""
    C = np.asarray(P, dtype=float).T.copy()  # contiguous columns
    m = C.shape[1]
    step = max(1, _CHUNK // max(m, 1))
    for a in range(0, m - 1, step):
        yield a, _sq_dist_cols(C[:, a:a + step, None], C[:, None, a:])


def _sq_dist_at(P: np.ndarray, p, Q: np.ndarray, q) -> np.ndarray:
    """_sq_dist(P[p], Q[q]) with the same bits, from one gather per column,
    several times faster than gathering rows."""
    d = P[:, 0][p] - Q[:, 0][q]
    s = d * d
    for k in range(1, P.shape[1]):
        d = P[:, k][p] - Q[:, k][q]
        d *= d
        s += d
    return s


def _windows(lo: np.ndarray, hi: np.ndarray):
    """(query, position) arrays of every position in [lo[i], hi[i]) of every
    query i, in chunks of whole windows of about _CHUNK pairs."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    start = 0
    while start < len(lo):
        done = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, done + _CHUNK, "right")),
                   start + 1)
        c = counts[start:stop]
        i = np.repeat(np.arange(start, stop), c)
        # pair k of the chunk is lo_i + k - (the chunk's first pair of i)
        j = np.arange(i.size) + np.repeat(
            lo[start:stop] - (ends[start:stop] - c - done), c)
        yield i, j
        start = stop


class Sweep:
    """Rows sorted along their coordinate of largest extent, in columns.

    With side inf the rows form one column. With a finite side the other
    coordinates are cut into square columns of at least that side (wider
    where the int64 keys would overflow), and each row is entered in the
    3^(m-1) columns around its own. Within a column the entries are sorted
    along the sweep axis. window(X, r) gives, for query rows X, the sorted
    positions [lo, hi) of the entries of the row's own column whose axis
    coordinate lies within about r of the row's: for r up to the side, every
    row within chordal distance r of a query is inside its window, once.
    """

    def __init__(self, points: np.ndarray, side: float = np.inf):
        points = np.ascontiguousarray(points, dtype=float)
        M, m = points.shape
        self.axis = int(np.argmax(np.ptp(points, axis=0))) if M else 0
        top = float(np.abs(points).max()) if M else 0.0
        self._pad = 16.0 * np.finfo(float).eps * max(1.0, top)
        self._across = [a for a in range(m) if a != self.axis]
        shape = []
        if np.isfinite(side) and M:
            Y = points[:, self._across]
            self._lo = Y.min(axis=0)
            span = Y.max(axis=0) - self._lo
            self._side = side * (1.0 + _WINDOW_SLACK) + self._pad
            while True:
                # columns 1 .. n-2 hold rows; 0 and n-1 are the margins around
                shape = [int(s // self._side) + 3 for s in span]
                if np.prod([float(n) for n in shape]) < 2.0 ** 42:
                    break
                self._side *= 2.0  # coarser columns, more candidates
        self._shape = np.array(shape, dtype=np.int64)
        self._strides = np.cumprod([1] + shape[:-1]).astype(np.int64)
        # key = column * 2^bits + bin of the axis coordinate. A bin is a
        # power of two, so the bins keep every distinction of x - x0 that fits
        # in bits (52 keep all: the bins are then as fine as the floats)
        bits = min(52, 62 - int(np.prod(shape, dtype=np.int64)).bit_length())
        self._nx = 1 << bits
        x = points[:, self.axis]
        self._x0 = float(x.min()) if M else 0.0
        self._x1 = float(x.max()) if M else 0.0
        span = self._x1 - self._x0
        self._scale = 2.0 ** (bits - np.frexp(span)[1])  # 1 / bin
        col = self._columns(points)
        offsets = np.zeros(1, dtype=np.int64)
        if shape:
            grid = np.meshgrid(*[[-1, 0, 1]] * len(shape), indexing="ij")
            offsets = sum(g.ravel() * s for g, s in zip(grid, self._strides))
        keys = ((col[:, None] + offsets) * self._nx
                + self._bins(x)[:, None]).ravel()
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.ids = order // len(offsets)  # the row of each entry
        self.points = points[self.ids]

    def _columns(self, X: np.ndarray) -> np.ndarray:
        """Key of each row's own column, -1 outside the columns."""
        if not self._shape.size:
            return np.zeros(len(X), dtype=np.int64)
        c = np.floor((X[:, self._across] - self._lo) / self._side) + 1.0
        inside = np.all((c >= 0.0) & (c < self._shape), axis=1)
        c = c.astype(np.int64)
        key = c[:, 0] * self._strides[0]
        for a in range(1, len(self._strides)):
            key += c[:, a] * self._strides[a]
        key[~inside] = -1
        return key

    def _bins(self, x: np.ndarray) -> np.ndarray:
        b = x - self._x0
        b *= self._scale
        np.clip(b, 0.0, self._nx - 1, out=b)
        return np.floor(b, out=b).astype(np.int64)

    def window(self, X: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions [lo, hi) of the entries in each row's window;
        an empty one (hi == lo) for a row outside the columns or whose axis
        coordinate lies more than w (about r) beyond the entries' range,
        where the clipped end bin would give it every entry tied at that
        end of the axis."""
        w = r * (1.0 + _WINDOW_SLACK) + self._pad
        below, above = X[:, self.axis] - w, X[:, self.axis] + w
        lo, hi = self._bins(below), self._bins(above)
        beyond = (above < self._x0) | (below > self._x1)
        if not self._shape.size:
            lo = np.searchsorted(self.keys, lo, "left")
            return lo, np.where(beyond, lo, np.searchsorted(self.keys, hi, "right"))
        col = self._columns(X)
        col[beyond] = -1
        lo += col * self._nx
        hi += col * self._nx
        # sorted needles make the binary searches several times cheaper
        order = np.argsort(lo)
        out = np.empty((2, len(X)), dtype=np.intp)
        out[0, order] = np.searchsorted(self.keys, lo[order], "left")
        out[1, order] = np.searchsorted(self.keys, hi[order], "right")
        return out[0], np.where(col < 0, out[0], out[1])

    def pairs(self, Q: np.ndarray, r: float):
        """(row of Q, sorted position, squared distance) arrays of every
        candidate in the windows of the rows of Q, in chunks of whole
        windows (_windows).
        """
        for i, j in _windows(*self.window(Q, r)):
            yield i, j, _sq_dist_at(self.points, j, Q, i)

    def screen(self, r: float):
        """near(X): True for every row of X with an entry within chordal
        distance r, and for some rows without one; a few gathers a row.

        Each coordinate axis is cut into cells at least twice the window
        half-width w wide, at most min(2^16, 4M + 16) of them, and each
        entry marks its own cell and both neighbours on every axis. A row
        within r of an entry is within w of it along every axis, so it lies
        in a cell next to one of the entry's on each, and pairs(X[near(X)], r)
        yields every pair that pairs(X, r) yields within distance r. The
        axes are tested in turn, each on the rows that passed the ones
        before: the other axes first, those whose marked cells reach least
        first, and the sweep axis last, so a row next to an end of the sweep
        axis but far from every entry across it stops early.
        """
        w = r * (1.0 + _WINDOW_SLACK) + self._pad
        axes = [_AxisCells(x, w) for x in self.points.T]
        a0, *rest = sorted(self._across, key=lambda a: axes[a].reach) + [self.axis]

        def near(X):
            rows = np.flatnonzero(axes[a0].marked_at(X[:, a0]))
            for a in rest:
                rows = rows[axes[a].marked_at(X[rows, a])]
            out = np.zeros(len(X), dtype=bool)
            out[rows] = True
            return out

        return near


class _AxisCells:
    """The cells of one coordinate axis, at least 2w wide and at most
    min(2^16, 4M + 16) of them, that hold or neighbour an entry."""

    def __init__(self, x: np.ndarray, w: float):
        self.x0 = float(x.min()) if len(x) else 0.0
        span = float(x.max()) - self.x0 if len(x) else 0.0
        self.width = max(2.0 * w, span / min(2 ** 16, 4 * len(x) + 16))
        self.last = int(span / self.width) + 2  # cells 2 .. last hold the entries
        self.marked = np.zeros(self.last + 3, dtype=bool)
        own = self.cells(x)
        for step in (-1, 0, 1):
            self.marked[own + step] = True
        self.reach = np.count_nonzero(self.marked) * self.width

    def cells(self, v: np.ndarray) -> np.ndarray:
        # every row beyond the cells next to the entries' goes to the
        # unmarked end cells 0 and last + 2
        c = v - self.x0
        c /= self.width
        np.clip(c, -2.0, self.last, out=c)
        return np.floor(c, out=c).astype(np.intp) + 2

    def marked_at(self, v: np.ndarray) -> np.ndarray:
        # mode="clip" keeps the cast of a NaN row inside the array
        return self.marked.take(self.cells(v), mode="clip")


# Most points in a leaf of a PointIndex, as in a kd-tree.
_LEAF = 16


class PointIndex:
    """Nearest-neighbour queries on the rows of points: a kd-tree, searched
    one level at a time for a block of geom.ROW_BLOCK rows.

    Every node with more than _LEAF points is halved along the widest axis
    of its box. A row first descends to one leaf through the nearer child at
    every level; the k-th smallest distance to that leaf's points bounds its
    k-th nearest distance. It then keeps, level by level, the nodes whose
    box comes within the bound, and compares the points of the kept leaves.
    Distances are sum((q - p)^2), summed as _sq_dist sums it, so they carry
    a kd-tree's bits; ties go to the lower index.
    """

    def __init__(self, points: np.ndarray):
        P = np.ascontiguousarray(points, dtype=float)
        M = len(P)
        order = np.arange(M)
        levels = [np.array([0, M] if M else [0])]
        while True:
            starts = levels[-1]
            counts = np.diff(starts)
            big = counts > _LEAF
            if not big.any():
                break
            X = P[order]
            lo = np.minimum.reduceat(X, starts[:-1])
            axis = np.argmax(np.maximum.reduceat(X, starts[:-1]) - lo, axis=1)
            node = np.repeat(np.arange(len(counts)), counts)
            # sorting by node first keeps every node's block in place
            order = order[np.lexsort((X[np.arange(M), axis[node]], node))]
            levels.append(np.sort(np.append(
                starts, (starts[:-1] + counts // 2)[big])))
        self.points = P
        self._order = order
        self._sorted = P[order]
        self._starts = levels
        # box corners, one row per axis
        self._boxes = [(np.minimum.reduceat(self._sorted, s[:-1]).T.copy(),
                        np.maximum.reduceat(self._sorted, s[:-1]).T.copy())
                       for s in levels] if M else []
        # children of node i at the next level: first[i] .. first[i + 1] - 1
        self._first = [np.searchsorted(b, a) for a, b in zip(levels, levels[1:])]

    def __len__(self) -> int:
        return len(self.points)

    def nearest(self, Q: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of the k nearest points of each row of Q,
        nearest first and ties to the lower index; shape (N,) for k = 1 and
        (N, k) otherwise. Missing neighbours (fewer than k points) are inf
        with index len(self).
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        N, M = len(Q), len(self)
        d2 = np.full((N, k), np.inf)
        idx = np.full((N, k), M)
        kk = min(k, M)
        QT = Q.T.copy()
        step = geom.ROW_BLOCK
        for start in range(0, N if kk else 0, step):
            r = np.arange(start, min(start + step, N))
            # the leaf reached through the nearer child at every level gives
            # each row its first k candidates, and their bound
            leaf = np.zeros(r.size, dtype=np.intp)
            for (lo, hi), first in zip(self._boxes[1:], self._first):
                a, b = first[leaf], first[leaf + 1] - 1
                leaf = np.where(_box_sq_near(QT, r, lo, hi, b)
                                < _box_sq_near(QT, r, lo, hi, a), b, a)
            self._compare(Q, r, leaf, d2, idx)
            # the slack covers the rounding of the box and the exact sums
            bound = d2[r, kk - 1] * (1.0 + _WINDOW_SLACK)
            i, node = np.arange(r.size), np.zeros(r.size, dtype=np.intp)
            for level, (lo, hi) in enumerate(self._boxes):
                if level:
                    first = self._first[level - 1]
                    c = first[node + 1] - first[node]
                    node = np.repeat(first[node], c) + (
                        np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c))
                    i = np.repeat(i, c)
                keep = _box_sq_near(QT, r[i], lo, hi, node) <= bound[i]
                i, node = i[keep], node[keep]
            keep = node != leaf[i]
            self._compare(Q, r[i[keep]], node[keep], d2, idx, bound[i[keep]])
        d = np.sqrt(d2)
        return (d[:, 0], idx[:, 0]) if k == 1 else (d, idx)

    def diameter(self) -> float:
        """Largest distance between two points (0.0 below two): the square
        root of the largest sum((p - q)^2), summed as _sq_dist sums it.

        It starts from a real pair, the farthest point from the farthest
        point from row 0 of points. It then compares only the leaf pairs
        whose bound exceeds the best value so far, highest bound first, a
        block of leaf pairs at a time. The bound of leaves I and J sums,
        left to right, the squares of g = max(hi_J - lo_I, hi_I - lo_J) on
        each axis of their boxes. Every pair's |p - q| on an axis is at most
        g, and rounding is monotone, so no pair's computed value exceeds the
        computed bound: the result has the bits of the all-pairs maximum.
        A bound is held for every pair of leaves, so this is meant for a
        few thousand points.
        """
        P = self._sorted
        if len(P) < 2:
            return 0.0
        far = self.points[np.argmax(_sq_dist(self.points, self.points[0]))]
        best = float(np.max(_sq_dist(self.points, far)))
        s = self._starts[-1]
        n = np.diff(s)
        # every leaf's points, padded to the largest leaf with its first
        # one, one coordinate column at a time
        t = np.arange(n.max())
        leaves = P.T[:, s[:-1, None] + np.where(t < n[:, None], t, 0)]
        lo, hi = self._boxes[-1]
        I, J = np.triu_indices(len(n))
        bound = np.zeros(I.size)
        for a, b in zip(lo, hi):
            g = np.maximum(b[J] - a[I], b[I] - a[J])
            bound += g * g
        keep = np.flatnonzero(bound > best)
        keep = keep[np.argsort(-bound[keep], kind="stable")]
        I, J, bound = I[keep], J[keep], bound[keep]
        # a quarter of _CHUNK pairs at a time holds two arrays of 128 kB
        step = max(1, _CHUNK // 4 // t.size ** 2)
        for k in range(0, I.size, step):
            if bound[k] <= best:
                break  # and so are all after it
            p = slice(k, k + step)
            best = max(best, float(_sq_dist_cols(leaves[:, I[p], :, None],
                                                 leaves[:, J[p], None, :]).max()))
        return float(np.sqrt(best))

    def _compare(self, Q, r, leaf, d2, idx, bound=None):
        """Fold the points of the leaves into the rows r (nondecreasing),
        those within bound only."""
        s = self._starts[-1]
        for i, j in _windows(s[leaf], s[leaf + 1]):
            e = _sq_dist_at(self._sorted, j, Q, r[i])
            ok = slice(None) if bound is None else e <= bound[i]
            _fold(d2, idx, r[i][ok], e[ok], self._order[j[ok]], len(self))


def _box_sq_near(QT, r, lo, hi, node):
    """Squared distances from the rows r of Q to the boxes node, from the
    transposes of Q and of the box corners lo and hi."""
    near = np.zeros(r.size)
    for q, a, b in zip(QT, lo, hi):
        q = q[r]
        g = np.maximum(np.maximum(a[node] - q, q - b[node]), 0.0)
        near += g * g
    return near


def _fold(d2: np.ndarray, idx: np.ndarray, r: np.ndarray, e: np.ndarray,
          j: np.ndarray, missing: int):
    """Fold candidates (row r, squared distance e, point j), rows
    nondecreasing and no pair twice, into the k best of each row held in d2
    and idx, nearest first and ties to the lower point."""
    if not r.size:
        return
    k = d2.shape[1]
    starts = np.flatnonzero(np.diff(r, prepend=-1))  # where r takes a new value
    u = r[starts]
    counts = np.diff(np.append(starts, r.size))
    # the k smallest (e, j) of each row among the candidates, one pass each,
    # beside the k held ones
    E = np.hstack([np.empty((u.size, k)), d2[u]])
    J = np.hstack([np.empty((u.size, k), dtype=idx.dtype), idx[u]])
    for t in range(k):
        best = np.minimum.reduceat(e, starts)
        at = e == np.repeat(best, counts)
        first = np.minimum.reduceat(np.where(at, j, missing), starts)
        first[np.isinf(best)] = missing
        E[:, t], J[:, t] = best, first
        e = np.where(j == np.repeat(first, counts), np.inf, e)
    order = np.lexsort((J, E), axis=1)[:, :k]
    d2[u] = np.take_along_axis(E, order, axis=1)
    idx[u] = np.take_along_axis(J, order, axis=1)


@dataclass(frozen=True)
class LimitSetCloud:
    """Finite sample of a limit set.

    resolution is the certified covering radius (None when the sampling
    carries no certificate); warnings records degeneracies such as elementary
    groups with fewer than three limit points. Fixed-radius queries go
    through the sweep, the samples sorted along one axis; nearest queries and
    the diameter go through a PointIndex, a kd-tree of the samples. Both are
    built on first use.
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
    def index(self) -> PointIndex:
        """The samples' nearest-neighbour index."""
        return PointIndex(self.points)

    @cached_property
    def sweep(self) -> Sweep:
        """The samples sorted along one axis, for fixed-radius queries."""
        return Sweep(self.points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def certified(self) -> bool:
        return self.resolution is not None

    def diameter(self) -> float:
        """Largest chordal distance between two samples (0.0 below two), exact
        over the pairs of every (size // 4000 + 1)-th sample past 4000, from
        PointIndex.diameter."""
        if self.size > 4000:
            return PointIndex(self.points[:: self.size // 4000 + 1]).diameter()
        return self.index.diameter()


def dist_rows(U: np.ndarray, L: LimitSetCloud) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) chordal distance arrays from unit rows to the true
    limit set.

    upper is the distance to the nearest sample, from one query of the
    cloud's PointIndex, so a row gets the same bits in any split of the
    rows; lower subtracts the certified resolution (0 without one).
    """
    upper, _ = L.index.nearest(U)
    if L.certified:
        return np.maximum(0.0, upper - L.resolution), upper
    return np.zeros_like(upper), upper


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_limit_set(G: GroupPresentation, depth: int) -> LimitSetCloud:
    """Point cloud approximating the limit set at the given word depth
    (schottky and cyclic presentations; a custom one raises ValueError)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if G.tag == TAG_SCHOTTKY:
        return _sample_schottky(G, depth)
    if G.tag == TAG_CYCLIC:
        return _sample_cyclic(G, depth)
    raise ValueError("a custom presentation is validate-only: it has no "
                     "limit-set sampler")


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


def _sample_cyclic(G: GroupPresentation, depth: int) -> LimitSetCloud:
    pts = mobius.fixed_points_on_sphere(G.generators[0])
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


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------

def greedy_net_counts(L: LimitSetCloud, scales) -> list[int]:
    """Sizes of the greedy chordal nets at each of the scales (>= 0, in any
    order, repeats allowed), deterministic.

    At each scale the samples are visited in order; each one not yet covered
    opens a ball that covers every sample p with sum((p - q)^2) <= scale^2.
    One pass over the samples serves up to 64 scales: each sample carries a
    bitmask of the scales at which it is covered, and opens a ball at every
    other one. Its squared distances are summed once, over its sweep window
    at the coarsest of those scales. The counts are exact: the window at r
    holds every sample within r, and the windows grow with r, so that one
    window holds every sample of each of the balls; each distance, with the
    bits of _sq_dist, is compared with each scale^2 as a pass per scale
    compares it.
    """
    scales = np.asarray(scales, dtype=float).ravel()
    sw = L.sweep
    rank = np.empty(L.size, dtype=np.intp)
    rank[sw.ids] = np.arange(L.size)
    rank = rank.tolist()
    counts = []
    for g in range(0, scales.size, 64):
        # bit k of a mask is the k-th smallest scale of the group
        order = np.argsort(scales[g:g + 64], kind="stable")
        group = scales[g:g + 64][order]
        r2 = group * group
        bits = len(group)
        full = (1 << bits) - 1
        # within[t]: the scales k >= t, those whose r^2 is at least a d^2
        # with t = searchsorted(r2, d^2)
        within = np.array([full >> t << t for t in range(bits + 1)],
                          dtype=np.uint64)
        lo = np.empty((bits, L.size), dtype=np.int32)  # half the bytes of intp
        hi = np.empty_like(lo)
        for k, r in enumerate(group):
            lo[k], hi[k] = sw.window(sw.points, r)
        covered = np.zeros(L.size, dtype=np.uint64)
        opened = []
        for s in rank:
            new = full & ~covered.item(s)
            if not new:
                continue
            opened.append(new)
            k = new.bit_length() - 1  # the coarsest
            a, b = lo.item(k, s), hi.item(k, s)
            d2 = _sq_dist(sw.points[a:b], sw.points[s])
            covered[a:b] |= within[r2.searchsorted(d2)] & new
        opened = np.array(opened, dtype=np.uint64)
        tally = np.empty(bits, dtype=np.intp)
        tally[order] = [np.count_nonzero(opened >> np.uint64(k) & np.uint64(1))
                        for k in range(bits)]
        counts += tally.tolist()
    return counts


def default_scale_grid(L: LimitSetCloud) -> np.ndarray:
    """24 scales, geometric from a quarter of the cloud's diameter down to
    the smallest scale the cloud resolves."""
    hi = L.diameter() / 4.0
    if hi <= 0:
        raise EmptyScaleWindow("cloud has no extent")
    if L.certified and L.resolution > 0:
        lo = 4.0 * L.resolution
    elif L.certified:
        lo = hi * 1e-3  # exact point cloud; counts saturate immediately
    else:
        gaps, _ = L.index.nearest(L.points, k=2)
        lo = 4.0 * float(np.quantile(gaps[:, 1], 0.95))
    if lo >= hi:
        raise EmptyScaleWindow(f"no scales between {lo} and {hi}")
    return np.geomspace(hi, lo, 24)


def box_dimension(L: LimitSetCloud) -> FitResult:
    """Box-counting estimate: slope of log(net count) against log(1/scale)
    over default_scale_grid(L)."""
    if L.size < 2:
        raise ValueError("need at least two distinct points")
    scales = default_scale_grid(L)
    counts = np.array(greedy_net_counts(L, scales), dtype=float)
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


def distortion_rows(fields, X: np.ndarray, L: LimitSetCloud) -> np.ndarray:
    """|g_i'(x_i)|_s dist(x_i, L) / dist(g_i x_i, L) for finite rows X of R^n
    and the rows of stacked fields, with upper sample-cloud distances.

    The images come from the lift that mobius.deriv_sphere_rows evaluates
    (a row at the pole of its map goes to the north pole), and X and its
    images are embedded by embed_rows; every step works row by row, so a
    row gets the same bits in any split of the rows. Raises
    UncertifiedDistance when a row lies within the resolution band of the
    cloud or an image on a sample.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    band = L.resolution if L.certified else 0.0
    _, d_x = dist_rows(embed_rows(X), L)
    if np.any(d_x <= band):
        raise UncertifiedDistance("a row sits inside the cloud resolution band")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        U = embed_rows(mobius._lift(fields, X, 0.0)[0])
    U[~np.isfinite(U).all(axis=1)] = np.eye(X.shape[1] + 1)[-1]
    _, d_gx = dist_rows(U, L)
    if np.any(d_gx <= 0.0):
        raise UncertifiedDistance("an image row collides with the cloud")
    at_inf = np.zeros(len(X), dtype=bool)
    return mobius.deriv_sphere_rows(fields, X, at_inf) * d_x / d_gx


def export_csv(L: LimitSetCloud, path) -> None:
    """Unit-vector rows with a header, stable byte-for-byte for a fixed cloud."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, [f"x{i}" for i in range(L.points.shape[1])], L.points)


def write_csv(out, header: list[str] | None, rows: np.ndarray) -> None:
    """A header of plain names (none for header None) and float rows, each
    float written as its repr, with the comma separators and CRLF line ends
    of csv.writer, appended to out, a text file opened with newline="".
    Blocks of rows written one after another give the bytes of one write of
    their stack. The rows become Python floats geom.ROW_BLOCK at a time,
    which bounds their memory, and each block is one % format, whose %r of
    a float is its repr."""
    if header is not None:
        out.write(",".join(header) + "\r\n")
    line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
    step = geom.ROW_BLOCK
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        out.write(line * len(block) % tuple(block.ravel().tolist()))


class PendingFile:
    """A text file for write_csv, opened with newline="" beside path, that
    takes the place of path on commit and is removed on discard, which
    leaves path as it was. A path that exists and is no regular file (a
    device, a pipe) is written in place and never removed."""

    def __init__(self, path):
        self.target = os.path.realpath(path)
        self.name = None
        if os.path.exists(self.target) and not os.path.isfile(self.target):
            self.file = open(self.target, "w", newline="")
            return
        head, tail = os.path.split(self.target)
        name = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.part")
        self.file = open(name, "x", newline="")
        self.name = name

    def commit(self):
        """Close the file and put it in place of path, with path's mode."""
        self.file.close()
        if self.name:
            if os.path.isfile(self.target):
                shutil.copymode(self.target, self.name)
            os.replace(self.name, self.target)
            self.name = None

    def discard(self):
        """Close the file and remove it unless committed."""
        self.file.close()
        if self.name:
            os.remove(self.name)
            self.name = None
