"""Invariant dome-envelope graph over the domain of discontinuity.

Base caps are centered at the leaf centers of a dyadic cubed-sphere mesh of
a fundamental region, refined until each leaf lies in the cap of chordal
radius eps0 * dist(center, limit set) around its center, and have that
radius; the family is the orbit of those caps under the truncated group.
Nothing in the mesh is random. The dome over a cap of angular radius theta
is the sphere of Euclidean center c/cos(theta) and radius tan(theta), the
unique sphere meeting S^n orthogonally along the cap boundary; the graph
height f(x) is the smallest dome-entry radius along the ray through x.

One evaluator serves every family. The seed caps, and for a cyclic group
(which has no nested caps) every image cap, are placed at build into one
spatial index. Schottky families are evaluated through the group
factorization: x lies in the image cap gamma(C) exactly when gamma^-1 x lies
in the seed cap C, and gamma(C) lies in the inflated nested cap of the word
gamma. These supports nest, so a row is tested only against the children of
the words whose supports it met one level up the word tree, and only the
touched image caps are ever mapped: every new cap of a level in one
closed-form caps.cap_images call on the seed caps, stacked by word.
Every cap a row meets, from either source, enters one minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count, islice
from typing import Callable

import numpy as np

from . import geom
from .caps import CapStack, cap_images
from .geom import (angle_from_chord, chord_from_angle, chordal_to_infinity,
                   hyperbolic_distance_rows, sphere_area, uniform_sphere_blocks,
                   unembed_rows)
from .group import (GroupPresentation, TAG_SCHOTTKY, WordLevel, enumerate_elements,
                    word_count)
from .limitset import LimitSetCloud, PointIndex, Sweep, dist_rows, pair_blocks, write_csv
from .mobius import MobiusMap, inverse_rows, poincare_extend, sphere_action_stack

SHAPE_RATIO_MAX = 0.5
SUPPORT_INFLATION = 1.5
MATERIALIZE_BUDGET = 400_000
# lipschitz_estimate reads the pairs of the first LIPSCHITZ_ROWS covered
# samples. graph reports M only from LIPSCHITZ_MIN_COVERED (100) covered
# samples up, 4,950 pairs, and exits 3 below: the maximum grows with the
# pairs, and on the shipped files at their default flags, over graph's
# draws for seeds 1-3, it read 40-85 % of its 633-sample value at 100
# samples but 8-31 % at 10.
LIPSCHITZ_ROWS = 633
LIPSCHITZ_MIN_COVERED = 100
# covered terms per exactly rounded partial sum of VolumeSums
VOLUME_CHUNK = 4096


class ShrinkEpsilon(RuntimeError):
    """A propagated cap broke the family shape bound; retry with smaller eps0."""


class UncertifiedSample(ValueError):
    """Base-cap center without a certified positive distance to the limit set."""


# ---------------------------------------------------------------------------
# fundamental regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalRegion:
    """Membership predicate on unit rows of S^n plus a short description."""

    kind: str
    contains: Callable[[np.ndarray], np.ndarray]

    def blocks(self, rng: np.random.Generator, n: int, size: int):
        """The region rows of each block of uniform_sphere_blocks(rng, n,
        size); they stack to those of uniform_sphere(rng, n, size), bit for
        bit, and the whole draw is never held."""
        for _, U in uniform_sphere_blocks(rng, n, size):
            yield U[self.contains(U)]


def schottky_region(G: GroupPresentation) -> FundamentalRegion:
    """Complement of the defining caps."""
    def contains(U: np.ndarray) -> np.ndarray:
        return ~np.any([cap.contains(U) for cap in G.ball_caps], axis=0)

    return FundamentalRegion(kind="schottky-cap-complement", contains=contains)


def annulus_region(scale: float) -> FundamentalRegion:
    """Fundamental annulus 1 <= |x| < scale of the dilation x -> scale x."""
    if scale <= 1.0:
        raise ValueError("annulus needs scale > 1")

    def contains(U: np.ndarray) -> np.ndarray:
        coords, at_inf = unembed_rows(np.atleast_2d(U))
        r = np.linalg.norm(coords, axis=1)
        return (~at_inf) & (r >= 1.0) & (r < scale)

    return FundamentalRegion(kind="cyclic-annulus", contains=contains)


def strip_region(shift: np.ndarray, q_floor: float = 0.25) -> FundamentalRegion:
    """Fundamental strip 0 <= <x, shift>/|shift|^2 < 1 of x -> x + shift.

    Truncated at chordal distance q_floor from the fixed point at infinity,
    so the region is a bounded patch.
    """
    shift = np.asarray(shift, dtype=float)
    s2 = float(shift @ shift)

    def contains(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        coords, at_inf = unembed_rows(U)
        t = (coords @ shift) / s2
        q = chordal_to_infinity(coords)
        return (~at_inf) & (t >= 0.0) & (t < 1.0) & (q >= q_floor)

    return FundamentalRegion(kind="cyclic-strip", contains=contains)


# ---------------------------------------------------------------------------
# base caps and region meshes
# ---------------------------------------------------------------------------

def base_caps(sample_points: np.ndarray, eps0: float, L: LimitSetCloud) -> CapStack:
    """Caps B(x, eps0 * dist(x, L)) with the certified lower distance.

    The chordal radius converts to the angular radius 2 asin(r/2). Each
    center is its row over the row's norm, from a stacked matmul with the
    bits of np.linalg.norm of one row, so the caps are the ones SphericalCap
    builds from the rows.
    """
    _check_scale(eps0, L)
    rows = np.atleast_2d(sample_points)
    lower, upper = dist_rows(rows, L)
    if np.any((lower <= 0.0) | (upper <= L.resolution)):
        raise UncertifiedSample("sample sits inside the resolution band of the cloud")
    norm = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if np.any(np.abs(norm - 1.0) > 1e-9):
        raise ValueError("cap centers must be unit vectors")
    return CapStack(rows / norm[:, None], angle_from_chord(eps0 * lower))


def _check_scale(eps0: float, L: LimitSetCloud):
    if not 0.0 < eps0 <= 0.5:
        raise ValueError("eps0 must lie in (0, 1/2]")
    if not L.certified:
        raise UncertifiedSample("cloud carries no resolution certificate")


def region_mesh(region: FundamentalRegion, L: LimitSetCloud, eps0: float
                ) -> np.ndarray:
    """Centers of a dyadic Whitney-type cover of the region, at scale eps0.

    The sphere S^n is cut into the 2(n+1) gnomonic faces of a cube, each an
    n-cube that splits into 2^n children; the refinement starts at 2^n
    cells per face. A cell that touches the region (its center or a corner
    lies in it) splits while the chord from its center to its farthest
    corner exceeds eps0 * lower(center), the certified distance to L. Cells
    are geodesically convex, so every leaf lies inside the base cap
    B(center, eps0 * lower(center)) of its own center, and the leaf centers,
    some just outside the region, are returned level by level, shape
    (count, n+1). No randomness enters. Raises UncertifiedSample when the
    cloud is uncertified or a cell that touches the region has its center in
    the cloud's resolution band.
    """
    _check_scale(eps0, L)
    m = L.points.shape[1]
    n = m - 1
    k = 2 ** n
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")
                     ).reshape(n, k).T  # corner and child offsets
    faces = np.repeat(np.arange(2 * m), k)
    mid = np.tile(0.5 * signs, (2 * m, 1))  # face coordinates of the cells
    half = 0.5
    leaves = [np.empty((0, m))]
    while faces.size:
        center = _face_rows(faces, mid)
        corner = _face_rows(np.repeat(faces, k),
                            (mid[:, None, :] + half * signs).reshape(-1, n))
        touch = region.contains(center) | region.contains(corner).reshape(
            -1, k).any(axis=1)
        faces, mid, center = faces[touch], mid[touch], center[touch]
        corner = corner.reshape(-1, k, m)[touch]
        lower, _ = dist_rows(center, L)
        if np.any(lower <= 0.0):
            raise UncertifiedSample(
                "the region meets the resolution band of the cloud; "
                "sample the limit set deeper"
            )
        reach = np.linalg.norm(corner - center[:, None, :], axis=2).max(axis=1)
        split = reach > eps0 * lower
        leaves.append(center[~split])
        faces = np.repeat(faces[split], k)
        half *= 0.5
        mid = (mid[split][:, None, :] + half * signs).reshape(-1, n)
    return np.concatenate(leaves)


def _face_rows(faces: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Unit rows through the points of the cube faces at face coordinates.

    Face k is the side x_a = s of the cube [-1, 1]^(n+1), a = k // 2 and
    s = -1, 1 for even, odd k; its coordinates are the other n axes."""
    N, n = coords.shape
    axis = faces // 2
    rows = np.empty((N, n + 1))
    rows[np.arange(N), axis] = np.where(faces % 2, 1.0, -1.0)
    others = np.arange(n + 1)[None, :] != axis[:, None]
    rows[others] = coords.ravel()
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# dome families
# ---------------------------------------------------------------------------

# A test u . c >= cos(theta) (or d >= 1) on unit rows can pass by rounding
# alone for rows within this chord of c, whatever theta: 1 - u . c = q^2 / 2
# drops below the few ulps of the dot product at q ~ 3e-8.
_ROUNDING_CHORD = 1e-7


class _CapIndex:
    """Candidate (row, ball) pairs for balls of mixed angular radii on S^n.

    Balls are grouped by the octave floor(log2 theta) of their radius, and
    each octave has its own Sweep, in columns of its own largest chord, so a
    row meets only balls within a factor two of their reach. Every pair
    whose chord is within the ball's radius (with a 1e-7 relative slack,
    and at least _ROUNDING_CHORD) is returned; callers confirm each pair
    with their own test.
    """

    def __init__(self, centers: np.ndarray, thetas: np.ndarray):
        octave = np.frexp(thetas)[1]
        order = np.argsort(octave, kind="stable")
        cuts = np.flatnonzero(np.diff(octave[order])) + 1
        self._buckets = []
        for idx in np.split(order, cuts) if order.size else ():
            chord = max(float(chord_from_angle(thetas[idx].max()) * 1.0000001),
                        _ROUNDING_CHORD)
            self._buckets.append((Sweep(centers[idx], chord), chord, idx))

    def pairs(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row of U, ball) index arrays, in no particular order."""
        qi, bi = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for sweep, chord, idx in self._buckets:
            for i, j, d2 in sweep.pairs(U, chord):
                ok = d2 <= chord * chord
                qi.append(i[ok])
                bi.append(idx[sweep.ids[j[ok]]])
        return np.concatenate(qi), np.concatenate(bi)


@dataclass
class HeightResult:
    f: np.ndarray
    covered: np.ndarray
    grad_sq: np.ndarray  # |grad f|^2 on the sphere, from the governing dome

    def __getitem__(self, rows) -> HeightResult:
        """The result on the selected rows; heights gives each row the same
        values in any batch."""
        return HeightResult(self.f[rows], self.covered[rows], self.grad_sq[rows])


class RowHead:
    """The first `size` rows of a stream of (rows, heights) blocks, or with
    covered the first `size` covered rows, copied out of the blocks so that
    none of them is kept; len is the number of rows held."""

    def __init__(self, size: int, covered: bool = False):
        self.size, self.covered = size, covered
        self._blocks: list[tuple[np.ndarray, HeightResult]] = []
        self._count = 0

    def add(self, U: np.ndarray, res: HeightResult):
        take = self.size - self._count
        if take > 0:
            at = (np.flatnonzero(res.covered) if self.covered
                  else np.arange(len(U)))[:take]
            self._blocks.append((U[at], res[at]))
            self._count += at.size

    def __len__(self) -> int:
        return self._count

    def rows(self) -> tuple[np.ndarray, HeightResult]:
        """(rows, heights) of the head, after at least one add."""
        U, res = zip(*self._blocks)
        return np.concatenate(U), HeightResult(*(
            np.concatenate([getattr(r, k) for r in res])
            for k in ("f", "covered", "grad_sq")))


@dataclass
class _WordLevel:
    words: WordLevel
    inv_fields: tuple[np.ndarray, ...]  # stacked inverses of the words
    # inflated nested supports, each inside its parent word's
    centers: np.ndarray
    support_cos: np.ndarray  # cos of the support angles
    offset: int  # family key of the level's first cap
    # image caps computed so far, sorted by key word index * seed count + seed index
    keys: np.ndarray
    img_centers: np.ndarray
    img_thetas: np.ndarray


class DomeFamily:
    """Truncated invariant ball family with a height evaluator.

    The seed caps come as a CapStack or a sequence of caps. The cap
    gamma(C) of a word gamma and seed cap C has the family key
    (index of gamma in self.words) * seed count + (index of C), so keys run
    in (level, word, seed) order with the seed caps first. Caps come from
    two sources:

    - built with the family: the seed caps, and for a cyclic group (which
      has no nested caps) every image cap, in one _CapIndex; a row meets
      such a cap when d = (u . c) / cos(theta) >= 1;
    - computed lazily: the image caps of a schottky group, level by level.
      A row meets gamma(C) when it lies in the inflated nested support of
      gamma, its preimage gamma^-1 u lies in C, and d >= 1 on the image
      cap. A word's support lies in its parent's, so a row is tested only
      against the children (WordLevel.child_rows) of the words whose
      supports it met one level up. Image caps are computed when a query
      or the build audit first touches them, all of a level's new caps in
      one cap_images call, and kept per level.

    A row takes the smallest entry radius t = d - sqrt(d^2 - 1) over every
    cap it meets from both sources, in one _row_minima call; ties go to the
    lowest key, and the gradient of f is that of the winning dome
    (dome_gradient_sq). heights takes its rows geom.ROW_BLOCK at a time, so
    the candidate pairs held grow with the block, not with the rows.
    candidate_pairs / hit_pairs count the (row, cap) pairs tested and the
    confirmed ones, with the same totals in any split of the rows.

    The family shape bound (diameter over distance-to-limit-set within
    (0, 1/2]) is measured by _check_shapes on every cap built with the
    family: the seeds, a cyclic group's image caps, and for schottky groups
    an audit sample of the image caps drawn with a fixed seed. Every cap is
    measured from its closed-form center and radius (caps.cap_images)
    alone. Violations are counted, not raised, so the shape block of a
    family does not depend on which queries ran. Any image cap that reaches
    a hemisphere raises ShrinkEpsilon.
    """

    def __init__(self, G: GroupPresentation, cloud: LimitSetCloud,
                 seed_caps: CapStack | list, max_len: int, audit: int = 1500):
        m = G.n + 1
        self.G = G
        self.cloud = cloud
        self.seed_caps = CapStack.of(seed_caps, m)
        self.max_len = max_len
        self.shape_ratios: list[float] = []
        self.shape_unresolved = 0
        self.shape_violations = 0
        self.candidate_pairs = 0
        self.hit_pairs = 0
        nested = G.tag == TAG_SCHOTTKY
        if not nested:
            count = len(self.seed_caps) * word_count(G.rank, max_len)
            if count > MATERIALIZE_BUDGET:
                raise ShrinkEpsilon(
                    f"family of ~{count} caps exceeds the materialization "
                    "budget and the group is not schottky-factorable"
                )
        self.words = enumerate_elements(G, max_len)
        centers, thetas = [self.seed_caps.centers], [self.seed_caps.thetas]
        if not nested:  # every key past the seeds' in one cap_images call
            S = len(self.seed_caps)
            w, s = np.divmod(np.arange(S, len(self.words) * S), S)
            images = G.word_tree.element_fields(max_len)
            nu, th = self._seed_images(tuple(f[w] for f in images), s)
            centers.append(nu)
            thetas.append(th)
        self._centers = np.concatenate(centers)
        self._thetas = np.concatenate(thetas)
        self._check_shapes(self._centers, self._thetas)
        self._cos = np.cos(self._thetas)
        self._index = _CapIndex(self._centers, self._thetas)
        self._levels: list[_WordLevel] = []
        if nested:
            self._build_levels()
            self._audit_shape(audit)

    # -- construction ------------------------------------------------------

    def _seed_images(self, fields, seeds: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(centers, thetas) of seed caps seeds[i] under maps i of the
        stacked fields."""
        nu, th, valid, _ = cap_images(fields, self.seed_caps.centers[seeds],
                                      self.seed_caps.thetas[seeds])
        if not valid.all():
            raise ShrinkEpsilon(
                "a propagated cap reached a hemisphere; choose a smaller eps0"
            )
        return nu, th

    def _check_shapes(self, centers: np.ndarray, thetas: np.ndarray):
        """Shape bound on the caps (centers, thetas), from one
        nearest-sample query of their centers.

        The diameter is chord(2 theta). The distance is the certified lower
        bound chord(angle to the nearest sample - theta) - resolution. A cap
        whose diameter is within 8 resolutions, or whose gap chord to the
        cloud is within 3, is counted unresolved: the cloud cannot measure
        its ratio.
        """
        _, j = self.cloud.index.nearest(centers)
        d = centers - self.cloud.points[j]
        # the chord to the nearest sample, with the bits of np.linalg.norm
        # of each row; the angle goes through it, stable at small gaps
        chord = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        gap = chord_from_angle(np.maximum(angle_from_chord(chord) - thetas, 0.0))
        diam = chord_from_angle(2.0 * thetas)
        res = self.cloud.resolution or 0.0
        unresolved = (diam <= 8.0 * res) | (gap <= 3.0 * res)
        self.shape_unresolved += int(unresolved.sum())
        ratio = diam[~unresolved] / (gap[~unresolved] - res)
        self.shape_violations += int((ratio > SHAPE_RATIO_MAX).sum())
        self.shape_ratios.extend(ratio.tolist())

    def _build_levels(self):
        """Per-level words and inflated nested supports from G.word_tree."""
        offset = len(self.seed_caps)  # the identity's caps are the seeds
        for d in range(1, self.max_len + 1):
            words = self.G.word_tree.level(d)
            centers, thetas, _ = self.G.word_tree.nested_caps(d)
            # every row that the tests of an image cap can accept
            support = np.minimum(thetas * SUPPORT_INFLATION + _ROUNDING_CHORD,
                                 np.pi / 2 - 1e-9)
            self._levels.append(_WordLevel(
                words=words, inv_fields=inverse_rows(words.fields),
                centers=centers, support_cos=np.cos(support), offset=offset,
                keys=np.empty(0, np.int64), img_centers=np.empty((0, self.G.n + 1)),
                img_thetas=np.empty(0)))
            offset += len(words) * len(self.seed_caps)

    def _audit_shape(self, count: int):
        rng = np.random.default_rng(0)
        if not self._levels or not self.seed_caps:
            return
        drawn: list[list[tuple[int, int]]] = [[] for _ in self._levels]
        for _ in range(count):
            li = int(rng.integers(0, len(self._levels)))
            wi = int(rng.integers(0, len(self._levels[li].words)))
            si = int(rng.integers(0, len(self.seed_caps)))
            drawn[li].append((wi, si))
        for lv, pairs in zip(self._levels, drawn):
            if pairs:
                w, s = np.array(pairs).T
                self._image_caps(lv, w, s, record=True)

    # -- cap bookkeeping ----------------------------------------------------

    def _image_caps(self, lv: _WordLevel, w: np.ndarray, s: np.ndarray,
                    record: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(centers, thetas) of the image caps of words w under seeds s.

        Caps not computed before are computed together, in one _seed_images
        call, and kept for later queries; with record, the new caps are
        shape-checked together.
        """
        S = len(self.seed_caps)
        key = w * S + s
        new = np.sort(key)
        new = new[np.diff(new, prepend=-1) != 0]  # distinct; keys are >= 0
        new = new[~np.isin(new, lv.keys, assume_unique=True)]
        if new.size:
            nu, th = self._seed_images(
                tuple(f[new // S] for f in lv.words.fields), new % S)
            if record:
                self._check_shapes(nu, th)
            order = np.argsort(np.concatenate([lv.keys, new]))
            lv.keys = np.concatenate([lv.keys, new])[order]
            lv.img_centers = np.concatenate([lv.img_centers, nu])[order]
            lv.img_thetas = np.concatenate([lv.img_thetas, th])[order]
        pos = np.searchsorted(lv.keys, key)
        return lv.img_centers[pos], lv.img_thetas[pos]

    @property
    def cap_count_bound(self) -> int:
        return len(self.seed_caps) * len(self.words)

    @property
    def shape_bound_ok(self) -> bool:
        """Whether every measured cap satisfied the 1/2 shape bound."""
        return self.shape_violations == 0

    def min_shape_ratio(self) -> float:
        return min(self.shape_ratios)

    def max_shape_ratio(self) -> float:
        return max(self.shape_ratios)

    # -- evaluation ---------------------------------------------------------

    def heights(self, U: np.ndarray) -> HeightResult:
        """Heights of the unit rows of U, geom.ROW_BLOCK rows per pass, so
        the candidate pairs of one block at most are held at once; a row gets
        the same values in any batch."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        N = U.shape[0]
        out = HeightResult(f=np.empty(N), covered=np.empty(N, dtype=bool),
                           grad_sq=np.empty(N))
        step = geom.ROW_BLOCK
        for lo in range(0, N, step):
            at = slice(lo, lo + step)
            out.f[at], out.covered[at], out.grad_sq[at] = self._block_heights(U[at])
        return out

    def _block_heights(self, U: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, covered, grad_sq) of the rows of U in one pass."""
        N = U.shape[0]
        i, k = self._index.pairs(U)
        d = np.einsum("ij,ij->i", U[i], self._centers[k]) / self._cos[k]
        hit = d >= 1.0
        self.candidate_pairs += i.size
        self.hit_pairs += int(hit.sum())
        hits = [(i[hit], d[hit], k[hit])]
        i, w = np.arange(N), np.zeros(N, np.intp)  # level 0: the identity
        for lv in self._levels:
            pos, child = lv.words.child_rows(w)
            i, w = self._confirmed(U, i[pos], child, lv.centers, lv.support_cos)
            hits.append(self._level_hits(lv, U, i, w))
        rows, d, key = (np.concatenate(a) for a in zip(*hits))
        t = d - np.sqrt(d * d - 1.0)
        f, first = _row_minima(N, rows, t, key)
        win = np.flatnonzero(key == first[rows])
        r, grad_sq = rows[win], np.zeros(N)
        grad_sq[r] = dome_gradient_sq(U[r], *self._caps_by_key(key[win]),
                                      d[win], t[win])
        covered = np.isfinite(f)
        f[~covered] = np.nan
        return f, covered, grad_sq

    def _caps_by_key(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(centers, cos theta) of the caps of the family keys, every one
        built with the family or computed already."""
        level = np.searchsorted([lv.offset for lv in self._levels], key,
                                side="right") - 1  # -1: built with the family
        built = np.where(level < 0, key, 0)  # the level caps are set below
        centers, cos = self._centers[built], self._cos[built]
        for j, lv in enumerate(self._levels):
            at = level == j
            pos = np.searchsorted(lv.keys, key[at] - lv.offset)
            centers[at], cos[at] = lv.img_centers[pos], np.cos(lv.img_thetas[pos])
        return centers, cos

    def _confirmed(self, U, r, b, centers, cosines):
        """The candidate (row, ball) pairs r, b whose row lies in the ball."""
        hit = np.einsum("ij,ij->i", U[r], centers[b]) >= cosines[b]
        self.candidate_pairs += r.size
        self.hit_pairs += int(hit.sum())
        return r[hit], b[hit]

    def _level_hits(self, lv: _WordLevel, U, i, w):
        """(row, d, key) of the rows of U meeting a cap of level lv, from
        the (row, word) pairs i, w with the row in the word's support."""
        Y = sphere_action_stack(tuple(f[w] for f in lv.inv_fields), U[i])
        # for a group with nested caps the caps built with the family are the seeds
        j, s = self._confirmed(Y, *self._index.pairs(Y), self._centers, self._cos)
        i, w = i[j], w[j]
        centers, thetas = self._image_caps(lv, w, s)
        d = np.einsum("ij,ij->i", U[i], centers) / np.cos(thetas)
        hit = d >= 1.0
        key = lv.offset + w * len(self.seed_caps) + s
        return i[hit], d[hit], key[hit]


def dome_gradient_sq(U: np.ndarray, centers: np.ndarray, cos: np.ndarray,
                     d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|grad f|^2 on the sphere of the entry radius f = t(d(u)) of one dome.

    Row u meets the cap of center c and cosine cos = cos(theta) at
    d = (u . c) / cos(theta) and t = d - sqrt(d^2 - 1). dt/dd is
    -t / sqrt(d^2 - 1) and |grad d| = sin(phi) / cos(theta), phi the angle
    from u to c, so |grad f|^2 = t^2 sin^2(phi) / (cos^2(theta) (d^2 - 1)).
    sin^2(phi) = q^2 (1 - q^2 / 4) comes from the chord q = |u - c|, which
    keeps its bits near a small cap's center. The dome meets the sphere
    orthogonally, so a row on the rim (d = 1) gets inf.
    """
    chord = U - centers
    q2 = np.einsum("ij,ij->i", chord, chord)
    den = cos * cos * (d * d - 1.0)
    return np.divide(t * t * q2 * (1.0 - 0.25 * q2), den,
                     out=np.full(t.size, np.inf), where=den > 0.0)


def _row_minima(N: int, rows: np.ndarray, t: np.ndarray, key: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest t of each of N rows over its (rows, t, key) pairs, inf where
    it has none, and the smallest key among the row's pairs at that t."""
    best = np.full(N, np.inf)
    np.minimum.at(best, rows, t)
    at = t == best[rows]
    first = np.full(N, np.iinfo(np.int64).max)
    np.minimum.at(first, rows[at], key[at])
    return best, first


# ---------------------------------------------------------------------------
# diagnostics on the graph
# ---------------------------------------------------------------------------

def check_invariance(F: DomeFamily, gamma: MobiusMap, samples: np.ndarray,
                     res: HeightResult) -> tuple[float, int]:
    """Max radial deviation of mapped graph points from the graph.

    Pushes the graph point over each covered sample through the extension of
    gamma and measures how far (radially) the image sits from the graph at
    the image direction; res is F.heights(samples). Exact invariance of a
    group-closed family makes this zero up to roundoff on the
    matched-truncation region.
    """
    U = np.atleast_2d(samples)
    mask = res.covered
    if not mask.any():
        return 0.0, 0
    P = res.f[mask, None] * U[mask]
    ext = poincare_extend(gamma)
    Y = ext.apply_ball_rows(P)
    norms = np.linalg.norm(Y, axis=1)
    dirs = Y / norms[:, None]
    res2 = F.heights(dirs)
    ok = res2.covered
    dev = np.abs(norms[ok] - res2.f[ok])
    return (float(dev.max()) if dev.size else 0.0), int(ok.sum())


def lipschitz_estimate(samples: np.ndarray, res: HeightResult) -> float:
    """Empirical Lipschitz constant max |f(x)-f(y)| / q(x, y) over the pairs
    with q > 1e-12 of the first LIPSCHITZ_ROWS (633) covered samples (about
    200,000 pairs, from limitset.pair_blocks); res holds the heights of the
    samples, and every prefix with 633 covered samples gives the same value.
    Raises ValueError without a pair."""
    first = np.fromiter(islice(compress(count(), res.covered), LIPSCHITZ_ROWS),
                        np.intp)
    U, fv = np.atleast_2d(samples)[first], res.f[first]
    best = -1.0  # ratios are >= 0; the pairs the filter drops read -1
    for a, s in pair_blocks(U):
        q = np.sqrt(s, out=s)
        r = np.abs(np.subtract.outer(fv[a:a + len(q)], fv[a:]))
        best = max(best, np.divide(r, q, out=np.full_like(r, -1.0),
                                   where=q > 1e-12).max())
    if best < 0.0:
        raise ValueError("need two covered samples over 1e-12 apart")
    return float(best)


@dataclass
class SeparationReport:
    passed: bool
    checked: int
    witnesses: list


def separation_check(F: DomeFamily, L: LimitSetCloud, trials: int,
                     rng: np.random.Generator, tol: float | None = None
                     ) -> SeparationReport:
    """Sampled hull-side check: geodesics between limit points stay under the graph.

    Each of 12 points sampled on a geodesic joining two cloud points must
    satisfy |p| <= f(p/|p|) + tol wherever the direction is covered. The
    points of all trials are evaluated in one heights call; witnesses come
    in trial order.
    """
    if L.size < 2:
        return SeparationReport(passed=True, checked=0, witnesses=[])
    if tol is None:
        tol = (L.resolution or 0.0) + 1e-9
    chunks = [np.empty((0, L.points.shape[1]))]
    for _ in range(trials):
        i, j = rng.integers(0, L.size, 2)
        if i != j:
            chunks.append(_geodesic_points(L.points[i], L.points[j], 12))
    pts = np.concatenate(chunks)
    norms = np.linalg.norm(pts, axis=1)
    keep = norms > 1e-9
    pts, norms = pts[keep], norms[keep]
    res = F.heights(pts / norms[:, None])
    bad = res.covered & (norms > res.f + tol)
    witnesses = [{"point": pts[b].tolist(), "radius": float(norms[b]),
                  "graph": float(res.f[b])} for b in np.flatnonzero(bad)]
    return SeparationReport(passed=not witnesses,
                            checked=int(res.covered.sum()), witnesses=witnesses)


def _geodesic_points(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    ab = float(a @ b)
    if ab <= -1.0 + 1e-12:
        ts = np.linspace(-0.92, 0.92, count)
        return ts[:, None] * a
    c = (a + b) / (1.0 + ab)
    R2 = float(c @ c) - 1.0
    if R2 <= 0:
        return np.empty((0, a.size))
    R = np.sqrt(R2)
    e1 = (a - c) / np.linalg.norm(a - c)
    v = (b - c) - ((b - c) @ e1) * e1
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.empty((0, a.size))
    e2 = v / nv
    phi_b = float(np.arctan2((b - c) @ e2, (b - c) @ e1)) % (2 * np.pi)
    phis = np.linspace(0.0, phi_b, count + 2)[1:-1]
    return c + R * (np.cos(phis)[:, None] * e1 + np.sin(phis)[:, None] * e2)


@dataclass
class VolumeEstimate:
    value: float
    stderr: float
    samples: int
    covered_fraction: float


class VolumeSums:
    """Running sums of the volume Monte-Carlo over `draws` uniform draws on
    S^n, fed the heights of the draws that land in the region, block by
    block in draw order.

    Each draw contributes one term: the graph's hyperbolic area element
    f^{n-1} sqrt(f^2 + |grad f|^2) (2/(1-f^2))^n at a covered region row, 0
    elsewhere. The covered terms are summed VOLUME_CHUNK at a time in draw
    order, each chunk with math.fsum, and so are their squares about a
    shift, the mean of the first chunk; the chunks are fixed runs of terms,
    so the sums are the same however the draw was split into blocks.
    """

    def __init__(self, n: int, draws: int):
        self.n, self.draws = n, draws
        self.inside = self.covered = 0
        self.total = self.shifted_sq = 0.0
        self.shift: float | None = None
        self._pending = np.empty(0)

    def add(self, res: HeightResult):
        """Fold in the heights of one block's region rows."""
        n, cov = self.n, res.covered
        fc = res.f[cov]
        area = fc ** (n - 1) * np.sqrt(fc**2 + res.grad_sq[cov])
        terms = np.concatenate([self._pending, area * (2.0 / (1.0 - fc**2)) ** n])
        self.inside += cov.size
        self.covered += fc.size
        whole = terms.size - terms.size % VOLUME_CHUNK
        for chunk in terms[:whole].reshape(-1, VOLUME_CHUNK):
            self._fold(chunk)
        self._pending = terms[whole:].copy()

    def flush(self):
        """Fold in the terms short of a whole chunk."""
        if self._pending.size:
            self._fold(self._pending)
            self._pending = np.empty(0)

    def _fold(self, chunk: np.ndarray):
        total = math.fsum(chunk.tolist())
        if self.shift is None:
            self.shift = total / chunk.size
        self.total += total
        self.shifted_sq += math.fsum(((chunk - self.shift) ** 2).tolist())


def graph_volume(sums: VolumeSums) -> VolumeEstimate:
    """Monte-Carlo hyperbolic n-volume of the graph over the region, reduced
    from the sums of its draws; it draws nothing itself.

    The graph map u -> f(u) u has Euclidean area element
    f^{n-1} sqrt(f^2 + |grad f|^2) dA(u); the hyperbolic element scales it by
    (2/(1-f^2))^n at radius f, and the gradient is the governing dome's
    closed-form derivative (dome_gradient_sq). With A the area of S^n and v
    the N = sums.draws terms of VolumeSums, the value is A sum(v) / N and
    the stderr A std(v, ddof=1) / sqrt(N). The squared deviations of v are
    summed in three parts, none of which cancels: those of the c covered
    terms about their mean t (the shifted sum less c (t - shift)^2), c times
    the squared gap from t to the mean m of v, and (N - c) m^2 for the zero
    terms.
    """
    sums.flush()
    N, c = sums.draws, sums.covered
    m = sums.total / N
    sq = (N - c) * m * m
    if c:
        t = sums.total / c
        sq += max(sums.shifted_sq - c * (t - sums.shift) ** 2, 0.0) + c * (t - m) ** 2
    A = sphere_area(sums.n)
    return VolumeEstimate(
        value=A * m, stderr=A * math.sqrt(sq / (N - 1)) / math.sqrt(N),
        samples=N, covered_fraction=c / sums.inside if sums.inside else 0.0)


def bilipschitz_ratios(F: DomeFamily, samples: np.ndarray, res: HeightResult,
                       factor=None) -> np.ndarray:
    """Two-sided distortion of u -> f(u) u against a conformal metric, sampled.

    res is F.heights(samples). Pairs each of the first 1600 covered samples
    with its nearest covered neighbour among them and compares the
    hyperbolic distance of the two graph points with the conformal length
    e^u q(x, y). factor maps sample rows to e^u; by default the band
    surrogate 1/dist(x, cloud) stands in for the invariant factor (the two
    agree up to the band constants). An empirical band, not a certificate.
    """
    U = np.atleast_2d(samples)
    U = U[res.covered]
    fv = res.f[res.covered]
    if U.shape[0] < 2:
        raise ValueError("need at least two covered samples")
    U, fv = U[:1600], fv[:1600]
    d, j = PointIndex(U).nearest(U, k=2)
    q = d[:, 1]
    j = j[:, 1]
    keep = q > 1e-12
    if factor is None:
        _, upper = dist_rows(U, F.cloud)
        eu = 1.0 / upper
    else:
        eu = np.asarray(factor(U), dtype=float)
    P = fv[:, None] * U
    rho = hyperbolic_distance_rows(P[keep], P[j[keep]])
    conf = eu[keep] * q[keep]
    return rho / conf


def graph_band(F: DomeFamily, samples: np.ndarray, res: HeightResult
               ) -> np.ndarray:
    """(1 - f(x)) / dist(x, cloud) over covered samples (upper distances);
    res is F.heights(samples)."""
    U = np.atleast_2d(samples)
    mask = res.covered
    _, upper = dist_rows(U[mask], F.cloud)
    good = upper > 0
    return (1.0 - res.f[mask][good]) / upper[good]


def export_graph_csv(samples: np.ndarray, res: HeightResult, out,
                     header: bool = True) -> None:
    """CSV rows (direction vector, f) over covered samples, with res the
    heights of the samples, appended to out, a text file opened with
    newline="" (limitset.write_csv); with header False the rows alone, so a
    CSV can be written block by block."""
    U = np.atleast_2d(samples)
    names = [f"x{i}" for i in range(U.shape[1])] + ["f"]
    write_csv(out, names if header else None,
              np.column_stack([U[res.covered], res.f[res.covered]]))
