"""Invariant dome-envelope graph over the domain of discontinuity.

Base caps are centered at mesh points of a fundamental region with chordal
radius eps0 * dist(center, limit set); the family is the orbit of those caps
under the truncated group. The dome over a cap of angular radius theta is the
sphere of Euclidean center c/cos(theta) and radius tan(theta), the unique
sphere meeting S^n orthogonally along the cap boundary; the graph height f(x)
is the smallest dome-entry radius along the ray through x.

Families over schottky groups are evaluated through the group factorization:
x lies in the image cap gamma(C) exactly when gamma^-1 x lies in the seed cap
C, and gamma(C) is contained in the inflated nested cap of the word gamma, so
candidate words come from a per-level spatial index of nested caps and only
the touched image caps are ever materialized (each one shape-checked as it is
built). Small families are materialized outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .caps import CapDegenerate, SphericalCap, cap_image, cap_images_batch
from .geom import (
    SpherePoint,
    angle_from_chord,
    chord_from_angle,
    sphere_area,
    uniform_sphere,
)
from .group import GroupPresentation, TAG_SCHOTTKY, Word, enumerate_elements
from .limitset import LimitSetCloud, dist_rows
from .mobius import MobiusMap, inverse, poincare_extend, sphere_action_rows

SHAPE_RATIO_MAX = 0.5
SUPPORT_INFLATION = 1.5
MATERIALIZE_BUDGET = 400_000


class ShrinkEpsilon(RuntimeError):
    """A propagated cap broke the family shape bound; retry with smaller eps0."""


class NotCovered(RuntimeError):
    """Direction is outside the covered part of the domain of discontinuity."""


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

    def restrict(self, extra: Callable[[np.ndarray], np.ndarray],
                 kind: str | None = None) -> "FundamentalRegion":
        base = self.contains
        return FundamentalRegion(
            kind=kind or f"{self.kind}+cut",
            contains=lambda U: base(U) & extra(U),
        )


def schottky_region(G: GroupPresentation) -> FundamentalRegion:
    """Complement of the defining caps."""
    caps = G.ball_caps

    def contains(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        out = np.ones(U.shape[0], dtype=bool)
        for cap in caps:
            out &= ~cap.contains(U)
        return out

    return FundamentalRegion(kind="schottky-cap-complement", contains=contains)


def annulus_region(scale: float) -> FundamentalRegion:
    """Fundamental annulus 1 <= |x| < scale of the dilation x -> scale x."""
    if scale <= 1.0:
        raise ValueError("annulus needs scale > 1")

    def contains(U: np.ndarray) -> np.ndarray:
        from .geom import unembed_rows

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
        from .geom import chordal_to_infinity, unembed_rows

        U = np.atleast_2d(U)
        coords, at_inf = unembed_rows(U)
        t = (coords @ shift) / s2
        q = chordal_to_infinity(coords)
        return (~at_inf) & (t >= 0.0) & (t < 1.0) & (q >= q_floor)

    return FundamentalRegion(kind="cyclic-strip", contains=contains)


# ---------------------------------------------------------------------------
# base caps and region meshes
# ---------------------------------------------------------------------------

def base_caps(sample_points, eps0: float, L: LimitSetCloud) -> list[SphericalCap]:
    """Caps B(x, eps0 * dist(x, L)) with the certified lower distance.

    The chordal radius converts to the angular radius 2 asin(r/2).
    """
    if not 0.0 < eps0 <= 0.5:
        raise ValueError("eps0 must lie in (0, 1/2]")
    rows = _as_unit_rows(sample_points)
    lower, upper = dist_rows(rows, L)
    if not L.certified:
        raise UncertifiedSample("cloud carries no resolution certificate")
    out = []
    for row, lo, up in zip(rows, lower, upper):
        if lo <= 0.0 or up <= L.resolution:
            raise UncertifiedSample(
                "sample sits inside the resolution band of the cloud"
            )
        out.append(SphericalCap(center=row, theta=float(angle_from_chord(eps0 * lo))))
    return out


def _as_unit_rows(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return np.atleast_2d(points)
    rows = []
    for p in points:
        rows.append(p.vec if isinstance(p, SpherePoint) else np.asarray(p, float))
    return np.array(rows)


# Relative slack on kd-tree radii, far above the few ulps by which a tree's
# distance can differ from the norm that confirms each pair.
_TREE_SLACK = 1.0 + 1e-9


def _pairs(lists) -> tuple[np.ndarray, np.ndarray]:
    """(query row, tree row) index arrays from query_ball_point lists."""
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    qi = np.repeat(np.arange(len(lists)), counts)
    ti = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                     count=int(counts.sum()))
    return qi, ti


def _blocked_by_earlier(P: np.ndarray, R: np.ndarray, X: np.ndarray,
                        r: np.ndarray) -> np.ndarray:
    """Rows of X within max(r_i, R_j) of some earlier mesh point P_j.

    The nearest earlier point of each row tests |x_i - p_j| < r_i, and a ball
    query of every earlier disk into a tree of the rows tests |x_i - p_j| <
    R_j; each pair is confirmed with the greedy pass's own norm and
    comparison. A row whose nearest point lies within the slack of r_i but is
    not confirmed is checked against every point in that slack, in case the
    tree's rounding hid a tie.
    """
    out = np.zeros(X.shape[0], dtype=bool)
    tree = cKDTree(P)

    def confirm(xi, pj):
        d = np.linalg.norm(P[pj] - X[xi], axis=1)
        out[xi[d < np.maximum(r[xi], R[pj])]] = True

    dist, near = tree.query(X, distance_upper_bound=float(r.max()) * _TREE_SLACK)
    rows = np.flatnonzero(near < P.shape[0])
    confirm(rows, near[rows])
    tie = np.flatnonzero(~out & (dist < r * _TREE_SLACK))
    if tie.size:
        xi, pj = _pairs(tree.query_ball_point(X[tie], r[tie] * _TREE_SLACK))
        confirm(tie[xi], pj)
    pj, xi = _pairs(cKDTree(X).query_ball_point(P, R * _TREE_SLACK))
    confirm(xi, pj)
    return out


def region_mesh(region: FundamentalRegion, L: LimitSetCloud, eps0: float,
                rng: np.random.Generator, spacing: float = 0.7,
                max_points: int = 30_000, stop_after_rejects: int = 6000,
                batch: int = 8192) -> np.ndarray:
    """Variable-radius Poisson-disk sample of the region.

    Local disk radius is spacing * eps0 * dist(x, L) in the chordal metric, so
    coverage density tracks the base-cap scale and the graph band stays tight.
    Greedy in draw order over batches of uniform directions: a candidate is
    kept when no kept point lies within max(its radius, the kept point's
    radius), and sampling stops after stop_after_rejects refusals in a row
    or at max_points.

    Each batch is rejected in two stages: all at once against the points
    kept in earlier batches (_blocked_by_earlier), then the survivors one by
    one against the points kept earlier in the same batch. Both decide each
    pair with the same norm and comparison and the counter runs in draw
    order, so the mesh and the final generator state match a plain
    sequential pass byte for byte. Returns the kept rows, shape (count, n+1).
    """
    m = L.points.shape[1]
    P = np.empty((0, m))  # kept in earlier batches
    R = np.empty(0)
    rejects = 0
    while P.shape[0] < max_points and rejects < stop_after_rejects:
        cand = uniform_sphere(rng, m - 1, batch)
        cand = cand[region.contains(cand)]
        if cand.shape[0] == 0:
            rejects += batch
            continue
        lower, _ = dist_rows(cand, L)
        r = spacing * eps0 * lower
        free = lower > 0
        if P.shape[0] and free.any():
            free[free] = ~_blocked_by_earlier(P, R, cand[free], r[free])
        survivors = np.flatnonzero(free)
        new = np.empty((survivors.size, m))
        new_r = np.empty(survivors.size)
        k = 0
        last = -1
        for i in survivors.tolist():
            rejects += i - last - 1
            last = i
            if rejects >= stop_after_rejects:
                break
            x, ri = cand[i], r[i]
            if k and np.any(np.linalg.norm(new[:k] - x, axis=1)
                            < np.maximum(ri, new_r[:k])):
                rejects += 1
            else:
                new[k] = x
                new_r[k] = ri
                k += 1
                rejects = 0
            if P.shape[0] + k >= max_points or rejects >= stop_after_rejects:
                break
        else:
            rejects += cand.shape[0] - last - 1
        P = np.concatenate([P, new[:k]])
        R = np.concatenate([R, new_r[:k]])
    return P


# ---------------------------------------------------------------------------
# domes
# ---------------------------------------------------------------------------

def dome_entry_radius(cap: SphericalCap, x) -> float | None:
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


# ---------------------------------------------------------------------------
# dome families
# ---------------------------------------------------------------------------

class _CapIndex:
    """Candidate (row, ball) pairs for balls of mixed angular radii on S^n.

    Balls are grouped by the octave floor(log2 theta) of their radius, and
    each octave has its own kd-tree queried at its own largest chord, so a
    row meets only balls within a factor two of their reach. Every pair
    whose chord is within the ball's radius (with a 1e-7 relative slack) is
    returned; callers confirm each pair with their own test.
    """

    def __init__(self, centers: np.ndarray, thetas: np.ndarray):
        octave = np.frexp(thetas)[1]
        self._buckets = []
        for e in np.unique(octave):
            idx = np.flatnonzero(octave == e)
            chord = float(chord_from_angle(thetas[idx].max()) * 1.0000001)
            self._buckets.append((cKDTree(centers[idx]), chord, idx))

    def pairs(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row of U, ball) index arrays, in no particular order."""
        rows = cKDTree(U)
        qi, bi = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for tree, chord, idx in self._buckets:
            m = rows.sparse_distance_matrix(tree, chord, output_type="ndarray")
            qi.append(m["i"])
            bi.append(idx[m["j"]])
        return np.concatenate(qi), np.concatenate(bi)


@dataclass
class HeightResult:
    f: np.ndarray
    covered: np.ndarray
    theta: np.ndarray  # angular radius of the governing cap


@dataclass
class _WordLevel:
    words: list[Word]
    inv_maps: list[MobiusMap]
    centers: np.ndarray
    support_cos: np.ndarray  # cos of inflated support angles
    index: _CapIndex


class DomeFamily:
    """Truncated invariant ball family with a height evaluator.

    mode "materialized" stores every image cap; mode "factored" (schottky)
    stores seed caps plus per-word nested support caps and materializes image
    caps lazily with a cache. Both modes measure the family shape bound
    (diameter over distance-to-limit-set within (0, 1/2]) on every cap they
    materialize; the factored mode additionally audits a random sample of the
    full product at build time. Under shape_policy "record" (default) upper
    bound violations are counted and flagged, matching pipelines that pin
    eps0 above the strict Prop-1.1 regime of the group; "strict" aborts on
    the first measurable violation. Caps reaching a hemisphere always abort.

    Every height query draws its candidates from a _CapIndex: the
    materialized caps, the seed caps (also for the factored pass's mapped
    rows) and each level's nested supports. Each candidate is confirmed by
    its caller's own test, and candidate_pairs / hit_pairs count both. A row
    takes the smallest entry radius; ties go to the lowest cap index, and in
    the factored pass to the first cap met in (level, word, seed) order.
    """

    def __init__(self, G: GroupPresentation, cloud: LimitSetCloud,
                 seed_caps: list[SphericalCap], max_len: int,
                 mode: str = "auto", audit: int = 1500, rng=None,
                 shape_policy: str = "record"):
        if shape_policy not in ("record", "strict"):
            raise ValueError("shape_policy must be 'record' or 'strict'")
        self.G = G
        self.cloud = cloud
        self.seed_caps = list(seed_caps)
        self.max_len = max_len
        self.shape_policy = shape_policy
        self.shape_ratios: list[float] = []
        self.shape_unresolved = 0
        self.shape_violations = 0
        self.candidate_pairs = 0
        self.hit_pairs = 0
        self._img_cache: dict[tuple[int, int, int], SphericalCap] = {}
        self._seed_centers = np.array([c.center for c in self.seed_caps])
        self._seed_thetas = np.array([c.theta for c in self.seed_caps])
        self._seed_cos = np.cos(self._seed_thetas)
        self._seed_index = _CapIndex(self._seed_centers, self._seed_thetas)
        if mode == "auto":
            count = len(self.seed_caps) * _word_count_estimate(G, max_len)
            mode = (
                "factored"
                if G.tag == TAG_SCHOTTKY and count > MATERIALIZE_BUDGET
                else "materialized"
            )
            if mode == "materialized" and count > MATERIALIZE_BUDGET:
                raise ShrinkEpsilon(
                    f"family of ~{count} caps exceeds the materialization "
                    "budget and the group is not schottky-factorable"
                )
        self.mode = mode
        for cap in self.seed_caps:
            self._verify_shape(cap)
        if mode == "materialized":
            self._materialize()
        else:
            self._build_levels()
            self._audit_shape(audit, rng or np.random.default_rng(0))

    # -- construction ------------------------------------------------------

    def _seed_probe_stack(self) -> np.ndarray:
        if not hasattr(self, "_seed_boundary"):
            self._seed_boundary = np.stack(
                [c.boundary_points(count=8) for c in self.seed_caps]
            )
        return self._seed_boundary

    def _materialize(self):
        words = enumerate_elements(self.G, self.max_len)
        self.words = words
        boundary = self._seed_probe_stack()
        centers = [self._seed_centers]
        thetas = [self._seed_thetas]
        for w in words:
            if len(w) == 0:
                continue
            nu, th, valid, probes = cap_images_batch(
                w.map, boundary, self._seed_centers, self._seed_thetas
            )
            if not valid.all():
                raise ShrinkEpsilon(
                    "a propagated cap reached a hemisphere; choose a smaller eps0"
                )
            self._shape_check_batch(probes)
            centers.append(nu)
            thetas.append(th)
        self._all_centers = np.concatenate(centers)
        self._all_thetas = np.concatenate(thetas)
        self._all_cos = np.cos(self._all_thetas)
        self._all_index = _CapIndex(self._all_centers, self._all_thetas)

    def _shape_check_batch(self, probes: np.ndarray):
        """Shape bound on stacks of exactly mapped cap probes, (S, k, m)."""
        S, k, m = probes.shape
        d2 = (
            np.einsum("ijk,ijk->ij", probes, probes)[:, :, None]
            + np.einsum("ijk,ijk->ij", probes, probes)[:, None, :]
            - 2.0 * np.einsum("ijk,ilk->ijl", probes, probes)
        )
        diam = np.sqrt(np.maximum(d2.max(axis=(1, 2)), 0.0))
        near, _ = self.cloud.tree.query(probes.reshape(S * k, m))
        near_min = near.reshape(S, k).min(axis=1)
        res = self.cloud.resolution or 0.0
        unresolved = (diam <= 8.0 * res) | (near_min <= 3.0 * res)
        self.shape_unresolved += int(unresolved.sum())
        meas = ~unresolved
        if np.any(meas):
            ratio = diam[meas] / (near_min[meas] - res)
            bad = ratio > SHAPE_RATIO_MAX
            if np.any(bad):
                if self.shape_policy == "strict":
                    raise ShrinkEpsilon(
                        f"image cap shape ratio {ratio.max():.3f} exceeds 1/2; "
                        "choose a smaller eps0"
                    )
                self.shape_violations += int(bad.sum())
            self.shape_ratios.extend(ratio.tolist())

    def _build_levels(self):
        """Per-level words and inflated nested supports from G.word_tree."""
        tree = self.G.word_tree
        self.words = enumerate_elements(self.G, self.max_len)
        levels: list[_WordLevel] = []
        for d in range(1, self.max_len + 1):
            words = tree.level(d)
            support = tree.nested_caps(d)
            support_angles = np.minimum(
                np.array([c.theta for c in support]) * SUPPORT_INFLATION + 1e-12,
                np.pi / 2 - 1e-9,
            )
            centers = np.array([c.center for c in support])
            levels.append(
                _WordLevel(
                    words=words,
                    inv_maps=[inverse(w.map) for w in words],
                    centers=centers,
                    support_cos=np.cos(support_angles),
                    index=_CapIndex(centers, support_angles),
                )
            )
        self._levels = levels

    def _audit_shape(self, count: int, rng: np.random.Generator):
        total_words = sum(len(lv.words) for lv in self._levels)
        if total_words == 0 or not self.seed_caps:
            return
        for _ in range(count):
            li = int(rng.integers(0, len(self._levels)))
            lv = self._levels[li]
            wi = int(rng.integers(0, len(lv.words)))
            si = int(rng.integers(0, len(self.seed_caps)))
            self._image_cap(li, wi, si)

    # -- cap bookkeeping ----------------------------------------------------

    def _verify_shape(self, cap: SphericalCap) -> SphericalCap:
        diam = cap.chordal_diameter
        # angle to the nearest sample through the chord, stable at small gaps
        chord = float(np.linalg.norm(cap.center - _nearest_unit(self.cloud, cap.center)))
        ang = float(angle_from_chord(chord))
        gap = max(ang - cap.theta, 0.0)
        dist_lo = max(float(chord_from_angle(gap)) - (self.cloud.resolution or 0.0), 0.0)
        if dist_lo <= 0.0:
            raise ShrinkEpsilon("cap touches the limit-set resolution band")
        ratio = diam / dist_lo
        if ratio > SHAPE_RATIO_MAX:
            if self.shape_policy == "strict":
                raise ShrinkEpsilon(
                    f"cap shape ratio {ratio:.3f} exceeds 1/2; choose a smaller eps0"
                )
            self.shape_violations += 1
        self.shape_ratios.append(ratio)
        return cap

    def _image_cap_checked(self, m: MobiusMap, seed: SphericalCap) -> SphericalCap:
        try:
            img = cap_image(m, seed)
        except CapDegenerate as exc:
            raise ShrinkEpsilon(str(exc)) from exc
        self._verify_shape_mapped(m, seed)
        return img

    def _verify_shape_mapped(self, m: MobiusMap, seed: SphericalCap):
        """Shape bound for an image cap, measured on exactly mapped probes.

        The fitted cap parameters lose the center direction once the image
        is many orders smaller than the probes' absolute roundoff, so the
        diameter and cloud distance are taken from the mapped boundary
        points themselves. Caps whose scale falls below the cloud's
        certified resolution cannot be measured against it and are counted
        as unresolved rather than failed.
        """
        probes = seed.boundary_points(count=8)
        pts = sphere_action_rows(m, np.vstack([probes, seed.center[None, :]]))
        self._shape_check_batch(pts[None, :, :])

    def _image_cap(self, li: int, wi: int, si: int) -> SphericalCap:
        key = (li, wi, si)
        cached = self._img_cache.get(key)
        if cached is None:
            cached = self._image_cap_checked(
                self._levels[li].words[wi].map, self.seed_caps[si]
            )
            self._img_cache[key] = cached
        return cached

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
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.mode == "materialized":
            f, theta = self._min_over_index(
                U, self._all_index, self._all_centers, self._all_cos,
                self._all_thetas,
            )
        else:
            f, theta = self._min_over_index(
                U, self._seed_index, self._seed_centers, self._seed_cos,
                self._seed_thetas,
            )
            self._factored_pass(U, f, theta)
        covered = np.isfinite(f)
        f[~covered] = np.nan
        return HeightResult(f=f, covered=covered, theta=theta)

    def _min_over_index(self, U, index, centers, cosines, thetas):
        """(f, theta) over the caps of one index; inf and 0 where none is met."""
        N = U.shape[0]
        pi, pj = index.pairs(U)
        d = np.einsum("ij,ij->i", U[pi], centers[pj]) / cosines[pj]
        hit = d >= 1.0
        self.candidate_pairs += pi.size
        self.hit_pairs += int(hit.sum())
        pi, pj, d = pi[hit], pj[hit], d[hit]
        t = d - np.sqrt(d * d - 1.0)
        f = np.full(N, np.inf)
        np.minimum.at(f, pi, t)
        best = t == f[pi]
        cap = np.full(N, len(thetas))
        np.minimum.at(cap, pi[best], pj[best])
        theta = np.zeros(N)
        rows = np.flatnonzero(np.isfinite(f))
        theta[rows] = thetas[cap[rows]]
        return f, theta

    def _confirmed(self, index, U, centers, cosines):
        """(row, ball) pairs of the index whose row lies in the ball."""
        r, b = index.pairs(U)
        hit = np.einsum("ij,ij->i", U[r], centers[b]) >= cosines[b]
        self.candidate_pairs += r.size
        self.hit_pairs += int(hit.sum())
        return r[hit], b[hit]

    def _factored_pass(self, U, f, theta):
        for li, lv in enumerate(self._levels):
            # (sample, word) pairs with the sample inside the word's inflated
            # nested support cap, visited word by word in the order of each
            # word's first sample, samples ascending within a word
            i, w = self._confirmed(lv.index, U, lv.centers, lv.support_cos)
            if i.size == 0:
                continue
            first = np.full(len(lv.words), U.shape[0])
            np.minimum.at(first, w, i)
            order = np.lexsort((i, w, first[w]))
            i, w = i[order], w[order]
            cuts = np.flatnonzero(w[1:] != w[:-1]) + 1
            Y = np.concatenate([
                sphere_action_rows(lv.inv_maps[ws[0]], U[rs])
                for rs, ws in zip(np.split(i, cuts), np.split(w, cuts))
            ])
            k, si = self._confirmed(self._seed_index, Y, self._seed_centers,
                                    self._seed_cos)
            order = np.lexsort((si, k))
            for kk, s in zip(k[order].tolist(), si[order].tolist()):
                gi = i[kk]
                img = self._image_cap(li, int(w[kk]), s)
                t = dome_entry_radius(img, U[gi])
                if t is not None and t < f[gi]:
                    f[gi] = t
                    theta[gi] = img.theta


def _word_count_estimate(G: GroupPresentation, max_len: int) -> int:
    k = 2 * G.rank
    if k <= 1:
        return 2 * max_len + 1
    total = 1
    level = 1
    for _ in range(max_len):
        level = level * (k - 1) if level > 1 else k
        total += level
    return total


def _nearest_unit(cloud: LimitSetCloud, u: np.ndarray) -> np.ndarray:
    _, idx = cloud.tree.query(u[None, :])
    return cloud.points[int(idx[0])]


def height(F: DomeFamily, x) -> float:
    """f(x) for a single direction; raises NotCovered off the covered region."""
    u = x.vec if isinstance(x, SpherePoint) else np.asarray(x, float)
    res = F.heights(u[None, :])
    if not res.covered[0]:
        raise NotCovered("no dome met along this direction")
    return float(res.f[0])


# ---------------------------------------------------------------------------
# diagnostics on the graph
# ---------------------------------------------------------------------------

def check_invariance(F: DomeFamily, gamma: MobiusMap, samples: np.ndarray
                     ) -> tuple[float, int]:
    """Max radial deviation of mapped graph points from the graph.

    Pushes the graph point over each covered sample through the extension of
    gamma and measures how far (radially) the image sits from the graph at
    the image direction. Exact invariance of a group-closed family makes this
    zero up to roundoff on the matched-truncation region.
    """
    U = np.atleast_2d(samples)
    res = F.heights(U)
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


def lipschitz_estimate(F: DomeFamily, samples: np.ndarray,
                       max_pairs: int = 200_000) -> float:
    """Empirical Lipschitz constant sup |f(x)-f(y)| / q(x, y) over sample pairs."""
    U = np.atleast_2d(samples)
    res = F.heights(U)
    U = U[res.covered]
    fv = res.f[res.covered]
    m = U.shape[0]
    if m < 2:
        raise ValueError("need at least two covered samples")
    cap = int(np.sqrt(2 * max_pairs)) + 1
    if m > cap:
        U, fv = U[:cap], fv[:cap]
        m = cap
    diff = np.abs(fv[:, None] - fv[None, :])
    q = np.linalg.norm(U[:, None, :] - U[None, :, :], axis=-1)
    iu = np.triu_indices(m, k=1)
    q_iu = q[iu]
    good = q_iu > 1e-12
    return float(np.max(diff[iu][good] / q_iu[good]))


@dataclass
class SeparationReport:
    passed: bool
    checked: int
    witnesses: list


def separation_check(F: DomeFamily, L: LimitSetCloud, trials: int,
                     rng: np.random.Generator, tol: float | None = None,
                     points_per_geodesic: int = 12) -> SeparationReport:
    """Sampled hull-side check: geodesics between limit points stay under the graph.

    Every sampled point p on a geodesic joining two cloud points must satisfy
    |p| <= f(p/|p|) + tol wherever the direction is covered. The points of
    all trials are evaluated in one heights call; witnesses come in trial
    order.
    """
    if L.size < 2:
        return SeparationReport(passed=True, checked=0, witnesses=[])
    if tol is None:
        tol = (L.resolution or 0.0) + 1e-9
    chunks = [np.empty((0, L.points.shape[1]))]
    for _ in range(trials):
        i, j = rng.integers(0, L.size, 2)
        if i != j:
            chunks.append(_geodesic_points(L.points[i], L.points[j],
                                           points_per_geodesic))
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


def graph_volume(F: DomeFamily, region: FundamentalRegion, n_samples: int,
                 seed: int = 0, grad_step: float = 1e-4) -> VolumeEstimate:
    """Monte-Carlo hyperbolic n-volume of the graph over the region.

    The graph map u -> f(u) u has Euclidean area element
    f^{n-1} sqrt(f^2 + |grad f|^2) dA(u); the hyperbolic element scales it by
    (2/(1-f^2))^n at radius f. The gradient uses central differences with an
    angular step proportional to the governing cap radius.
    """
    rng = np.random.default_rng(seed)
    n = F.G.n
    U = uniform_sphere(rng, n, n_samples)
    in_region = region.contains(U)
    vals = np.zeros(n_samples)
    idx = np.nonzero(in_region)[0]
    if idx.size:
        Ur = U[idx]
        res = F.heights(Ur)
        cov = res.covered
        if cov.any():
            Uc = Ur[cov]
            fc = res.f[cov]
            step = grad_step * np.maximum(res.theta[cov], 1e-12)
            grad2 = _tangent_gradient_sq(F, Uc, fc, step)
            area = fc ** (n - 1) * np.sqrt(fc**2 + grad2)
            hyp = (2.0 / (1.0 - fc**2)) ** n
            vals[idx[cov]] = area * hyp
        covered_fraction = float(cov.mean())
    else:
        covered_fraction = 0.0
    A = sphere_area(n)
    value = A * float(vals.mean())
    stderr = A * float(vals.std(ddof=1) / np.sqrt(n_samples))
    return VolumeEstimate(value=value, stderr=stderr, samples=n_samples,
                          covered_fraction=covered_fraction)


def _tangent_gradient_sq(F: DomeFamily, U: np.ndarray, f: np.ndarray,
                         step: np.ndarray) -> np.ndarray:
    """|grad f|^2 by central differences in an orthonormal tangent frame."""
    m = U.shape[1]
    # frames: QR of [u | I] per row gives u plus an orthonormal complement
    eye = np.broadcast_to(np.eye(m), (U.shape[0], m, m))
    stacked = np.concatenate([U[:, :, None], eye], axis=2)
    Q, _ = np.linalg.qr(stacked)
    frames = Q[:, :, 1:m]  # (N, m, m-1)
    grad2 = np.zeros(U.shape[0])
    for k in range(m - 1):
        e = frames[:, :, k]
        plus = U + step[:, None] * e
        minus = U - step[:, None] * e
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        rp = F.heights(plus)
        rm = F.heights(minus)
        ang = np.arccos(np.clip(np.einsum("ij,ij->i", plus, minus), -1, 1))
        ok = rp.covered & rm.covered & (ang > 0)
        d = np.zeros(U.shape[0])
        d[ok] = (rp.f[ok] - rm.f[ok]) / ang[ok]
        grad2 += d * d
    return grad2


def bilipschitz_ratios(F: DomeFamily, samples: np.ndarray,
                       factor=None, max_pairs: int = 800) -> np.ndarray:
    """Two-sided distortion of u -> f(u) u against a conformal metric, sampled.

    Pairs each covered sample with its nearest covered neighbour and compares
    the hyperbolic distance of the two graph points with the conformal length
    e^u q(x, y). factor maps sample rows to e^u; by default the band
    surrogate 1/dist(x, cloud) stands in for the invariant factor (the two
    agree up to the band constants). An empirical band, not a certificate.
    """
    from .geom import hyperbolic_distance_rows

    U = np.atleast_2d(samples)
    res = F.heights(U)
    U = U[res.covered]
    fv = res.f[res.covered]
    if U.shape[0] < 2:
        raise ValueError("need at least two covered samples")
    if U.shape[0] > 2 * max_pairs:
        U, fv = U[: 2 * max_pairs], fv[: 2 * max_pairs]
    tree = cKDTree(U)
    d, j = tree.query(U, k=2)
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


def graph_band(F: DomeFamily, samples: np.ndarray) -> np.ndarray:
    """(1 - f(x)) / dist(x, cloud) over covered samples (upper distances)."""
    U = np.atleast_2d(samples)
    res = F.heights(U)
    mask = res.covered
    _, upper = dist_rows(U[mask], F.cloud)
    good = upper > 0
    return (1.0 - res.f[mask][good]) / upper[good]


def export_graph_csv(F: DomeFamily, samples: np.ndarray, path) -> None:
    """CSV rows (direction vector, f) over covered samples."""
    import csv

    U = np.atleast_2d(samples)
    res = F.heights(U)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(U.shape[1])] + ["f"])
        for row, fv, cov in zip(U, res.f, res.covered):
            if not cov:
                continue
            writer.writerow([repr(float(v)) for v in row] + [repr(float(fv))])
