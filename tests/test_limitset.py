"""Limit-set clouds: sampling, distances, box dimension, distortion ratios."""

import csv
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from kleinlab import geom, group, limitset, mobius
from kleinlab.geom import ExtPoint
from kleinlab.group import make_cyclic
from kleinlab.limitset import (
    LimitSetCloud,
    box_dimension,
    default_scale_grid,
    dist_rows,
    distortion_rows,
    greedy_net_counts,
    sample_limit_set,
    sullivan_lambda0,
)

from util import BLOCK_EDGES, brute_sq, level_children, reference_schottky

RNG = np.random.default_rng(999)


class TestSampling:
    def test_cyclic_loxodromic_two_fixed_points(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 3)
        assert cloud.size == 2
        # fixed points of x -> 2x are 0 (south pole) and infinity (north pole)
        expected = {(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)}
        got = {tuple(np.round(p, 12)) for p in cloud.points}
        assert got == expected
        assert cloud.warnings

    def test_cyclic_parabolic_single_point(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        assert cloud.size == 1
        assert np.allclose(cloud.points[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_schottky_depth_counts_and_resolution(self):
        G = reference_schottky()
        prev_res = None
        for depth in (2, 3, 4):
            cloud = sample_limit_set(G, depth)
            assert cloud.size == 4 * 3 ** (depth - 1)
            assert cloud.certified and cloud.resolution > 0
            if prev_res is not None:
                assert cloud.resolution < prev_res
            prev_res = cloud.resolution

    def test_schottky_points_are_single_row_images(self):
        # the tree maps every child stack of a level in one call; every sample
        # keeps the bits of mapping its target-cap center alone
        G = reference_schottky()
        tree = G.word_tree
        cloud = sample_limit_set(G, 6)
        want = np.array([
            mobius.sphere_action_rows(w.map, G.letter_target_cap(s).center[None])[0]
            for w, s in level_children(tree, 6)
        ])
        assert cloud.points.tobytes() == want.tobytes()

    def test_resolution_floored_at_row_round_off(self):
        # caps of chordal radius 0.006 nest below 1e-15 by depth 4
        G = reference_schottky(theta=float(2.0 * np.arcsin(0.003)))
        floor = np.sqrt(3) * 5 * np.finfo(float).eps / 2
        assert sample_limit_set(G, 3).resolution > floor
        assert sample_limit_set(G, 4).resolution == floor

    def test_schottky_points_inside_defining_caps(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 4)
        inside = np.zeros(cloud.size, dtype=bool)
        for cap in G.ball_caps:
            inside |= cap.contains(cloud.points)
        assert inside.all()

    def test_schottky_points_distinct(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 4)
        d, _ = cKDTree(cloud.points).query(cloud.points, k=2)
        assert np.min(d[:, 1]) > 1e-12

    def test_custom_needs_seeds(self):
        # a custom presentation has no sampler, and no seed points rescue it
        g1 = mobius.affine(2, r=4.0)
        conj = mobius.sphere_inversion([5.0, 0.0], 1.0)
        g2 = mobius.compose(conj, mobius.compose(g1, mobius.inverse(conj)))
        G = group.GroupPresentation(n=2, generators=(g1, g2))
        with pytest.raises(ValueError, match="validate-only"):
            sample_limit_set(G, 2)
        with pytest.raises(TypeError):
            sample_limit_set(G, 2, seeds=(ExtPoint.finite([0.3, 0.8]),))

    def test_cloud_invariance_under_generators(self):
        # a mapped depth-d sample is a depth-(d-1) approximant of the limit
        # set, so the sampled Hausdorff defect is bounded by that resolution
        G = reference_schottky()
        coarse = sample_limit_set(G, 4)
        cloud = sample_limit_set(G, 5)
        for g in G.generators:
            # max distance from mapped samples back to the cloud
            _, d = dist_rows(mobius.sphere_action_rows(g, cloud.points), cloud)
            defect = np.max(d)
            assert defect <= coarse.resolution + cloud.resolution


def blocked_brute_diameter(points):
    """Largest pairwise distance, every pair by the difference formula."""
    sub = points if len(points) <= 4000 else points[:: len(points) // 4000 + 1]
    d2 = max(np.max(np.sum((sub[i:i + 256, None, :] - sub[None, :, :]) ** 2,
                           axis=-1)) for i in range(0, len(sub), 256))
    return float(np.sqrt(d2))


class TestDiameter:
    def test_blocked_rows_match_one_shot_formula(self):
        pts = geom.uniform_sphere(np.random.default_rng(32), 2, 700)
        cloud = LimitSetCloud(n=2, points=pts, depth=0, resolution=None)
        d2 = np.max(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        assert cloud.diameter() == float(np.sqrt(d2))

    @pytest.mark.parametrize("depth", [5, 6, 7, 8])
    def test_reference_clouds_match_brute_force_bitwise(self, depth):
        cloud = sample_limit_set(reference_schottky(), depth)
        assert cloud.diameter() == blocked_brute_diameter(cloud.points)

    def test_peak_memory_is_bounded_by_the_block(self):
        # screening every block's pairs before the difference formula
        # peaked at 23 MB on this cloud, a running maximum at 3.1 MB
        cloud = sample_limit_set(reference_schottky(), 7)
        tracemalloc.start()
        try:
            cloud.diameter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("size", [2, 3, *BLOCK_EDGES])
    def test_small_and_block_edge_clouds_match_brute_force_bitwise(self, size):
        for seed in range(3):
            pts = geom.uniform_sphere(np.random.default_rng([size, seed]), 2,
                                      size)
            cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
            assert cloud.diameter() == blocked_brute_diameter(pts)

    @pytest.mark.parametrize("size", [4, 130, 300, 2100])
    def test_tied_extreme_pairs_match_brute_force_bitwise(self, size):
        # antipodal pairs +-u tie at distance 2 up to the rounding of u, where
        # the screen and the difference formula can rank them apart; the
        # octahedron vertices tie exactly
        for seed in range(5):
            rng = np.random.default_rng([size, seed])
            u = geom.uniform_sphere(rng, 2, size)
            pts = np.vstack([u, -u, np.eye(3), -np.eye(3), 0.5 * u])
            pts = pts[rng.permutation(len(pts))]
            cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
            assert cloud.diameter() == blocked_brute_diameter(pts)

    @pytest.mark.parametrize("m", [3, 4])
    def test_uniform_clouds_match_brute_force_bitwise(self, m):
        # no leaf pair of a uniform cloud is far below the diameter, so few
        # are pruned
        pts = geom.uniform_sphere(np.random.default_rng([m, 3000]), m - 1, 3000)
        cloud = LimitSetCloud(n=m - 1, points=pts, depth=1, resolution=None)
        assert cloud.diameter() == blocked_brute_diameter(pts)

    def test_equal_rows_have_diameter_zero(self):
        u = geom.uniform_sphere(np.random.default_rng(4), 2, 1)
        for size in (2, 17, 500):
            cloud = LimitSetCloud(n=2, points=np.repeat(u, size, axis=0),
                                  depth=1, resolution=None)
            assert cloud.diameter() == 0.0

    def test_two_rows_give_their_distance(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert LimitSetCloud(n=2, points=pts, depth=1,
                             resolution=None).diameter() == 2.0
        for m in (3, 4):
            pts = geom.uniform_sphere(np.random.default_rng(m), m - 1, 2)
            cloud = LimitSetCloud(n=m - 1, points=pts, depth=1, resolution=None)
            assert cloud.diameter() == float(np.sqrt(np.sum((pts[0] - pts[1]) ** 2)))

    def test_a_pair_an_ulp_longer_than_the_start_is_found(self):
        # from X the farthest row is Y, at distance 2; A and B lie 2 + 2^-51
        # apart. Sixteen copies of each row make every leaf a single row,
        # so the bound of the leaves of A and B is their distance itself
        X, Y, A = np.eye(3)[0], -np.eye(3)[0], np.eye(3)[2]
        B = -(1.0 + 2.0 ** -51) * A
        pts = np.repeat(np.array([X, Y, A, B]), 16, axis=0)
        cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
        assert cloud.diameter() == blocked_brute_diameter(pts) > 2.0
        assert np.sort(cloud.index._starts[-1]).tolist() == [0, 16, 32, 48, 64]

    def test_reference_diameter_computes_few_of_the_pairs(self, monkeypatch):
        # the depth-7 cloud has 2916 * 2915 / 2 = 4,250,070 pairs
        cloud = sample_limit_set(reference_schottky(), 7)
        computed = []

        def counted(f):
            def g(*args):
                out = f(*args)
                computed.append(out.size)
                return out
            return g

        for name in ("_sq_dist", "_sq_dist_cols"):
            monkeypatch.setattr(limitset, name, counted(getattr(limitset, name)))
        assert cloud.diameter() == blocked_brute_diameter(cloud.points)
        assert 0 < sum(computed) < 4_250_070 / 4


class TestPairBlocks:
    @pytest.mark.parametrize("size", [0, 1, 2, 3, *BLOCK_EDGES])
    def test_every_pair_once_with_the_difference_formula_bits(self, size):
        P = geom.uniform_sphere(np.random.default_rng(size), 2, size)
        want = np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=-1)
        seen = np.zeros((size, size), dtype=int)
        for a, s in limitset.pair_blocks(P):
            b = a + len(s)
            assert s.shape == (b - a, size - a)
            assert np.array_equal(s, want[a:b, a:])
            seen[a:b, a:] += 1
        assert np.array_equal(np.triu(seen, 1), np.triu(np.ones_like(seen), 1))
        assert seen.max(initial=1) == 1


def kdtree_net_count(points, scale):
    """Greedy net count through kd-tree ball queries, the reference."""
    tree = cKDTree(points)
    covered = np.zeros(len(points), dtype=bool)
    count = 0
    for i in range(len(points)):
        if not covered[i]:
            count += 1
            covered[tree.query_ball_point(points[i], scale)] = True
            covered[i] = True
    return count


def assert_nets_match(cloud, scales):
    counts = greedy_net_counts(cloud, scales)
    assert counts == [kdtree_net_count(cloud.points, s) for s in scales]


class TestSweep:
    @pytest.mark.parametrize("depth", [5, 6, 7, 8])
    def test_net_counts_match_kdtree_on_reference_clouds(self, depth):
        cloud = sample_limit_set(reference_schottky(), depth)
        assert_nets_match(cloud, default_scale_grid(cloud))

    @pytest.mark.parametrize("size", [1, 2, 50, 700])
    def test_net_counts_match_kdtree_on_random_clouds(self, size):
        rng = np.random.default_rng(size)
        pts = geom.uniform_sphere(rng, 2, size)
        # repeated rows and rows a few ulps apart tie with their originals
        pts = np.vstack([pts, pts[: size // 3], pts[: size // 3] * (1 + 1e-15)])
        cloud = LimitSetCloud(n=2, points=pts[rng.permutation(len(pts))],
                              depth=1, resolution=None)
        assert_nets_match(cloud, [0.0, 1e-15, *np.geomspace(2.0, 1e-3, 12)])

    def test_great_circle_cloud_sweeps_along_its_plane(self):
        # the cloud has no extent along x0, so the sweep takes x1 or x2
        t = np.random.default_rng(5).uniform(0, 2 * np.pi, 400)
        pts = np.stack([np.zeros_like(t), np.cos(t), np.sin(t)], axis=1)
        cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
        assert cloud.sweep.axis != 0
        assert_nets_match(cloud, np.geomspace(2.0, 1e-3, 16))

    def test_pair_at_exactly_the_scale_is_covered(self):
        # the pairs differ by exactly 0.5 along the sweep axis and across it
        pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [1.0, 0.5, 0.0]])
        cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
        assert cloud.sweep.axis == 0
        assert greedy_net_counts(cloud, [0.5]) == [2]
        assert greedy_net_counts(cloud, [np.nextafter(0.5, 0.0)]) == [4]
        assert_nets_match(cloud, [0.5, np.nextafter(0.5, 0.0)])

    @pytest.mark.parametrize("m", [3, 4])
    def test_one_call_matches_kdtree_at_any_scales(self, m):
        # unsorted, repeated, zero and sub-ulp scales, more than one pass's
        # 64, on a cloud with repeated rows and rows a few ulps apart
        rng = np.random.default_rng([m, 64])
        pts = geom.uniform_sphere(rng, m - 1, 300)
        pts = np.vstack([pts, pts[:80], pts[80:160] * (1 + 1e-15),
                         pts[160:200] * (1 - 3e-16)])
        cloud = LimitSetCloud(n=m - 1, points=pts[rng.permutation(len(pts))],
                              depth=1, resolution=None)
        scales = [0.3, 0.0, 1e-15, 0.3,
                  *rng.permutation(np.geomspace(2.0, 1e-4, 66)), 1e-15, 0.0]
        assert len(scales) > 64
        assert_nets_match(cloud, scales)

    def test_many_scales_at_once_are_one_scale_at_a_time(self):
        cloud = sample_limit_set(reference_schottky(), 6)
        scales = [*default_scale_grid(cloud), *np.geomspace(1.0, 1e-6, 50), 0.0]
        assert greedy_net_counts(cloud, scales) == [
            greedy_net_counts(cloud, [s])[0] for s in scales]
        assert greedy_net_counts(cloud, []) == []

    def test_chunked_pairs_are_the_unchunked_pairs(self):
        # enough rows for several chunks of whole windows: together they are
        # every (row, position) of every window, in row order
        cloud = sample_limit_set(reference_schottky(), 5)
        U = geom.uniform_sphere(np.random.default_rng(8), 2, 4000)
        chunks = list(cloud.sweep.pairs(U, 0.1))
        assert len(chunks) > 1
        i, j, d2 = (np.concatenate(a) for a in zip(*chunks))
        lo, hi = cloud.sweep.window(U, 0.1)
        assert np.array_equal(i, np.repeat(np.arange(len(U)), hi - lo))
        assert np.array_equal(j, np.concatenate(
            [np.arange(a, b) for a, b in zip(lo, hi)]))
        P = cloud.sweep.points
        assert np.array_equal(d2, np.sum((P[j] - U[i]) ** 2, axis=1))

    @pytest.mark.parametrize("side", [np.inf, 0.05])
    @pytest.mark.parametrize("r", [0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 3.0])
    def test_screen_passes_every_row_within_r(self, side, r):
        for m in (3, 4):  # S^2 and S^3
            rng = np.random.default_rng([int(-np.log10(r)) if r else 99, 7, m])
            P = geom.uniform_sphere(rng, m - 1, 300)
            sweep = limitset.Sweep(P, side)
            step = geom.uniform_sphere(rng, m - 1, 300)
            # rows on the points, within r of them, exactly r from them
            # along every axis, and anywhere
            Q = np.vstack([P, P + 0.7 * r * step, *(P + r * e for e in np.eye(m)),
                           *(P - r * e for e in np.eye(m)),
                           geom.uniform_sphere(rng, m - 1, 3000)])
            within = np.any(brute_sq(Q, P) <= r * r, axis=1)
            near = sweep.screen(r)(Q)
            assert near.dtype == bool and near.shape == (len(Q),)
            assert near[within].all() and near[:-3000].all()
            if r <= 1e-6:  # cells of 2 / 1216 or less on every axis
                assert near[-3000:].mean() < 0.2  # 0.08-0.14 of the rows pass

    def test_screen_of_empty_and_one_point_sets(self):
        Q = geom.uniform_sphere(np.random.default_rng(9), 2, 50)
        assert not limitset.Sweep(np.empty((0, 3))).screen(1.0)(Q).any()
        near = limitset.Sweep(Q[:1]).screen(0.0)(Q)
        assert near[0] and near.sum() == 1  # the cells are 2^-50 wide
        assert limitset.Sweep(Q[:1]).screen(2.0)(Q).all()


def brute_nearest(Q, P, k):
    """(distances, indices) of the k nearest points by brute_sq, ties to the
    lower index, inf and len(P) past the last point."""
    s = brute_sq(Q, P)
    order = np.argsort(s, axis=1, kind="stable")[:, :k]
    d = np.sqrt(np.take_along_axis(s, order, axis=1))
    pad = k - order.shape[1]
    return (np.pad(d, ((0, 0), (0, pad)), constant_values=np.inf),
            np.pad(order, ((0, 0), (0, pad)), constant_values=len(P)))


def pair_set(i, j):
    return set(zip(np.asarray(i).tolist(), np.asarray(j).tolist()))


def sphere_rows(rng, m, size):
    return geom.uniform_sphere(rng, m - 1, size)


def sweep_pairs(P, Q, r, side=None):
    """(row, point) pairs within r from a Sweep of P in columns of side
    (r by default)."""
    sweep = limitset.Sweep(P, r if side is None else side)
    i, j = [np.empty(0, int)], [np.empty(0, int)]
    for a, b, d2 in sweep.pairs(Q, r):
        i.append(a[d2 <= r * r])
        j.append(sweep.ids[b[d2 <= r * r]])
    return np.concatenate(i), np.concatenate(j)


class TestSweepColumns:
    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("r", [1e-10, 1e-7, 1e-4, 0.05, 0.3, 1.0])
    def test_pairs_match_brute_force(self, m, r):
        rng = np.random.default_rng([m, int(-np.log10(r))])
        P = sphere_rows(rng, m, 600)
        # rows at and just past r from a point, and pairs closer than r
        step = sphere_rows(rng, m, 60)
        Q = np.vstack([sphere_rows(rng, m, 500), P[:60] + r * step,
                       P[60:120] + 1.5 * r * step, P[120:180] + 0.5 * r * step])
        i, j = sweep_pairs(P, Q, r)
        s = brute_sq(Q, P)
        assert len(i) == len(pair_set(i, j))
        assert pair_set(i, j) == pair_set(*np.nonzero(s <= r * r))
        if r <= 1e-4:
            assert len(i) >= 60 * (r >= 1e-7)
        tree = cKDTree(Q).sparse_distance_matrix(cKDTree(P), r,
                                                 output_type="ndarray")
        assert pair_set(i, j) == pair_set(tree["i"], tree["j"])

    @pytest.mark.parametrize("m", [3, 4])
    def test_pairs_on_column_edges(self, m):
        # lattice rows at multiples of a power-of-two radius: every
        # coordinate is exact, rows sit on column edges and pairs lie at
        # exactly r, r sqrt 2, ...
        r = 2.0 ** -3
        ticks = np.arange(-4, 5) * r
        P = np.stack(np.meshgrid(*[ticks] * m, indexing="ij"), -1
                     ).reshape(-1, m)[:: 3 if m == 4 else 1]
        Q = np.vstack([P[::5], P[::11] + 0.5 * r])
        for radius in (r, np.nextafter(r, 0.0), r * np.sqrt(2.0), 0.0):
            i, j = sweep_pairs(P, Q, radius)
            want = pair_set(*np.nonzero(brute_sq(Q, P) <= radius * radius))
            assert len(i) == len(want)
            assert pair_set(i, j) == want
        assert len(sweep_pairs(P, Q, r)[0]) > len(
            sweep_pairs(P, Q, np.nextafter(r, 0.0))[0])

    def test_one_column_and_wide_columns_give_the_same_pairs(self):
        rng = np.random.default_rng(4)
        P, Q = sphere_rows(rng, 3, 400), sphere_rows(rng, 3, 300)
        want = pair_set(*np.nonzero(brute_sq(Q, P) <= 0.04))
        for side in (0.2, 0.7, np.inf):
            i, j = sweep_pairs(P, Q, 0.2, side)
            assert len(i) == len(want) and pair_set(i, j) == want

    def test_rows_outside_the_columns_have_empty_windows(self):
        P = sphere_rows(np.random.default_rng(5), 3, 50)
        sweep = limitset.Sweep(P, 0.1)
        far = np.full((4, 3), 5.0)
        far[:, sweep.axis] = P[:4, sweep.axis]
        lo, hi = sweep.window(far, 0.1)
        assert np.all(lo == hi)

    @pytest.mark.parametrize("side", [np.inf, "cap-index"])
    def test_rows_beyond_the_ends_of_the_axis_have_empty_windows(self, side):
        # points with ties at both ends of the sweep axis; query rows just
        # over r beyond either end, just within r of it, and on it
        rng = np.random.default_rng(12)
        P = 0.5 * sphere_rows(rng, 3, 200)
        P[:5, 0], P[5:10, 0] = -0.9, 0.9  # axis 0: the widest coordinate
        r = 0.01
        if side == "cap-index":  # columns of the bucket's chord, as _CapIndex
            side = r * 1.0000001
        sweep = limitset.Sweep(P, side)
        assert sweep.axis == 0
        Q = np.repeat(P[:10], 5, axis=0)
        sign = np.where(Q[:, 0] < 0.0, -1.0, 1.0)
        Q[:, 0] += sign * np.tile([1.01 * r, 2 * r, 0.5, 0.99 * r, 0.0], 10)
        lo, hi = sweep.window(Q, r)
        beyond = np.tile([True, True, True, False, False], 10)
        assert np.all(hi[beyond] <= lo[beyond])
        assert np.all(hi[~beyond] > lo[~beyond])  # each row's own point
        i, j = sweep_pairs(P, Q, r, side)
        want = pair_set(*np.nonzero(brute_sq(Q, P) <= r * r))
        assert len(i) == len(want) and pair_set(i, j) == want

    def test_empty_and_one_point_sets(self):
        Q = sphere_rows(np.random.default_rng(6), 3, 5)
        assert all(a.size == 0 for a in sweep_pairs(np.empty((0, 3)), Q, 1.0))
        assert pair_set(*sweep_pairs(Q[:1], Q, 2.0)) == {(q, 0) for q in range(5)}
        assert all(a.size == 0 for a in sweep_pairs(Q[:1], np.empty((0, 3)), 1.0))


class TestPointIndex:
    @pytest.mark.parametrize("m", [3, 4])
    def test_nearest_matches_brute_force_and_kdtree(self, m):
        rng = np.random.default_rng(m)
        P = sphere_rows(rng, m, 700)
        # repeated points and points a few ulps apart tie with their originals
        P = np.vstack([P, P[:50], P[50:100] * (1 + 1e-15)])
        Q = np.vstack([sphere_rows(rng, m, 400), P[::7],
                       P[:40] + 1e-9 * sphere_rows(rng, m, 40)])
        index = limitset.PointIndex(P)
        tree = cKDTree(P)
        for k in (1, 2):
            d, j = index.nearest(Q, k=k)
            bd, bj = brute_nearest(Q, P, k)
            if k == 1:
                bd, bj = bd[:, 0], bj[:, 0]
            assert np.array_equal(d, bd) and np.array_equal(j, bj)
            td, _ = tree.query(Q, k=k)
            assert np.array_equal(d, td)

    def test_nearest_over_several_row_blocks(self):
        # more rows than one descent takes, against a clustered cloud with
        # leaves of tied points: every block matches brute force
        rng = np.random.default_rng(9)
        P = sample_limit_set(reference_schottky(), 5).points
        P = np.vstack([P, P[:40]])
        Q = np.vstack([sphere_rows(rng, 3, 2 * geom.ROW_BLOCK + 100), P[::3]])
        index = limitset.PointIndex(P)
        for k in (1, 2):
            d, j = index.nearest(Q, k=k)
            bd, bj = brute_nearest(Q, P, k)
            assert np.array_equal(d, bd[:, 0] if k == 1 else bd)
            assert np.array_equal(j, bj[:, 0] if k == 1 else bj)

    def test_more_neighbours_than_a_leaf_holds(self):
        rng = np.random.default_rng(11)
        P, Q = sphere_rows(rng, 3, 300), sphere_rows(rng, 3, 50)
        d, j = limitset.PointIndex(P).nearest(Q, k=limitset._LEAF + 5)
        bd, bj = brute_nearest(Q, P, limitset._LEAF + 5)
        assert np.array_equal(d, bd) and np.array_equal(j, bj)

    def test_empty_and_one_point_sets(self):
        Q = sphere_rows(np.random.default_rng(6), 3, 5)
        empty = limitset.PointIndex(np.empty((0, 3)))
        d, j = empty.nearest(Q)
        assert np.all(np.isinf(d)) and np.all(j == 0)
        one = limitset.PointIndex(Q[:1])
        d, j = one.nearest(Q, k=2)
        assert d.shape == j.shape == (5, 2)
        assert d[0, 0] == 0.0 and np.all(np.isinf(d[:, 1])) and np.all(j[:, 1] == 1)
        assert np.array_equal(d[:, 0], cKDTree(Q[:1]).query(Q)[0])
        for k in (1, 2):
            d, j = one.nearest(np.empty((0, 3)), k=k)
            assert d.size == j.size == 0

    @pytest.mark.parametrize("depth", [5, 6, 8])
    def test_cloud_distances_match_kdtree(self, depth):
        cloud = sample_limit_set(reference_schottky(), depth)
        U = geom.uniform_sphere(np.random.default_rng(depth), 2, 3000)
        d, j = cloud.index.nearest(U)
        td, tj = cKDTree(cloud.points).query(U)
        assert np.array_equal(d, td)
        # the tree may name any of tied samples; the index names the lowest
        P = cloud.points
        a, b = U - P[j], U - P[tj]
        assert np.array_equal(a[:, 0] ** 2 + a[:, 1] ** 2 + a[:, 2] ** 2,
                              b[:, 0] ** 2 + b[:, 1] ** 2 + b[:, 2] ** 2)
        assert np.all(j <= tj) and np.mean(j == tj) > 0.5


class TestDistance:
    def test_point_on_cloud_gives_zero(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        lower, upper = dist_rows(geom.embed_rows(np.zeros((1, 2))), cloud)
        assert lower[0] == 0.0 and upper[0] == pytest.approx(0.0, abs=1e-15)

    def test_equatorial_point_against_poles(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        _, upper = dist_rows(geom.embed_rows(np.array([[1.0, 0.0]])), cloud)
        assert upper[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert cloud.certified

    def test_interval_width_is_resolution(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 3)
        U = np.vstack([geom.uniform_sphere(RNG, 2, 1) for _ in range(50)])
        lower, upper = dist_rows(U, cloud)
        assert np.all(upper - lower <= cloud.resolution + 1e-15)


class TestBoxDimension:
    def test_two_point_cloud_is_zero(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        fit = box_dimension(cloud)
        assert abs(fit.estimate) <= 0.01

    def test_three_point_cloud_near_zero(self):
        pts = geom.uniform_sphere(RNG, 2, 3)
        cloud = LimitSetCloud(n=2, points=pts, depth=0, resolution=0.0)
        fit = box_dimension(cloud)
        assert abs(fit.estimate) <= 0.05

    def test_great_circle_is_one(self):
        ts = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        pts = np.stack([np.cos(ts), np.sin(ts), np.zeros_like(ts)], axis=1)
        cloud = LimitSetCloud(n=2, points=pts, depth=0, resolution=None)
        fit = box_dimension(cloud)
        assert fit.estimate == pytest.approx(1.0, abs=0.05)

    def test_schottky_dimension_matches_exponent(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 6)
        box = box_dimension(cloud)
        delta = group.critical_exponent(G, 6)
        assert 0.0 < box.estimate < 2.0
        assert 0.0 < delta.estimate < 2.0
        assert abs(box.estimate - delta.estimate) < 0.1


class TestSullivan:
    def test_branch_values(self):
        assert sullivan_lambda0(1.5, 2) == pytest.approx(0.75)
        assert sullivan_lambda0(0.0, 2) == pytest.approx(1.0)
        assert sullivan_lambda0(1.0, 2) == pytest.approx(1.0)  # branch agreement

    def test_branch_agreement_at_half(self):
        for n in (1, 2, 3, 5):
            flat = sullivan_lambda0(n / 2.0, n)
            spectral = (n / 2.0) * (n - n / 2.0)
            assert flat == spectral == (n / 2.0) ** 2

    def test_continuity_and_max_on_grid(self):
        n = 3
        grid = np.linspace(0, n, 301)
        vals = np.array([sullivan_lambda0(d, n) for d in grid])
        assert np.max(np.abs(np.diff(vals))) < 0.05  # continuous
        assert np.max(vals) == pytest.approx((n / 2.0) ** 2)
        assert np.all(vals[:-1] > 0)  # positive below delta = n (second kind)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            sullivan_lambda0(-0.1, 2)
        with pytest.raises(ValueError):
            sullivan_lambda0(2.3, 2)


def repeated(g, k):
    """Stacked fields of g, once per row of a k-row block."""
    return tuple(np.repeat(f, k, axis=0) for f in mobius.stack_fields([g]))


class TestDistortion:
    def test_identity_ratio_is_one(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 4)
        X = np.array([[0.05, 0.07]])
        assert distortion_rows(repeated(mobius.identity(2), 1), X, cloud)[0] == 1.0

    def test_translation_group_closed_form(self):
        # L = {infinity}: ratio = |g'(x)|_s q(x, inf)/q(gx, inf) = q(gx,inf)/q(x,inf)
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        g = G.generators[0]
        X = np.array([RNG.normal(0, 2, 2) for _ in range(30)])
        ratios = distortion_rows(repeated(g, 30), X, cloud)
        inf2 = ExtPoint.infinity(2)
        for x, ratio in zip(X, ratios):
            gx = mobius.apply(g, ExtPoint.finite(x))
            expected = (geom.chordal_distance(gx, inf2)
                        / geom.chordal_distance(ExtPoint.finite(x), inf2))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_multiplicative_chain(self):
        # factors of length 1: composite orbit points stay at scales where
        # the nearest-sample distance dominates coordinate roundoff
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        words = group.enumerate_elements(G, 1)
        first, second, X, g2X = [], [], [], []
        for _ in range(80):
            w1, w2 = RNG.choice(words, 2)
            if w1.letters and w2.letters and w1.letters[-1] == -w2.letters[0]:
                continue  # product reduces; that word comes from enumeration
            x = ExtPoint.finite(RNG.normal(0, 0.1, 2))  # near the south pole, off cloud
            first.append(w1.map)
            second.append(w2.map)
            X.append(x.coords)
            g2X.append(mobius.apply(w2.map, x).coords)
        f1, f2 = mobius.stack_fields(first), mobius.stack_fields(second)
        lhs = distortion_rows(mobius.compose_rows(f1, f2), X, cloud)
        rhs = distortion_rows(f1, g2X, cloud) * distortion_rows(f2, X, cloud)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=0.0)
        assert len(X) > 40

    def test_two_sided_band_on_schottky(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        words = [w for w in group.enumerate_elements(G, 3) if len(w) > 0]
        maps, X = [], []
        for _ in range(500):
            maps.append(RNG.choice(words).map)
            X.append(RNG.normal(0, 0.25, 2))
        X = np.array(X)
        _, upper = dist_rows(geom.embed_rows(X), cloud)
        ok = upper > 2 * (cloud.resolution or 0)
        r = distortion_rows(mobius.stack_fields([m for m, k in zip(maps, ok) if k]),
                            X[ok], cloud)
        C = np.max(np.maximum(r, 1.0 / r))
        assert np.isfinite(C) and C > 1.0

    def test_rows_keep_their_bits_alone_and_in_a_block(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        words = [w for w in group.enumerate_elements(G, 4) if len(w) > 0]
        rng = np.random.default_rng(71)
        fields = mobius.stack_fields([words[i].map for i in
                                      rng.integers(0, len(words), 300)])
        X = rng.normal(0, 0.35, (300, 2))
        _, d_x = dist_rows(geom.embed_rows(X), cloud)
        ok = d_x > cloud.resolution
        fields, X = tuple(f[ok] for f in fields), X[ok]
        block = distortion_rows(fields, X, cloud)
        assert len(block) > 100 and np.all(np.isfinite(block))
        alone = np.concatenate([
            distortion_rows(tuple(f[i:i + 1] for f in fields), X[i:i + 1], cloud)
            for i in range(len(X))])
        halves = np.concatenate([
            distortion_rows(tuple(f[s] for f in fields), X[s], cloud)
            for s in (slice(None, 77), slice(77, None))])
        assert np.array_equal(alone, block) and np.array_equal(halves, block)

    def test_rejects_points_on_cloud(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 4)
        on_cloud = geom.stereo_project(geom.SpherePoint(cloud.points[0]))
        with pytest.raises(limitset.UncertifiedDistance):
            distortion_rows(repeated(G.generators[0], 1), on_cloud.coords[None],
                            cloud)


def test_csv_export_deterministic(tmp_path):
    G = reference_schottky()
    cloud = sample_limit_set(G, 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    limitset.export_csv(cloud, p1)
    limitset.export_csv(cloud, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x0,x1,x2"
    assert len(p1.read_text().splitlines()) == cloud.size + 1


def test_write_csv_has_the_bytes_of_a_row_by_row_repr(tmp_path):
    # more rows than one conversion block, with signed zeros, subnormals,
    # huge and non-finite values
    rng = np.random.default_rng(55)
    rows = rng.standard_normal((9000, 3)) * 10.0 ** rng.integers(-300, 300, (9000, 3))
    rows[:6] = [[0.0, -0.0, 5e-324], [np.inf, -np.inf, np.nan], [1.0, -1.0, 0.1],
                [1e16, 1e-5, 123456789.0], [2.0 ** -1074, 1.7976931348623157e308, 3.0],
                [-2.5, 1e22, 1e-7]]
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="") as fh:
        limitset.write_csv(fh, ["a", "b", "c"], rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

