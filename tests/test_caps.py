"""Spherical caps: membership, stereographic balls, and conformal images."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kleinlab import caps, geom, mobius
from kleinlab.caps import SphericalCap, cap_image, cap_to_euclidean_ball

from util import (level_children, random_mobius, reference_schottky, rim_points,
                  scalar_boundary_points)

RNG = np.random.default_rng(1234)


def random_cap(rng, m=3, theta_max=1.2):
    c = geom.uniform_sphere(rng, m - 1, 1)[0]
    return SphericalCap(center=c, theta=float(rng.uniform(0.05, theta_max)))


class TestCapBasics:
    def test_radius_bounds_enforced(self):
        c = np.array([0.0, 0.0, 1.0])
        with pytest.raises(caps.CapDegenerate):
            SphericalCap(center=c, theta=np.pi / 2)
        with pytest.raises(caps.CapDegenerate):
            SphericalCap(center=c, theta=0.0)

    def test_membership(self):
        cap = SphericalCap(center=np.array([0.0, 0.0, -1.0]), theta=0.3)
        inside = np.array([[np.sin(0.2), 0.0, -np.cos(0.2)]])
        outside = np.array([[np.sin(0.5), 0.0, -np.cos(0.5)]])
        assert cap.contains(inside)[0]
        assert not cap.contains(outside)[0]

    def test_boundary_points_on_boundary(self):
        # n+1 probes at angle theta that span the boundary's hyperplane
        for m in (2, 3, 4):
            cap = random_cap(RNG, m)
            pts = cap.boundary_points()
            assert pts.shape == (m, m)
            ang = geom.angular_distance(pts, cap.center)
            assert np.allclose(ang, cap.theta, atol=1e-12)
            assert np.linalg.matrix_rank(pts[1:] - pts[0]) == m - 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_batched_probes_match_the_one_cap_path_bitwise(self, m):
        rng = np.random.default_rng(m)
        centers = geom.uniform_sphere(rng, m - 1, 500)
        thetas = np.exp(rng.uniform(np.log(1e-10), np.log(1.5), 500))
        cs = [SphericalCap(center=c, theta=t) for c, t in zip(centers, thetas)]
        centers = np.array([c.center for c in cs])  # as the caps store them
        ref = np.stack([scalar_boundary_points(c) for c in cs])
        got = caps.boundary_probes(centers, thetas)
        assert got.tobytes() == ref.tobytes()
        one = np.stack([c.boundary_points() for c in cs])
        assert one.tobytes() == ref.tobytes()

    def test_disjointness(self):
        c1 = SphericalCap(center=np.array([1.0, 0.0, 0.0]), theta=0.2)
        c2 = SphericalCap(center=np.array([-1.0, 0.0, 0.0]), theta=0.2)
        c3 = SphericalCap(center=np.array([np.cos(0.3), np.sin(0.3), 0.0]), theta=0.2)
        assert caps.caps_disjoint(c1, c2)
        assert not caps.caps_disjoint(c1, c3)


class TestStereographicBall:
    def test_south_cap_maps_to_centered_ball(self):
        cap = SphericalCap(center=np.array([0.0, 0.0, -1.0]), theta=0.4)
        center, radius = cap_to_euclidean_ball(cap)
        assert np.allclose(center, 0.0, atol=1e-14)
        assert radius == pytest.approx(np.tan(0.2), abs=1e-13)

    def test_ball_matches_projected_boundary(self):
        for _ in range(40):
            cap = random_cap(RNG, theta_max=0.8)
            north = np.array([0.0, 0.0, 1.0])
            if geom.angular_distance(cap.center, north) - cap.theta < 0.05:
                continue
            center, radius = cap_to_euclidean_ball(cap)
            for p in rim_points(cap, RNG, 12):
                x = geom.stereo_project(geom.SpherePoint(p))
                assert np.linalg.norm(x.coords - center) == pytest.approx(
                    radius, rel=1e-10
                )

    def test_north_touching_cap_rejected(self):
        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=0.3)
        with pytest.raises(caps.CapDegenerate):
            cap_to_euclidean_ball(cap)


class TestCapImage:
    def test_identity_image_is_same_cap(self):
        cap = random_cap(RNG)
        img = cap_image(mobius.identity(2), cap)
        assert np.allclose(img.center, cap.center, atol=1e-12)
        assert img.theta == pytest.approx(cap.theta, abs=1e-12)

    def test_boundary_of_image_is_image_of_boundary(self):
        # 20 random rim points, 1e-10 (oracle: pointwise mapped boundary)
        worst = 0.0
        for _ in range(50):
            cap = random_cap(RNG, theta_max=0.7)
            g = random_mobius(RNG, 2)
            try:
                img = cap_image(g, cap)
            except caps.CapDegenerate:
                continue
            probes = rim_points(cap, RNG, 20)
            mapped = mobius.sphere_action_rows(g, probes)
            ang = geom.angular_distance(mapped, img.center)
            worst = max(worst, float(np.max(np.abs(ang - img.theta))))
        assert worst < 1e-10

    def test_interior_maps_to_interior(self):
        for _ in range(30):
            cap = random_cap(RNG, theta_max=0.6)
            g = random_mobius(RNG, 2)
            try:
                img = cap_image(g, cap)
            except caps.CapDegenerate:
                continue
            # sample interior points of the source cap
            dirs = cap.boundary_frame()
            ts = RNG.uniform(0, cap.theta, 10)
            phis = RNG.uniform(0, 2 * np.pi, 10)
            pts = np.array([
                np.cos(t) * cap.center
                + np.sin(t) * (np.cos(f) * dirs[0] + np.sin(f) * dirs[1])
                for t, f in zip(ts, phis)
            ])
            mapped = mobius.sphere_action_rows(g, pts)
            assert img.contains(mapped, slack=1e-9).all()

    def test_works_in_higher_dimension(self):
        cap = SphericalCap(center=geom.uniform_sphere(RNG, 3, 1)[0], theta=0.3)
        g = random_mobius(RNG, 3)
        img = cap_image(g, cap)
        probes = cap.boundary_points()
        mapped = mobius.sphere_action_rows(g, probes)
        ang = geom.angular_distance(mapped, img.center)
        assert np.allclose(ang, img.theta, atol=1e-10)


def exact_theta(P):
    """Angular radius of the circle through three float points of R^3, in
    exact rational arithmetic: atan2 of the circumradius and the distance of
    their plane from the origin, with the two square roots taken in 60-digit
    decimals."""
    p = [[Fraction(float(v)) for v in row] for row in P]
    a = [p[1][i] - p[0][i] for i in range(3)]
    b = [p[2][i] - p[0][i] for i in range(3)]
    c = [a[i] - b[i] for i in range(3)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    n = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
         a[0] * b[1] - a[1] * b[0]]
    r2 = dot(a, a) * dot(b, b) * dot(c, c) / (4 * dot(n, n))
    h2 = dot(n, p[0]) ** 2 / dot(n, n)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        r, h = (float((Decimal(q.numerator) / q.denominator).sqrt())
                for q in (r2, h2))
    return math.atan2(r, h)


def exact_center_offset(P, c):
    """Angle from the float unit row c to the direction of the circumcenter
    of three float points of R^3, in exact rational arithmetic: the
    circumcenter p0 + ((|a|^2 b - |b|^2 a) x (a x b)) / (2 |a x b|^2), and
    the sine of the angle from |c x o| / (|c| |o|), its square root taken in
    60-digit decimals."""
    p = [[Fraction(float(v)) for v in row] for row in P]
    a = [p[1][i] - p[0][i] for i in range(3)]
    b = [p[2][i] - p[0][i] for i in range(3)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def cross(u, v):
        return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0]]

    n = cross(a, b)
    w = cross([dot(a, a) * y - dot(b, b) * x for x, y in zip(a, b)], n)
    o = [p[0][i] + w[i] / (2 * dot(n, n)) for i in range(3)]
    c = [Fraction(float(v)) for v in c]
    s2 = dot(cross(c, o), cross(c, o)) / (dot(c, c) * dot(o, o))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return math.asin(float((Decimal(s2.numerator) / s2.denominator).sqrt()))


def nested_probe_stacks(G, d):
    """The mapped target-cap probes and centers of every word of level d,
    with the source caps and maps, as WordTree.nested_caps maps them."""
    tree = G.word_tree
    rows, maps, src = [], [], []
    for w, s in level_children(tree, d):
        cap = G.letter_target_cap(s)
        rows.append(mobius.sphere_action_rows(
            w.map, np.vstack([cap.boundary_points(), cap.center])))
        maps.append(w.map)
        src.append(cap)
    P = np.array(rows)
    return (P[:, :-1], P[:, -1], maps, np.array([c.center for c in src]),
            np.array([c.theta for c in src]))


def nested_sources(G, d):
    """(fields, boundary, centers, thetas) of the nested caps of level d: the
    target cap of each word's last letter, under the map of the word's
    parent."""
    pairs = level_children(G.word_tree, d)
    targets = {s: G.letter_target_cap(s) for s in {s for _, s in pairs}}
    src = [targets[s] for _, s in pairs]
    return (mobius.stack_fields([w.map for w, _ in pairs]),
            np.stack([c.boundary_points() for c in src]),
            np.array([c.center for c in src]), np.array([c.theta for c in src]))


class TestBatchedImages:
    def test_rows_keep_their_bits_in_any_stack_or_block(self, monkeypatch):
        # levels 6 (fitted by QR) and 7 (first-order images, theta < 1e-16)
        # of the reference group in one stack, then shuffled, split into
        # blocks and taken one cap at a time
        G = reference_schottky()
        parts = [nested_sources(G, d) for d in (6, 7)]
        fields = tuple(np.concatenate(f) for f in zip(*(p[0] for p in parts)))
        boundary, centers, thetas = (np.concatenate(a) for a in
                                     zip(*(p[1:] for p in parts)))
        whole = caps.cap_images(fields, boundary, centers, thetas)
        assert whole[2].all()
        small = whole[1] < 1e-16
        assert 0 < small.sum() < len(thetas)
        # the tree's fits of the two levels are this fit of their rows
        tree = [G.word_tree.nested_caps(d) for d in (6, 7)]
        for i in (0, 1):  # centers, thetas
            want = np.concatenate([t[i] for t in tree])
            assert whole[i].tobytes() == want.tobytes()
        order = np.random.default_rng(8).permutation(len(thetas))
        args = (tuple(f[order] for f in fields), boundary[order],
                centers[order], thetas[order])
        for block in (1, 7, 777, 4 * len(thetas) - 1, geom.SAMPLE_BLOCK):
            monkeypatch.setattr(geom, "SAMPLE_BLOCK", block)
            got = caps.cap_images(*args)
            for a, b in zip(got, whole):
                assert a.tobytes() == b[order].tobytes()
        rows = np.random.default_rng(9).choice(len(thetas), 40, replace=False)
        for i in np.concatenate([rows, np.flatnonzero(small)[:5]]):
            one = caps.cap_images(tuple(f[i:i + 1] for f in fields),
                                  boundary[i:i + 1], centers[i:i + 1],
                                  thetas[i:i + 1])
            for a, b in zip(one, whole):
                assert a[0].tobytes() == b[i].tobytes()

    @pytest.mark.parametrize("depth,bound", [(2, 1e-13), (3, 1e-13),
                                             (4, 1e-13), (5, 1e-9)])
    def test_nested_caps_match_exact_circumcircle(self, depth, bound):
        # the circle through the same float probes, in exact arithmetic:
        # its radius, and its center's direction to 1e-4 of the radius
        G = reference_schottky()
        imgs, c_img, maps, centers, thetas = nested_probe_stacks(G, depth)
        nu, theta, valid = caps.fit_image_caps(
            imgs, c_img, mobius.stack_fields(maps), centers, thetas)
        assert valid.all()
        exact = np.array([exact_theta(P) for P in imgs])
        assert np.max(np.abs(theta - exact) / exact) <= bound
        off = np.array([exact_center_offset(P, c) for P, c in zip(imgs, nu)])
        assert np.max(off / theta) <= 1e-4
        # the tree's own fit of the level is the same fit
        tree = G.word_tree.nested_caps(depth)
        assert np.array_equal(tree[0], nu) and np.array_equal(tree[1], theta)

    def test_fallback_rows_in_a_mixed_stack(self):
        G = reference_schottky()
        imgs, c_img, maps, centers, thetas = nested_probe_stacks(G, 3)
        imgs, c_img = imgs[:8].copy(), c_img[:8].copy()
        maps, centers, thetas = maps[:8], centers[:8], thetas[:8]
        imgs[2, 1] = imgs[2, 0]  # two coincident probes: rank-deficient
        # probes spread below 1e-14 around the mapped center
        imgs[5] = c_img[5] + 3e-15 * np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0]])
        nu, theta, valid = caps.fit_image_caps(
            imgs, c_img, mobius.stack_fields(maps), centers, thetas)
        assert valid.all()
        for i in (2, 5):  # first-order image: mapped center, scaled radius
            assert np.array_equal(nu[i], c_img[i])
            x = geom.stereo_project(geom.SpherePoint(centers[i]))
            want = thetas[i] * mobius.deriv_sphere(maps[i], x)
            assert theta[i] == want
        # to first order in the radius, near the fit of the intact probes
        assert theta[2] == pytest.approx(G.word_tree.nested_caps(3)[1][2],
                                         rel=1e-2)
        for i in (0, 1, 3, 4, 6, 7):  # ordinary rows: the bits of a lone fit
            alone = caps.fit_image_caps(imgs[i:i + 1], c_img[i:i + 1],
                                        mobius.stack_fields(maps[i:i + 1]),
                                        centers[i:i + 1], thetas[i:i + 1])
            assert np.array_equal(alone[0][0], nu[i])
            assert alone[1][0] == theta[i]

    def test_cap_image_is_a_one_row_fit(self):
        # the probes mapped through the map's field row repeated once per
        # probe, as cap_images maps every stack
        cap = random_cap(RNG, theta_max=0.7)
        g = random_mobius(np.random.default_rng(5), 2)
        P = mobius.sphere_action_stack(
            tuple(np.repeat(f, 4, axis=0) for f in mobius.stack_fields([g])),
            np.vstack([cap.boundary_points(), cap.center]))
        nu, theta, _ = caps.fit_image_caps(P[None, :-1], P[None, -1],
                                           mobius.stack_fields([g]),
                                           cap.center[None],
                                           np.array([cap.theta]))
        img = cap_image(g, cap)
        assert img.theta == theta[0]
        assert np.allclose(img.center, nu[0], rtol=0, atol=1e-15)
