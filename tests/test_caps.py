"""Spherical caps: membership, stereographic balls, and conformal images."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from kleinlab import caps, geom, mobius
from kleinlab.geom import angle_from_chord
from kleinlab.caps import SphericalCap, cap_image, cap_to_euclidean_ball

from util import (boundary_frame, level_children, random_mobius,
                  reference_schottky, rim_points, scalar_boundary_points)

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
            dirs = boundary_frame(cap)
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
        probes = scalar_boundary_points(cap)
        mapped = mobius.sphere_action_rows(g, probes)
        ang = geom.angular_distance(mapped, img.center)
        assert np.allclose(ang, img.theta, atol=1e-10)


def _sin_cos(x):
    """(sin x, cos x) of a Decimal, by their Taylor series to the context's
    precision."""
    total = [Decimal(0), Decimal(0)]  # cos, sin
    term, i = Decimal(1), 0  # x^i / i!
    tiny = Decimal(10) ** -(decimal.getcontext().prec + 5)
    while abs(term) > tiny:
        total[i % 2] += term if i % 4 < 2 else -term
        i += 1
        term = term * x / i
    return total[1], total[0]


def _solve(M, y):
    """x with M x = y, by Gaussian elimination with partial pivoting."""
    n = len(y)
    M = [row + [v] for row, v in zip(M, y)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(M[i][k]))
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            M[i] = [x - f * z for x, z in zip(M[i], M[k])]
    x = [Decimal(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))) / M[k][k]
    return x


def exact_image(fields, i, center, theta):
    """Image of the cap (center, theta) under row i of the stacked fields,
    as (angular radius, unit center) in floats, or None if it reaches a
    hemisphere. Decimal arithmetic of 100 digits on the stored floats, by
    another route than cap_images: m boundary points of the cap, at angle
    theta from its normalized center toward a Gram-Schmidt frame, are
    mapped point by point; their images span the plane w . u = 1 of the
    image boundary, and the image cap is {u . w >= 1}, of radius
    atan(sqrt(|w|^2 - 1)), when it holds the mapped center."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    with decimal.localcontext() as ctx:
        ctx.prec = 100
        eps, a, r, A, b = (f[i] for f in fields)
        a, b, r = [Decimal(v) for v in a], [Decimal(v) for v in b], Decimal(r)
        A = [[Decimal(v) for v in row] for row in A]
        c = [Decimal(v) for v in center]
        c = [v / dot(c, c).sqrt() for v in c]
        m, frame = len(c), []
        for j in np.argsort(np.abs(center))[:len(c) - 1]:  # axes least along c
            e = [Decimal(int(k == j)) for k in range(m)]
            for f in [c] + frame:
                d = dot(e, f)
                e = [x - d * y for x, y in zip(e, f)]
            frame.append([x / dot(e, e).sqrt() for x in e])
        sin, cos = _sin_cos(Decimal(float(theta)))
        rim = [[cos * x + sin * y for x, y in zip(c, f)]
               for f in frame + [[-v for v in frame[0]]]]

        def act(u):
            v = [x / (1 - u[-1]) - p for x, p in zip(u[:-1], a)]
            if eps == 1:
                s = dot(v, v)
                v = [x / s for x in v]
            y = [q + r * dot(row, v) for q, row in zip(b, A)]
            s = dot(y, y)
            return [2 * x / (1 + s) for x in y] + [(s - 1) / (s + 1)]

        w = _solve([act(u) for u in rim], [Decimal(1)] * m)
        ww = dot(w, w)
        if dot(act(c), w) <= 1:
            return None
        return (math.atan(float((ww - 1).sqrt())),
                np.array([float(x / ww.sqrt()) for x in w]))


def nested_sources(G, d):
    """(fields, centers, thetas) of the nested caps of level d: the target
    cap of each word's last letter, under the map of the word's parent."""
    pairs = level_children(G.word_tree, d)
    src = [G.letter_target_cap(s) for _, s in pairs]
    return (mobius.stack_fields([w.map for w, _ in pairs]),
            np.array([c.center for c in src]), np.array([c.theta for c in src]))


def assert_exact(fields, centers, thetas, got, rows, bound, center_bound):
    """Rows of cap_images output got against exact_image: the validity, the
    radius to a relative bound and the center to an angle."""
    for i in rows:
        want = exact_image(fields, i, centers[i], thetas[i])
        assert got[2][i] == (want is not None)
        if want is not None:
            assert abs(got[1][i] - want[0]) <= bound * want[0]
            assert angle_from_chord(np.linalg.norm(got[0][i] - want[1])
                                    ) <= center_bound


class TestBatchedImages:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_nested_caps_match_the_exact_image(self, depth):
        # 60 words of the level (every word up to level 2), theta down to
        # ~1e-19 at level 8, against the exact image of the stored maps
        G = reference_schottky()
        fields, centers, thetas = nested_sources(G, depth)
        got = caps.cap_images(fields, centers, thetas)
        rows = np.random.default_rng(depth).permutation(len(thetas))[:60]
        assert_exact(fields, centers, thetas, got, rows, 1e-14, 1e-15)

    @pytest.mark.parametrize("m", [3, 4])
    def test_random_caps_and_maps_match_the_exact_image(self, m):
        # random caps and maps; caps that hold the north pole; inverting
        # maps whose pole lies in the cap's ball, whose images hold the
        # north pole; small caps next to it; images past a hemisphere
        rng = np.random.default_rng(m)
        centers = geom.uniform_sphere(rng, m - 1, 120)
        thetas = rng.uniform(0.01, 1.5, 120)
        centers[:30] = geom.normalize_rows(
            np.eye(m)[-1] + rng.uniform(-0.3, 0.3, (30, m)))  # near the pole
        # small caps next to the pole, where cos(theta) - c_m cancels
        centers[60:90] = geom.normalize_rows(
            np.eye(m)[-1] + rng.uniform(-1e-3, 1e-3, (30, m)))
        thetas[60:90] = 0.5 * geom.angular_distance(centers[60:90], np.eye(m)[-1])
        maps = [random_mobius(rng, m - 1) for _ in range(120)]
        for i in range(30, 60):  # the pole of the map inside the cap
            x, _ = geom.unembed_rows(geom.normalize_rows(
                centers[i] + 0.01 * thetas[i] * rng.standard_normal((1, m))))
            maps[i] = mobius.MobiusMap(m - 1, 1, x[0], 5.0, maps[i].A, maps[i].b)
        fields = mobius.stack_fields(maps)
        got = caps.cap_images(fields, centers, thetas)
        assert_exact(fields, centers, thetas, got, range(120), 1e-12, 1e-13)
        north = np.eye(m)[-1]
        holds = geom.angular_distance(centers, north) < thetas
        img_holds = geom.angular_distance(got[0], north) < got[1]
        assert holds[:30].sum() > 5 and (got[2] & img_holds)[30:60].sum() > 5
        assert 10 < (~got[2]).sum() < 60

    def test_validity_near_and_past_a_hemisphere(self):
        # a dilation x -> k x sends the south cap of radius t to the south
        # cap of radius 2 atan(k tan(t / 2)): valid below pi/2 only
        south = np.array([[0.0, 0.0, -1.0]])
        t = 0.5
        for target, ok in ((np.pi / 2 - 1e-6, True), (np.pi / 2 + 1e-6, False),
                           (3.0, False)):
            g = mobius.affine(2, r=np.tan(target / 2) / np.tan(t / 2))
            nu, theta, valid, _ = caps.cap_images(mobius.stack_fields([g]),
                                                  south, np.array([t]))
            assert valid[0] == ok
            if ok:
                assert theta[0] == pytest.approx(target, rel=1e-12)
                assert np.array_equal(nu[0], south[0])
            else:
                with pytest.raises(caps.CapDegenerate):
                    cap_image(g, SphericalCap(south[0], t))
        # a hemisphere under the identity, to rounding
        _, theta, _, _ = caps.cap_images(mobius.stack_fields(
            [mobius.identity(2)]), south, np.array([np.pi / 2]))
        assert abs(theta[0] - np.pi / 2) <= 4 * np.spacing(np.pi / 2)

    def test_rows_keep_their_bits_in_any_stack_or_block(self):
        # levels 5 to 7 of the reference group in one stack, with caps below
        # TINY_THETA, then shuffled, split into blocks and taken one at a time
        G = reference_schottky()
        parts = [nested_sources(G, d) for d in (5, 6, 7)]
        fields = tuple(np.concatenate(f) for f in zip(*(p[0] for p in parts)))
        centers, thetas = (np.concatenate(a) for a in zip(*(p[1:] for p in parts)))
        whole = caps.cap_images(fields, centers, thetas)
        assert whole[2].all()
        tiny = whole[1] < caps.TINY_THETA
        assert 0 < tiny.sum() < len(thetas)
        order = np.random.default_rng(8).permutation(len(thetas))
        shuffled = caps.cap_images(tuple(f[order] for f in fields),
                                   centers[order], thetas[order])
        for a, b in zip(shuffled, whole):
            assert a.tobytes() == b[order].tobytes()
        for block in (7, 777):
            for lo in range(0, len(thetas), block):
                at = slice(lo, lo + block)
                got = caps.cap_images(tuple(f[at] for f in fields),
                                      centers[at], thetas[at])
                for a, b in zip(got, whole):
                    assert a.tobytes() == b[at].tobytes()
        rows = np.random.default_rng(9).choice(len(thetas), 40, replace=False)
        for i in np.concatenate([rows, np.flatnonzero(tiny)[:5]]):
            one = caps.cap_images(tuple(f[i:i + 1] for f in fields),
                                  centers[i:i + 1], thetas[i:i + 1])
            for a, b in zip(one, whole):
                assert a[0].tobytes() == b[i].tobytes()

    @pytest.mark.parametrize("source", [*range(1, 9), "random3", "random4"])
    def test_lone_row_has_the_bits_of_the_stack(self, source):
        # a one-row call against its row in the whole stack, for up to 120
        # rows of each level of nested caps and for random caps and maps in
        # S^2 and S^3, with every output: centers, thetas, validity and the
        # mapped source centers
        rng = np.random.default_rng(list(str(source).encode()))
        if isinstance(source, int):
            fields, centers, thetas = nested_sources(reference_schottky(), source)
        else:
            m = int(source[-1])
            centers = geom.uniform_sphere(rng, m - 1, 120)
            thetas = rng.uniform(1e-9, 1.5, 120)
            fields = mobius.stack_fields(
                [random_mobius(rng, m - 1) for _ in range(120)])
        whole = caps.cap_images(fields, centers, thetas)
        for i in rng.permutation(len(thetas))[:120]:
            one = caps.cap_images(tuple(f[i:i + 1] for f in fields),
                                  centers[i:i + 1], thetas[i:i + 1])
            for a, b in zip(one, whole):
                assert a[0].tobytes() == b[i].tobytes()

    def test_fallback_rows_in_a_mixed_stack(self):
        # caps below TINY_THETA are centred on their mapped source centers,
        # the mapped centers of every row are sphere_action_stack's, and the
        # other rows are centred by the closed form
        G = reference_schottky()
        parts = [nested_sources(G, d) for d in (5, 7)]
        fields = tuple(np.concatenate(f) for f in zip(*(p[0] for p in parts)))
        centers, thetas = (np.concatenate(a) for a in zip(*(p[1:] for p in parts)))
        nu, theta, valid, mapped = caps.cap_images(fields, centers, thetas)
        assert mapped.tobytes() == mobius.sphere_action_stack(
            fields, centers).tobytes()
        tiny = theta < caps.TINY_THETA
        assert 0 < tiny.sum() < len(theta)
        assert np.array_equal(nu[tiny], mapped[tiny])
        assert (nu[~tiny] != mapped[~tiny]).any(axis=1).mean() > 0.5
        # the mapped source center lies in its image cap
        off = angle_from_chord(np.linalg.norm(nu - mapped, axis=1))
        assert np.all(off[~tiny] <= theta[~tiny])

    def test_nested_caps_are_cap_images_of_their_rows(self):
        G = reference_schottky()
        for d in range(1, 6):
            got = caps.cap_images(*nested_sources(G, d))
            tree = G.word_tree.nested_caps(d)
            assert got[0].tobytes() == tree[0].tobytes()
            assert got[1].tobytes() == tree[1].tobytes()
            assert got[3].tobytes() == tree[2].tobytes()

    def test_cap_image_is_a_one_row_fit(self):
        # cap_image is a one-row cap_images call; SphericalCap renormalizes
        # the center
        cap = random_cap(RNG, theta_max=0.7)
        g = random_mobius(np.random.default_rng(5), 2)
        nu, theta, _, _ = caps.cap_images(mobius.stack_fields([g]),
                                          cap.center[None], np.array([cap.theta]))
        img = cap_image(g, cap)
        assert img.theta == theta[0]
        assert np.allclose(img.center, nu[0], rtol=0, atol=1e-15)
