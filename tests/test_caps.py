"""Spherical caps: membership, stereographic balls, and conformal images."""

import numpy as np
import pytest

from kleinlab import caps, geom, mobius
from kleinlab.caps import SphericalCap, cap_image, cap_to_euclidean_ball

from util import random_mobius

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
        cap = random_cap(RNG)
        pts = cap.boundary_points(count=16)
        ang = geom.angular_distance(pts, cap.center)
        assert np.allclose(ang, cap.theta, atol=1e-12)

    def test_area_matches_closed_form_on_s2(self):
        cap = random_cap(RNG)
        assert caps.cap_area(cap) == pytest.approx(
            2 * np.pi * (1 - np.cos(cap.theta)), rel=1e-10
        )

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
            for p in cap.boundary_points(count=12):
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
        # 20 probe points, 1e-10 (oracle: pointwise mapped boundary)
        worst = 0.0
        for _ in range(50):
            cap = random_cap(RNG, theta_max=0.7)
            g = random_mobius(RNG, 2)
            try:
                img = cap_image(g, cap)
            except caps.CapDegenerate:
                continue
            probes = cap.boundary_points(count=20)
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


class TestBatchedImages:
    def test_singular_normal_equations_fall_back_to_lstsq(self):
        rng = np.random.default_rng(4321)
        A = rng.standard_normal((6, 5, 3))
        A[2, :, 1] = 0.0  # a zero column: that row's A^T A is exactly singular
        b = rng.standard_normal((6, 5))
        AtA = np.einsum("ijk,ijl->ikl", A, A)
        Atb = np.einsum("ijk,ij->ik", A, b)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(AtA, Atb[:, :, None])
        x = caps._solve_normal_rows(AtA, Atb, A, b)
        ok = np.arange(6) != 2
        batched = np.linalg.solve(AtA[ok], Atb[ok][:, :, None])[:, :, 0]
        assert np.array_equal(x[ok], batched)
        assert np.array_equal(x[2], np.linalg.lstsq(A[2], b[2], rcond=None)[0])
