"""Chordal metric, stereographic bridge, and hyperbolic ball distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kleinlab import geom
from kleinlab.geom import BallPoint, ExtPoint, SpherePoint

RNG = np.random.default_rng(20260809)


def finite(v):
    return ExtPoint.finite(np.asarray(v, dtype=float))


class TestChordal:
    def test_origin_to_infinity_is_two(self):
        assert geom.chordal_distance(finite([0.0, 0.0]), ExtPoint.infinity(2)) == 2.0

    def test_origin_to_e1_is_sqrt2(self):
        q = geom.chordal_distance(finite([0.0, 0.0]), finite([1.0, 0.0]))
        assert q == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_symmetry_and_identity(self):
        x, y = finite([0.3, -0.7]), finite([2.0, 5.0])
        assert geom.chordal_distance(x, y) == geom.chordal_distance(y, x)
        assert geom.chordal_distance(x, x) == 0.0
        inf2 = ExtPoint.infinity(2)
        assert geom.chordal_distance(inf2, inf2) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(geom.DimensionMismatch):
            geom.chordal_distance(finite([1.0]), finite([1.0, 2.0]))

    def test_equals_embedded_euclidean_distance(self):
        # oracle: chordal distance is the chord length of the embedded points
        for _ in range(300):
            n = int(RNG.integers(1, 5))
            x, y = RNG.normal(0, 3, n), RNG.normal(0, 3, n)
            q = geom.chordal_distance(finite(x), finite(y))
            chord = np.linalg.norm(geom.embed_rows(x[None])[0] - geom.embed_rows(y[None])[0])
            assert q == pytest.approx(chord, abs=1e-12)

    def test_triangle_inequality_through_embedding(self):
        for _ in range(500):
            n = int(RNG.integers(1, 4))
            pts = [finite(RNG.normal(0, 4, n)) for _ in range(3)]
            if RNG.uniform() < 0.2:
                pts[RNG.integers(0, 3)] = ExtPoint.infinity(n)
            qxz = geom.chordal_distance(pts[0], pts[2])
            qxy = geom.chordal_distance(pts[0], pts[1])
            qyz = geom.chordal_distance(pts[1], pts[2])
            assert qxz <= qxy + qyz + 1e-12

    def test_bounded_by_two(self):
        for _ in range(200):
            x, y = finite(RNG.normal(0, 10, 3)), finite(RNG.normal(0, 10, 3))
            assert geom.chordal_distance(x, y) <= 2.0 + 1e-15

    def test_bilipschitz_to_spherical_distance(self):
        # ratio chord/arc lies in [2/pi, 1]
        for _ in range(400):
            u = geom.uniform_sphere(RNG, 2, 2)
            q = np.linalg.norm(u[0] - u[1])
            arc = geom.angular_distance(u[0], u[1])
            if arc < 1e-12:
                continue
            ratio = q / arc
            assert 2.0 / np.pi - 1e-12 <= ratio <= 1.0 + 1e-12


class TestStereo:
    def test_north_pole_to_infinity(self):
        p = SpherePoint(np.array([0.0, 0.0, 1.0]))
        assert geom.stereo_project(p).is_infinity

    def test_south_pole_to_origin(self):
        p = SpherePoint(np.array([0.0, 0.0, -1.0]))
        x = geom.stereo_project(p)
        assert np.allclose(x.coords, 0.0)

    def test_roundtrip_1000_points(self):
        u = geom.uniform_sphere(RNG, 2, 1000)
        worst = 0.0
        for row in u:
            x = geom.stereo_project(SpherePoint(row))
            back = geom.embed_ext(x)
            worst = max(worst, np.linalg.norm(back - row))
        assert worst < 1e-12

    def test_unembed_rows_matches_scalar(self):
        u = geom.uniform_sphere(RNG, 3, 50)
        coords, at_inf = geom.unembed_rows(u)
        assert not at_inf.any()
        for row, c in zip(u, coords):
            assert np.allclose(geom.stereo_project(SpherePoint(row)).coords, c)


class TestHyperbolic:
    def test_zero_at_coincident(self):
        o = np.zeros((1, 3))
        assert geom.hyperbolic_distance_rows(o, o)[0] == 0.0

    def test_radius_half_is_log3(self):
        # oracle: integrate the line element 2/(1-t^2) along the radius
        val, err = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, 0.5)
        assert val == pytest.approx(np.log(3.0), abs=1e-12)
        d = geom.hyperbolic_distance_rows(np.zeros((1, 3)), np.array([[0.5, 0, 0.0]]))
        assert d[0] == pytest.approx(val, abs=1e-12)

    def test_triangle_inequality(self):
        x, y, z = (0.98 * geom.uniform_sphere(RNG, 2, 300) * RNG.uniform(size=(300, 1))
                   for _ in range(3))
        dxz = geom.hyperbolic_distance_rows(x, z)
        dxy = geom.hyperbolic_distance_rows(x, y)
        dyz = geom.hyperbolic_distance_rows(y, z)
        assert np.all(dxz <= dxy + dyz + 1e-10)

    def test_strictly_increasing_and_divergent_along_radius(self):
        rs = np.linspace(0.0, 1.0 - 1e-9, 50)
        o = np.zeros((1, 2))
        ds = [float(geom.hyperbolic_distance_rows(o, np.array([[r, 0.0]]))[0]) for r in rs]
        assert np.all(np.diff(ds) > 0)
        assert ds[-1] > 20.0

    def test_rejects_boundary_points(self):
        with pytest.raises(geom.NotInBall):
            BallPoint(np.array([1.0, 0.0]))
        with pytest.raises(geom.NotInBall):
            geom.hyperbolic_distance_rows(np.array([[1.0, 0.0]]), np.zeros((1, 2)))

    def test_gauge_is_tanh_half_distance(self):
        for _ in range(100):
            x = BallPoint(0.9 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0])
            y = BallPoint(0.9 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0])
            rho = geom.hyperbolic_distance_rows(x.vec, y.vec)[0]
            assert geom.ball_gauge(x, y) == pytest.approx(np.tanh(rho / 2.0), abs=1e-12)


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20))
@settings(max_examples=100, deadline=None)
def test_chordal_triangle_property(x1, x2, y1, y2):
    x = finite([x1, x2])
    y = finite([y1, y2])
    inf2 = ExtPoint.infinity(2)
    assert geom.chordal_distance(x, inf2) <= (
        geom.chordal_distance(x, y) + geom.chordal_distance(y, inf2) + 1e-12
    )


def test_sphere_area_known_values():
    assert geom.sphere_area(1) == pytest.approx(2 * np.pi, rel=1e-12)
    assert geom.sphere_area(2) == pytest.approx(4 * np.pi, rel=1e-12)
    assert geom.sphere_area(3) == pytest.approx(2 * np.pi ** 2, rel=1e-12)


class TestSphereSamples:
    @pytest.mark.parametrize("width", range(1, 8))
    def test_normalize_rows_has_the_bits_of_linalg_norm(self, width):
        v = RNG.standard_normal((2000, width)) * RNG.uniform(1e-3, 1e3, (2000, 1))
        want = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(geom.normalize_rows(v), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_stack_to_one_draw(self, n, monkeypatch):
        monkeypatch.setattr(geom, "SAMPLE_BLOCK", 777)
        one = geom.uniform_sphere(np.random.default_rng(n), n, 5000)
        blocks = list(geom.uniform_sphere_blocks(np.random.default_rng(n), n, 5000))
        assert [start for start, _ in blocks] == list(range(0, 5000, 777))
        assert np.array_equal(np.vstack([b for _, b in blocks]), one)
        v = np.random.default_rng(n).standard_normal((5000, n + 1))
        assert np.array_equal(one, v / np.linalg.norm(v, axis=1, keepdims=True))
