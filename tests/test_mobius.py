"""Normal-form map algebra, conformal derivatives, extension, classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlab import geom, mobius
from kleinlab.geom import BallPoint, ExtPoint
from kleinlab.mobius import (
    apply,
    classify,
    compose,
    deriv_euclid_rows,
    deriv_sphere,
    deriv_sphere_rows,
    identity,
    inverse,
    is_identity,
    poincare_extend,
    translation,
    unit_inversion,
)

from util import random_mobius, random_point_off_pole

RNG = np.random.default_rng(77)


def pt(*v):
    return ExtPoint.finite(np.array(v, dtype=float))


class TestApply:
    def test_identity_fixes_everything(self):
        g = identity(3)
        x = pt(0.1, -2.0, 5.0)
        assert np.allclose(apply(g, x).coords, x.coords)
        assert apply(g, ExtPoint.infinity(3)).is_infinity

    def test_unit_inversion_at_half_e1(self):
        g = unit_inversion(2)
        y = apply(g, pt(0.5, 0.0))
        assert np.allclose(y.coords, [2.0, 0.0])

    def test_pole_conventions(self):
        g = mobius.sphere_inversion([1.0, 2.0], 0.5)
        assert apply(g, pt(1.0, 2.0)).is_infinity
        img_inf = apply(g, ExtPoint.infinity(2))
        assert np.allclose(img_inf.coords, g.b)

    def test_affine_fixes_infinity(self):
        g = translation([3.0, 0.0])
        assert apply(g, ExtPoint.infinity(2)).is_infinity

    def test_rows_match_scalar(self):
        for _ in range(20):
            g = random_mobius(RNG, 3)
            X = RNG.normal(0, 2, (40, 3))
            Y, at_pole = mobius.apply_rows(g, X)
            assert not at_pole.any()
            for xi, yi in zip(X, Y):
                assert np.allclose(apply(g, ExtPoint.finite(xi)).coords, yi, atol=1e-10)


class TestGroupStructure:
    def test_compose_row_bits_do_not_depend_on_the_stack(self):
        # 250 rows of each eps case: affine outer map, inverting after
        # affine, two inverting maps whose poles cancel, and the general case
        rng = np.random.default_rng(31)
        pairs = []
        for outer, inner in ((0, None), (1, 0), (1, 1), (1, 1)):
            for _ in range(250):
                g = random_mobius(rng, 3, inverting=outer)
                h = random_mobius(rng, 3, inverting=inner)
                pairs.append((g, h))
        for g, h in pairs[500:750]:  # the poles cancel: h sends inf to g.a
            object.__setattr__(h, "b", g.a.copy())
        stack = mobius.compose_rows(mobius.stack_fields([g for g, _ in pairs]),
                                    mobius.stack_fields([h for _, h in pairs]))
        assert (stack[0][500:750] == 0).all() and (stack[0][750:] == 1).all()
        for i, (g, h) in enumerate(pairs):
            one, row = compose(g, h), mobius.map_row(stack, i)
            assert (one.eps, one.r) == (row.eps, row.r)
            for x, y in ((one.a, row.a), (one.A, row.A), (one.b, row.b)):
                assert x.tobytes() == y.tobytes()

    def test_stacked_sphere_action_keeps_the_bits_of_one_map(self):
        rng = np.random.default_rng(32)
        maps = [random_mobius(rng, 2) for _ in range(300)]
        U = geom.uniform_sphere(rng, 2, 300)
        U[:3] = np.eye(3)[-1]  # the point at infinity
        maps[3] = mobius.MobiusMap(2, 1, geom.stereo_project(
            geom.SpherePoint(U[4])).coords, 1.0, np.eye(2), np.zeros(2))
        got = mobius.sphere_action_stack(mobius.stack_fields(maps), U)
        want = np.array([mobius.sphere_action_rows(g, u[None])[0]
                         for g, u in zip(maps, U)])
        assert got.tobytes() == want.tobytes()

    def test_inversion_is_involution(self):
        g = unit_inversion(3)
        assert is_identity(compose(g, g))

    def test_inverse_roundtrip_500_random(self):
        for _ in range(500):
            n = int(RNG.integers(1, 5))
            g = random_mobius(RNG, n)
            assert is_identity(compose(g, inverse(g)))
            assert is_identity(compose(inverse(g), g))

    def test_compose_agrees_with_pointwise_application(self):
        # oracle: apply maps one after the other at probe points
        for _ in range(200):
            n = int(RNG.integers(2, 4))
            g1, g2 = random_mobius(RNG, n), random_mobius(RNG, n)
            comp = compose(g1, g2)
            for _ in range(5):
                x = random_point_off_pole(RNG, g2)
                mid = apply(g2, ExtPoint.finite(x))
                if mid.is_infinity or (
                    comp.eps == 1 and np.linalg.norm(x - comp.a) < 1e-6
                ):
                    continue
                direct = apply(g1, mid)
                if direct.is_infinity:
                    continue
                via = apply(comp, ExtPoint.finite(x))
                scale = 1.0 + np.linalg.norm(direct.coords)
                assert np.linalg.norm(via.coords - direct.coords) / scale < 1e-9

    def test_associativity_at_probes(self):
        worst = 0.0
        for _ in range(100):
            n = 3
            g1, g2, g3 = (random_mobius(RNG, n) for _ in range(3))
            left = compose(compose(g1, g2), g3)
            right = compose(g1, compose(g2, g3))
            for _ in range(10):
                x = RNG.normal(0, 2, n)
                if left.eps == 1 and np.linalg.norm(x - left.a) < 1e-3:
                    continue
                if right.eps == 1 and np.linalg.norm(x - right.a) < 1e-3:
                    continue
                yl = apply(left, ExtPoint.finite(x))
                yr = apply(right, ExtPoint.finite(x))
                if yl.is_infinity or yr.is_infinity:
                    continue
                err = np.linalg.norm(yl.coords - yr.coords) / (1 + np.linalg.norm(yl.coords))
                worst = max(worst, err)
        assert worst < 1e-9

    def test_normal_form_closure_under_deep_words(self):
        g = random_mobius(RNG, 2, inverting=True)
        h = random_mobius(RNG, 2, inverting=True)
        word = identity(2)
        for k in range(40):
            word = compose(word, g if k % 2 == 0 else h)
        # orthogonality maintained by reprojection
        assert np.max(np.abs(word.A.T @ word.A - np.eye(2))) < 1e-12


class TestDerivatives:
    def test_unit_inversion_at_half_e1_is_four(self):
        g = unit_inversion(2)
        d = deriv_euclid_rows(g, np.array([[0.5, 0.0]]))
        assert d[0] == pytest.approx(4.0, abs=1e-14)

    def test_identity_derivative_one(self):
        fields = mobius.stack_fields([identity(3)])
        d = deriv_sphere_rows(fields, np.array([[4.0, 5.0, 6.0]]), np.array([False]))
        assert d[0] == 1.0

    def test_two_point_distortion_identity(self):
        # |gx - gy| = |g'(x)|^1/2 |g'(y)|^1/2 |x - y|
        worst = 0.0
        for _ in range(500):
            n = int(RNG.integers(2, 4))
            g = random_mobius(RNG, n)
            x = random_point_off_pole(RNG, g)
            y = random_point_off_pole(RNG, g)
            gx, gy = apply(g, ExtPoint.finite(x)), apply(g, ExtPoint.finite(y))
            lhs = np.linalg.norm(gx.coords - gy.coords)
            dx, dy = deriv_euclid_rows(g, np.vstack([x, y]))
            rhs = np.sqrt(dx) * np.sqrt(dy) * np.linalg.norm(x - y)
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
        assert worst < 1e-9

    def test_translation_sphere_derivative_closed_form(self):
        h = np.array([1.3, -0.4])
        g = translation(h)
        for _ in range(50):
            x = RNG.normal(0, 2, 2)
            xp = ExtPoint.finite(x)
            gx = apply(g, xp)
            expected = (1 + x @ x) / (1 + gx.coords @ gx.coords)
            q_ratio = (
                geom.chordal_distance(gx, ExtPoint.infinity(2)) ** 2
                / geom.chordal_distance(xp, ExtPoint.infinity(2)) ** 2
            )
            val = deriv_sphere(g, xp)
            assert val == pytest.approx(expected, rel=1e-12)
            assert val == pytest.approx(q_ratio, rel=1e-12)

    def test_inversion_sphere_derivative_closed_form(self):
        g = unit_inversion(3)
        origin = ExtPoint.finite(np.zeros(3))
        for _ in range(50):
            x = RNG.normal(0, 2, 3)
            xp = ExtPoint.finite(x)
            gx = apply(g, xp)
            q_ratio = (
                geom.chordal_distance(gx, ExtPoint.infinity(3)) ** 2
                / geom.chordal_distance(xp, origin) ** 2
            )
            assert deriv_sphere(g, xp) == pytest.approx(q_ratio, rel=1e-12)

    def test_sphere_derivative_chain_rule(self):
        worst = 0.0
        for _ in range(300):
            n = int(RNG.integers(2, 4))
            g1, g2 = random_mobius(RNG, n), random_mobius(RNG, n)
            comp = compose(g1, g2)
            x = random_point_off_pole(RNG, g2)
            xp = ExtPoint.finite(x)
            mid = apply(g2, xp)
            if comp.eps == 1 and np.linalg.norm(x - comp.a) < 1e-4:
                continue
            lhs = deriv_sphere(comp, xp)
            rhs = deriv_sphere(g1, mid) * deriv_sphere(g2, xp)
            worst = max(worst, abs(lhs - rhs) / rhs)
        assert worst < 1e-9

    def test_sphere_derivative_total_at_infinity_and_pole(self):
        g = mobius.sphere_inversion([0.5, 0.5], 2.0)
        # two-point chordal identity pins the boundary values:
        # q(gx, gy) = sqrt(ds(x) ds(y)) q(x, y) as y -> pole / infinity
        for special in [ExtPoint.infinity(2), ExtPoint.finite(g.a)]:
            val = deriv_sphere(g, special)
            x = pt(3.0, -1.0)
            lhs = geom.chordal_distance(apply(g, special), apply(g, x))
            rhs = np.sqrt(val * deriv_sphere(g, x)) * geom.chordal_distance(special, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_chordal_two_point_identity_randomized(self):
        for _ in range(200):
            n = 2
            g = random_mobius(RNG, n)
            x = ExtPoint.finite(random_point_off_pole(RNG, g))
            y = ExtPoint.finite(random_point_off_pole(RNG, g))
            lhs = geom.chordal_distance(apply(g, x), apply(g, y))
            rhs = np.sqrt(deriv_sphere(g, x) * deriv_sphere(g, y)) * geom.chordal_distance(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestPoincareExtension:
    def test_identity_extends_to_identity(self):
        ext = poincare_extend(identity(2))
        X = np.array([0.95 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0]
                      for _ in range(20)])
        assert np.max(np.abs(ext.apply_ball_rows(X) - X)) < 1e-14

    def test_isometry_on_1000_pairs(self):
        worst = 0.0
        for _ in range(50):
            g = random_mobius(RNG, 2)
            ext = poincare_extend(g)
            X = np.array([0.9 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0]
                          for _ in range(20)])
            Y = np.array([0.9 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0]
                          for _ in range(20)])
            d_before = geom.hyperbolic_distance_rows(X, Y)
            d_after = geom.hyperbolic_distance_rows(
                ext.apply_ball_rows(X), ext.apply_ball_rows(Y)
            )
            worst = max(worst, np.max(np.abs(d_before - d_after)))
        assert worst < 1e-9

    @pytest.mark.parametrize("shift", [1e-12, 5.736809936689657e-12, 1e-8, 1e-5])
    def test_isometry_under_near_identity_translation(self, shift):
        # a ball normal form of this map would have |b| ~ 2/shift and cancel
        # about -log10(shift) digits; the half-space lift cancels none
        ext = poincare_extend(translation([0.0, shift]))
        X = np.array([[0.0, 0.3 * np.tanh(1.0), 0.1], [0.5, -0.2, 0.4]])
        Y = np.zeros((2, 3))
        d_before = geom.hyperbolic_distance_rows(X, Y)
        d_after = geom.hyperbolic_distance_rows(
            ext.apply_ball_rows(X), ext.apply_ball_rows(Y)
        )
        assert np.max(np.abs(d_before - d_after)) < 1e-12

    def test_boundary_action_is_stereo_conjugate(self):
        for _ in range(30):
            g = random_mobius(RNG, 2)
            ext = poincare_extend(g)
            u = geom.uniform_sphere(RNG, 2, 10)
            via_ball = ext.apply_ball_rows((1.0 - 1e-12) * u)
            for row, img in zip(u, via_ball):
                x = geom.stereo_project(geom.SpherePoint(row))
                gx = apply(g, x)
                expected = geom.embed_ext(gx)
                assert np.linalg.norm(expected - img) < 1e-9

    def test_ball_preserved(self):
        for _ in range(30):
            g = random_mobius(RNG, 3)
            ext = poincare_extend(g)
            X = np.array([0.999 * RNG.uniform() * geom.uniform_sphere(RNG, 3, 1)[0]
                          for _ in range(30)])
            Y = ext.apply_ball_rows(X)
            assert np.all(np.linalg.norm(Y, axis=1) < 1.0)

    def test_inversion_center_image_against_manual_conjugation(self):
        # oracle: push kappa(0) through the half-space extension by hand
        g = unit_inversion(2)
        ext = poincare_extend(g)
        direct = ext.apply_ball(BallPoint(np.zeros(3))).vec

        k = mobius._cayley(3)
        z0 = apply(k, ExtPoint.finite(np.zeros(3)))
        a = np.append(g.a, 0.0)
        b = np.append(g.b, 0.0)
        v = z0.coords - a
        gz = b + g.r * (np.eye(3) @ v) / (v @ v)
        back = apply(inverse(k), ExtPoint.finite(gz))
        assert np.linalg.norm(direct - back.coords) < 1e-10
        assert abs(np.linalg.norm(direct) - np.linalg.norm(back.coords)) < 1e-10


class TestOrbitDistances:
    def test_matches_ball_images_on_random_maps(self):
        worst = 0.0
        for _ in range(50):
            maps = [random_mobius(RNG, 2) for _ in range(10)]
            x, y = (0.9 * RNG.uniform() * geom.uniform_sphere(RNG, 2, 1)[0]
                    for _ in range(2))
            got = mobius.orbit_distances(mobius.stack_fields(maps), x, y)
            want = [geom.hyperbolic_distance_rows(
                x[None, :], poincare_extend(g).apply_ball_rows(y[None, :]))[0]
                for g in maps]
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-12

    @pytest.mark.parametrize("shift", [1e-12, 1e-10, 1e-8, 1e-5])
    def test_matches_ball_images_near_identity(self, shift):
        maps = [translation(shift * geom.uniform_sphere(RNG, 1, 1)[0])
                for _ in range(10)]
        x = np.array([0.0, 0.3 * np.tanh(1.0), 0.1])
        for y in (x, np.zeros(3), np.array([0.5, -0.2, 0.4])):
            got = mobius.orbit_distances(mobius.stack_fields(maps), x, y)
            want = [geom.hyperbolic_distance_rows(
                x[None, :], poincare_extend(g).apply_ball_rows(y[None, :]))[0]
                for g in maps]
            assert np.max(np.abs(got - want)) < 1e-12


@given(
    st.floats(-5, 5), st.floats(-5, 5),
    st.floats(-5, 5), st.floats(-5, 5),
    st.floats(0.2, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_affine_chain_rule_property(hx, hy, x1, x2, r):
    g1 = translation([hx, hy])
    g2 = mobius.affine(2, r=r)
    x = ExtPoint.finite(np.array([x1, x2]))
    comp = compose(g1, g2)
    lhs = deriv_sphere(comp, x)
    rhs = deriv_sphere(g1, apply(g2, x)) * deriv_sphere(g2, x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_extension_isometry_property(a1, a2, b1, b2):
    g = translation([a1, a2])
    ext = poincare_extend(g)
    x = np.array([[0.3 * np.tanh(b1), 0.3 * np.tanh(b2), 0.1]])
    y = np.zeros((1, 3))
    d0 = geom.hyperbolic_distance_rows(x, y)[0]
    d1 = geom.hyperbolic_distance_rows(
        ext.apply_ball_rows(x), ext.apply_ball_rows(y)
    )[0]
    # the half-space lift of a translation adds the shift and cancels no
    # digits (worst seen on 20,000 random draws: 2.4e-15)
    assert d1 == pytest.approx(d0, abs=1e-13)


class TestClassify:
    def test_translation_is_parabolic(self):
        assert classify(translation([1.0, 0.0])) == "parabolic"

    def test_doubling_is_loxodromic(self):
        assert classify(mobius.affine(2, r=2.0)) == "loxodromic"

    def test_rotation_is_elliptic(self):
        th = 0.7
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert classify(mobius.affine(2, A=A)) == "elliptic"

    def test_identity_detected(self):
        assert classify(identity(2)) == "identity"

    def test_screw_motion_is_parabolic(self):
        th = 0.9
        A = np.eye(3)
        A[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        g = mobius.affine(3, A=A, b=[0.0, 0.0, 1.0])
        assert classify(g) == "parabolic"

    def test_rotation_about_offcenter_point_is_elliptic(self):
        th = 1.1
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        c = np.array([2.0, -1.0])
        g = mobius.affine(2, A=A, b=c - A @ c)
        assert classify(g) == "elliptic"

    def test_conjugated_types_preserved(self):
        # conjugation by an inverting map forces the eps=1 iterative path
        conj = mobius.sphere_inversion([3.0, 3.0], 1.0)
        cases = [
            (translation([1.0, 0.0]), "parabolic"),
            (mobius.affine(2, r=2.0), "loxodromic"),
        ]
        rot = np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]])
        cases.append((mobius.affine(2, A=rot), "elliptic"))
        for g, expected in cases:
            gg = compose(conj, compose(g, inverse(conj)))
            assert gg.eps == 1
            assert classify(gg) == expected
