"""Word enumeration, orbits, growth estimators, Margulis tests, constructors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlab import group, mobius
from kleinlab.caps import SphericalCap
from kleinlab.geom import BallPoint, ExtPoint
from kleinlab.group import (
    BadSchottkyConfiguration,
    GroupPresentation,
    enumerate_elements,
    make_cyclic,
    make_schottky,
)

from util import random_mobius, reference_schottky

RNG = np.random.default_rng(555)


def free_rank2_presentation():
    """Two loxodromic maps with far-apart fixed points (a free group)."""
    g1 = mobius.affine(2, r=4.0)
    conj = mobius.sphere_inversion([5.0, 0.0], 1.0)
    g2 = mobius.compose(conj, mobius.compose(g1, mobius.inverse(conj)))
    return GroupPresentation(n=2, generators=(g1, g2), tag=group.TAG_CUSTOM)


class TestEnumeration:
    def test_rank2_length2_gives_17(self):
        G = free_rank2_presentation()
        words = enumerate_elements(G, 2)
        assert len(words) == 17  # 1 + 4 + 12

    def test_zero_length_is_identity_only(self):
        G = free_rank2_presentation()
        words = enumerate_elements(G, 0)
        assert len(words) == 1
        assert mobius.is_identity(words[0].map)

    def test_cyclic_length5_gives_11(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        words = enumerate_elements(G, 5)
        assert len(words) == 11

    def test_finite_order_elliptic_deduplicates(self):
        th = 2 * np.pi / 5
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        G = make_cyclic(mobius.affine(2, A=A))
        words = enumerate_elements(G, 7)
        assert len(words) == 5

    def test_deep_schottky_words_need_few_confirmations(self, monkeypatch):
        # deep words share forward buckets: without the inverse-image
        # prefilter, depth 7 confirms 81,174 bucket hits with maps_close
        calls = []
        close = mobius.maps_close

        def counting(g, h, tol=mobius.IDENTITY_TOL):
            calls.append(1)
            return close(g, h, tol=tol)

        monkeypatch.setattr(mobius, "maps_close", counting)
        words = enumerate_elements(reference_schottky(), 7)
        assert len(words) == 1 + 4 * (3**7 - 1) // 2
        assert len(calls) <= 2000

    def test_free_group_counts_at_every_length(self):
        G = reference_schottky()
        words = enumerate_elements(G, 4)
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len[0] == 1
        for ell in range(1, 5):
            assert by_len[ell] == 4 * 3 ** (ell - 1)

    def test_deterministic_order(self):
        G = free_rank2_presentation()
        a = [w.letters for w in enumerate_elements(G, 3)]
        b = [w.letters for w in enumerate_elements(G, 3)]
        assert a == b
        lengths = [len(l) for l in a]
        assert lengths == sorted(lengths)

    def test_word_maps_match_letterwise_composition(self):
        G = free_rank2_presentation()
        for w in enumerate_elements(G, 3)[::7]:
            m = mobius.identity(2)
            for s in w.letters:
                m = mobius.compose(m, G.letter(s))
            assert mobius.maps_close(m, w.map, tol=1e-9)


class TestOrbit:
    def test_identity_only_orbit(self):
        G = free_rank2_presentation()
        base = ExtPoint.finite(np.array([0.3, 0.4]))
        pts = group.orbit(G, base, 0)
        assert len(pts) == 1

    def test_cyclic_doubling_orbit(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        base = ExtPoint.finite(np.array([1.0, 0.0]))
        pts = group.orbit(G, base, 3)
        norms = sorted(np.linalg.norm(p.coords) for p in pts)
        assert norms == pytest.approx([2.0 ** j for j in range(-3, 4)])

    def test_schottky_orbit_counts_free(self):
        G = reference_schottky()
        base = ExtPoint.finite(np.array([0.0, 0.0]))  # region point (south pole)
        for depth in (1, 2, 3):
            pts = group.orbit(G, base, depth)
            expected = 1 + sum(4 * 3 ** (k - 1) for k in range(1, depth + 1))
            assert len(pts) == expected


class TestCounting:
    def test_count_at_zero_is_identity(self):
        G = free_rank2_presentation()
        res = group.orbit_count(G, 0.0, 3)
        assert res.count == 1

    def test_cyclic_loxodromic_count_staircase(self):
        # displacement of gamma^j along the axis is |j| ln 2
        G = make_cyclic(mobius.affine(2, r=2.0))
        ell = np.log(2.0)
        for R in [0.5 * ell, 1.5 * ell, 3.2 * ell]:
            res = group.orbit_count(G, R, 8)
            assert res.count == 2 * int(R / ell) + 1
            assert res.reliable

    def test_monotone_in_R(self):
        G = reference_schottky()
        grid = np.linspace(0, 12, 15)
        counts = [group.orbit_count(G, R, 3).count for R in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_unreliable_beyond_horizon(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        res = group.orbit_count(G, 100.0, 4)
        assert not res.reliable

    def test_submultiplicative_growth(self):
        # N(R1+R2) <= N(R1+c) N(R2+c) with slack c = cheapest generator step
        G = reference_schottky()
        words, ds = group.element_displacements(G, 4)
        horizon = ds[[len(w) == 4 for w in words]].min()
        slack = ds[[len(w) == 1 for w in words]].min()
        for _ in range(20):
            r1, r2 = RNG.uniform(0, horizon / 2, 2)
            if r1 + r2 > horizon:
                continue
            n12 = group.orbit_count(G, r1 + r2, 4).count
            n1 = group.orbit_count(G, r1 + slack, 4).count
            n2 = group.orbit_count(G, r2 + slack, 4).count
            assert n12 <= n1 * n2


class TestPoincareSeries:
    def test_trivial_truncation_is_one(self):
        G = reference_schottky()
        assert group.poincare_series(G, 3.0, 0) == pytest.approx(1.0)

    def test_cyclic_matches_geometric_series(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        ell = np.log(2.0)
        for s in [0.5, 1.0, 2.0]:
            for N in [3, 6]:
                direct = group.poincare_series(G, s, N)
                x = np.exp(-s * ell)
                closed = 1 + 2 * x * (1 - x ** N) / (1 - x)
                assert direct == pytest.approx(closed, abs=1e-12)

    def test_large_s_tends_to_one(self):
        G = reference_schottky()
        val = group.poincare_series(G, 10 * 2.0, 3)
        assert abs(val - 1.0) < 1e-6

    def test_nonincreasing_in_s(self):
        G = reference_schottky()
        vals = [group.poincare_series(G, s, 3) for s in [0.1, 0.5, 1.0, 2.0]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_partial_sums_nondecreasing_in_depth(self):
        G = reference_schottky()
        vals = [group.poincare_series(G, 0.3, d) for d in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bounded_above_delta_diverging_below(self):
        G = reference_schottky()
        delta = group.critical_exponent(G, 5).estimate
        above = [group.poincare_series(G, delta + 0.2, d) for d in (3, 4, 5)]
        below = [group.poincare_series(G, max(delta - 0.2, 0.0), d) for d in (3, 4, 5)]
        assert above[-1] - above[-2] < above[-2] - above[-3] or above[-1] < 1.5
        assert below[-1] - below[-2] > 0.5 * (below[-2] - below[-3])


class TestCriticalExponent:
    def test_cyclic_returns_zero(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        fit = group.critical_exponent(G, 60)
        assert fit.estimate == 0.0
        # raw N(R) fit decays toward zero with depth (linear orbit growth)
        shallow = fit.diagnostics["fit_slope"]
        deep = group.critical_exponent(G, 180).diagnostics["fit_slope"]
        assert 0 < deep < shallow < 0.1

    def test_cyclic_returns_zero_without_a_fit_window(self):
        # depth 6 leaves fewer than 5 radii past the 10th orbit point
        for g in (mobius.affine(2, r=2.0), mobius.translation([1.0, 0.0])):
            fit = group.critical_exponent(make_cyclic(g), 6)
            assert fit.estimate == 0.0 and fit.stderr == 0.0
            assert fit.diagnostics["usable_points"] < 5
            assert fit.diagnostics["fit_slope"] is None
            assert fit.diagnostics["horizon"] > 0

    def test_schottky_in_range(self):
        G = reference_schottky()
        fit = group.critical_exponent(G, 5)
        assert 0.0 < fit.estimate < 2.0

    def test_conjugation_invariance_within_2se(self):
        G = reference_schottky()
        fit = group.critical_exponent(G, 4)
        conj = mobius.affine(2, r=1.3, b=np.array([0.05, -0.02]))
        gens = tuple(
            mobius.compose(conj, mobius.compose(g, mobius.inverse(conj)))
            for g in G.generators
        )
        Gc = GroupPresentation(n=2, generators=gens, tag=group.TAG_CUSTOM)
        fit_c = group.critical_exponent(Gc, 4)
        tol = 2 * (fit.stderr + fit_c.stderr) + 0.05
        assert abs(fit.estimate - fit_c.estimate) < tol

    def test_custom_elementary_rejected(self):
        g = mobius.affine(2, r=2.0)
        G = GroupPresentation(n=2, generators=(g,), tag=group.TAG_CUSTOM)
        with pytest.raises(group.NotNonelementary):
            group.critical_exponent(G, 4)


@given(st.floats(0.0, 6.0), st.floats(0.0, 6.0))
@settings(max_examples=25, deadline=None)
def test_poincare_series_monotone_property(s1, s2):
    G = make_cyclic(mobius.affine(2, r=2.0))
    lo, hi = sorted((s1, s2))
    assert group.poincare_series(G, hi, 5) <= group.poincare_series(G, lo, 5) + 1e-12


class TestDisplacement:
    def test_identity_zero(self):
        x = BallPoint(np.array([0.3, 0.1, -0.2]))
        assert group.displacement(x, mobius.identity(2)) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_at_origin_is_ln2(self):
        d = group.displacement(BallPoint(np.zeros(3)), mobius.affine(2, r=2.0))
        assert d == pytest.approx(np.log(2.0), abs=1e-10)

    def test_conjugation_invariance(self):
        for _ in range(30):
            g = random_mobius(RNG, 2)
            d = random_mobius(RNG, 2)
            x = BallPoint(0.8 * RNG.uniform() * _unit(3))
            ext_d = mobius.poincare_extend(d)
            lhs = group.displacement(
                ext_d.apply_ball(x),
                mobius.compose(d, mobius.compose(g, mobius.inverse(d))),
            )
            rhs = group.displacement(x, g)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def _unit(m):
    v = RNG.standard_normal(m)
    return v / np.linalg.norm(v)


class TestMargulis:
    def test_eps_below_min_displacement_false(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = BallPoint(np.zeros(3))
        res = group.margulis_region_test(x, G, 0.5 * np.log(2.0), 4)
        assert not res

    def test_parabolic_region_reached_near_fixed_point(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        # ball points approaching the parabolic fixed point (north pole)
        hits = []
        for t in [0.5, 0.9, 0.99, 0.999]:
            x = BallPoint(np.array([0.0, 0.0, t]))
            hits.append(bool(group.margulis_region_test(x, G, 0.1, 1)))
        assert hits[-1]
        assert hits == sorted(hits)  # once inside, stays inside closer in

    def test_monotone_in_eps(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = BallPoint(np.array([0.2, 0.0, 0.0]))
        vals = [bool(group.margulis_region_test(x, G, e, 3))
                for e in [0.1, 0.5, 1.0, 2.0]]
        assert vals == sorted(vals)


class TestSchottky:
    def test_reference_is_free_and_nonelementary(self):
        G = reference_schottky()
        assert G.tag == group.TAG_SCHOTTKY
        assert group.detect_nonelementary(G)
        assert len(enumerate_elements(G, 2)) == 17

    def test_tangent_balls_rejected(self):
        th = 0.3
        c1 = SphericalCap(center=np.array([1.0, 0.0, 0.0]), theta=th)
        c2 = SphericalCap(
            center=np.array([np.cos(2 * th), np.sin(2 * th), 0.0]), theta=th
        )
        c3 = SphericalCap(center=np.array([0.0, 0.0, -1.0]), theta=0.1)
        c4 = SphericalCap(center=np.array([0.0, -1.0, 0.0]), theta=0.1)
        with pytest.raises(BadSchottkyConfiguration):
            make_schottky([(c1, c2), (c3, c4)])

    def test_generator_maps_exterior_probe_into_target(self):
        G = reference_schottky()
        for s in [1, -1, 2, -2]:
            g = G.letter(s)
            target = G.letter_target_cap(s)
            source = G.letter_source_cap(s)
            probe = -source.center  # antipode of the source cap center
            img = mobius.sphere_action_rows(g, probe[None, :])[0]
            assert target.contains(img[None, :])[0]

    def test_generators_are_loxodromic(self):
        G = reference_schottky()
        for g in G.generators:
            assert mobius.classify(g) == "loxodromic"
