"""Word tree and enumeration, growth estimators, displacements, constructors."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlab import group, mobius
from kleinlab.caps import SphericalCap, cap_image, cap_to_euclidean_ball
from kleinlab.files import load_group_file
from kleinlab.geom import BallPoint, ExtPoint, embed_ext
from kleinlab.group import (
    BadSchottkyConfiguration,
    GroupPresentation,
    enumerate_elements,
    make_cyclic,
    make_schottky,
)

from util import level_children, random_mobius, reference_schottky

RNG = np.random.default_rng(555)
GROUPS = pathlib.Path(__file__).resolve().parents[1] / "groups"


@pytest.fixture(scope="module")
def reference_depth7():
    """The shipped reference group with its words enumerated to depth 7."""
    G = load_group_file(GROUPS / "reference_schottky.json").presentation
    enumerate_elements(G, 7)
    return G


def rotation(th):
    """The rotation of R^2 by th about the origin."""
    A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return mobius.affine(2, A=A)


def elliptic(order):
    """Maker of the cyclic group of a rotation by 2 pi / order."""
    def make():
        return make_cyclic(rotation(2 * np.pi / order))
    make.__name__ = f"elliptic_order{order}"
    return make


class TestEnumeration:
    def test_rank2_length2_gives_17(self):
        G = reference_schottky()
        words = enumerate_elements(G, 2)
        assert len(words) == 17  # 1 + 4 + 12

    def test_zero_length_is_identity_only(self):
        G = reference_schottky()
        words = enumerate_elements(G, 0)
        assert len(words) == 1
        assert mobius.is_identity(words[0].map)

    def test_cyclic_length5_gives_11(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        words = enumerate_elements(G, 5)
        assert len(words) == 11

    def test_rotation_by_one_radian_keeps_every_power(self):
        # no power up to 120 comes within 1e-8 of the identity
        G = make_cyclic(rotation(1.0))
        assert len(enumerate_elements(G, 60)) == 2 * 60 + 1

    def test_finite_order_elliptic_deduplicates(self):
        G = elliptic(5)()
        words = enumerate_elements(G, 7)
        assert len(words) == 5

    def test_small_caps_enumerate_every_reduced_word(self):
        # caps of chordal radius 0.01: deep words come within 1e-8 of each
        # other as maps, and each is still an element of the free group
        G = reference_schottky(theta=float(2.0 * np.arcsin(0.005)))
        words = enumerate_elements(G, 6)
        assert len(words) == 1457 == group.word_count(2, 6)
        assert len({w.letters for w in words}) == 1457

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
        G = reference_schottky()
        a = [w.letters for w in enumerate_elements(G, 3)]
        b = [w.letters for w in enumerate_elements(G, 3)]
        assert a == b
        lengths = [len(l) for l in a]
        assert lengths == sorted(lengths)

    def test_word_maps_match_letterwise_composition(self):
        G = reference_schottky()
        for w in enumerate_elements(G, 3)[::7]:
            m = mobius.identity(2)
            for s in w.letters:
                m = mobius.compose(m, G.letter(s))
            assert mobius.maps_close(m, w.map, tol=1e-9)


class ScalarDeduper:
    """Near-duplicate detection one map at a time, the reference for the
    enumeration: a map is dropped when maps_close (1e-8) confirms an earlier
    kept map among the candidates that share a 1e-8 grid cell of three probe
    images (in either of two grids offset by half a cell) and whose inverse
    probe images agree within 1e-6."""

    def __init__(self, n, tol=1e-8):
        rng = np.random.default_rng(2718281828)
        self.probes = [ExtPoint.finite(rng.normal(0.0, 1.0, n)) for _ in range(3)]
        self._probe_rows = np.array([embed_ext(p) for p in self.probes])
        self.tol = tol
        self._buckets = {}
        self._maps = []
        self._inverse_fps = []

    def check_and_add(self, g):
        """True if g is new (and records it); False if a duplicate was found."""
        fp = np.concatenate([embed_ext(mobius.apply(g, p)) for p in self.probes])
        inv_fp = mobius.sphere_action_rows(mobius.inverse(g),
                                           self._probe_rows).ravel()
        keys = [tuple(np.floor(fp / self.tol).astype(np.int64)),
                tuple(np.floor(fp / self.tol + 0.5).astype(np.int64))]
        candidates = set()
        for key in keys:
            candidates.update(self._buckets.get(key, ()))
        for i in sorted(candidates):
            if (np.abs(self._inverse_fps[i] - inv_fp).max() <= 1e-6
                    and mobius.maps_close(self._maps[i], g, tol=1e-8)):
                return False
        self._maps.append(g)
        self._inverse_fps.append(inv_fp)
        for key in keys:
            self._buckets.setdefault(key, []).append(len(self._maps) - 1)
        return True


def reference_bfs(G, max_len):
    """Plain breadth-first enumeration: every kept word times every letter,
    as (letters, map) pairs."""
    letters = [s for i in range(1, G.rank + 1) for s in (i, -i)]
    dedup = ScalarDeduper(G.n)
    ident = ((), mobius.identity(G.n))
    dedup.check_and_add(ident[1])
    words, frontier = [ident], [ident]
    for _ in range(max_len):
        nxt = []
        for w, g in frontier:
            for s in letters:
                if w and s == -w[-1]:
                    continue
                m = mobius.compose(g, G.letter(s))
                if dedup.check_and_add(m):
                    nxt.append((w + (s,), m))
        words += nxt
        frontier = nxt
    return words


def same_words(got, want):
    assert [w.letters for w in got] == [w for w, _ in want]
    for g, h in zip((w.map for w in got), (m for _, m in want)):
        assert (g.eps, g.r) == (h.eps, h.r)
        for x, y in ((g.a, h.a), (g.A, h.A), (g.b, h.b)):
            assert np.array_equal(x, y)


class TestWordTree:
    # the order m of a rotation is met at level ceil(m / 2), so every order
    # up to 7 stops by level 4; the even ones keep g^(m/2) and drop g^(-m/2),
    # and for m = 7 the shallow call (depth 3) has not met the order yet
    CASES = [(reference_schottky, 5), (elliptic(5), 7),
             *((elliptic(m), 5) for m in (2, 3, 4, 6, 7))]

    @pytest.mark.parametrize("make,depth", CASES)
    def test_enumeration_matches_plain_bfs_bitwise(self, make, depth):
        want = reference_bfs(make(), depth)
        same_words(enumerate_elements(make(), depth), want)
        # grown in place from a shallower call, then sliced back
        G = make()
        shallow = enumerate_elements(G, depth - 2)
        same_words(enumerate_elements(G, depth), want)
        same_words(enumerate_elements(G, depth - 2),
                   [(w.letters, w.map) for w in shallow])
        same_words(shallow, want[:len(shallow)])

    def test_levels_are_not_deduplicated(self):
        G = elliptic(5)()
        assert len(enumerate_elements(G, 7)) == 5
        assert [len(G.word_tree.level(d)) for d in range(4)] == [1, 2, 2, 2]
        tree = reference_schottky().word_tree
        assert [len(tree.level(d)) for d in range(4)] == [1, 4, 12, 36]
        assert [(w.letters, s) for w, s in level_children(tree, 2)][:3] == [
            ((1,), 1), ((1,), 2), ((1,), -2)]
        assert [w.letters for w in tree.level(2)][:3] == [(1, 1), (1, 2), (1, -2)]

    @pytest.mark.parametrize("make", [reference_schottky, elliptic(5)])
    def test_child_rows_invert_the_parent_rows(self, make):
        tree = make().word_tree
        rng = np.random.default_rng(8)
        for d in range(1, 6):
            lv = tree.level(d)
            rows = np.arange(len(lv.up))
            pos, child = lv.child_rows(rows)
            assert sorted(child.tolist()) == list(range(len(lv)))
            assert np.array_equal(lv.parent[child], rows[pos])
            # any rows, repeated and out of order, by position
            rows = rng.integers(0, len(lv.up), 7)
            pos, child = lv.child_rows(rows)
            assert np.array_equal(lv.parent[child], rows[pos])
            assert np.array_equal(np.bincount(pos, minlength=7),
                                  np.bincount(lv.parent)[rows])

    def test_one_pipeline_composes_and_fits_each_word_once(self, monkeypatch):
        from kleinlab import limitset, lipgraph

        G = reference_schottky()
        composed, fits = [], []
        compose_rows, cap_images = mobius.compose_rows, group.cap_images

        def counting_rows(f1, f2):
            composed.append(len(f1[0]))  # rows, alone or in a stack
            return compose_rows(f1, f2)

        def counting_fit(fields, boundary, *args):
            fits.append(len(boundary))  # one per nested cap fitted
            return cap_images(fields, boundary, *args)

        monkeypatch.setattr(mobius, "compose_rows", counting_rows)
        monkeypatch.setattr(group, "cap_images", counting_fit)
        cloud = limitset.sample_limit_set(G, 6)
        group.critical_exponent(G, 6)
        mesh = lipgraph.region_mesh(lipgraph.schottky_region(G), cloud,
                                    0.1)[::173]  # 40 of 6912 points
        caps = lipgraph.base_caps(mesh, 0.1, cloud)
        for depth in (5, 6):
            fam = lipgraph.DomeFamily(G, cloud, caps, depth, audit=20)
            assert fam.cap_count_bound == len(caps) * (1 + 2 * (3**depth - 1))
        # 4 + 12 + ... + 972 = 1456 words of length 1 to 6; a schottky
        # enumeration reads the levels, so nothing else is composed
        assert sum(composed) == 1456
        assert 0 < sum(fits) <= 1456

    def test_repeated_generator_fails_ping_pong_at_construction(self):
        ref = reference_schottky()
        g = ref.generators[0]
        with pytest.raises(BadSchottkyConfiguration, match="ping-pong"):
            GroupPresentation(n=2, generators=(g, g),
                              tag=group.TAG_SCHOTTKY, ball_caps=ref.ball_caps)

    @pytest.mark.parametrize("m", [3, 4])
    def test_ping_pong_is_exact_cap_containment(self, m):
        # the reference caps (embedded in S^3 for m = 4), with g1's target
        # cap shrunk about its center. Euclidean oracle: g1 maps x to
        # p2 + k (x - p1) / |x - p1|^2, so the plane ball B(c, rho) of each
        # other cap goes to B(p2 + k (c - p1) / D, k rho / D), D = |c - p1|^2
        # - rho^2, and must lie in the plane ball of the shrunk cap. The
        # smallest radius theta* that holds all three is found by bisection;
        # the check accepts theta* + 1e-7 and refuses theta* - 1e-7.
        ref = reference_schottky().ball_caps
        caps = [SphericalCap(np.insert(c.center, 2, [0.0] * (m - 3)), c.theta)
                for c in ref]
        G = make_schottky([(caps[0], caps[1]), (caps[2], caps[3])])
        g = G.generators[0]
        k, p1, p2 = g.r, g.a, g.b
        images = []
        for cap in caps[1:]:
            c, rho = cap_to_euclidean_ball(cap)
            D = (c - p1) @ (c - p1) - rho * rho
            images.append((p2 + k * (c - p1) / D, k * rho / D))

        def holds(theta):
            c, rho = cap_to_euclidean_ball(SphericalCap(caps[1].center, theta))
            return all(np.linalg.norm(ci - c) + ri <= rho for ci, ri in images)

        lo, hi = 1e-3, caps[1].theta
        assert holds(hi) and not holds(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        assert hi < caps[1].theta - 1e-3  # a margin to shrink into
        for theta, ok in ((hi + 1e-7, True), (hi - 1e-7, False)):
            shrunk = (caps[0], SphericalCap(caps[1].center, theta), *caps[2:])
            make = lambda: GroupPresentation(n=m - 1, generators=G.generators,
                                             tag=group.TAG_SCHOTTKY,
                                             ball_caps=shrunk)
            if ok:
                make()
            else:
                with pytest.raises(BadSchottkyConfiguration, match="ping-pong"):
                    make()

    def test_word_budget_refuses_before_composing(self):
        G = reference_schottky()
        tree = G.word_tree
        built = len(tree._levels)
        assert group.word_count(2, 9) <= group.MAX_WORDS < group.word_count(2, 10)
        for call in (tree.level, tree.nested_caps, tree.elements):
            with pytest.raises(group.WordBudgetExceeded, match="depth 10"):
                call(10)
        assert len(tree._levels) == built and not tree._caps
        assert group.word_count(1, 40) == 81
        assert [group.word_count(2, d) for d in range(4)] == [1, 5, 17, 53]


def orbit_count(G, R, max_len):
    """N(R) = #{gamma : rho(0, gamma 0) <= R} over the enumeration."""
    _, ds = group.element_displacements(G, max_len)
    return int(np.sum(ds <= R + 1e-12))


def horizon(G, max_len):
    """Displacement of the cheapest word of full length: N(R) is exact below."""
    words, ds = group.element_displacements(G, max_len)
    return group._truncation_horizon(words, ds, max_len)


def poincare_series(G, s, max_len):
    """Partial sum over |gamma| <= max_len of exp(-s rho(0, gamma 0))."""
    _, ds = group.element_displacements(G, max_len)
    return float(np.sum(np.exp(-s * ds)))


def min_displacement(x, G, max_len):
    """Smallest rho(x, gamma x) over the non-identity enumerated elements."""
    enumerate_elements(G, max_len)
    ds = mobius.orbit_distances(G.word_tree.element_fields(max_len), x.vec, x.vec)
    return float(ds[1:].min())  # the identity comes first


class TestCounting:
    def test_count_at_zero_is_identity(self):
        G = reference_schottky()
        assert orbit_count(G, 0.0, 3) == 1

    def test_cyclic_loxodromic_count_staircase(self):
        # displacement of gamma^j along the axis is |j| ln 2
        G = make_cyclic(mobius.affine(2, r=2.0))
        ell = np.log(2.0)
        for R in [0.5 * ell, 1.5 * ell, 3.2 * ell]:
            assert orbit_count(G, R, 8) == 2 * int(R / ell) + 1
            assert R <= horizon(G, 8)

    def test_monotone_in_R(self):
        G = reference_schottky()
        grid = np.linspace(0, 12, 15)
        counts = [orbit_count(G, R, 3) for R in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_unreliable_beyond_horizon(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        assert horizon(G, 4) < 100.0

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
            n12 = orbit_count(G, r1 + r2, 4)
            n1 = orbit_count(G, r1 + slack, 4)
            n2 = orbit_count(G, r2 + slack, 4)
            assert n12 <= n1 * n2


class TestPoincareSeries:
    def test_trivial_truncation_is_one(self):
        G = reference_schottky()
        assert poincare_series(G, 3.0, 0) == pytest.approx(1.0)

    def test_cyclic_matches_geometric_series(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        ell = np.log(2.0)
        for s in [0.5, 1.0, 2.0]:
            for N in [3, 6]:
                direct = poincare_series(G, s, N)
                x = np.exp(-s * ell)
                closed = 1 + 2 * x * (1 - x ** N) / (1 - x)
                assert direct == pytest.approx(closed, abs=1e-12)

    def test_large_s_tends_to_one(self):
        G = reference_schottky()
        val = poincare_series(G, 10 * 2.0, 3)
        assert abs(val - 1.0) < 1e-6

    def test_nonincreasing_in_s(self):
        G = reference_schottky()
        vals = [poincare_series(G, s, 3) for s in [0.1, 0.5, 1.0, 2.0]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_partial_sums_nondecreasing_in_depth(self):
        G = reference_schottky()
        vals = [poincare_series(G, 0.3, d) for d in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bounded_above_delta_diverging_below(self):
        G = reference_schottky()
        delta = group.critical_exponent(G, 5).estimate
        above = [poincare_series(G, delta + 0.2, d) for d in (3, 4, 5)]
        below = [poincare_series(G, max(delta - 0.2, 0.0), d) for d in (3, 4, 5)]
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

    def test_finite_cyclic_horizon_is_unbounded(self):
        # a rotation by 2 pi / 4 has 4 elements, all of length <= 2: the
        # count is exact at every radius, so past depth 2 the horizon is inf
        G = elliptic(4)()
        assert horizon(G, 2) < np.inf
        for depth in (3, 6):
            assert horizon(G, depth) == np.inf
            fit = group.critical_exponent(G, depth)
            assert fit.estimate == 0.0 and fit.diagnostics["horizon"] == np.inf

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
        Gc = GroupPresentation(n=2, generators=gens, tag=group.TAG_SCHOTTKY,
                               ball_caps=tuple(cap_image(conj, c)
                                               for c in G.ball_caps))
        fit_c = group.critical_exponent(Gc, 4)
        tol = 2 * (fit.stderr + fit_c.stderr) + 0.05
        assert abs(fit.estimate - fit_c.estimate) < tol

    def test_words_tied_at_the_horizon_enter_the_window(self, reference_depth7):
        _, ds = group.element_displacements(reference_depth7, 7)
        fit = group.critical_exponent(reference_depth7, 7)
        tied = np.isclose(ds, fit.diagnostics["horizon"], rtol=1e-12, atol=0.0)
        assert tied.sum() == 8  # equal by symmetry, apart in the last bits
        # the window is every radius past the 10th orbit point up to the ties
        assert fit.diagnostics["usable_points"] == np.sum(ds <= ds[tied].max()) - 10
        assert fit.estimate == pytest.approx(0.20269, abs=5e-5)

    def test_exponent_composes_nothing_after_enumeration(self, reference_depth7,
                                                         monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (mobius, group):
            monkeypatch.setattr(module, "compose",
                                counted("compose", mobius.compose))
        monkeypatch.setattr(mobius, "compose_rows",
                            counted("compose_rows", mobius.compose_rows))
        monkeypatch.setattr(mobius, "poincare_extend",
                            counted("poincare_extend", mobius.poincare_extend))
        group.critical_exponent(reference_depth7, 7)
        assert calls == []

    def test_custom_elementary_rejected(self):
        g = mobius.affine(2, r=2.0)
        G = GroupPresentation(n=2, generators=(g,), tag=group.TAG_CUSTOM)
        with pytest.raises(ValueError, match="validate-only"):
            group.critical_exponent(G, 4)

    def test_custom_presentation_is_validate_only(self):
        from kleinlab import limitset

        G = GroupPresentation(n=2, generators=reference_schottky().generators,
                              tag=group.TAG_CUSTOM)
        for call in (G.word_tree.elements, G.word_tree.element_fields,
                     lambda d: group.critical_exponent(G, d),
                     lambda d: limitset.sample_limit_set(G, d)):
            with pytest.raises(ValueError, match="validate-only"):
                call(4)
        assert not G.word_tree._caps and len(G.word_tree._levels) == 1


@given(st.floats(0.0, 6.0), st.floats(0.0, 6.0))
@settings(max_examples=25, deadline=None)
def test_poincare_series_monotone_property(s1, s2):
    G = make_cyclic(mobius.affine(2, r=2.0))
    lo, hi = sorted((s1, s2))
    assert poincare_series(G, hi, 5) <= poincare_series(G, lo, 5) + 1e-12


class TestDisplacement:
    def test_inverse_moves_the_center_as_far(self, reference_depth7):
        words, ds = group.element_displacements(reference_depth7, 7)
        origin = np.zeros(3)
        back = mobius.orbit_distances(
            mobius.inverse_rows(reference_depth7.word_tree.element_fields(7)),
            origin, origin)
        moved = ds > 0
        assert moved.sum() == len(words) - 1
        assert np.max(np.abs(back[moved] - ds[moved]) / ds[moved]) < 1e-13

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
        assert not min_displacement(x, G, 4) < 0.5 * np.log(2.0)

    def test_parabolic_region_reached_near_fixed_point(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        # ball points approaching the parabolic fixed point (north pole)
        hits = []
        for t in [0.5, 0.9, 0.99, 0.999]:
            x = BallPoint(np.array([0.0, 0.0, t]))
            hits.append(min_displacement(x, G, 1) < 0.1)
        assert hits[-1]
        assert hits == sorted(hits)  # once inside, stays inside closer in

    def test_monotone_in_eps(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = BallPoint(np.array([0.2, 0.0, 0.0]))
        vals = [min_displacement(x, G, 3) < e for e in [0.1, 0.5, 1.0, 2.0]]
        assert vals == sorted(vals)


class TestSchottky:
    def test_reference_is_free_and_nonelementary(self):
        G = reference_schottky()
        assert G.tag == group.TAG_SCHOTTKY
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
