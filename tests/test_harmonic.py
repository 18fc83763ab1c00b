"""Poisson kernel, harmonic extension, Green's functions, flux, measure identity."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from kleinlab import geom, harmonic, mobius
from kleinlab.geom import BallPoint, uniform_sphere
from kleinlab.group import enumerate_elements, make_cyclic
from kleinlab.harmonic import (
    BoundaryIndicator,
    GreenPole,
    MCEstimate,
    bernoulli_stderr,
    boundary_shift_rows,
    cloud_complement,
    flux_density_check,
    green_ball,
    green_gauge,
    harmonic_extension,
    harmonic_measure_identity,
    hemisphere,
)
from kleinlab.limitset import LimitSetCloud, dist_rows, sample_limit_set

from util import poisson_kernel, poisson_kernel_rows, random_mobius, reference_schottky

RNG = np.random.default_rng(424242)


def ball_point(v):
    return BallPoint(np.asarray(v, dtype=float))


class TestPoissonKernel:
    def test_center_value_one(self):
        for _ in range(20):
            y = uniform_sphere(RNG, 2, 1)[0]
            assert poisson_kernel(ball_point([0, 0, 0]), y) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_normalization_monte_carlo(self):
        # (1/vol S^n) int k(x, y)^n d omega = 1, checked by plain uniform MC
        x = ball_point([0.7, 0.0, 0.0])
        Y = uniform_sphere(np.random.default_rng(1), 2, 1_000_000)
        vals = poisson_kernel_rows(x, Y) ** 2
        mean = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(mean - 1.0) < 3 * se
        assert se < 0.004

    def test_shift_rows_land_on_sphere_and_normalize(self):
        x = ball_point([0.3, -0.5, 0.1])
        Z = uniform_sphere(np.random.default_rng(2), 2, 1000)
        Y = boundary_shift_rows(x, Z)
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
        # pushforward of uniform = k^n density: compare MC of a test cap
        from kleinlab.caps import SphericalCap

        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=0.8)
        mass_shift = cap.contains(Y).mean()
        dens = poisson_kernel_rows(x, Z) ** 2
        mass_kernel = (cap.contains(Z) * dens).mean()
        assert abs(mass_shift - mass_kernel) < 0.02

    def test_shift_agrees_with_extension_boundary_action(self):
        # the gyro-translation is the boundary trace of some ball isometry:
        # verify it preserves the kernel mass of random caps under conjugation
        x = ball_point([0.0, 0.6, 0.0])
        Z = uniform_sphere(np.random.default_rng(3), 2, 200)
        Y = boundary_shift_rows(x, Z)
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_shift_at_the_centre_returns_the_rows(self, n):
        Z = uniform_sphere(np.random.default_rng(n), n, 1000)
        got = boundary_shift_rows(ball_point(np.zeros(n + 1)), Z)
        assert got.tobytes() == Z.tobytes()


class TestHarmonicExtension:
    def test_full_sphere_exact_one(self):
        def everywhere(U):
            return np.ones(len(U), dtype=bool), np.zeros(len(U), dtype=bool)

        full_sphere = BoundaryIndicator(kind="full-sphere", classify=everywhere)
        est = harmonic_extension(full_sphere, ball_point([0.4, 0.2, -0.3]),
                                 5000, seed=0)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_hemisphere_at_center(self):
        est = harmonic_extension(hemisphere([0, 0, 1.0]), ball_point([0, 0, 0]),
                                 200_000, seed=4)
        assert abs(est.value - 0.5) < 2 * est.stderr + 1e-3

    def test_extension_at_the_centre_is_the_unshifted_mean(self):
        origin = ball_point([0, 0, 0])
        for chi in (hemisphere([0.3, -0.2, 1.0]), cloud_complement(wide_band_cloud())):
            got = harmonic_extension(chi, origin, 5000, seed=3)
            assert got == harmonic._indicator_mean(chi, 2, 5000, 3)

    def test_values_in_unit_interval(self):
        chi = hemisphere([1.0, 0, 0])
        for _ in range(10):
            x = ball_point(0.8 * RNG.uniform() * uniform_sphere(RNG, 2, 1)[0])
            est = harmonic_extension(chi, x, 2000, seed=int(RNG.integers(1e6)))
            assert 0.0 <= est.value <= 1.0

    def test_complement_symmetry(self):
        chi_up = hemisphere([0, 0, 1.0])
        chi_dn = hemisphere([0, 0, -1.0])
        x = ball_point([0.2, 0.1, 0.5])
        up = harmonic_extension(chi_up, x, 150_000, seed=7)
        dn = harmonic_extension(chi_dn, x, 150_000, seed=8)
        # the two hemispheres overlap only on the equator (measure zero)
        assert abs(up.value + dn.value - 1.0) < 3 * (up.stderr + dn.stderr)

    def test_gamma_invariance_on_schottky(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        chi = cloud_complement(cloud)
        rng = np.random.default_rng(9)
        for k in range(5):
            x = ball_point(0.6 * rng.uniform() * uniform_sphere(rng, 2, 1)[0])
            ext = mobius.poincare_extend(G.generators[k % 2])
            gx = ext.apply_ball(BallPoint(x.vec))
            u_x = harmonic_extension(chi, x, 60_000, seed=10 + k)
            u_gx = harmonic_extension(chi, gx, 60_000, seed=110 + k)
            tol = 3 * (u_x.stderr + u_gx.stderr) + (
                u_x.indeterminate_fraction + u_gx.indeterminate_fraction
            ) + 1e-6
            assert abs(u_x.value - u_gx.value) <= tol

    def test_cloud_complement_matches_unbounded_nearest(self):
        clouds = [sample_limit_set(reference_schottky(), 5)]
        # a cyclic cloud has band 0: its own points are indeterminate
        clouds.append(sample_limit_set(make_cyclic(mobius.affine(2, r=2.0)), 3))
        rows = uniform_sphere(np.random.default_rng(31), 2, 5000)
        # a band equal to the nearest distance of a few rows
        _, d = dist_rows(rows, clouds[0])
        for k in (0, 1, 2):
            clouds.append(LimitSetCloud(n=2, points=clouds[0].points, depth=5,
                                        resolution=float(d[k])))
        for cloud in clouds:
            band = cloud.resolution or 0.0
            U = np.vstack([rows, cloud.points])
            member, indet = cloud_complement(cloud).classify(U)
            expect = dist_rows(U, cloud)[1] > band
            assert np.array_equal(member, expect)
            assert np.array_equal(indet, ~expect)
            assert indet[len(rows):].all()

    @pytest.mark.parametrize("depth", [5, 6])
    def test_cloud_complement_matches_kdtree_at_the_band(self, depth):
        cloud = sample_limit_set(reference_schottky(), depth)
        band = cloud.resolution
        rng = np.random.default_rng(depth)
        P = cloud.points[rng.integers(0, cloud.size, 3000)]
        step = uniform_sphere(rng, 2, 3000)
        # rows equal to samples, within 1e-13 of them, and at distances just
        # inside, at and just outside the band
        U = np.vstack([P, P + 1e-13 * step,
                       *(P + band * f * step for f in (1 - 1e-12, 1, 1 + 1e-12)),
                       uniform_sphere(rng, 2, 20_000)])
        member, indet = cloud_complement(cloud).classify(U)
        d, _ = cKDTree(cloud.points).query(U)
        assert np.array_equal(indet, d <= band) and np.array_equal(member, ~indet)
        assert indet[:6000].all() and 0 < indet[6000:15000].sum() < 9000

    def test_uncertified_cloud_has_band_zero(self):
        rng = np.random.default_rng(40)
        pts = uniform_sphere(rng, 2, 500)
        cloud = LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
        U = np.vstack([pts, pts + 1e-300, np.nextafter(pts, 2.0),
                       uniform_sphere(rng, 2, 5000)])
        member, indet = cloud_complement(cloud).classify(U)
        d, _ = cKDTree(pts).query(U)
        assert np.array_equal(indet, d <= 0.0) and np.array_equal(member, ~indet)
        assert indet[:1000].all() and not indet[1000:].any()

    def test_conformal_covariance_of_cap_mass(self):
        # u_{chi}(x) = u_{chi o g^-1}(g x) for a ball isometry g
        from kleinlab.caps import SphericalCap, cap_image

        cap = SphericalCap(center=uniform_sphere(RNG, 2, 1)[0], theta=0.6)
        g = random_mobius(np.random.default_rng(12), 2)
        ext = mobius.poincare_extend(g)
        x = ball_point([0.25, -0.1, 0.3])
        gx = ext.apply_ball(BallPoint(x.vec))
        img = cap_image(g, cap)
        chi, chi_img = (
            BoundaryIndicator(kind="cap", classify=lambda U, c=c: (
                c.contains(U), np.zeros(len(U), dtype=bool)))
            for c in (cap, img))
        u1 = harmonic_extension(chi, x, 150_000, seed=13)
        u2 = harmonic_extension(chi_img, gx, 150_000, seed=14)
        assert abs(u1.value - u2.value) < 3 * (u1.stderr + u2.stderr) + 2e-3


class TestGreenBall:
    def test_n2_closed_form(self):
        # integral of (1-t^2)/t^2 on [1/2, 1] = 1/s + s - 2 at s = 1/2
        x = ball_point([0, 0, 0])
        y = ball_point([0.5, 0, 0.0])
        assert green_ball(x, y) == pytest.approx(0.5, abs=1e-10)

    def test_n1_log_form(self):
        for s in (0.2, 0.5, 0.9):
            x = BallPoint(np.zeros(2))
            y = BallPoint(np.array([s, 0.0]))
            assert green_ball(x, y) == pytest.approx(np.log(1.0 / s), abs=1e-12)

    def test_general_n_matches_quadrature(self):
        for n in (3, 4, 6):
            s = 0.37
            val, err = quad(lambda t: (1 - t * t) ** (n - 1) / t**n, s, 1.0)
            assert float(green_gauge(n, s)) == pytest.approx(val, abs=1e-10)

    def test_symmetry(self):
        for _ in range(50):
            x = BallPoint(0.9 * RNG.uniform() * uniform_sphere(RNG, 2, 1)[0])
            y = BallPoint(0.9 * RNG.uniform() * uniform_sphere(RNG, 2, 1)[0])
            if np.allclose(x.vec, y.vec):
                continue
            assert green_ball(x, y) == pytest.approx(green_ball(y, x), abs=1e-10)

    def test_monotone_decay_to_zero(self):
        x = BallPoint(np.zeros(3))
        vals = [green_ball(x, BallPoint(np.array([r, 0, 0.0])))
                for r in np.linspace(0.05, 0.999, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_pole_rejected(self):
        x = ball_point([0.1, 0.2, 0.0])
        with pytest.raises(GreenPole):
            green_ball(x, x)


def green_quotient(x, y, G, max_len):
    """Partial sums over enumerated gamma of g(x, gamma y), by word length:
    (value, partial sum up to each length, terms)."""
    words = enumerate_elements(G, max_len)
    s = np.tanh(0.5 * mobius.orbit_distances(G.word_tree.element_fields(max_len),
                                             x.vec, y.vec))
    if np.any(s <= 1e-14):
        w = words[int(np.argmax(s <= 1e-14))]
        raise GreenPole(f"orbit point of y collides with x at word {w.letters}")
    per_depth = np.bincount([len(w) for w in words], weights=green_gauge(G.n, s),
                            minlength=max_len + 1)
    partials = np.cumsum(per_depth)
    return SimpleNamespace(value=float(partials[-1]), by_depth=partials.tolist(),
                           terms=len(words))


class TestGreenQuotient:
    def test_trivial_group_reduces_to_green_ball(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = ball_point([0.0, 0.0, 0.0])
        y = ball_point([0.3, 0.1, 0.0])
        res = green_quotient(x, y, G, 0)
        assert res.value == pytest.approx(green_ball(x, y), abs=1e-14)

    def test_cyclic_matches_two_sided_sum(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = ball_point([0.0, 0.2, 0.0])
        y = ball_point([0.3, 0.0, 0.1])
        N = 6
        res = green_quotient(x, y, G, N)
        g = G.generators[0]
        direct = 0.0
        for j in range(-N, N + 1):
            m = mobius.identity(2)
            step = g if j >= 0 else mobius.inverse(g)
            for _ in range(abs(j)):
                m = mobius.compose(m, step)
            ext = mobius.poincare_extend(m)
            yj = BallPoint(ext.apply_ball_rows(y.vec[None, :])[0])
            direct += green_ball(x, yj)
        assert res.value == pytest.approx(direct, abs=1e-12)

    def test_partial_sums_nondecreasing(self):
        G = reference_schottky()
        x = ball_point([0.0, 0.0, 0.0])
        y = ball_point([0.2, 0.1, -0.1])
        res = green_quotient(x, y, G, 4)
        assert all(a <= b + 1e-15 for a, b in zip(res.by_depth, res.by_depth[1:]))

    def test_invariance_at_matched_truncation_cyclic(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        x = ball_point([0.1, 0.0, 0.2])
        y = ball_point([0.0, 0.3, -0.1])
        ext = mobius.poincare_extend(G.generators[0])
        gx = BallPoint(ext.apply_ball_rows(x.vec[None, :])[0])
        gy = BallPoint(ext.apply_ball_rows(y.vec[None, :])[0])
        # gamma-shifted two-sided sums differ by the boundary terms only;
        # compare the symmetric windows
        a = green_quotient(x, y, G, 8).value
        b = green_quotient(gx, gy, G, 8).value
        # shifting the window by one re-indexes one end: bound the defect
        tail = green_ball(x, _power_image(G, y, 8))
        assert abs(a - b) <= 2 * tail + 1e-10

    def test_decay_along_ray_for_schottky(self):
        G = reference_schottky()
        x = ball_point([0.0, 0.0, 0.0])
        vals = []
        rhos = []
        for r in (0.2, 0.5, 0.8, 0.95):
            y = ball_point([0.0, 0.0, -r])  # ray toward the region (south pole)
            res = green_quotient(x, y, G, 3)
            from kleinlab.geom import hyperbolic_distance_rows

            rhos.append(float(hyperbolic_distance_rows(x.vec[None, :],
                                                       y.vec[None, :])[0]))
            vals.append(res.value)
        logs = np.log(vals)
        slopes = np.diff(logs) / np.diff(rhos)
        assert np.all(slopes < 0)


def _power_image(G, y, k):
    m = mobius.identity(G.n)
    for _ in range(k):
        m = mobius.compose(m, G.generators[0])
    ext = mobius.poincare_extend(m)
    return BallPoint(ext.apply_ball_rows(y.vec[None, :])[0])


class TestFluxDensity:
    def test_boundary_sphere_convention_selected(self):
        rep = flux_density_check(2)
        assert rep["selected_convention"] == "boundary-sphere-measure"
        assert np.allclose(rep["ratio_boundary_sphere_measure"], 1.0, atol=1e-9)
        spread = np.ptp(rep["ratio_unit_sphere_measure"])
        assert spread > 0.1  # unit-sphere reading visibly fails constancy

    def test_isotropy_and_fd(self):
        for n in (2, 3):
            rep = flux_density_check(n)
            assert max(rep["fd_relative_error"]) < 1e-6

    def test_density_constant_toward_boundary(self):
        rep = flux_density_check(2, radii=(0.9, 0.99, 0.999))
        assert np.allclose(rep["ratio_boundary_sphere_measure"], 1.0, atol=1e-9)
        assert rep["constant_density"] == 2.0


class TestMeasureIdentity:
    def test_cyclic_both_sides_one(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        rep = harmonic_measure_identity(G, cloud, 50_000, seed=21)
        assert rep["agree"]
        assert rep["u_origin"].value == pytest.approx(1.0, abs=1e-3)
        assert rep["area_fraction"].value == pytest.approx(1.0, abs=1e-3)

    def test_reference_schottky_agreement(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        rep = harmonic_measure_identity(G, cloud, 200_000, seed=22)
        assert rep["agree"]
        assert rep["u_origin"].indeterminate_fraction < 0.01

    def test_synthetic_hemisphere_identity(self):
        chi = hemisphere([0.0, 0.0, 1.0])
        origin = BallPoint(np.zeros(3))
        u = harmonic_extension(chi, origin, 200_000, seed=23)
        rng = np.random.default_rng(24)
        area = chi.classify(uniform_sphere(rng, 2, 200_000))[0].mean()
        assert abs(u.value - 0.5) < 3 * u.stderr
        assert abs(area - 0.5) < 0.005


# ---------------------------------------------------------------------------
# one-shot references: every sample drawn, shifted and classified at once
# ---------------------------------------------------------------------------

def one_shot_sphere(rng, n, size):
    v = rng.standard_normal((size, n + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def one_shot_shift(x, Z):
    xv = x.vec
    if not xv.any():  # the centre: the identity
        return Z
    x2 = float(xv @ xv)
    dots = Z @ xv
    denom = 1.0 + 2.0 * dots + x2
    out = ((2.0 + 2.0 * dots)[:, None] * xv + (1.0 - x2) * Z) / denom[:, None]
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def one_shot_mean(chi, U):
    """The estimate from one classify of every row; the stderr is the closed
    form of the flags' std(ddof=1) / sqrt(N), checked in TestBernoulliStderr."""
    member, indet = chi.classify(U)
    return MCEstimate(value=float(member.astype(float).mean()),
                      stderr=bernoulli_stderr(int(member.sum()), len(U)),
                      samples=len(U), indeterminate_fraction=float(indet.mean()))


def one_shot_extension(chi, x, n_samples, seed):
    rng = np.random.default_rng(seed)
    return one_shot_mean(chi, one_shot_shift(
        x, one_shot_sphere(rng, x.vec.size - 1, n_samples)))


def wide_band_cloud():
    """The depth-4 reference cloud with a band of 0.1: some rows fall in it."""
    cloud = sample_limit_set(reference_schottky(), 4)
    return LimitSetCloud(n=2, points=cloud.points, depth=4, resolution=0.1)


def unscreened_flags(cloud, U):
    """cloud_complement's indeterminate flags from every row's whole sweep
    window, without the screen."""
    band = cloud.resolution or 0.0
    indet = np.zeros(len(U), dtype=bool)
    for i, _, d2 in cloud.sweep.pairs(U, band):
        indet[i[np.sqrt(d2) <= band]] = True
    return indet


class TestScreen:
    """cloud_complement sends only the rows its screen passes through the
    sweep; the flags are those of every row's whole window."""

    @staticmethod
    def assert_flags_unchanged(cloud, U):
        member, indet = cloud_complement(cloud).classify(U)
        want = unscreened_flags(cloud, U)
        assert np.array_equal(indet, want) and np.array_equal(member, ~want)
        return indet

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, "wide"])
    def test_flags_match_the_whole_sweep(self, depth):
        cloud = (wide_band_cloud() if depth == "wide"
                 else sample_limit_set(reference_schottky(), depth))
        band = cloud.resolution
        rng = np.random.default_rng(17)
        P = cloud.points[rng.integers(0, cloud.size, 2000)]
        axis = np.eye(3)[cloud.sweep.axis]
        # rows on samples, within 0.7 band of them, a band from them along
        # the sweep axis, and harmonic samples seen from an off-centre point
        U = np.vstack([P, P + 0.7 * band * uniform_sphere(rng, 2, len(P)),
                       P + band * axis, P - band * axis,
                       boundary_shift_rows(ball_point([0.2, -0.1, 0.3]),
                                           uniform_sphere(rng, 2, 20_000))])
        indet = self.assert_flags_unchanged(cloud, U)
        assert indet[:4000].all()
        if depth == 6:  # the screen keeps nearly every row out of the sweep
            assert cloud.sweep.screen(band)(U[8000:]).mean() < 0.01

    @pytest.mark.parametrize("cloud", ["depth6", "wide"])
    @pytest.mark.parametrize("end", [-1.0, 1.0])
    def test_block_drawn_next_to_an_end_of_the_sweep_axis(self, cloud, end):
        # seen from 0.996 e toward an end of the axis, the rows crowd next to
        # that end. At depth 6 most lie more than the band beyond the
        # samples' range along the axis and get empty windows, and the
        # screen, which tests the other axes first, keeps nearly all of them
        # out of the sweep; with the wide band most lie within it of the end
        # samples, are flagged, and so pass the screen
        wide = cloud == "wide"
        cloud = wide_band_cloud() if wide else sample_limit_set(reference_schottky(), 6)
        band, axis = cloud.resolution, cloud.sweep.axis
        x = ball_point(0.996 * end * np.eye(3)[axis])
        U = boundary_shift_rows(x, uniform_sphere(np.random.default_rng(31), 2,
                                                  geom.SAMPLE_BLOCK))
        passed = cloud.sweep.screen(band)(U).mean()
        assert passed > 0.99 if wide else passed < 0.01
        indet = self.assert_flags_unchanged(cloud, U)
        assert np.array_equal(indet, cKDTree(cloud.points).query(U)[0] <= band)
        lo, hi = cloud.sweep.window(U, band)
        xs = cloud.points[:, axis]
        beyond = (U[:, axis] < xs.min() - band) | (U[:, axis] > xs.max() + band)
        assert np.all(hi[beyond] <= lo[beyond])
        assert (indet if wide else beyond).mean() > 0.5

    @pytest.mark.parametrize("g, size", [
        (mobius.affine(2, r=2.0), 2),  # loxodromic: band 0
        (mobius.translation([2.5, 0.0]), 1),  # parabolic
        (mobius.affine(2, A=np.array([[0.0, -1.0], [1.0, 0.0]])), 0),  # order 4
    ])
    def test_cyclic_empty_and_one_point_clouds(self, g, size):
        cloud = sample_limit_set(make_cyclic(g), 3)
        assert cloud.size == size and not cloud.resolution
        rng = np.random.default_rng(size)
        U = np.vstack([cloud.points, np.nextafter(cloud.points, 2.0),
                       uniform_sphere(rng, 2, 5000)])
        indet = self.assert_flags_unchanged(cloud, U)
        assert indet.sum() == size and indet[:size].all()


class TestSampleBlocks:
    N = 5000  # not a multiple of the patched block

    def test_extension_in_blocks_equals_one_draw(self, monkeypatch):
        monkeypatch.setattr(geom, "SAMPLE_BLOCK", 777)
        x = ball_point([0.3, 0.1, -0.4])
        for chi in (hemisphere([0.3, -0.2, 1.0]), cloud_complement(wide_band_cloud())):
            got = harmonic_extension(chi, x, self.N, seed=8)
            assert got == one_shot_extension(chi, x, self.N, seed=8)
            assert 0.0 < got.value < 1.0
        assert got.indeterminate_fraction > 0.0

    def test_identity_in_blocks_equals_one_draw(self, monkeypatch):
        monkeypatch.setattr(geom, "SAMPLE_BLOCK", 777)
        cloud = wide_band_cloud()
        chi = cloud_complement(cloud)
        rep = harmonic_measure_identity(None, cloud, self.N, seed=9)
        u0 = one_shot_extension(chi, ball_point(np.zeros(3)), self.N, seed=9)
        area = one_shot_mean(chi, one_shot_sphere(np.random.default_rng(10), 2, self.N))
        assert rep["u_origin"] == u0 and rep["area_fraction"] == area
        assert area.indeterminate_fraction > 0.0
        assert rep["gap"] == abs(u0.value - area.value)
        assert rep["budget"] == 3.0 * (u0.stderr + area.stderr) + max(
            u0.indeterminate_fraction, area.indeterminate_fraction)

    @staticmethod
    def traced_peak(chi, x, n_samples):
        tracemalloc.start()
        try:
            harmonic_extension(chi, x, n_samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_bounded_by_the_block(self):
        # the one-shot draw peaked at 42 MB here, the blocks with every flag
        # held at 7.5 MB, the blocks with two counts at 1.5 MB
        chi = cloud_complement(sample_limit_set(reference_schottky(), 6))
        x = ball_point([0.2, -0.1, 0.3])
        harmonic_extension(chi, x, 1000, seed=1)  # first-call allocations
        assert self.traced_peak(chi, x, 400_000) < 3e6

    def test_peak_memory_does_not_grow_with_the_samples(self):
        chi = cloud_complement(sample_limit_set(reference_schottky(), 6))
        x = ball_point([0.2, -0.1, 0.3])
        harmonic_extension(chi, x, 1000, seed=1)  # first-call allocations
        small = self.traced_peak(chi, x, 100_000)
        assert abs(self.traced_peak(chi, x, 1_600_000) - small) < 1e6


class TestBernoulliStderr:
    """The closed-form stderr of N flags with k set against NumPy's
    std(ddof=1) / sqrt(N) of the flags themselves."""

    @pytest.mark.parametrize("N", [2, 3, 5000])
    def test_within_4_ulp_of_the_flags_std(self, N):
        rng = np.random.default_rng(N)
        for k in sorted({0, 1, N - 1, N, *rng.integers(0, N + 1, 5).tolist()}):
            flags = np.zeros(N)
            flags[rng.choice(N, k, replace=False)] = 1.0
            want = float(flags.std(ddof=1) / np.sqrt(N))
            got = bernoulli_stderr(k, N)
            assert abs(got - want) <= 4 * np.spacing(want), (k, got, want)
            if k in (0, N):
                assert got == 0.0

    def test_one_sample_has_no_spread(self):
        assert bernoulli_stderr(0, 1) == bernoulli_stderr(1, 1) == 0.0
