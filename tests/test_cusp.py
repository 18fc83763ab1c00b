"""Cusp-end horn metric: factor identities, volume, curvature, equivariance."""

import numpy as np
import pytest
from scipy.integrate import quad

from kleinlab import cusp, mobius
from kleinlab.cusp import (
    CuspEnd,
    cusp_volume,
    cusp_volume_mc,
    gh_factor,
    gh_factor_flat,
    gh_product_identity,
    horn_scalar_curvature,
    horn_scalar_curvature_exact,
)
from kleinlab.geom import SpherePoint, stereo_project, uniform_sphere
from kleinlab.limitset import sample_limit_set

from util import (LocatorFailed, equivariant_extend, extension_band,
                  reference_schottky)

RNG = np.random.default_rng(2024)


def end3() -> CuspEnd:
    return CuspEnd(n=3, m=1, R=2.0, lattice_basis=np.eye(2))


class TestFactor:
    def test_product_identity_at_unit_x(self):
        assert gh_product_identity(np.array([1.0]), np.array([0.0, 0.0])) == (
            pytest.approx(np.sqrt(2.0), abs=1e-15)
        )

    def test_product_identity_exact_everywhere(self):
        for _ in range(200):
            m = int(RNG.integers(1, 3))
            x = RNG.normal(0, 2, m)
            y = RNG.normal(0, 2, 3 - m)
            if np.linalg.norm(x) < 1e-6:
                continue
            got = gh_product_identity(x, y)
            expect = np.sqrt(1 + x @ x + y @ y) / np.linalg.norm(x)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_flat_factor_scaling_covariance(self):
        x = np.array([0.7, -0.2])
        for lam in (0.5, 2.0, 17.0):
            assert gh_factor_flat(lam * x) == pytest.approx(
                gh_factor_flat(x) / lam, rel=1e-15
            )

    def test_bounded_band_on_fundamental_domain(self):
        # grid over |x| >= R = 1, |y| <= 1: product in [1/C', C'] with
        # C' <= sqrt(2) (1 + diam)
        diam = 1.0
        C_prime = np.sqrt(2.0) * (1.0 + diam)
        vals = []
        for r in np.linspace(1.0, 50.0, 40):
            for yv in np.linspace(-1.0, 1.0, 21):
                vals.append(gh_product_identity(np.array([r]), np.array([yv, 0.0])))
        vals = np.array(vals)
        assert np.all(vals <= C_prime)
        assert np.all(vals >= 1.0 / C_prime)

    def test_singular_locus_rejected(self):
        with pytest.raises(ValueError):
            gh_factor(np.zeros(1), np.array([1.0, 0.0]))


class TestVolume:
    def test_closed_form_values(self):
        assert cusp_volume(end3()) == pytest.approx(0.125)
        e = CuspEnd(n=3, m=1, R=1.0, lattice_basis=np.eye(2))
        assert cusp_volume(e) == pytest.approx(0.5)

    def test_closed_form_vs_radial_quadrature(self):
        # oracle: vol(K) area(S^{m-1}) int_R^inf t^{m-1-n} dt
        for n, m, R in [(3, 1, 2.0), (4, 2, 1.5), (5, 3, 1.1)]:
            e = CuspEnd(n=n, m=m, R=R, lattice_basis=np.eye(n - m))
            from kleinlab.geom import sphere_area

            val, _ = quad(lambda t: t ** (m - 1 - n), R, np.inf)
            oracle = e.vol_K * sphere_area(m - 1) * val
            assert cusp_volume(e) * _shell_factor(n, m) == pytest.approx(
                oracle, rel=1e-10
            )

    def test_monte_carlo_cross_check(self):
        e = end3()
        est, err = cusp_volume_mc(e, 1_000_000, seed=42)
        closed = cusp_volume(e) * _shell_factor(3, 1)
        assert err > 0
        assert abs(est - closed) < 3 * err
        assert abs(est - closed) / closed < 0.01

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError):
            CuspEnd(n=3, m=3, R=1.0, lattice_basis=np.eye(0))


def _shell_factor(n, m):
    """Angular mass of the radial picture over the slab formula.

    The closed form integrates |x|^{-n} over a radial column; the Monte-Carlo
    and quadrature oracles integrate over the full shell, picking up the
    (m-1)-sphere area.
    """
    from kleinlab.geom import sphere_area

    return sphere_area(m - 1)


class TestCurvature:
    def test_constancy_over_20_points(self):
        e = end3()
        vals = []
        for _ in range(20):
            x = RNG.normal(0, 1, 1)
            if abs(x[0]) < 0.2:
                x[0] = 0.5 * np.sign(x[0]) if x[0] != 0 else 0.5
            y = RNG.normal(0, 3, 2)
            vals.append(cusp.scalar_curvature_numeric(e, np.concatenate([x, y])))
        vals = np.array(vals)
        spread = (vals.max() - vals.min()) / abs(vals.mean())
        assert spread < 1e-3

    def test_sign_at_n3_m1(self):
        e = end3()
        val = cusp.scalar_curvature_numeric(e, np.array([1.0, 0.3, -0.4]))
        assert val < 0  # 2m - n - 2 = -3 < 0
        assert val == pytest.approx(horn_scalar_curvature_exact(3, 1), rel=1e-6)

    def test_cylinder_limit_matches_closed_form(self):
        # m = n degenerate check: |x|^{-2} flat on R^n minus 0 is the round
        # cylinder S^{n-1} x R with scalar curvature (n-1)(n-2)
        for n in (3, 4):
            p = RNG.normal(0, 1, n)
            p *= 2.0 / np.linalg.norm(p)
            val = horn_scalar_curvature(p, m=n)
            assert val == pytest.approx((n - 1) * (n - 2), rel=1e-6)

    def test_stencil_guard(self):
        e = end3()
        with pytest.raises(cusp.SingularStencil):
            horn_scalar_curvature(np.array([0.0, 1.0, 1.0]), m=1)

    def test_isometry_transitivity_oracle(self):
        # scalings and y-translations are isometries of the horn metric, so
        # curvature constancy follows; verify on an orbit of one point
        e = CuspEnd(n=4, m=2, R=1.0, lattice_basis=np.eye(2))
        p = np.array([1.3, -0.2, 5.0, 2.0])
        base = cusp.scalar_curvature_numeric(e, p)
        scaled = np.concatenate([3.0 * p[:2], 3.0 * p[2:]])
        shifted = p + np.array([0.0, 0.0, -7.0, 11.0])
        assert cusp.scalar_curvature_numeric(e, scaled) == pytest.approx(
            base, rel=1e-6
        )
        assert cusp.scalar_curvature_numeric(e, shifted) == pytest.approx(
            base, rel=1e-6
        )


class TestEquivariantExtension:
    def test_domain_point_returns_u0(self):
        G = reference_schottky()
        u = np.array([0.0, 0.0, -1.0])  # south pole: in the region
        val, letters = equivariant_extend(lambda y: 1.0, G, u)
        assert letters == ()
        assert val == pytest.approx(1.0)

    def test_functional_equation_under_generators(self):
        G = reference_schottky()
        rng = np.random.default_rng(77)
        worst = 0.0
        count = 0
        for _ in range(200):
            u = uniform_sphere(rng, 2, 1)[0]
            x = stereo_project(SpherePoint(u))
            try:
                val_x, _ = equivariant_extend(lambda y: 1.0, G, u)
            except LocatorFailed:
                continue
            for g in G.generators:
                gu = mobius.sphere_action_rows(g, u[None, :])[0]
                try:
                    val_gx, _ = equivariant_extend(lambda y: 1.0, G, gu)
                except LocatorFailed:
                    continue
                ds = mobius.deriv_sphere(g, x)
                worst = max(worst, abs(val_x - val_gx * ds) / val_x)
                count += 1
        assert count > 100
        assert worst < 1e-10

    def test_locator_consistency_via_stabilizer_detour(self):
        # extend via the locator word and via a detour through a generator:
        # both land in the domain and must agree by the chain rule
        G = reference_schottky()
        rng = np.random.default_rng(12)
        for _ in range(40):
            u = uniform_sphere(rng, 2, 1)[0]
            val_direct, _ = equivariant_extend(lambda y: 1.0, G, u)
            g = G.generators[0]
            gu = mobius.sphere_action_rows(g, u[None, :])[0]
            val_img, _ = equivariant_extend(lambda y: 1.0, G, gu)
            ds = mobius.deriv_sphere(g, stereo_project(SpherePoint(u)))
            assert val_direct == pytest.approx(val_img * ds, rel=1e-10)

    def test_band_against_distance(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        rng = np.random.default_rng(5)
        samples = uniform_sphere(rng, 2, 800)
        band = extension_band(lambda y: 1.0, G, cloud, samples)
        assert band.size > 300
        K = max(band.max(), 1.0 / band.min())
        assert np.isfinite(K)
        # two-sided: the band collapses to a bounded interval
        assert band.max() / band.min() < 100
