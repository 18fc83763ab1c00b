"""Acceptance suite: one test per criterion, at the pinned tolerances.

Each test prints a single PASS line with its headline numbers and asserts its
wall-clock budget. The reference configuration is the shipped
groups/reference_schottky.json (four equatorial caps of chordal radius 0.1,
paired across the sphere).
"""

import json
import pathlib
import time

import numpy as np
import pytest

from kleinlab import cli, cusp, geom, group, harmonic, limitset, lipgraph, mobius
from kleinlab.geom import BallPoint, ExtPoint, uniform_sphere
from kleinlab.group import make_cyclic

from util import random_mobius, random_point_off_pole, reference_schottky

GROUPS = pathlib.Path(__file__).resolve().parents[1] / "groups"
SCHOTTKY_FILE = str(GROUPS / "reference_schottky.json")


class _Shared:
    """Lazily built heavyweight objects reused across criteria."""

    _cache: dict = {}

    @classmethod
    def group(cls):
        if "G" not in cls._cache:
            cls._cache["G"] = reference_schottky()
        return cls._cache["G"]

    @classmethod
    def cloud(cls, depth):
        key = ("cloud", depth)
        if key not in cls._cache:
            cls._cache[key] = limitset.sample_limit_set(cls.group(), depth)
        return cls._cache[key]

    @classmethod
    def mesh_caps(cls, eps0=0.1):
        key = ("caps", eps0)
        if key not in cls._cache:
            G = cls.group()
            cloud = cls.cloud(6)
            region = lipgraph.schottky_region(G)
            rng = np.random.default_rng(1234)
            mesh = lipgraph.region_mesh(region, cloud, eps0, rng)
            cls._cache[key] = lipgraph.base_caps(mesh, eps0, cloud)
        return cls._cache[key]

    @classmethod
    def family(cls, depth, eps0=0.1):
        key = ("family", depth, eps0)
        if key not in cls._cache:
            cls._cache[key] = lipgraph.DomeFamily(
                cls.group(), cls.cloud(6), cls.mesh_caps(eps0), max_len=depth,
                audit=300,
            )
        return cls._cache[key]


def _report(k, budget, elapsed, detail):
    print(f"\nACCEPTANCE {k}: PASS ({elapsed:.1f}s / {budget}s) {detail}")


def test_criterion_01_distortion_identity():
    """Two-point conformal distortion at 1e-9 over 10^4 random triples."""
    budget, t0 = 5.0, time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3):
        for _ in range(500):
            g = random_mobius(rng, n)
            X = np.array([random_point_off_pole(rng, g) for _ in range(10)])
            Y = np.array([random_point_off_pole(rng, g) for _ in range(10)])
            gx, _ = mobius.apply_rows(g, X)
            gy, _ = mobius.apply_rows(g, Y)
            lhs = np.linalg.norm(gx - gy, axis=1)
            rhs = (
                np.sqrt(mobius.deriv_euclid_rows(g, X))
                * np.sqrt(mobius.deriv_euclid_rows(g, Y))
                * np.linalg.norm(X - Y, axis=1)
            )
            big = np.maximum(lhs, 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / big)))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < budget
    _report(1, budget, elapsed, f"max relative error {worst:.2e} over 10^4 triples")


def test_criterion_02_chordal_closed_forms():
    """Translation and inversion round derivatives vs chordal ratios at 1e-12."""
    budget, t0 = 1.0, time.time()
    rng = np.random.default_rng(22)
    inf2 = ExtPoint.infinity(2)
    origin = ExtPoint.finite(np.zeros(2))
    trans = mobius.translation(np.array([1.3, -0.4]))
    inv = mobius.unit_inversion(2)
    worst = 0.0
    for _ in range(1000):
        x = ExtPoint.finite(rng.normal(0, 2, 2))
        gx = mobius.apply(trans, x)
        q_ratio = (
            geom.chordal_distance(gx, inf2) ** 2
            / geom.chordal_distance(x, inf2) ** 2
        )
        worst = max(worst, abs(mobius.deriv_sphere(trans, x) - q_ratio) / q_ratio)
        if np.linalg.norm(x.coords) > 1e-3:
            ix = mobius.apply(inv, x)
            q_ratio_inv = (
                geom.chordal_distance(ix, inf2) ** 2
                / geom.chordal_distance(x, origin) ** 2
            )
            worst = max(
                worst,
                abs(mobius.deriv_sphere(inv, x) - q_ratio_inv) / q_ratio_inv,
            )
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < budget
    _report(2, budget, elapsed, f"max relative error {worst:.2e} at 10^3 points")


def test_criterion_03_distortion_band_stability():
    """Empirical two-sided distortion constant stable across cloud depths."""
    budget, t0 = 60.0, time.time()
    G = _Shared.group()
    rng = np.random.default_rng(33)
    words = [w for w in group.enumerate_elements(G, 4) if len(w) > 0]
    pairs = []
    for _ in range(4000):
        w = words[rng.integers(0, len(words))]
        x = ExtPoint.finite(rng.normal(0, 0.35, 2))
        pairs.append((w, x))
    C_by_depth = {}
    for depth in (4, 5, 6):
        cloud = _Shared.cloud(depth)
        band = 4.0 * (cloud.resolution or 0.0)
        ratios = []
        for w, x in pairs:
            d_x = limitset.dist_to_limit_set(x, cloud)
            gx = mobius.apply(w.map, x)
            d_gx = limitset.dist_to_limit_set(gx, cloud)
            if d_x.upper <= band or d_gx.upper <= band:
                continue  # distance not certified at this depth
            r = limitset.distortion_ratio(G, x, w.map, cloud)
            ratios.append(max(r, 1.0 / r))
        C_by_depth[depth] = max(ratios)
    C6 = C_by_depth[6]
    drift = max(abs(C_by_depth[d] - C6) / C6 for d in (4, 5))
    # multiplicativity with length-1 factors at reduced junctions
    cloud = _Shared.cloud(5)
    letters = [w for w in group.enumerate_elements(G, 1) if len(w) == 1]
    worst_mult = 0.0
    checked = 0
    for _ in range(300):
        w1, w2 = rng.choice(letters, 2)
        if w1.letters[-1] == -w2.letters[0]:
            continue
        x = ExtPoint.finite(rng.normal(0, 0.2, 2))
        g2x = mobius.apply(w2.map, x)
        lhs = limitset.distortion_ratio(G, x, mobius.compose(w1.map, w2.map), cloud)
        rhs = limitset.distortion_ratio(G, g2x, w1.map, cloud) * (
            limitset.distortion_ratio(G, x, w2.map, cloud)
        )
        worst_mult = max(worst_mult, abs(lhs - rhs) / rhs)
        checked += 1
    elapsed = time.time() - t0
    assert drift <= 0.20
    assert worst_mult < 1e-8 and checked > 150
    assert elapsed < budget
    _report(3, budget, elapsed,
            f"C(4,5,6)=({C_by_depth[4]:.2f},{C_by_depth[5]:.2f},{C6:.2f}), "
            f"drift {drift:.3f}, multiplicativity defect {worst_mult:.1e}")


def test_criterion_04_graph_band_and_lipschitz():
    """(1-f)/dist band with C2/C1 < 20 at eps0 = 0.1; M stable under doubling."""
    budget, t0 = 120.0, time.time()
    G = _Shared.group()
    fam = _Shared.family(3)
    region = lipgraph.schottky_region(G)
    rng = np.random.default_rng(44)
    U = uniform_sphere(rng, 2, 25_000)
    U = U[region.contains(U)][:10_000]
    assert len(U) == 10_000
    band = lipgraph.graph_band(fam, U)
    C1, C2 = float(band.min()), float(band.max())
    M_half = lipgraph.lipschitz_estimate(fam, U[:5000])
    M_full = lipgraph.lipschitz_estimate(fam, U)
    stable = abs(M_full - M_half) <= 0.5 * max(M_full, M_half)
    elapsed = time.time() - t0
    assert C2 / C1 < 20.0
    assert np.isfinite(M_full) and stable
    assert elapsed < budget
    _report(4, budget, elapsed,
            f"band [{C1:.4f}, {C2:.4f}] ratio {C2 / C1:.2f}, "
            f"M {M_full:.3f} (half-sample {M_half:.3f})")


def test_criterion_05_graph_invariance():
    """Invariance deviation nonincreasing in depth, < 1e-6 at matched truncation."""
    budget, t0 = 30.0, time.time()
    G = make_cyclic(mobius.affine(2, r=2.0))
    cloud = limitset.sample_limit_set(G, 2)
    region = lipgraph.annulus_region(2.0)
    rng = np.random.default_rng(55)
    mesh = lipgraph.region_mesh(region, cloud, 0.12, rng, max_points=3000,
                                stop_after_rejects=2500)
    caps = lipgraph.base_caps(mesh, 0.12, cloud)
    dirs = uniform_sphere(np.random.default_rng(56), 2, 5000)
    dirs = dirs[region.contains(dirs)]
    devs = []
    for depth in (1, 3, 5):
        fam = lipgraph.DomeFamily(G, cloud, caps, max_len=depth)
        dev, cnt = lipgraph.check_invariance(fam, G.generators[0], dirs)
        assert cnt > 500
        devs.append(dev)
    elapsed = time.time() - t0
    assert devs[1] <= devs[0] + 1e-9
    assert devs[2] <= devs[1] + 1e-9
    assert devs[2] < 1e-6
    assert elapsed < budget
    _report(5, budget, elapsed,
            f"deviations by depth (1,3,5): {devs[0]:.2e}, {devs[1]:.2e}, "
            f"{devs[2]:.2e}")


def test_criterion_06_separation():
    """10^3 limit-point geodesics stay on the hull side; zero witnesses."""
    budget, t0 = 60.0, time.time()
    fam = _Shared.family(4)
    cloud = _Shared.cloud(6)
    rep = lipgraph.separation_check(fam, cloud, 1000, np.random.default_rng(66))
    elapsed = time.time() - t0
    assert rep.passed and len(rep.witnesses) == 0
    assert rep.checked > 2000
    assert elapsed < budget
    _report(6, budget, elapsed,
            f"{rep.checked} geodesic points checked, 0 witnesses")


def test_criterion_07_cusp_formulas():
    """Horn-metric identity at 1e-12, volume vs MC within 1%, curvature."""
    budget, t0 = 60.0, time.time()
    rng = np.random.default_rng(77)
    worst_identity = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 3))
        x = rng.normal(0, 2, m)
        y = rng.normal(0, 2, 3 - m)
        if np.linalg.norm(x) < 1e-6:
            continue
        got = cusp.gh_product_identity(x, y)
        expect = np.sqrt(1 + x @ x + y @ y) / np.linalg.norm(x)
        worst_identity = max(worst_identity, abs(got - expect) / expect)
    end = cusp.CuspEnd(n=3, m=1, R=2.0, lattice_basis=np.eye(2))
    est, err = cusp.cusp_volume_mc(end, 1_000_000, seed=7)
    closed = cusp.cusp_volume(end) * geom.sphere_area(0)
    mc_gap = abs(est - closed) / closed
    vals = []
    for _ in range(20):
        x = rng.normal(0, 1, 1)
        x[0] = x[0] if abs(x[0]) > 0.3 else 0.7
        y = rng.normal(0, 3, 2)
        vals.append(cusp.scalar_curvature_numeric(end, np.concatenate([x, y])))
    vals = np.array(vals)
    constancy = (vals.max() - vals.min()) / abs(vals.mean())
    elapsed = time.time() - t0
    assert worst_identity < 1e-12
    assert mc_gap < 0.01 and abs(est - closed) < 3 * err
    assert constancy < 1e-3
    assert np.all(vals < 0)  # sign of 2m - n - 2 at (n, m) = (3, 1)
    assert elapsed < budget
    _report(7, budget, elapsed,
            f"identity {worst_identity:.1e}, MC gap {100 * mc_gap:.2f}%, "
            f"curvature spread {constancy:.1e}, value {vals.mean():.3f}")


def test_criterion_08_harmonic_suite():
    """Poisson normalization, hemisphere value, measure identity, Green, flux."""
    budget, t0 = 120.0, time.time()
    x = BallPoint(np.array([0.7, 0.0, 0.0]))
    Y = uniform_sphere(np.random.default_rng(88), 2, 1_000_000)
    vals = harmonic.poisson_kernel_rows(x, Y) ** 2
    se_norm = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    norm_ok = abs(float(vals.mean()) - 1.0) <= 3 * se_norm

    hemi = harmonic.harmonic_extension(
        harmonic.hemisphere([0, 0, 1.0]), BallPoint(np.zeros(3)),
        1_000_000, seed=89,
    )
    hemi_ok = abs(hemi.value - 0.5) <= 3 * hemi.stderr

    G = _Shared.group()
    identity_rep = harmonic.harmonic_measure_identity(
        G, _Shared.cloud(6), 1_000_000, seed=90
    )

    g_val = harmonic.green_ball(
        BallPoint(np.zeros(3)), BallPoint(np.array([0.5, 0.0, 0.0]))
    )
    green_ok = abs(g_val - 0.5) < 1e-10

    flux = harmonic.flux_density_check(2)
    bdry = np.ptp(flux["ratio_boundary_sphere_measure"])
    unit = np.ptp(flux["ratio_unit_sphere_measure"])
    flux_ok = bdry < 1e-9 < unit  # exactly one convention is constant in r

    elapsed = time.time() - t0
    assert norm_ok and hemi_ok and identity_rep["agree"] and green_ok and flux_ok
    assert elapsed < budget
    _report(8, budget, elapsed,
            f"normalization within 3sigma (se {se_norm:.1e}), hemisphere "
            f"{hemi.value:.4f}, identity gap {identity_rep['gap']:.2e}, "
            f"green(0.5) err {abs(g_val - 0.5):.1e}, convention "
            f"{flux['selected_convention']}")


def test_criterion_09_dimension_pipeline():
    """Cyclic estimates < 0.05; schottky |box - delta| < 0.1; exact branch point."""
    budget, t0 = 300.0, time.time()
    Gc = make_cyclic(mobius.affine(2, r=2.0))
    cloud_c = limitset.sample_limit_set(Gc, 2)
    box_c = limitset.box_dimension(cloud_c)
    delta_c = group.critical_exponent(Gc, 40)
    G = _Shared.group()
    cloud = _Shared.cloud(6)
    box = limitset.box_dimension(cloud)
    delta = group.critical_exponent(G, 6)
    n = 2
    lam_left = limitset.sullivan_lambda0(n / 2.0 - 1e-15, n)
    lam_right = limitset.sullivan_lambda0(n / 2.0, n)
    elapsed = time.time() - t0
    assert abs(box_c.estimate) < 0.05 and abs(delta_c.estimate) < 0.05
    assert 0.0 < box.estimate < n and 0.0 < delta.estimate < n
    assert abs(box.estimate - delta.estimate) < 0.1
    assert lam_right == (n / 2.0) ** 2 == pytest.approx(lam_left, abs=1e-12)
    assert elapsed < budget
    _report(9, budget, elapsed,
            f"cyclic ({box_c.estimate:.3f}, {delta_c.estimate:.3f}); schottky "
            f"box {box.estimate:.4f} vs delta {delta.estimate:.4f} "
            f"(gap {abs(box.estimate - delta.estimate):.4f})")


def test_criterion_10_diagnose_end_to_end(capsys):
    """Reference file diagnoses as consistent; depth-1 run is inconclusive."""
    budget, t0 = 400.0, time.time()
    code = cli.main(["diagnose", "--file", SCHOTTKY_FILE, "--json"])
    out = json.loads(capsys.readouterr().out)
    res = out["results"]
    assert code == 0
    assert res["verdict"] == "consistent-with-geometrically-finite"
    vol = res["volume_evidence"]
    assert vol["depth"] == 6
    assert np.isfinite(vol["value"]) and vol["value"] > 0
    assert vol["stderr"] > 0
    assert vol["covered_fraction"] == 1

    code1 = cli.main(["diagnose", "--file", SCHOTTKY_FILE, "--depth", "1",
                      "--json"])
    out1 = json.loads(capsys.readouterr().out)
    assert code1 == 3
    assert out1["results"]["verdict"] == "inconclusive"
    elapsed = time.time() - t0
    assert elapsed < budget
    _report(10, budget, elapsed,
            f"verdict {res['verdict']}, depth-6 volume {vol['value']:.1f}, "
            f"depth-1 exit code 3")
