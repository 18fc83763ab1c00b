"""Dome envelope: entry radii, families, heights, invariance, separation, volume."""

import pathlib

import numpy as np
import pytest

from kleinlab import cli, limitset, lipgraph, mobius
from kleinlab.caps import SphericalCap, cap_image
from kleinlab.files import load_group_file
from kleinlab.geom import embed_rows, uniform_sphere
from kleinlab.group import make_cyclic
from kleinlab.limitset import sample_limit_set
from kleinlab.lipgraph import (
    DomeFamily,
    HeightResult,
    NotCovered,
    UncertifiedSample,
    annulus_region,
    base_caps,
    dome_entry_radius,
    graph_volume,
    height,
    region_mesh,
    schottky_region,
    separation_check,
    strip_region,
)

from util import reference_schottky

RNG = np.random.default_rng(31415)
GROUPS = pathlib.Path(__file__).resolve().parents[1] / "groups"

_SCHOTTKY_CACHE: dict = {}
_CYCLIC_CACHE: dict = {}


def small_schottky_family(max_len=2, eps0=0.1, max_points=400, mode="auto"):
    key = (max_len, eps0, max_points, mode)
    if key not in _SCHOTTKY_CACHE:
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        rng = np.random.default_rng(8)
        mesh = region_mesh(region, cloud, eps0, rng, max_points=max_points,
                           stop_after_rejects=800)
        caps = base_caps(mesh, eps0, cloud)
        fam = DomeFamily(G, cloud, caps, max_len=max_len, mode=mode,
                         audit=100)
        _SCHOTTKY_CACHE[key] = (G, cloud, region, fam)
    return _SCHOTTKY_CACHE[key]


def cyclic_family(depth, eps0=0.12, seed=5):
    base_key = (eps0, seed)
    if base_key not in _CYCLIC_CACHE:
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        region = annulus_region(2.0)
        rng = np.random.default_rng(seed)
        mesh = region_mesh(region, cloud, eps0, rng, max_points=3000,
                           stop_after_rejects=2500)
        caps = base_caps(mesh, eps0, cloud)
        _CYCLIC_CACHE[base_key] = (G, cloud, region, caps, {})
    G, cloud, region, caps, by_depth = _CYCLIC_CACHE[base_key]
    if depth not in by_depth:
        by_depth[depth] = DomeFamily(G, cloud, caps, max_len=depth)
    return G, cloud, region, by_depth[depth]


_FILE_CACHE: dict = {}


def file_family(name):
    """The depth-6 family that `graph` builds from a shipped group file."""
    if name not in _FILE_CACHE:
        defn = load_group_file(GROUPS / f"{name}.json")
        G = defn.presentation
        cloud = sample_limit_set(G, defn.depths[-1])
        region = cli._region_for(defn)
        mesh = region_mesh(region, cloud, defn.epsilon0,
                           np.random.default_rng(defn.seed))
        caps = base_caps(mesh, defn.epsilon0, cloud)
        fam = DomeFamily(G, cloud, caps, max_len=defn.depths[-1])
        _FILE_CACHE[name] = (G, cloud, region, fam)
    return _FILE_CACHE[name]


def quarter_schottky_caps():
    """Reference caps at eps0 0.25 over a depth-6 cloud, mesh seed 7."""
    if "quarter" not in _FILE_CACHE:
        G = load_group_file(GROUPS / "reference_schottky.json").presentation
        cloud = sample_limit_set(G, 6)
        mesh = region_mesh(schottky_region(G), cloud, 0.25,
                           np.random.default_rng(7))
        _FILE_CACHE["quarter"] = (G, cloud, base_caps(mesh, 0.25, cloud))
    return _FILE_CACHE["quarter"]


def brute_heights(U, centers, thetas):
    """Every row against every cap with the evaluator's formula.

    A row meets a cap when d = (u . c) / cos(theta) >= 1, at entry radius
    t = d - sqrt(d^2 - 1); it takes the smallest t, and ties go to the
    lowest cap index.
    """
    M = centers.shape[0]
    cos = np.cos(thetas)
    f = np.full(U.shape[0], np.nan)
    theta = np.zeros(U.shape[0])
    for r in range(U.shape[0]):
        d = np.einsum("ij,ij->i", U[np.full(M, r)], centers) / cos
        hit = np.flatnonzero(d >= 1.0)
        if hit.size:
            t = d[hit] - np.sqrt(d[hit] * d[hit] - 1.0)
            k = int(np.argmin(t))
            f[r], theta[r] = t[k], thetas[hit[k]]
    return HeightResult(f=f, covered=np.isfinite(f), theta=theta)


def brute_factored_heights(fam, U):
    """The seed caps as in brute_heights, then every image cap gamma(C) of
    every word and seed whose preimage gamma^-1 u lies in C, in (level, word,
    seed) order, each taken on a strict decrease of the entry radius."""
    ref = brute_heights(U, fam._seed_centers, fam._seed_thetas)
    f = np.where(ref.covered, ref.f, np.inf)
    theta = ref.theta
    S = len(fam.seed_caps)
    for d in range(1, fam.max_len + 1):
        for word in fam.G.word_tree.level(d):
            Y = mobius.sphere_action_rows(mobius.inverse(word.map), U)
            for r in range(U.shape[0]):
                inside = (np.einsum("ij,ij->i", Y[np.full(S, r)],
                                    fam._seed_centers) >= fam._seed_cos)
                for s in np.flatnonzero(inside):
                    img = cap_image(word.map, fam.seed_caps[s])
                    t = dome_entry_radius(img, U[r])
                    if t is not None and t < f[r]:
                        f[r], theta[r] = t, img.theta
    covered = np.isfinite(f)
    f[~covered] = np.nan
    return HeightResult(f=f, covered=covered, theta=theta)


def assert_same_heights(res, ref):
    assert res.f.tobytes() == ref.f.tobytes()
    assert res.covered.tobytes() == ref.covered.tobytes()
    assert res.theta.tobytes() == ref.theta.tobytes()


def greedy_mesh_reference(region, L, eps0, rng, spacing=0.7,
                          max_points=30_000, stop_after_rejects=6000,
                          batch=8192):
    """O(N^2) greedy Poisson-disk pass drawing what region_mesh draws.

    Every candidate is tested against every kept point. Returns the mesh and
    counts of how it ran: batches, refused batches, why it stopped and at
    which row of its last batch, and the blocks by points of earlier batches,
    split by which radius of max(r, r_p) was needed.
    """
    n = L.points.shape[1] - 1
    kept, radii, born = [], [], []
    stats = dict(batches=0, refused_batches=0, stop="exhausted", stop_row=-1,
                 last_batch_rows=0, earlier_batch_blocks=0,
                 earlier_only_by_own_radius=0, earlier_only_by_their_radius=0)
    rejects = 0
    while len(kept) < max_points and rejects < stop_after_rejects:
        stats["batches"] += 1
        cand = uniform_sphere(rng, n, batch)
        cand = cand[region.contains(cand)]
        if cand.shape[0] == 0:
            stats["refused_batches"] += 1
            rejects += batch
            continue
        stats["last_batch_rows"] = cand.shape[0]
        lower, _ = limitset.dist_rows(cand, L)
        for i, (x, lo) in enumerate(zip(cand, lower)):
            r = spacing * eps0 * lo
            blocks = np.zeros(0, dtype=bool)
            if kept:
                d = np.linalg.norm(np.array(kept) - x, axis=1)
                blocks = d < np.maximum(r, radii)
            if lo <= 0 or blocks.any():
                rejects += 1
                earlier = blocks & (np.array(born) < stats["batches"])
                if earlier.any():
                    stats["earlier_batch_blocks"] += 1
                    own = earlier & (d < r)
                    theirs = earlier & (d < np.array(radii))
                    stats["earlier_only_by_own_radius"] += int(not theirs.any())
                    stats["earlier_only_by_their_radius"] += int(not own.any())
            else:
                kept.append(x)
                radii.append(r)
                born.append(stats["batches"])
                rejects = 0
            if len(kept) >= max_points or rejects >= stop_after_rejects:
                stats["stop"] = "max_points" if len(kept) >= max_points else "rejects"
                stats["stop_row"] = i
                break
    stats["points"] = len(kept)
    return np.array(kept).reshape(-1, n + 1), stats


def _assert_mesh_matches(region, cloud, eps0, seed, **kw):
    """region_mesh against the brute-force pass: same bytes, same final rng.

    region may be a factory, for regions that keep state between batches.
    """
    make = region if callable(region) else (lambda: region)
    rng = np.random.default_rng(seed)
    mesh = region_mesh(make(), cloud, eps0, rng, **kw)
    rng_ref = np.random.default_rng(seed)
    ref, stats = greedy_mesh_reference(make(), cloud, eps0, rng_ref, **kw)
    assert mesh.shape == ref.shape and mesh.dtype == ref.dtype
    assert mesh.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return stats


class TestDomeEntry:
    def test_center_value_thirty_degrees(self):
        # oracle: solve t^2 - 2 t d + 1 = 0 at d = 1/cos(theta)
        th = np.pi / 6
        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=th)
        t = dome_entry_radius(cap, cap.center)
        d = 1.0 / np.cos(th)
        roots = np.roots([1.0, -2.0 * d, 1.0])
        assert t == pytest.approx(min(roots), abs=1e-14)
        assert t == pytest.approx((1 - np.sin(th)) / np.cos(th), abs=1e-14)
        assert t == pytest.approx(0.5773502691896258, abs=1e-12)

    def test_on_dome_sphere(self):
        # entry point lies on the sphere of center c/cos(theta), radius tan(theta)
        for _ in range(50):
            c = uniform_sphere(RNG, 2, 1)[0]
            th = RNG.uniform(0.05, 1.2)
            cap = SphericalCap(center=c, theta=th)
            phi = RNG.uniform(0, th)
            frame = cap.boundary_frame()
            u = np.cos(phi) * c + np.sin(phi) * frame[0]
            t = dome_entry_radius(cap, u)
            assert t is not None
            assert np.linalg.norm(t * u - c / np.cos(th)) == pytest.approx(
                np.tan(th), abs=1e-12
            )

    def test_perpendicular_misses(self):
        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=0.5)
        assert dome_entry_radius(cap, np.array([1.0, 0.0, 0.0])) is None

    def test_boundary_gives_one(self):
        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=0.4)
        u = np.array([np.sin(0.4), 0.0, np.cos(0.4)])
        assert dome_entry_radius(cap, u) == pytest.approx(1.0, abs=1e-12)

    def test_dome_orthogonality_identity(self):
        # |center|^2 = 1 + radius^2 exactly, for any cap
        for _ in range(100):
            th = RNG.uniform(1e-3, np.pi / 2 - 1e-3)
            lhs = 1.0 / np.cos(th) ** 2
            rhs = 1.0 + np.tan(th) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBaseCaps:
    def test_radius_from_chordal_distance(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)  # poles
        x = np.array([1.0, 0.0, 0.0])  # equator: chordal sqrt(2) to both poles
        for eps0 in (0.1, 0.02):
            cap = base_caps(x[None, :], eps0, cloud)[0]
            assert 0 < cap.theta < np.pi / 2
            # oracle: chord between the center and a boundary point
            bd = cap.boundary_points()[0]
            assert np.linalg.norm(bd - x) == pytest.approx(
                eps0 * np.sqrt(2.0), rel=1e-12
            )
        small = base_caps(x[None, :], 1e-6, cloud)[0]
        assert small.theta < 1e-5

    def test_sample_on_cloud_rejected(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        with pytest.raises(UncertifiedSample):
            base_caps(np.array([[0.0, 0.0, 1.0]]), 0.1, cloud)

    def test_uncertified_cloud_rejected(self):
        pts = uniform_sphere(RNG, 2, 10)
        cloud = limitset.LimitSetCloud(n=2, points=pts, depth=1, resolution=None)
        with pytest.raises(UncertifiedSample):
            base_caps(uniform_sphere(RNG, 2, 3), 0.1, cloud)


class TestFamily:
    def test_identity_only_keeps_seeds(self):
        G, cloud, region, fam = small_schottky_family(max_len=0)
        assert fam.mode == "materialized"
        assert fam._all_centers.shape[0] == len(fam.seed_caps)
        for a, b in zip(fam._all_centers, fam.seed_caps):
            assert np.allclose(a, b.center)
        assert np.allclose(fam._all_thetas,
                           [c.theta for c in fam.seed_caps])

    def test_cyclic_image_radii_shrink_toward_fixed_points(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        seed = base_caps(np.array([[1.0, 0.0, 0.0]]), 0.1, cloud)
        fam = DomeFamily(G, cloud, seed, max_len=3)
        assert fam._all_centers.shape[0] == 7
        thetas = fam._all_thetas
        # word order: identity, gamma, gamma^-1, gamma^2, gamma^-2, ...
        assert np.all(thetas[1:3] < thetas[0])
        assert np.all(thetas[3:5] < thetas[1:3].max())
        assert np.all(thetas[5:7] < thetas[3:5].max())

    def test_factored_matches_materialized(self):
        G, cloud, region, fam_f = small_schottky_family(max_len=2, mode="factored")
        _, _, _, fam_m = small_schottky_family(max_len=2, mode="materialized")
        rng = np.random.default_rng(17)
        U = uniform_sphere(rng, 2, 800)
        rf = fam_f.heights(U)
        rm = fam_m.heights(U)
        assert (rf.covered == rm.covered).all()
        mask = rf.covered
        assert np.allclose(rf.f[mask], rm.f[mask], atol=1e-11)

    def test_monotone_under_family_growth(self):
        G, cloud, region, fam2 = small_schottky_family(max_len=2)
        _, _, _, fam3 = small_schottky_family(max_len=3)
        rng = np.random.default_rng(18)
        U = uniform_sphere(rng, 2, 500)
        r2, r3 = fam2.heights(U), fam3.heights(U)
        both = r2.covered & r3.covered
        assert np.all(r3.f[both] <= r2.f[both] + 1e-12)
        assert r3.covered.sum() >= r2.covered.sum()

    def test_heights_in_unit_interval(self):
        G, cloud, region, fam = small_schottky_family()
        U = uniform_sphere(np.random.default_rng(4), 2, 1000)
        res = fam.heights(U)
        vals = res.f[res.covered]
        assert np.all((vals > 0) & (vals < 1))

    def test_materialized_family_with_singular_image_fits(self):
        # reference caps, eps0 0.25, mesh seed 7: depth-4 image caps spread
        # down to 8.6e-13 and their batched normal equations go singular
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=4,
                         mode="materialized")
        assert len(caps) == 1102
        assert fam._all_thetas.shape == (1102 * 161,)
        assert np.all((fam._all_thetas > 0) & (fam._all_thetas < np.pi / 2))
        assert np.allclose(np.linalg.norm(fam._all_centers, axis=1), 1.0)

    def test_cyclic_materialized_family_has_five_caps_per_seed(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        seeds = base_caps(np.array([[1.0, 0.0, 0.0]]), 0.1, cloud)
        fam = DomeFamily(G, cloud, seeds, 2)
        assert fam.mode == "materialized"
        assert fam._all_centers.shape[0] == 5  # identity + gamma^{+-1, +-2}

    def test_strict_shape_policy(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        rng = np.random.default_rng(88)
        mesh = region_mesh(region, cloud, 0.02, rng, max_points=300,
                           stop_after_rejects=300)
        caps = base_caps(mesh, 0.02, cloud)
        # tiny eps0 stays inside the strict Prop-1.1 regime
        fam = DomeFamily(G, cloud, caps, max_len=2,
                         shape_policy="strict")
        assert fam.shape_bound_ok
        # the pinned eps0 = 0.1 exceeds it for this group: strict aborts,
        # the default records
        mesh2 = region_mesh(region, cloud, 0.1, rng, max_points=400,
                            stop_after_rejects=400)
        caps2 = base_caps(mesh2, 0.1, cloud)
        with pytest.raises(lipgraph.ShrinkEpsilon):
            DomeFamily(G, cloud, caps2, max_len=3,
                       shape_policy="strict")
        fam2 = DomeFamily(G, cloud, caps2, max_len=3)
        assert not fam2.shape_bound_ok
        assert fam2.max_shape_ratio() > 0.5 > fam2.min_shape_ratio()

    def test_not_covered_raises(self):
        G, cloud, region, fam = small_schottky_family()
        # cloud points' directions are inside the defining caps, far from seeds
        with pytest.raises(NotCovered):
            height(fam, cloud.points[0])


def _tie_partner(u_axis, x1, theta1, theta2, other_axis):
    """A cap of radius theta2 whose d = u . c / cos(theta) equals that of the
    cap with u . c = x1 and radius theta1, bit for bit."""
    cos1, cos2 = np.cos(np.array([theta1, theta2]))
    d1 = x1 / cos1
    x = d1 * cos2
    for _ in range(200):
        center = np.zeros(3)
        center[u_axis], center[other_axis] = x, np.sqrt(1.0 - x * x)
        cap = SphericalCap(center=center, theta=theta2)
        if cap.center[u_axis] / cos2 == d1:
            return cap
        x = np.nextafter(x, 0.0)
    raise AssertionError("no exact tie found")


def synthetic_octave_family():
    """Caps over ten octaves of radius on the equatorial band of the
    dilation group, with exact duplicates and exact cross-radius ties."""
    G = make_cyclic(mobius.affine(2, r=2.0))
    cloud = sample_limit_set(G, 2)
    rng = np.random.default_rng(41)
    axes = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    caps = []
    while len(caps) < 300:
        c = uniform_sphere(rng, 2, 1)[0]
        if abs(c[2]) < 0.3 and np.max(axes @ c) < np.cos(0.6):
            caps.append(SphericalCap(center=c, theta=2.0 ** rng.uniform(-12, -2)))
    caps += [caps[i] for i in rng.choice(300, 20, replace=False)]
    # row e_x: the larger cap comes first; row e_y: the smaller one. Both
    # rows lie near the larger cap's boundary, well inside the smaller cap.
    big, small = 0.3, 0.07
    first = SphericalCap(center=[np.cos(0.295), np.sin(0.295), 0.0], theta=big)
    caps[17] = first
    caps[250] = _tie_partner(0, first.center[0], big, small, 1)
    first = SphericalCap(center=[np.sin(0.04), np.cos(0.04), 0.0], theta=small)
    caps[40] = first
    caps[41] = _tie_partner(1, first.center[1], small, big, 0)
    fam = DomeFamily(G, cloud, caps, max_len=0)
    rows = [uniform_sphere(rng, 2, 400), axes]
    for cap in caps:  # on each cap boundary, and at its center
        e = np.cross(cap.center, [0.0, 0.0, 1.0])
        e /= np.linalg.norm(e)
        rows.append(np.vstack([np.cos(cap.theta) * cap.center
                               + np.sin(cap.theta) * e, cap.center]))
    return fam, np.vstack(rows)


class TestHeightIndex:
    """heights through the octave index against every row x every cap."""

    @pytest.mark.parametrize("name", ["cyclic_loxodromic", "cyclic_parabolic"])
    def test_materialized_file_families_match_brute_force(self, name):
        G, cloud, region, fam = file_family(name)
        assert fam.mode == "materialized"
        U = uniform_sphere(np.random.default_rng(3), 2, 3000)
        U = np.vstack([U[region.contains(U)][:1500], U[:300]])
        ref = brute_heights(U, fam._all_centers, fam._all_thetas)
        assert ref.covered.sum() > 1000
        assert_same_heights(fam.heights(U), ref)

    def test_factored_family_matches_brute_force(self):
        G, cloud, region, fam = small_schottky_family(max_len=3, mode="factored")
        rng = np.random.default_rng(9)
        rows = [uniform_sphere(rng, 2, 300)]
        for d in (1, 2, 3):  # on and inside image caps of every level
            for word in G.word_tree.level(d)[::3]:
                cap = fam.seed_caps[int(rng.integers(len(fam.seed_caps)))]
                pts = np.vstack([cap.boundary_points(count=4), cap.center])
                rows.append(mobius.sphere_action_rows(word.map, pts))
        U = np.vstack(rows)
        ref = brute_factored_heights(fam, U)
        # rows governed by image caps, not only by seed caps
        assert np.sum(ref.covered & ~np.isin(ref.theta, fam._seed_thetas)) > 20
        assert_same_heights(fam.heights(U), ref)

    def test_mixed_octaves_boundaries_and_ties(self):
        fam, U = synthetic_octave_family()
        assert np.ptp(np.frexp(fam._all_thetas)[1]) >= 8
        ref = brute_heights(U, fam._all_centers, fam._all_thetas)
        # rows e_x and e_y are governed by two caps of different radii at
        # the same t: the lower index wins
        assert ref.theta[400] == 0.3 and ref.theta[402] == 0.07
        assert_same_heights(fam.heights(U), ref)

    def test_empty_and_single_row(self):
        for fam in (file_family("cyclic_parabolic")[3],
                    small_schottky_family(max_len=2, mode="factored")[3]):
            res = fam.heights(np.empty((0, 3)))
            assert res.f.shape == res.covered.shape == res.theta.shape == (0,)
            u = fam.seed_caps[0].center[None, :]
            ref = (brute_heights(u, fam._all_centers, fam._all_thetas)
                   if fam.mode == "materialized"
                   else brute_factored_heights(fam, u))
            assert ref.covered[0]
            assert_same_heights(fam.heights(u), ref)

    def test_candidates_at_most_three_per_hit(self):
        G, cloud, region, fam = file_family("cyclic_parabolic")
        G2, cloud2, caps = quarter_schottky_caps()
        fam2 = DomeFamily(G2, cloud2, caps, max_len=5, audit=200)
        assert fam2.mode == "factored"
        for fam, region in ((fam, region), (fam2, schottky_region(G2))):
            U = uniform_sphere(np.random.default_rng(5), 2, 10_000)
            fam.candidate_pairs = fam.hit_pairs = 0
            fam.heights(U[region.contains(U)])
            assert 0 < fam.hit_pairs <= fam.candidate_pairs <= 3 * fam.hit_pairs


class TestInvariance:
    def test_identity_gives_zero(self):
        G, cloud, region, fam = small_schottky_family()
        U = uniform_sphere(np.random.default_rng(11), 2, 300)
        dev, cnt = lipgraph.check_invariance(fam, mobius.identity(2), U)
        assert dev < 1e-13 and cnt > 0

    def test_cyclic_matched_truncation_tiny(self):
        G, cloud, region, fam = cyclic_family(depth=5)
        rng = np.random.default_rng(12)
        U = uniform_sphere(rng, 2, 4000)
        U = U[region.contains(U)]
        dev, cnt = lipgraph.check_invariance(fam, G.generators[0], U)
        assert cnt > 100
        assert dev < 1e-9

    def test_deviation_nonincreasing_in_depth(self):
        rng_dirs = np.random.default_rng(13)
        U = uniform_sphere(rng_dirs, 2, 3000)
        devs = []
        for depth in (1, 3, 5):
            G, cloud, region, fam = cyclic_family(depth=depth)
            mask = region.contains(U)
            dev, cnt = lipgraph.check_invariance(fam, G.generators[0], U[mask])
            devs.append(dev)
        assert devs[1] <= devs[0] + 1e-9
        assert devs[2] <= devs[1] + 1e-9


class TestLipschitz:
    def test_single_cap_matches_analytic_slope(self):
        # f along a great circle through the center, differentiated in the
        # chordal variable; samples kept off the rim where the slope diverges
        th = 0.5
        cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), theta=th)
        phis = np.linspace(0.0, 0.8 * th, 400)
        frame = cap.boundary_frame()
        U = (
            np.cos(phis)[:, None] * cap.center
            + np.sin(phis)[:, None] * frame[0]
        )
        f = np.array([dome_entry_radius(cap, u) for u in U])
        q = 2.0 * np.sin(phis / 2.0)  # chordal distance from the center
        emp = np.max(np.abs(np.diff(f)) / np.diff(q))
        d = np.cos(phis) / np.cos(th)
        slope_analytic = np.abs(
            (1.0 - d / np.sqrt(d * d - 1.0))  # dt/dd
            * (-np.sin(phis) / np.cos(th))    # dd/dphi
            / np.cos(phis / 2.0)              # dphi/dq
        )
        assert emp == pytest.approx(np.max(slope_analytic), rel=0.1)

    def test_rotation_invariance_of_M(self):
        # a family symmetric about the z-axis: one cap at the south pole
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        cap = SphericalCap(center=np.array([0.0, 0.0, -1.0]), theta=0.6)
        fam = DomeFamily(G, cloud, [cap], max_len=0)
        rng = np.random.default_rng(14)
        U = uniform_sphere(rng, 2, 3000)
        U = U[fam.heights(U).covered][:400]
        M1 = lipgraph.lipschitz_estimate(fam, U)
        th = 0.83
        R = np.array(
            [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]]
        )
        M2 = lipgraph.lipschitz_estimate(fam, U @ R.T)
        assert M1 == pytest.approx(M2, rel=1e-9)

    def test_reference_schottky_M_finite(self):
        G, cloud, region, fam = small_schottky_family(max_len=2)
        U = uniform_sphere(np.random.default_rng(15), 2, 2000)
        U = U[region.contains(U)]
        M = lipgraph.lipschitz_estimate(fam, U)
        assert np.isfinite(M) and 0 < M < 50


class TestSeparation:
    def test_reference_schottky_passes(self):
        G, cloud, region, fam = small_schottky_family(max_len=3)
        rep = separation_check(fam, cloud, 300, np.random.default_rng(16))
        assert rep.passed and rep.checked > 500

    def test_witnesses_match_trial_by_trial_evaluation(self):
        # a negative tolerance turns most covered points into witnesses
        G, cloud, region, fam = small_schottky_family(max_len=2, mode="factored")
        rep = separation_check(fam, cloud, 100, np.random.default_rng(21),
                               tol=-0.3)
        rng = np.random.default_rng(21)
        witnesses, checked = [], 0
        for _ in range(100):
            i, j = rng.integers(0, cloud.size, 2)
            if i == j:
                continue
            pts = lipgraph._geodesic_points(cloud.points[i], cloud.points[j], 12)
            norms = np.linalg.norm(pts, axis=1)
            pts, norms = pts[norms > 1e-9], norms[norms > 1e-9]
            res = fam.heights(pts / norms[:, None])
            checked += int(res.covered.sum())
            for b in np.flatnonzero(res.covered & (norms > res.f - 0.3)):
                witnesses.append({"point": pts[b].tolist(),
                                  "radius": float(norms[b]),
                                  "graph": float(res.f[b])})
        assert len(witnesses) > 50
        assert rep.checked == checked and rep.witnesses == witnesses

    def test_single_point_cloud_vacuous(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        region = strip_region(np.array([1.0, 0.0]), q_floor=0.8)
        rng = np.random.default_rng(19)
        mesh = region_mesh(region, cloud, 0.1, rng, max_points=500,
                           stop_after_rejects=600)
        fam = DomeFamily(G, cloud, base_caps(mesh, 0.1, cloud), max_len=2)
        rep = separation_check(fam, cloud, 100, rng)
        assert rep.passed and rep.checked == 0

    def test_antipodal_pair_diameter(self):
        # two antipodal limit points: the geodesic is the diameter, whose
        # directions point at the cloud and are never covered
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        _, _, region, fam = cyclic_family(depth=3)
        rep = separation_check(fam, cloud, 50, np.random.default_rng(20))
        assert rep.passed and rep.checked == 0


class TestVolume:
    def test_translation_patch_matches_quadrature(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        region = strip_region(np.array([1.0, 0.0]), q_floor=1.0)
        rng = np.random.default_rng(21)
        mesh = region_mesh(region, cloud, 0.15, rng, max_points=4000,
                           stop_after_rejects=3000)
        fam = DomeFamily(G, cloud, base_caps(mesh, 0.15, cloud), max_len=3)
        est = graph_volume(fam, region, 30_000, seed=7)
        oracle = _strip_quadrature(fam, q_floor=1.0, nx=120, ny=320)
        assert est.covered_fraction > 0.999
        assert abs(est.value - oracle) < 2 * est.stderr + 0.02 * oracle

    def test_region_monotonicity(self):
        G, cloud, region, fam = small_schottky_family(max_len=2,
                                                      max_points=1200)
        sub = region.restrict(lambda U: U[:, 2] < 0.0)  # southern half only
        full = graph_volume(fam, region, 20_000, seed=3)
        part = graph_volume(fam, sub, 20_000, seed=3)
        assert part.value < full.value

    def test_depth_stability_on_schottky(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        rng = np.random.default_rng(22)
        mesh = region_mesh(region, cloud, 0.1, rng, max_points=2500,
                           stop_after_rejects=1500)
        caps = base_caps(mesh, 0.1, cloud)
        vols = []
        for depth in (3, 4):
            fam = DomeFamily(G, cloud, caps, max_len=depth, audit=50)
            vols.append(graph_volume(fam, region, 15_000, seed=5).value)
        assert abs(vols[1] - vols[0]) <= 0.05 * abs(vols[1])


def _strip_quadrature(fam, q_floor, nx, ny):
    """Deterministic oracle for the strip-patch graph volume.

    Integrates the same graph area element over the strip in stereographic
    coordinates, where the round metric contributes (2/(1+|x|^2))^2.
    """
    rmax = np.sqrt((2.0 / q_floor) ** 2 - 1.0)
    xs = np.linspace(0.0, 1.0, nx, endpoint=False) + 0.5 / nx
    ys = np.linspace(-rmax, rmax, ny, endpoint=False) + rmax / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    inside = np.einsum("ij,ij->i", P, P) <= rmax**2
    P = P[inside]
    U = embed_rows(P)
    res = fam.heights(U)
    assert res.covered.all()
    f = res.f
    step = 1e-4 * np.maximum(res.theta, 1e-12)
    grad2 = lipgraph._tangent_gradient_sq(fam, U, f, step)
    n = 2
    integrand = f ** (n - 1) * np.sqrt(f**2 + grad2) * (2.0 / (1.0 - f**2)) ** n
    conf = (2.0 / (1.0 + np.einsum("ij,ij->i", P, P))) ** 2
    cell = (1.0 / nx) * (2.0 * rmax / ny)
    return float(np.sum(integrand * conf) * cell)


class TestMeshAndRegion:
    def test_mesh_points_in_region_with_spacing(self):
        G, cloud, region, fam = small_schottky_family(max_points=600)
        mesh = np.array([c.center for c in fam.seed_caps])
        assert region.contains(mesh).all()
        # no two mesh points closer than the smaller of their local radii
        from kleinlab.limitset import dist_rows

        lower, _ = dist_rows(mesh, cloud)
        r = 0.7 * 0.1 * lower
        d2 = np.sum((mesh[:, None, :] - mesh[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        pairmin = np.minimum(r[:, None], r[None, :])
        assert np.all(np.sqrt(d2) >= pairmin - 1e-12)

    def test_mesh_matches_brute_force_greedy_on_each_region(self):
        schottky = reference_schottky()
        dilation = make_cyclic(mobius.affine(2, r=2.0))
        shift = make_cyclic(mobius.translation([1.0, 0.0]))
        cases = [
            (schottky_region(schottky), sample_limit_set(schottky, 4), 0.5, 1024),
            (annulus_region(2.0), sample_limit_set(dilation, 2), 0.3, 512),
            (strip_region(np.array([1.0, 0.0]), q_floor=0.5),
             sample_limit_set(shift, 2), 0.3, 512),
        ]
        for region, cloud, eps0, batch in cases:
            stats = _assert_mesh_matches(region, cloud, eps0, 61,
                                         stop_after_rejects=600, batch=batch)
            assert stats["stop"] == "rejects" and stats["batches"] > 5
            # blocks by points of earlier batches, through each side of
            # |x - p| < max(r, r_p) alone
            assert stats["earlier_only_by_own_radius"] > 0, region.kind
            assert stats["earlier_only_by_their_radius"] > 0, region.kind

    def test_mesh_stops_on_rejects_mid_batch(self):
        G = reference_schottky()
        stats = _assert_mesh_matches(schottky_region(G), sample_limit_set(G, 4),
                                     0.5, 61, stop_after_rejects=100,
                                     batch=1024)
        assert stats["stop"] == "rejects"
        assert stats["batches"] > 1 and stats["earlier_batch_blocks"] > 0
        assert 0 < stats["stop_row"] < stats["last_batch_rows"] - 1

    def test_mesh_stops_on_max_points_mid_batch(self):
        G = reference_schottky()
        stats = _assert_mesh_matches(schottky_region(G), sample_limit_set(G, 4),
                                     0.5, 61, max_points=200, batch=256)
        assert stats["stop"] == "max_points" and stats["points"] == 200
        assert stats["batches"] > 1 and stats["earlier_batch_blocks"] > 0
        assert 0 < stats["stop_row"] < stats["last_batch_rows"] - 1

    def test_mesh_counts_a_refused_batch_as_rejects(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 4)
        base = schottky_region(G)

        def every_other_batch():
            calls = [0]

            def contains(U):
                calls[0] += 1
                return base.contains(U) & (calls[0] % 2 == 0)

            return lipgraph.FundamentalRegion("every-other-batch", contains)

        stats = _assert_mesh_matches(every_other_batch, cloud, 0.5, 61,
                                     stop_after_rejects=600, batch=256)
        assert stats["refused_batches"] > 1
        # a region that refuses everything stops after 3 batches of 256
        nowhere = lipgraph.FundamentalRegion(
            "nowhere", lambda U: np.zeros(len(U), dtype=bool))
        stats = _assert_mesh_matches(nowhere, cloud, 0.5, 61,
                                     stop_after_rejects=600, batch=256)
        assert stats["points"] == 0 and stats["refused_batches"] == 3

    def test_strip_region_membership(self):
        region = strip_region(np.array([1.0, 0.0]), q_floor=0.5)
        inside = embed_rows(np.array([[0.5, 0.3]]))
        outside_t = embed_rows(np.array([[1.5, 0.3]]))
        assert region.contains(inside)[0]
        assert not region.contains(outside_t)[0]
        north = np.array([[0.0, 0.0, 1.0]])
        assert not region.contains(north)[0]


class TestBilipschitz:
    def test_two_sided_band_with_default_factor(self):
        G, cloud, region, fam = small_schottky_family(max_len=2,
                                                      max_points=1200)
        rng = np.random.default_rng(27)
        U = uniform_sphere(rng, 2, 6000)
        U = U[region.contains(U)]
        ratios = lipgraph.bilipschitz_ratios(fam, U)
        assert ratios.size > 300
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        # two-sided: the distortion band has a bounded spread
        assert ratios.max() / ratios.min() < 50

    def test_equivariant_factor_variant(self):
        from kleinlab.cusp import equivariant_extend

        G, cloud, region, fam = small_schottky_family(max_len=2,
                                                      max_points=1200)
        rng = np.random.default_rng(28)
        U = uniform_sphere(rng, 2, 2500)
        U = U[region.contains(U)][:400]

        def factor(rows):
            return np.array([
                equivariant_extend(lambda y: 1.0, G, row)[0] for row in rows
            ])

        ratios = lipgraph.bilipschitz_ratios(fam, U, factor=factor)
        assert ratios.size > 50
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)


def test_export_graph_csv(tmp_path):
    G, cloud, region, fam = small_schottky_family(max_points=300)
    U = uniform_sphere(np.random.default_rng(23), 2, 100)
    path = tmp_path / "graph.csv"
    lipgraph.export_graph_csv(fam, U, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,f"
    assert 1 < len(lines) <= 101
