"""Dome envelope: entry radii, families, heights, invariance, separation, volume."""

import pathlib
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import cKDTree

from kleinlab import cli, geom, limitset, lipgraph, mobius
from kleinlab.caps import SphericalCap, boundary_probes, cap_images, cap_to_euclidean_ball
from kleinlab.files import load_group_file
from kleinlab.geom import angle_from_chord, embed_rows, uniform_sphere
from kleinlab.group import make_cyclic
from kleinlab.limitset import sample_limit_set
from kleinlab.lipgraph import (
    DomeFamily,
    HeightResult,
    UncertifiedSample,
    annulus_region,
    base_caps,
    graph_volume,
    region_mesh,
    schottky_region,
    separation_check,
    strip_region,
)

from util import (BLOCK_EDGES, brute_sq, dome_entry_radius, reference_schottky,
                  scalar_boundary_points)

RNG = np.random.default_rng(31415)
GROUPS = pathlib.Path(__file__).resolve().parents[1] / "groups"

_SCHOTTKY_CACHE: dict = {}
_CYCLIC_CACHE: dict = {}


def small_schottky_family(max_len=2, eps0=0.1, stride=17):
    """Reference family over every stride-th point of the eps0 mesh (6912
    points at eps0 0.1), so it covers part of the region."""
    key = (max_len, eps0, stride)
    if key not in _SCHOTTKY_CACHE:
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        mesh = region_mesh(region, cloud, eps0)[::stride]
        caps = base_caps(mesh, eps0, cloud)
        fam = DomeFamily(G, cloud, caps, max_len=max_len, audit=100)
        _SCHOTTKY_CACHE[key] = (G, cloud, region, fam)
    return _SCHOTTKY_CACHE[key]


def cyclic_family(depth, eps0=0.12):
    if eps0 not in _CYCLIC_CACHE:
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        region = annulus_region(2.0)
        caps = base_caps(region_mesh(region, cloud, eps0), eps0, cloud)
        _CYCLIC_CACHE[eps0] = (G, cloud, region, caps, {})
    G, cloud, region, caps, by_depth = _CYCLIC_CACHE[eps0]
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
        mesh = region_mesh(region, cloud, defn.epsilon0)
        caps = base_caps(mesh, defn.epsilon0, cloud)
        fam = DomeFamily(G, cloud, caps, max_len=defn.depths[-1])
        _FILE_CACHE[name] = (G, cloud, region, fam)
    return _FILE_CACHE[name]


def quarter_schottky_caps():
    """Reference caps at eps0 0.25 over a depth-6 cloud."""
    if "quarter" not in _FILE_CACHE:
        G = load_group_file(GROUPS / "reference_schottky.json").presentation
        cloud = sample_limit_set(G, 6)
        mesh = region_mesh(schottky_region(G), cloud, 0.25)
        _FILE_CACHE["quarter"] = (G, cloud, base_caps(mesh, 0.25, cloud))
    return _FILE_CACHE["quarter"]


@dataclass
class Governed(HeightResult):
    """Brute-force heights with the radius, center, cosine and d of each
    row's governing cap (zeros where a row is not covered)."""
    theta: np.ndarray
    center: np.ndarray
    cos: np.ndarray
    d: np.ndarray


def governed(U, f, theta, center, cos, d):
    """The brute-force result from each row's smallest entry radius f (inf
    where it meets no cap) and its governing cap; the gradient term is the
    evaluator's closed form on that cap."""
    covered = np.isfinite(f)
    f = np.where(covered, f, np.nan)
    grad_sq = np.zeros(U.shape[0])
    grad_sq[covered] = lipgraph.dome_gradient_sq(
        U[covered], center[covered], cos[covered], d[covered], f[covered])
    return Governed(f=f, covered=covered, grad_sq=grad_sq, theta=theta,
                    center=center, cos=cos, d=d)


def brute_heights(U, centers, thetas):
    """Every row against every cap with the evaluator's formula.

    A row meets a cap when d = (u . c) / cos(theta) >= 1, at entry radius
    t = d - sqrt(d^2 - 1); it takes the smallest t, and ties go to the
    lowest cap index.
    """
    M, R = centers.shape[0], U.shape[0]
    cos = np.cos(thetas)
    f, dk = np.full(R, np.inf), np.zeros(R)
    win = np.zeros(R, dtype=int)
    for r in range(R):
        d = np.einsum("ij,ij->i", U[np.full(M, r)], centers) / cos
        hit = np.flatnonzero(d >= 1.0)
        if hit.size:
            t = d[hit] - np.sqrt(d[hit] * d[hit] - 1.0)
            k = int(np.argmin(t))
            f[r], dk[r], win[r] = t[k], d[hit[k]], hit[k]
    on = np.isfinite(f)
    return governed(U, f, np.where(on, thetas[win], 0.0),
                    centers[win] * on[:, None], np.where(on, cos[win], 0.0), dk)


def seed_arrays(fam):
    """(centers, thetas, boundary probes) of the family's seed caps, the
    probes one cap at a time."""
    centers, thetas = fam.seed_caps.centers, fam.seed_caps.thetas
    return (centers, thetas,
            np.stack([boundary_probes(c[None], th[None])[0]
                      for c, th in zip(centers, thetas)]))


def word_images(word, probes, centers, thetas):
    """cap_images of the given seed caps, each under the one word's map."""
    fields = tuple(np.repeat(f, len(centers), axis=0)
                   for f in mobius.stack_fields([word.map]))
    return cap_images(fields, probes, centers, thetas)


def brute_factored_heights(fam, U):
    """The seed caps as in brute_heights, then every image cap gamma(C) of
    every word and seed whose preimage gamma^-1 u lies in C, in (level, word,
    seed) order, each taken on a strict decrease of the entry radius.

    The membership and entry radius use the evaluator's formulas on every
    (row, seed). Each word's image caps are fitted here, in one word_images
    call on the boundary probes of the seeds some preimage lies in."""
    centers, thetas, probes = seed_arrays(fam)
    ref = brute_heights(U, centers, thetas)
    f = np.where(ref.covered, ref.f, np.inf)
    theta, center, cos, dk = ref.theta, ref.center, ref.cos, ref.d
    S, R = len(fam.seed_caps), U.shape[0]
    r, s = np.divmod(np.arange(R * S), S)  # every (row, seed), rows ascending
    for depth in range(1, fam.max_len + 1):
        for word in fam.G.word_tree.level(depth):
            Y = mobius.sphere_action_rows(mobius.inverse(word.map), U)
            inside = np.einsum("ij,ij->i", Y[r], centers[s]) >= np.cos(thetas[s])
            need = np.unique(s[inside])
            img_c, img_th = np.zeros((S, U.shape[1])), np.zeros(S)
            img_c[need], img_th[need], _, _ = word_images(
                word, probes[need], centers[need], thetas[need])
            img_cos = np.cos(img_th[s])
            d = np.einsum("ij,ij->i", U[r], img_c[s]) / img_cos
            hit = inside & (d >= 1.0)
            t = np.full(R * S, np.inf)
            t[hit] = d[hit] - np.sqrt(d[hit] * d[hit] - 1.0)
            k = np.argmin(t.reshape(R, S), axis=1)  # lowest seed on a tie
            tk = t.reshape(R, S)[np.arange(R), k]
            take = tk < f
            pair = np.flatnonzero(take) * S + k[take]
            f[take], theta[take], center[take] = (tk[take], img_th[k[take]],
                                                  img_c[k[take]])
            cos[take], dk[take] = img_cos[pair], d[pair]
    return governed(U, f, theta, center, cos, dk)


def mapped_seed_centers(fam, per_word, rng):
    """Centers of per_word random seed caps mapped by every word of every
    level: rows at the center of an image cap of each word."""
    centers = seed_arrays(fam)[0]
    return np.vstack([
        mobius.sphere_action_rows(word.map,
                                  centers[rng.choice(len(centers), per_word)])
        for d in range(1, fam.max_len + 1)
        for word in fam.G.word_tree.level(d)])


def assert_same_heights(res, ref):
    assert res.f.tobytes() == ref.f.tobytes()
    assert res.covered.tobytes() == ref.covered.tobytes()
    assert res.grad_sq.tobytes() == ref.grad_sq.tobytes()


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

    def test_stack_has_the_bits_of_one_cap_per_row(self):
        # one SphericalCap per row renormalizes its center by the row's
        # np.linalg.norm, which moves hundreds of these mesh rows by an ulp
        G, cloud, caps = quarter_schottky_caps()
        mesh = region_mesh(schottky_region(G), cloud, 0.25)
        lower, _ = lipgraph.dist_rows(mesh, cloud)
        ref = [SphericalCap(center=row, theta=float(angle_from_chord(0.25 * lo)))
               for row, lo in zip(mesh, lower)]
        assert len(caps) == len(ref) > 1000
        assert (caps.centers != mesh).any(axis=1).sum() > 100
        assert caps.centers.tobytes() == np.array([c.center for c in ref]).tobytes()
        assert caps.thetas.tobytes() == np.array([c.theta for c in ref]).tobytes()

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
        with pytest.raises(UncertifiedSample, match="certificate"):
            region_mesh(annulus_region(2.0), cloud, 0.1)


class TestFamily:
    def test_identity_only_keeps_seeds(self):
        G, cloud, region, fam = small_schottky_family(max_len=0)
        assert not fam._levels
        assert fam._centers.shape[0] == len(fam.seed_caps)
        for a, b in zip(fam._centers, fam.seed_caps):
            assert np.allclose(a, b.center)
        assert np.allclose(fam._thetas,
                           [c.theta for c in fam.seed_caps])

    def test_cyclic_image_radii_shrink_toward_fixed_points(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        seed = base_caps(np.array([[1.0, 0.0, 0.0]]), 0.1, cloud)
        fam = DomeFamily(G, cloud, seed, max_len=3)
        assert fam._centers.shape[0] == 7
        thetas = fam._thetas
        # word order: identity, gamma, gamma^-1, gamma^2, gamma^-2, ...
        assert np.all(thetas[1:3] < thetas[0])
        assert np.all(thetas[3:5] < thetas[1:3].max())
        assert np.all(thetas[5:7] < thetas[3:5].max())

    def test_uniform_rows_match_brute_force(self):
        G, cloud, region, fam = small_schottky_family(max_len=2)
        U = uniform_sphere(np.random.default_rng(17), 2, 800)
        ref = brute_factored_heights(fam, U)
        assert ref.covered.sum() > 50
        assert_same_heights(fam.heights(U), ref)

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
        # reference caps, eps0 0.25: depth-4 image caps spread down to
        # 7.9e-13 and their batched normal equations go singular; every one
        # of the 1192 x 160 image caps is fitted
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=4, audit=0)
        S = len(caps)
        assert S == 1192
        for lv in fam._levels:
            w, s = np.divmod(np.arange(len(lv.words) * S), S)
            fam._image_caps(lv, w, s)
        thetas = np.concatenate([lv.img_thetas for lv in fam._levels])
        centers = np.concatenate([lv.img_centers for lv in fam._levels])
        assert thetas.shape == (1192 * 160,)
        assert np.all((thetas > 0) & (thetas < np.pi / 2))
        assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)

    def test_cyclic_materialized_family_has_five_caps_per_seed(self):
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        seeds = base_caps(np.array([[1.0, 0.0, 0.0]]), 0.1, cloud)
        fam = DomeFamily(G, cloud, seeds, 2)
        assert not fam._levels  # every cap is fitted at build
        assert fam._centers.shape[0] == 5  # identity + gamma^{+-1, +-2}

    def test_shape_bound_recorded(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        # every 562nd point of the 168,672-point mesh
        mesh = region_mesh(region, cloud, 0.02)[::562]
        caps = base_caps(mesh, 0.02, cloud)
        # tiny eps0 stays inside the strict Prop-1.1 regime
        fam = DomeFamily(G, cloud, caps, max_len=2)
        assert fam.shape_bound_ok
        # eps0 = 0.25 exceeds it for this group, on every measured cap: the
        # violations are recorded (eps0 = 0.1 stays within it, max 0.43)
        mesh2 = region_mesh(region, cloud, 0.25)[::17]
        caps2 = base_caps(mesh2, 0.25, cloud)
        fam2 = DomeFamily(G, cloud, caps2, max_len=3)
        assert not fam2.shape_bound_ok
        assert fam2.min_shape_ratio() > 0.5
        assert fam2.shape_violations == len(fam2.shape_ratios) > len(caps2)

    def test_audit_measures_tiny_image_caps(self):
        # x -> 10 x maps a seed cap at |x| = 3 to caps down to theta ~ 1e-11
        # next to the fixed points 0 and infinity, the whole cloud (of
        # resolution 0). The image of the seed's plane ball B(c, r) under
        # x -> 10^k x is B(10^k c, 10^k r): its diameter and its chordal
        # distance to 0 and infinity have closed forms along the ray through
        # its center, the oracle for each audited ratio
        G = make_cyclic(mobius.affine(2, r=10.0))
        cloud = sample_limit_set(G, 2)
        seeds = base_caps(embed_rows(np.array([[3.0, 0.0]])), 0.1, cloud)
        fam = DomeFamily(G, cloud, seeds, max_len=10)
        thetas = fam._thetas[1:]
        assert thetas.min() < 1e-10 and len(fam.shape_ratios) == 21
        c, r = cap_to_euclidean_ball(fam.seed_caps[0])
        for word, ratio in zip(fam.words[1:], fam.shape_ratios[1:]):
            scale = 10.0 ** sum(word.letters)
            lo, hi = scale * (np.linalg.norm(c) - r), scale * (np.linalg.norm(c) + r)
            diam = 4.0 * scale * r / np.sqrt((1.0 + lo * lo) * (1.0 + hi * hi))
            dist = min(2.0 * lo / np.sqrt(1.0 + lo * lo),  # to 0
                       2.0 / np.sqrt(1.0 + hi * hi))  # to infinity
            assert ratio == pytest.approx(diam / dist, rel=1e-6)

    def test_batched_seed_probes_and_shapes_match_the_per_seed_path(self):
        # the probe stacks and the seed shape ratios of the build, bit for
        # bit against one cap and one kd-tree query at a time
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=1, audit=0)
        probes = np.stack([scalar_boundary_points(c) for c in caps])
        assert fam._seed_probes.tobytes() == probes.tobytes()
        tree, res = cKDTree(cloud.points), cloud.resolution
        ratios = []
        for cap in caps:
            _, j = tree.query(cap.center[None, :])
            chord = float(np.linalg.norm(cap.center - cloud.points[int(j[0])]))
            gap = max(float(lipgraph.angle_from_chord(chord)) - cap.theta, 0.0)
            dist_lo = max(float(lipgraph.chord_from_angle(gap)) - res, 0.0)
            ratios.append(cap.chordal_diameter / dist_lo)
        assert len(caps) > 1000
        assert fam.shape_ratios[:len(caps)] == ratios
        assert fam.shape_violations == sum(r > 0.5 for r in fam.shape_ratios)

    def test_lazy_caps_match_direct_fits(self):
        # every image cap the family fits for its audit and a query, bit for
        # bit against a one-row word_images fit of the same (word, seed)
        G, cloud, region, fam = small_schottky_family(max_len=3)
        fam.heights(mapped_seed_centers(fam, 4, np.random.default_rng(21)))
        centers, thetas, probes = seed_arrays(fam)
        S = len(fam.seed_caps)
        checked = 0
        for lv in fam._levels:
            for key, c, th in zip(lv.keys, lv.img_centers, lv.img_thetas):
                w, s = divmod(int(key), S)
                nu, t, _, _ = word_images(lv.words[w], probes[[s]],
                                          centers[[s]], thetas[[s]])
                assert nu[0].tobytes() == c.tobytes() and t[0] == th
                checked += 1
        assert checked > 300

    def test_image_caps_hold_their_mapped_seed_centers(self):
        # a seed cap's center maps inside its image cap: every fitted image
        # of 30 seeds under every word of levels 1 to 6 (theta down to
        # ~1e-12) lies within its own radius of the mapped seed center
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=6, audit=0)
        seeds = np.arange(0, len(caps), len(caps) // 30)[:30]
        for lv in fam._levels:
            w = np.repeat(np.arange(len(lv.words)), seeds.size)
            s = np.tile(seeds, len(lv.words))
            centers, thetas = fam._image_caps(lv, w, s)
            mapped = mobius.sphere_action_stack(
                tuple(f[w] for f in lv.words.fields), caps.centers[s])
            off = angle_from_chord(np.linalg.norm(centers - mapped, axis=1))
            assert np.all(off <= thetas)

    @pytest.mark.parametrize("source", ["reference_schottky", "quarter"])
    def test_caps_lie_in_the_support_of_the_parent_word(self, source):
        # heights descends the word tree: a row meets the supports of level
        # d only through their parent words' supports at level d - 1. Every
        # support, and every image cap fitted by the audit and a query, lies
        # in its parent word's support (angles as _build_levels sets them)
        if source == "quarter":
            G, cloud, caps = quarter_schottky_caps()
            fam = DomeFamily(G, cloud, caps, max_len=6, audit=1500)
        else:
            G, cloud, region, fam = file_family(source)
        fam.heights(mapped_seed_centers(fam, 2, np.random.default_rng(31)))
        S, tree, checked = len(fam.seed_caps), G.word_tree, 0
        support = [np.minimum(tree.nested_caps(d)[1] * lipgraph.SUPPORT_INFLATION
                              + lipgraph._ROUNDING_CHORD, np.pi / 2 - 1e-9)
                   for d in range(1, 7)]
        for d in range(2, 7):
            up, lv = fam._levels[d - 2], fam._levels[d - 1]
            p = lv.words.parent
            gap = angle_from_chord(np.linalg.norm(lv.centers - up.centers[p], axis=1))
            assert np.all(gap + support[d - 1] <= support[d - 2][p])
            p = p[lv.keys // S]
            gap = angle_from_chord(np.linalg.norm(lv.img_centers - up.centers[p], axis=1))
            assert np.all(gap + lv.img_thetas <= support[d - 2][p])
            checked += lv.keys.size
        assert checked > 5000

    def test_shape_block_is_fixed_at_build(self):
        # caps fitted for height queries refuse a hemisphere but add no
        # shape counts, so the block reads the same before and after them
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=6, audit=500)
        before = (list(fam.shape_ratios), fam.shape_violations,
                  fam.shape_unresolved)
        fitted = sum(lv.keys.size for lv in fam._levels)
        graph_volume(fam, schottky_region(G), 10_000, seed=7)
        assert sum(lv.keys.size for lv in fam._levels) > fitted
        assert (fam.shape_ratios, fam.shape_violations,
                fam.shape_unresolved) == before


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
        assert not fam._levels  # every cap is fitted at build
        U = uniform_sphere(np.random.default_rng(3), 2, 3000)
        U = np.vstack([U[region.contains(U)][:1500], U[:300]])
        ref = brute_heights(U, fam._centers, fam._thetas)
        assert ref.covered.sum() > 1000
        assert_same_heights(fam.heights(U), ref)

    def test_factored_family_matches_brute_force(self):
        G, cloud, region, fam = small_schottky_family(max_len=3)
        rng = np.random.default_rng(9)
        rows = [uniform_sphere(rng, 2, 300)]
        for d in (1, 2, 3):  # on and inside image caps of every level
            for word in G.word_tree.level(d)[::3]:
                cap = fam.seed_caps[int(rng.integers(len(fam.seed_caps)))]
                pts = np.vstack([cap.boundary_points(), cap.center])
                rows.append(mobius.sphere_action_rows(word.map, pts))
        U = np.vstack(rows)
        ref = brute_factored_heights(fam, U)
        # rows governed by image caps, not only by seed caps
        assert np.sum(ref.covered & ~np.isin(ref.theta, fam.seed_caps.thetas)) > 20
        assert_same_heights(fam.heights(U), ref)

    def test_tiny_image_caps_need_the_seed_preimage(self):
        # quarter caps at depth 4: level-4 image caps have theta ~ 1e-9, so
        # (u . c) / cos(theta) rounds to 1 for rows up to ~1e-8 from a cap
        # center, far outside the cap. A row meets such a cap only when its
        # preimage lies in the seed cap, as brute_factored_heights tests.
        G, cloud, caps = quarter_schottky_caps()
        fam = DomeFamily(G, cloud, caps, max_len=4, audit=0)
        U = mapped_seed_centers(fam, 2, np.random.default_rng(23))
        ref = brute_factored_heights(fam, U)
        assert_same_heights(fam.heights(U), ref)

    def test_mixed_octaves_boundaries_and_ties(self):
        fam, U = synthetic_octave_family()
        assert np.ptp(np.frexp(fam._thetas)[1]) >= 8
        ref = brute_heights(U, fam._centers, fam._thetas)
        # rows e_x and e_y are governed by two caps of different radii at
        # the same t: the lower index wins
        assert ref.theta[400] == 0.3 and ref.theta[402] == 0.07
        assert_same_heights(fam.heights(U), ref)

    @pytest.mark.parametrize("m", [3, 4])
    def test_cap_index_pairs_match_the_octave_reference(self, m):
        # radii from 1e-10 to 1: each ball is reached from every row within
        # its octave's largest chord, times 1 + 1e-7 and at least the 1e-7
        # rounding chord, and from no other row
        rng = np.random.default_rng(m)
        centers = uniform_sphere(rng, m - 1, 800)
        thetas = np.exp(rng.uniform(np.log(1e-10), 0.0, 800))
        rim = np.cos(thetas)[:, None] * centers + np.sin(thetas)[:, None] * (
            uniform_sphere(rng, m - 1, 800))
        U = np.vstack([uniform_sphere(rng, m - 1, 600), rim[::2],
                       centers[::5] + 1e-8 * uniform_sphere(rng, m - 1, 160)])
        octave = np.frexp(thetas)[1]
        reach = np.empty(800)
        for e in set(octave.tolist()):
            at = octave == e
            reach[at] = max(lipgraph.chord_from_angle(thetas[at].max())
                            * 1.0000001, lipgraph._ROUNDING_CHORD)
        want = set(zip(*np.nonzero(brute_sq(U, centers) <= reach * reach)))
        i, b = lipgraph._CapIndex(centers, thetas).pairs(U)
        assert len(i) == len(want) > 800
        assert set(zip(i.tolist(), b.tolist())) == {
            (int(r), int(c)) for r, c in want}

    def test_rows_of_one_result_match_separate_calls(self):
        # graph slices one heights result for all its diagnostics: on fresh
        # families, which fit their lazy image caps in different orders,
        # the rows of one call equal calls on the slices, bit for bit
        G, cloud, caps = quarter_schottky_caps()
        parts = DomeFamily(G, cloud, caps, max_len=3, audit=0)
        U = np.vstack([uniform_sphere(np.random.default_rng(17), 2, 3000),
                       mapped_seed_centers(parts, 3, np.random.default_rng(18))])
        U = U[np.random.default_rng(19).permutation(len(U))]
        whole = DomeFamily(G, cloud, caps, max_len=3, audit=0).heights(U)
        assert whole.covered.sum() > 1000
        for sl in (slice(None, len(U) // 2), slice(len(U) // 3, None),
                   slice(None, 700)):
            got, want = whole[sl], parts.heights(U[sl])
            for a, b in ((got.f, want.f), (got.covered, want.covered),
                         (got.grad_sq, want.grad_sq)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["cyclic", "schottky"])
    def test_counters_and_rows_are_the_same_in_any_block_split(self, kind,
                                                                monkeypatch):
        # fresh families per split, so the schottky ones fit their lazy image
        # caps block by block in different orders
        if kind == "cyclic":
            G, cloud, region, fam = file_family("cyclic_parabolic")
            make = lambda: DomeFamily(G, cloud, fam.seed_caps, max_len=fam.max_len)
            U = uniform_sphere(np.random.default_rng(23), 2, 9000)
        else:
            G, cloud, caps = quarter_schottky_caps()
            make = lambda: DomeFamily(G, cloud, caps, max_len=3, audit=0)
            U = np.vstack([uniform_sphere(np.random.default_rng(24), 2, 4500),
                           mapped_seed_centers(make(), 3, np.random.default_rng(25))])
        assert len(U) > geom.ROW_BLOCK
        runs = []
        for block in (10**9, geom.ROW_BLOCK, 1777, 500):
            monkeypatch.setattr(geom, "ROW_BLOCK", block)
            f = make()
            res = f.heights(U)
            runs.append((f.candidate_pairs, f.hit_pairs, res))
        (cand, hits, whole), *split = runs
        assert 0 < hits <= cand and whole.covered.sum() > 1000
        for c, h, res in split:
            assert (c, h) == (cand, hits)
            assert_same_heights(res, whole)

    def test_peak_memory_is_bounded_by_the_row_block(self):
        # the one-pass evaluator held every candidate pair of the 40k rows
        # at once and peaked at 28 MB here, 4096-row passes at 4.8 MB
        G, cloud, region, fam = file_family("cyclic_loxodromic")
        U = uniform_sphere(np.random.default_rng(29), 2, 40_000)
        tracemalloc.start()
        try:
            res = fam.heights(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.covered.sum() > 30_000
        assert peak < 8e6

    def test_empty_and_single_row(self):
        for fam in (file_family("cyclic_parabolic")[3],
                    small_schottky_family(max_len=2)[3]):
            res = fam.heights(np.empty((0, 3)))
            assert res.f.shape == res.covered.shape == res.grad_sq.shape == (0,)
            u = fam.seed_caps[0].center[None, :]
            ref = (brute_factored_heights(fam, u) if fam._levels
                   else brute_heights(u, fam._centers, fam._thetas))
            assert ref.covered[0]
            assert_same_heights(fam.heights(u), ref)

    def test_candidates_at_most_three_per_hit(self):
        G, cloud, region, fam = file_family("cyclic_parabolic")
        G2, cloud2, caps = quarter_schottky_caps()
        fam2 = DomeFamily(G2, cloud2, caps, max_len=5, audit=200)
        for fam, region in ((fam, region), (fam2, schottky_region(G2))):
            U = uniform_sphere(np.random.default_rng(5), 2, 10_000)
            fam.candidate_pairs = fam.hit_pairs = 0
            fam.heights(U[region.contains(U)])
            assert 0 < fam.hit_pairs <= fam.candidate_pairs <= 3 * fam.hit_pairs


class TestInvariance:
    def test_identity_gives_zero(self):
        G, cloud, region, fam = small_schottky_family()
        U = uniform_sphere(np.random.default_rng(11), 2, 300)
        dev, cnt = lipgraph.check_invariance(fam, mobius.identity(2), U,
                                             fam.heights(U))
        assert dev < 1e-13 and cnt > 0

    def test_cyclic_matched_truncation_tiny(self):
        G, cloud, region, fam = cyclic_family(depth=5)
        rng = np.random.default_rng(12)
        U = uniform_sphere(rng, 2, 4000)
        U = U[region.contains(U)]
        dev, cnt = lipgraph.check_invariance(fam, G.generators[0], U,
                                             fam.heights(U))
        assert cnt > 100
        assert dev < 1e-9

    def test_deviation_nonincreasing_in_depth(self):
        rng_dirs = np.random.default_rng(13)
        U = uniform_sphere(rng_dirs, 2, 3000)
        devs = []
        for depth in (1, 3, 5):
            G, cloud, region, fam = cyclic_family(depth=depth)
            mask = region.contains(U)
            dev, cnt = lipgraph.check_invariance(fam, G.generators[0], U[mask],
                                                 fam.heights(U[mask]))
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
        M1 = lipgraph.lipschitz_estimate(U, fam.heights(U))
        th = 0.83
        R = np.array(
            [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]]
        )
        M2 = lipgraph.lipschitz_estimate(U @ R.T, fam.heights(U @ R.T))
        assert M1 == pytest.approx(M2, rel=1e-9)

    def test_row_pairs_match_the_pair_matrix(self):
        # the all-pairs form as the reference, bit for bit, over the first
        # 633 covered rows; a repeated row gives a pair at q = 0
        G, cloud, region, fam = file_family("cyclic_loxodromic")
        U = uniform_sphere(np.random.default_rng(24), 2, 4000)
        U = U[region.contains(U)]
        U = np.vstack([U[:1], U])
        res = fam.heights(U)
        V, fv = U[res.covered][:633], res.f[res.covered][:633]
        assert len(V) == 633 and res.covered.sum() > 633
        diff = np.abs(fv[:, None] - fv[None, :])
        q = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
        iu = np.triu_indices(len(V), k=1)
        good = q[iu] > 1e-12
        assert not good.all()
        want = np.max(diff[iu][good] / q[iu][good])
        assert lipgraph.lipschitz_estimate(U, res) == want

    @staticmethod
    def all_pairs(V, fv):
        """max |f_i - f_j| / q_ij over the pairs i < j with q > 1e-12, from
        the whole pair matrix."""
        diff = np.abs(fv[:, None] - fv[None, :])
        q = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
        iu = np.triu_indices(len(V), k=1)
        good = q[iu] > 1e-12
        return np.max(diff[iu][good] / q[iu][good])

    @pytest.mark.parametrize("covered", [2, 3, 200, *BLOCK_EDGES, 632, 633, 900])
    def test_covered_rows_match_the_pair_matrix(self, covered):
        # random heights on twice as many rows, some repeated and some moved
        # by 1e-14 (under the q filter, with another height)
        rng = np.random.default_rng(covered)
        U = uniform_sphere(rng, 2, 2 * covered)
        k = np.arange(1, len(U) - 2, 9)
        U[k + 1], U[k + 2] = U[k], U[k] + 1e-14
        mask = np.zeros(len(U), dtype=bool)
        mask[np.sort(rng.permutation(len(U))[:covered])] = True
        res = HeightResult(rng.uniform(0.5, 1.0, len(U)), mask,
                           np.zeros(len(U)))
        V, fv = U[mask][:633], res.f[mask][:633]
        assert lipgraph.lipschitz_estimate(U, res) == self.all_pairs(V, fv)

    @pytest.mark.parametrize("apart", [0.0, 1e-13])
    def test_coincident_rows_raise(self, apart):
        # 40 covered rows, none more than 1e-12 from another
        U = np.repeat(uniform_sphere(np.random.default_rng(3), 2, 1), 40, axis=0)
        U[1::2] += apart
        res = HeightResult(np.linspace(0.5, 0.9, 40), np.ones(40, dtype=bool),
                           np.zeros(40))
        with pytest.raises(ValueError, match="over 1e-12 apart"):
            lipgraph.lipschitz_estimate(U, res)

    def test_one_covered_row_raises(self):
        U = uniform_sphere(np.random.default_rng(4), 2, 5)
        res = HeightResult(np.full(5, 0.7), np.arange(5) == 2, np.zeros(5))
        with pytest.raises(ValueError, match="two covered"):
            lipgraph.lipschitz_estimate(U, res)

    def test_a_million_samples_are_not_copied(self):
        # gathering every covered row (24 bytes each) and its height before
        # keeping 633 peaked at 32 MB here, the blocks of 633 rows at 3.6 MB
        rng = np.random.default_rng(9)
        U = uniform_sphere(rng, 2, 1_000_000)
        res = HeightResult(rng.uniform(0.5, 1.0, len(U)),
                           rng.uniform(size=len(U)) < 0.9, np.zeros(len(U)))
        tracemalloc.start()
        try:
            M = lipgraph.lipschitz_estimate(U, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        first = np.flatnonzero(res.covered)[:633]
        assert M == self.all_pairs(U[first], res.f[first])
        assert peak < 8e6

    def test_reference_schottky_M_finite(self):
        G, cloud, region, fam = small_schottky_family(max_len=2)
        U = uniform_sphere(np.random.default_rng(15), 2, 2000)
        U = U[region.contains(U)]
        M = lipgraph.lipschitz_estimate(U, fam.heights(U))
        assert np.isfinite(M) and 0 < M < 50


class TestSeparation:
    def test_reference_schottky_passes(self):
        G, cloud, region, fam = small_schottky_family(max_len=3)
        rep = separation_check(fam, cloud, 300, np.random.default_rng(16))
        assert rep.passed and rep.checked > 500

    def test_witnesses_match_trial_by_trial_evaluation(self):
        # a negative tolerance turns most covered points into witnesses
        G, cloud, region, fam = small_schottky_family(max_len=2)
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
        mesh = region_mesh(region, cloud, 0.1)
        fam = DomeFamily(G, cloud, base_caps(mesh, 0.1, cloud), max_len=2)
        rep = separation_check(fam, cloud, 100, np.random.default_rng(19))
        assert rep.passed and rep.checked == 0

    def test_antipodal_pair_diameter(self):
        # two antipodal limit points: the geodesic is the diameter, whose
        # directions point at the cloud and are never covered
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        _, _, region, fam = cyclic_family(depth=3)
        rep = separation_check(fam, cloud, 50, np.random.default_rng(20))
        assert rep.passed and rep.checked == 0


class TestGradient:
    @pytest.mark.parametrize("kind", ["cyclic", "schottky"])
    def test_closed_form_matches_central_differences(self, kind):
        # on rows whose +-step stencil keeps the row's governing cap, so the
        # differences see one smooth dome
        rng = np.random.default_rng(37)
        if kind == "cyclic":
            G, cloud, region, fam = file_family("cyclic_loxodromic")
            brute = lambda U: brute_heights(U, fam._centers, fam._thetas)
            U = uniform_sphere(rng, 2, 400)
        else:
            G, cloud, region, fam = small_schottky_family(max_len=2, stride=6)
            brute = lambda U: brute_factored_heights(fam, U)
            centers, thetas, probes = seed_arrays(fam)
            inner = np.array([np.cos(c.theta / 2) * c.center + np.sin(c.theta / 2)
                              * c.boundary_frame()[0] for c in fam.seed_caps])
            U = uniform_sphere(rng, 2, 1000)
            rows = [U[region.contains(U)][:200]]
            for word in G.word_tree.level(1):
                # inside the word's largest image caps (theta ~ 0.01): the
                # differences of u . c resolve only caps well above 1e-4
                th = word_images(word, probes, centers, thetas)[1]
                rows.append(mobius.sphere_action_rows(
                    word.map, inner[np.argsort(th)[-10:]]))
            U = np.vstack(rows)
        U = U[brute(U).covered]
        ref = brute(U)
        stencil_centers = []

        def heights(rows):
            res = brute(rows)
            stencil_centers.append(res.center)
            return res

        fd = central_gradient_sq(heights, U, 1e-4 * ref.theta)
        same = np.all([np.all(c == ref.center, axis=1)
                       for c in stencil_centers], axis=0)
        assert same.sum() > 0.9 * len(U) > 100
        rel = np.abs(fd - ref.grad_sq) / ref.grad_sq
        # the differences lose bits near a rim and on small caps
        assert np.median(rel[same]) < 1e-5 and rel[same].max() < 1e-2
        if kind == "schottky":  # rows governed by lazily fitted image caps
            image = same & ~np.isin(ref.theta, fam.seed_caps.thetas)
            assert image.sum() > 20 and np.median(rel[image]) < 1e-3

    def test_rim_row_of_a_losing_cap(self, monkeypatch):
        # row u lies exactly on the rim of a small cap (d = 1) and inside a
        # larger one, which governs it: no warning, a finite gradient term
        # and a finite volume
        G = make_cyclic(mobius.affine(2, r=2.0))
        cloud = sample_limit_set(G, 2)
        u = np.array([[1.0, 0.0, 0.0]])
        small = SphericalCap(center=[np.cos(0.1), np.sin(0.1), 0.0], theta=0.1)
        theta = float(np.arccos(small.center[0]))
        while np.cos(np.array([0.3, theta]))[1] != small.center[0]:
            theta = np.nextafter(theta, 1.0)
        caps = [SphericalCap(center=[1.0, 0.0, 0.0], theta=0.3),
                SphericalCap(center=small.center, theta=theta)]
        fam = DomeFamily(G, cloud, caps, max_len=0)
        assert u[0] @ fam._centers[1] / fam._cos[1] == 1.0
        rows = np.vstack([u, uniform_sphere(np.random.default_rng(38), 2, 999)])
        rows = rows[fam.heights(rows).covered]
        monkeypatch.setattr(lipgraph, "uniform_sphere_blocks",
                            lambda rng, n, size: iter([(0, rows)]))
        everywhere = lipgraph.FundamentalRegion(
            "annulus", lambda U: np.ones(len(U), dtype=bool))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fam.heights(u)
            est = graph_volume(fam, everywhere, len(rows))
        assert res.covered[0] and res.f[0] < 1.0
        assert np.isfinite(res.grad_sq[0])
        assert np.isfinite(est.value) and est.covered_fraction == 1.0


class TestVolume:
    def test_translation_patch_matches_quadrature(self):
        G = make_cyclic(mobius.translation([1.0, 0.0]))
        cloud = sample_limit_set(G, 2)
        region = strip_region(np.array([1.0, 0.0]), q_floor=1.0)
        mesh = region_mesh(region, cloud, 0.15)
        fam = DomeFamily(G, cloud, base_caps(mesh, 0.15, cloud), max_len=3)
        est = graph_volume(fam, region, 30_000, seed=7)
        oracle = _strip_quadrature(fam, q_floor=1.0, nx=120, ny=320)
        assert est.covered_fraction > 0.999
        assert abs(est.value - oracle) < 2 * est.stderr + 0.02 * oracle

    def test_blocks_do_not_move_the_estimate(self, monkeypatch):
        # every row's value is the same in any block, so the one mean and
        # standard deviation are too
        G, cloud, region, fam = small_schottky_family(max_len=2)
        whole = graph_volume(fam, region, 5000, seed=4)
        monkeypatch.setattr(geom, "SAMPLE_BLOCK", 777)
        assert graph_volume(fam, region, 5000, seed=4) == whole

    def test_region_monotonicity(self):
        G, cloud, region, fam = small_schottky_family(max_len=2, stride=6)
        sub = lipgraph.FundamentalRegion(  # southern half only
            region.kind, lambda U: region.contains(U) & (U[:, 2] < 0.0))
        full = graph_volume(fam, region, 20_000, seed=3)
        part = graph_volume(fam, sub, 20_000, seed=3)
        assert part.value < full.value

    def test_depth_stability_on_schottky(self):
        G = reference_schottky()
        cloud = sample_limit_set(G, 5)
        region = schottky_region(G)
        mesh = region_mesh(region, cloud, 0.1)[::3]
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
    # 1 - f is about the governing cap's radius at its center, and shrinks
    # toward its rim
    grad2 = central_gradient_sq(fam.heights, U, 1e-4 * (1.0 - f))
    n = 2
    integrand = f ** (n - 1) * np.sqrt(f**2 + grad2) * (2.0 / (1.0 - f**2)) ** n
    conf = (2.0 / (1.0 + np.einsum("ij,ij->i", P, P))) ** 2
    cell = (1.0 / nx) * (2.0 * rmax / ny)
    return float(np.sum(integrand * conf) * cell)


def central_gradient_sq(heights, U, step):
    """|grad f|^2 of f = heights(rows).f by central differences at each row
    u, over an orthonormal tangent frame from the QR of [u | I], with the
    row's own angular step."""
    m = U.shape[1]
    eye = np.broadcast_to(np.eye(m), (U.shape[0], m, m))
    Q, _ = np.linalg.qr(np.concatenate([U[:, :, None], eye], axis=2))
    grad2 = np.zeros(U.shape[0])
    for k in range(1, m):
        plus = U + step[:, None] * Q[:, :, k]
        minus = U - step[:, None] * Q[:, :, k]
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        rp, rm = heights(plus), heights(minus)
        ang = np.arccos(np.clip(np.einsum("ij,ij->i", plus, minus), -1, 1))
        ok = rp.covered & rm.covered & (ang > 0)
        d = np.zeros(U.shape[0])
        d[ok] = (rp.f[ok] - rm.f[ok]) / ang[ok]
        grad2 += d * d
    return grad2


def _mesh_reach(mesh, cloud, eps0, U):
    """Largest chord from a row of U to its nearest mesh point, in units of
    the row's base-cap scale eps0 * lower."""
    lower, _ = limitset.dist_rows(U, cloud)
    chord, _ = cKDTree(mesh).query(U)
    return float(np.max(chord / (eps0 * lower)))


class TestMeshAndRegion:
    @pytest.mark.parametrize("name", ["reference_schottky", "cyclic_loxodromic",
                                      "cyclic_parabolic"])
    def test_every_region_direction_is_in_a_base_cap(self, name):
        # at the file's own graph settings, over 200k region directions
        defn = load_group_file(GROUPS / f"{name}.json")
        cloud = sample_limit_set(defn.presentation, defn.depths[-1])
        region = cli._region_for(defn)
        mesh = region_mesh(region, cloud, defn.epsilon0)
        U = uniform_sphere(np.random.default_rng(29), 2, 800_000)
        U = U[region.contains(U)][:200_000]
        assert len(U) == 200_000
        assert _mesh_reach(mesh, cloud, defn.epsilon0, U) <= 1.0

    def test_mesh_of_a_three_sphere_annulus(self):
        G = make_cyclic(mobius.affine(3, r=2.0))
        cloud = sample_limit_set(G, 2)
        region = annulus_region(2.0)
        mesh = region_mesh(region, cloud, 0.3)
        assert mesh.shape[1] == 4
        U = uniform_sphere(np.random.default_rng(30), 3, 100_000)
        U = U[region.contains(U)]
        assert len(U) > 10_000
        assert _mesh_reach(mesh, cloud, 0.3, U) <= 1.0

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
        G, cloud, region, fam = small_schottky_family(max_len=2, stride=6)
        rng = np.random.default_rng(27)
        U = uniform_sphere(rng, 2, 6000)
        U = U[region.contains(U)]
        ratios = lipgraph.bilipschitz_ratios(fam, U, fam.heights(U))
        assert ratios.size > 300
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        # two-sided: the distortion band has a bounded spread
        assert ratios.max() / ratios.min() < 50

    def test_equivariant_factor_variant(self):
        from util import equivariant_extend

        G, cloud, region, fam = small_schottky_family(max_len=2, stride=6)
        rng = np.random.default_rng(28)
        U = uniform_sphere(rng, 2, 2500)
        U = U[region.contains(U)][:400]

        def factor(rows):
            return np.array([
                equivariant_extend(lambda y: 1.0, G, row)[0] for row in rows
            ])

        ratios = lipgraph.bilipschitz_ratios(fam, U, fam.heights(U),
                                             factor=factor)
        assert ratios.size > 50
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)


def test_export_graph_csv(tmp_path):
    G, cloud, region, fam = small_schottky_family(stride=23)
    U = uniform_sphere(np.random.default_rng(23), 2, 100)
    path = tmp_path / "graph.csv"
    lipgraph.export_graph_csv(U, fam.heights(U), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,f"
    assert 1 < len(lines) <= 101
