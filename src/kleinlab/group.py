"""Finitely generated Kleinian groups as data.

Every presentation carries one WordTree, the only walker of its reduced
words: the levels of all reduced words of each length (maps composed once,
in a fixed order), the nested caps of schottky words, and the deduplicated
enumeration built on those levels. On top of it: orbit counting N(R),
Poincare series partial sums, a least-squares estimator for the critical
exponent, displacement and Margulis-region tests, and safe constructors for
Schottky and elementary cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mobius
from .caps import (CapDegenerate, SphericalCap, cap_to_euclidean_ball,
                   caps_disjoint, fit_image_caps)
from .geom import BallPoint, ExtPoint, embed_ext
from .mobius import MobiusMap, compose, inverse, sphere_action_rows

TAG_SCHOTTKY = "schottky"
TAG_CYCLIC = "elementary-cyclic"
TAG_CUSTOM = "custom"


class SchottkyCollision(RuntimeError):
    """Two distinct reduced words evaluated to the same map in a schottky group."""


class BadSchottkyConfiguration(ValueError):
    """Defining balls overlap, touch, or reach the north pole."""


class InsufficientRange(RuntimeError):
    """Too few usable radii for the growth-rate fit."""


class NotNonelementary(ValueError):
    """Operation requires a nonelementary group (or an explicit elementary tag)."""


@dataclass(frozen=True)
class GroupPresentation:
    """Ordered generators of a discrete conformal group, plus provenance.

    ball_caps holds the 2k defining caps of a schottky presentation in source,
    target order per generator: generator i maps the exterior of cap 2i onto
    the interior of cap 2i+1 (0-based pair layout).
    """

    n: int
    generators: tuple[MobiusMap, ...]
    tag: str = TAG_CUSTOM
    ball_caps: tuple[SphericalCap, ...] = ()
    inverses: tuple[MobiusMap, ...] = field(init=False)
    word_tree: WordTree = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator dimension mismatch")
        object.__setattr__(
            self, "inverses", tuple(inverse(g) for g in self.generators)
        )
        for g, gi in zip(self.generators, self.inverses):
            if not mobius.is_identity(compose(g, gi), tol=1e-10):
                raise ValueError("generator/inverse pair fails at 1e-10")
        if self.tag == TAG_SCHOTTKY:
            k = len(self.generators)
            if len(self.ball_caps) != 2 * k:
                raise ValueError("schottky tag needs 2 caps per generator")
            for i in range(2 * k):
                for j in range(i + 1, 2 * k):
                    if not caps_disjoint(self.ball_caps[i], self.ball_caps[j]):
                        raise BadSchottkyConfiguration(
                            f"defining caps {i} and {j} have intersecting closures"
                        )
        object.__setattr__(self, "word_tree", WordTree(self))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def letter(self, s: int) -> MobiusMap:
        """Generator for letter +i, inverse for -i (1-based)."""
        if s > 0:
            return self.generators[s - 1]
        return self.inverses[-s - 1]

    def letter_target_cap(self, s: int) -> SphericalCap:
        """Cap that letter s contracts into (schottky presentations only)."""
        i = abs(s) - 1
        return self.ball_caps[2 * i + (1 if s > 0 else 0)]

    def letter_source_cap(self, s: int) -> SphericalCap:
        i = abs(s) - 1
        return self.ball_caps[2 * i + (0 if s > 0 else 1)]


@dataclass(frozen=True)
class Word:
    """Freely reduced word with its evaluated map."""

    letters: tuple[int, ...]
    map: MobiusMap

    def __len__(self):
        return len(self.letters)


class _MapDeduper:
    """Near-duplicate detection for maps through probe-image fingerprints.

    The forward fingerprint of g holds the images g(p) of three fixed probes,
    embedded on S^n and concatenated. It is keyed on two grids of cell 1e-8,
    the second shifted by half a cell, and earlier words with the same key
    in either grid are the candidates. In one coordinate, two values within
    half a cell share a cell of at least one grid. A key spans all 3(n + 1)
    coordinates, so two such fingerprints are sure to share a key only when
    one grid keeps every coordinate together; a duplicate missed this way is
    kept as a new word. Deep words contract the sphere into caps far below
    1e-8, so their forward images share keys with many other words.

    Each accepted word also keeps its inverse fingerprint, the images
    g^-1(p) of the same probes. A candidate is confirmed with maps_close at
    1e-8 only when the inverse fingerprints agree within 1e-6 in every
    coordinate. That is a necessary condition: if maps_close(g, h) holds,
    then k = g^-1 h is the affine map x -> b + r A x with |r - 1|, every
    entry of A - I and every entry of b below 1e-8, and h^-1 = k^-1 g^-1.
    A conformal affine map moves every point of R^n u {inf} chordally by at
    most |r - 1| + ||A - I|| + 2|b| to first order, which is below
    (1 + n + 2 sqrt(n)) 1e-8 for k^-1 as well, so h^-1(p) lies within that
    distance of g^-1(p). The factor 100 between 1e-8 and 1e-6 leaves room
    for n up to 80 and for rounding. Deep words, whose forward images
    collapse, differ in their last letters and therefore in their inverse
    images.
    """

    def __init__(self, n: int, tol: float = 1e-8):
        rng = np.random.default_rng(2718281828)
        self.probes = [ExtPoint.finite(rng.normal(0.0, 1.0, n)) for _ in range(3)]
        self._probe_rows = np.array([embed_ext(p) for p in self.probes])
        self.tol = tol
        self._buckets: dict[tuple, list[int]] = {}
        self._maps: list[MobiusMap] = []
        self._inverse_fps = np.empty((64, 3 * (n + 1)))

    def _fingerprint(self, g: MobiusMap) -> np.ndarray:
        return np.concatenate(
            [embed_ext(mobius.apply(g, p)) for p in self.probes]
        )

    def check_and_add(self, g: MobiusMap) -> bool:
        """True if g is new (and records it); False if a duplicate was found."""
        fp = self._fingerprint(g)
        inv_fp = sphere_action_rows(inverse(g), self._probe_rows).ravel()
        keys = [tuple(np.floor(fp / self.tol).astype(np.int64)),
                tuple(np.floor(fp / self.tol + 0.5).astype(np.int64))]
        candidates: set[int] = set()
        for key in keys:
            candidates.update(self._buckets.get(key, ()))
        if candidates:
            idx = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
            gap = np.abs(self._inverse_fps[idx] - inv_fp).max(axis=1)
            for i in idx[gap <= 1e-6]:
                if mobius.maps_close(self._maps[i], g, tol=1e-8):
                    return False
        idx = len(self._maps)
        self._maps.append(g)
        if idx == len(self._inverse_fps):
            self._inverse_fps = np.concatenate(
                [self._inverse_fps, np.empty_like(self._inverse_fps)])
        self._inverse_fps[idx] = inv_fp
        for key in keys:
            self._buckets.setdefault(key, []).append(idx)
        return True


class WordTree:
    """The freely reduced words of a presentation, built level by level.

    Level d holds every reduced word of length d: the children of the words
    of level d - 1 in their order, each word's children in the alphabet
    order g1, g1^-1, g2, g2^-1, ... without the letter that would cancel.
    A child's map is compose(parent.map, G.letter(s)), composed once and
    kept, so every caller reads the same bits. A level is built when first
    asked for, together with the levels below it and none above.

    elements() is the deduplicated enumeration behind enumerate_elements.
    While the deduper has dropped no word, which holds for every schottky
    and free presentation, its levels are the level() lists themselves.
    After the first dropped word, each later length is composed from the
    kept words of the one before, so children of dropped words are never
    built; these pruned levels stay out of level(). The enumeration grows in
    place: its elements up to length d are the enumeration at depth d.
    """

    def __init__(self, G: GroupPresentation):
        self.G = G
        self._letters = tuple(s for i in range(1, G.rank + 1) for s in (i, -i))
        self._levels = [[Word((), mobius.identity(G.n))]]
        self._caps: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._targets: dict[int, np.ndarray] | None = None  # probes, center
        self._dedup: _MapDeduper | None = None

    def _next_letters(self, w: Word) -> list[int]:
        return [s for s in self._letters if not w.letters or s != -w.letters[-1]]

    def children(self, parents: list[Word]) -> list[tuple[Word, int]]:
        """(parent, letter) of each reduced one-letter extension, in order."""
        return [(w, s) for w in parents for s in self._next_letters(w)]

    def _grow(self, parents: list[Word]) -> list[Word]:
        G = self.G
        return [Word(w.letters + (s,), compose(w.map, G.letter(s)))
                for w, s in self.children(parents)]

    def level(self, d: int) -> list[Word]:
        """Every reduced word of length d, not deduplicated (a shared list)."""
        if d < 0:
            raise ValueError("level must be >= 0")
        while len(self._levels) <= d:
            self._levels.append(self._grow(self._levels[-1]))
        return self._levels[d]

    def nested_caps(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, thetas, points) of the words of level d >= 1, schottky only.

        The nested cap of the word w s is the image of G.letter_target_cap(s)
        under w.map, and its point the image of that cap's center. Each
        letter's n+1 target-cap probes and center are stacked once per tree;
        each parent map is applied once to the stacks of its children, and
        the whole level is fitted in one fit_image_caps call. Only level
        d - 1 is composed for it.
        """
        if d not in self._caps:
            G = self.G
            if self._targets is None:
                self._targets = {}
                for s in self._letters:
                    cap = G.letter_target_cap(s)
                    self._targets[s] = np.vstack([cap.boundary_points(), cap.center])
            blocks, maps, letters = [], [], []
            for w in self.level(d - 1):
                kids = self._next_letters(w)
                blocks.append(sphere_action_rows(
                    w.map, np.concatenate([self._targets[s] for s in kids])))
                maps += [w.map] * len(kids)
                letters += kids
            imgs = np.concatenate(blocks).reshape(len(letters), G.n + 2, G.n + 1)
            centers, thetas, valid = fit_image_caps(
                imgs[:, :-1], imgs[:, -1], maps,
                np.array([self._targets[s][-1] for s in letters]),
                np.array([G.letter_target_cap(s).theta for s in letters]))
            if not valid.all():
                raise CapDegenerate("a nested cap is degenerate or covers a hemisphere")
            self._caps[d] = (centers, thetas, imgs[:, -1].copy())
        return self._caps[d]

    def elements(self, max_len: int) -> list[Word]:
        """Distinct elements of word length <= max_len (see enumerate_elements)."""
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        if self._dedup is None:
            self._dedup = _MapDeduper(self.G.n)
            self._dedup.check_and_add(self._levels[0][0].map)
            # _ends[d] counts the elements of length <= d; _kept holds the
            # last length's kept words once a word has been dropped
            self._elements, self._ends, self._kept = list(self._levels[0]), [1], None
        try:
            while len(self._ends) <= max_len:
                self._extend()
        except SchottkyCollision:
            self._dedup = None  # the next call starts over and raises again
            raise
        return self._elements[:self._ends[max_len]]

    def _extend(self):
        if self._kept is None:
            candidates = self.level(len(self._ends))
        else:
            candidates = self._grow(self._kept)
        kept = []
        for w in candidates:
            if self._dedup.check_and_add(w.map):
                kept.append(w)
            elif self.G.tag == TAG_SCHOTTKY:
                raise SchottkyCollision(
                    f"word {w.letters} duplicates an earlier element"
                )
        if self._kept is not None or len(kept) < len(candidates):
            self._kept = kept
        self._elements.extend(kept)
        self._ends.append(len(self._elements))


def enumerate_elements(G: GroupPresentation, max_len: int) -> list[Word]:
    """All distinct elements of word length <= max_len, from G.word_tree.

    Deterministic order: by length, then in the order of WordTree levels
    (lexicographic in the alphabet g1, g1^-1, g2, g2^-1, ... over the kept
    words). Duplicate evaluations are dropped, except for schottky
    presentations where they indicate a broken configuration and raise
    SchottkyCollision, on this call and on every later one. The list is
    fresh; the words in it are shared with the tree. The enumeration at
    depth d is the first part of any deeper one.
    """
    return G.word_tree.elements(max_len)


def element_displacements(G: GroupPresentation, max_len: int
                          ) -> tuple[list[Word], np.ndarray]:
    """Words up to max_len with the displacement rho(0, gamma 0) of each."""
    words = enumerate_elements(G, max_len)
    origin = np.zeros(G.n + 1)
    return words, mobius.orbit_distances([w.map for w in words], origin, origin)


@dataclass(frozen=True)
class OrbitCount:
    count: int
    horizon: float
    reliable: bool


def orbit_count(G: GroupPresentation, R: float, max_len: int) -> OrbitCount:
    """N(R) = #{gamma : rho(0, gamma 0) <= R} from the truncated enumeration.

    The count is exact for R below the reported horizon (the cheapest word of
    full length max_len); beyond it longer words could still enter the ball.
    """
    if R < 0:
        raise ValueError("R must be >= 0")
    words, ds = element_displacements(G, max_len)
    horizon = _truncation_horizon(words, ds, max_len)
    return OrbitCount(
        count=int(np.sum(ds <= R + 1e-12)),
        horizon=horizon,
        reliable=bool(R <= horizon),
    )


def _truncation_horizon(words: list[Word], ds: np.ndarray, max_len: int) -> float:
    full = np.array([len(w) == max_len for w in words])
    if not full.any():
        return float("inf") if max_len == 0 else 0.0
    return float(ds[full].min())


def poincare_series(G: GroupPresentation, s: float, max_len: int) -> float:
    """Partial sum over |gamma| <= max_len of exp(-s rho(0, gamma 0))."""
    if s < 0:
        raise ValueError("exponent s must be >= 0")
    _, ds = element_displacements(G, max_len)
    return float(np.sum(np.exp(-s * ds)))


@dataclass(frozen=True)
class FitResult:
    estimate: float
    stderr: float
    diagnostics: dict


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    denom = np.sum((x - x.mean()) ** 2)
    se = float(np.sqrt(np.sum(resid**2) / dof / denom)) if denom > 0 else float("inf")
    return float(coef[0]), se


def detect_nonelementary(G: GroupPresentation) -> bool:
    """Two non-commuting loxodromic elements among short words."""
    if G.tag == TAG_SCHOTTKY:
        return True
    if G.rank < 2:
        return False
    loxo = []
    for w in enumerate_elements(G, 2):
        if len(w) == 0:
            continue
        try:
            if mobius.classify(w.map) == "loxodromic":
                loxo.append(w.map)
        except mobius.AmbiguousClassification:
            continue
        if len(loxo) >= 8:
            break
    for i in range(len(loxo)):
        for j in range(i + 1, len(loxo)):
            gh = compose(loxo[i], loxo[j])
            hg = compose(loxo[j], loxo[i])
            if not mobius.maps_close(gh, hg, tol=1e-8):
                return True
    return False


def critical_exponent(G: GroupPresentation, max_len: int) -> FitResult:
    """Growth rate of log N(R) in R, fit by least squares over the reliable window.

    Radii below the 10th orbit point and above the truncation horizon (by
    more than a relative 1e-12) are discarded. Elementary cyclic groups
    return 0 by definition of the exponent for linear orbit growth; the fit
    is still run for diagnostics when the window holds 5 radii, and skipped
    (fit_slope None) when not.
    """
    if G.tag not in (TAG_CYCLIC, TAG_SCHOTTKY) and not detect_nonelementary(G):
        raise NotNonelementary(
            "need >= 2 non-commuting loxodromic elements (or an elementary tag)"
        )
    words, ds = element_displacements(G, max_len)
    horizon = _truncation_horizon(words, ds, max_len)
    order = np.argsort(ds, kind="stable")
    d_sorted = ds[order]
    counts = np.arange(1, len(d_sorted) + 1, dtype=float)
    lo_idx = min(10, len(d_sorted) - 1)
    # words tied with the horizon by symmetry differ only by rounding
    within = d_sorted <= horizon * (1.0 + 1e-12)
    usable = (np.arange(len(d_sorted)) >= lo_idx) & within & (d_sorted > 0)
    if usable.sum() >= 5:
        slope, se = _slope_fit(d_sorted[usable], np.log(counts[usable]))
    elif G.tag == TAG_CYCLIC:
        slope = se = None
    else:
        raise InsufficientRange(
            f"only {int(usable.sum())} usable radii in the fit window"
        )
    diagnostics = {
        "horizon": horizon,
        "usable_points": int(usable.sum()),
        "fit_slope": slope,
        "fit_stderr": se,
        "basepoint": "ball center",
        "max_len": max_len,
    }
    if G.tag == TAG_CYCLIC:
        return FitResult(estimate=0.0, stderr=se or 0.0, diagnostics=diagnostics)
    return FitResult(estimate=slope, stderr=se, diagnostics=diagnostics)


def displacement(x: BallPoint, g: MobiusMap) -> float:
    """Hyperbolic displacement rho(x, gamma x) through the Poincare extension."""
    return float(mobius.orbit_distances([g], x.vec, x.vec)[0])


@dataclass(frozen=True)
class MargulisResult:
    hit: bool
    min_displacement: float
    horizon: float

    def __bool__(self):
        return self.hit


def margulis_region_test(x: BallPoint, G_a: GroupPresentation, eps: float,
                         max_len: int) -> MargulisResult:
    """Whether some enumerated non-identity element moves x less than eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    words = enumerate_elements(G_a, max_len)
    ds = mobius.orbit_distances([w.map for w in words], x.vec, x.vec)
    moved = np.array([len(w) > 0 for w in words])
    ds[~moved] = 0.0
    best = float(ds[moved].min(initial=float("inf")))
    horizon = _truncation_horizon(words, ds, max_len)
    return MargulisResult(hit=bool(best < eps), min_displacement=best,
                          horizon=horizon)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_schottky(ball_pairs: list[tuple[SphericalCap, SphericalCap]]
                  ) -> GroupPresentation:
    """Schottky group from pairwise disjoint cap pairs.

    Generator i is inversion in the stereographic image of the source cap
    followed by the similarity taking that ball onto the target ball, so it
    maps the exterior of the source cap onto the interior of the target cap.
    """
    caps_flat: list[SphericalCap] = []
    for pair in ball_pairs:
        caps_flat.extend(pair)
    for i in range(len(caps_flat)):
        for j in range(i + 1, len(caps_flat)):
            if not caps_disjoint(caps_flat[i], caps_flat[j]):
                raise BadSchottkyConfiguration(
                    f"caps {i} and {j} have intersecting closures"
                )
    m = caps_flat[0].ambient_dim
    n = m - 1
    gens = []
    for src, dst in ball_pairs:
        try:
            p1, r1 = cap_to_euclidean_ball(src)
            p2, r2 = cap_to_euclidean_ball(dst)
        except Exception as exc:
            raise BadSchottkyConfiguration(
                "defining caps must stay clear of the north pole"
            ) from exc
        # b + r A iota(x - a) with a = b-field = source/target centers
        g = MobiusMap(n, 1, p1, r1 * r2, np.eye(n), p2)
        gens.append(g)
    G = GroupPresentation(
        n=n, generators=tuple(gens), tag=TAG_SCHOTTKY, ball_caps=tuple(caps_flat)
    )
    _check_ping_pong(G)
    return G


def _check_ping_pong(G: GroupPresentation):
    """Sampled ping-pong: images of every other cap boundary land in the target."""
    for w in G.word_tree.level(1):
        s, g = w.letters[0], w.map
        target = G.letter_target_cap(s)
        source = G.letter_source_cap(s)
        for cap in G.ball_caps:
            if cap is source:
                continue
            bd = cap.boundary_points(count=8)
            img = mobius.sphere_action_rows(g, bd)
            if not target.contains(img, slack=1e-9).all():
                raise BadSchottkyConfiguration(
                    "ping-pong violation: a defining cap does not map into "
                    "its partner"
                )


def make_cyclic(g: MobiusMap) -> GroupPresentation:
    return GroupPresentation(n=g.n, generators=(g,), tag=TAG_CYCLIC)
