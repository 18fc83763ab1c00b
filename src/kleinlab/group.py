"""Finitely generated Kleinian groups as data.

Every presentation carries one WordTree, the only walker of its reduced
words: each length is one WordLevel of arrays (parent row, last letter and
the stacked fields of the maps, composed once per level in a fixed order),
the nested caps of schottky words, and the deduplicated enumeration built
on those levels. Word is a view of one row. On top of it: a least-squares
estimator for the critical exponent, displacements, a word budget, and safe
constructors for Schottky and elementary cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mobius
from .caps import (CapDegenerate, SphericalCap, cap_images, cap_to_euclidean_ball,
                   caps_disjoint)
from .geom import BallPoint, embed_rows
from .mobius import MobiusMap, compose, inverse

TAG_SCHOTTKY = "schottky"
TAG_CYCLIC = "elementary-cyclic"
TAG_CUSTOM = "custom"


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
    the interior of cap 2i+1 (0-based pair layout). A schottky presentation
    is checked here: its caps are pairwise disjoint and pass the sampled
    ping-pong test, so it presents a free group and its reduced words are
    distinct elements.
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
            _check_ping_pong(self)
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


# A word holds 8 (n^2 + 2n + 6) bytes of level arrays (112 for n = 2), and
# dimension --depth 9 on the reference file (39,365 words) peaks at 50 MB
# of RSS. Deduplication, which every presentation but a schottky one runs,
# costs far more on strongly contracting groups, whose candidate pairs grow
# faster than the words: the reference generators as a custom presentation
# peak at 200 MB for the exponent at depth 9 against 44 MB at depth 7,
# about 4.5 kB a word. 2^16 words keep a run below ~0.5 GB.
MAX_WORDS = 2**16


class WordBudgetExceeded(RuntimeError):
    """A requested depth holds more reduced words than MAX_WORDS."""


def word_count(rank: int, max_len: int) -> int:
    """Reduced words of length <= max_len: k (k - 1)^(d - 1) of each length
    d >= 1, k = 2 rank; past length 64 (over 2^64 words) taken at 64."""
    k = 2 * rank
    if k <= 2:
        return 1 + k * max_len
    return 1 + k * ((k - 1) ** min(max_len, 64) - 1) // (k - 2)


def _take(fields, rows) -> tuple[np.ndarray, ...]:
    return tuple(f[rows] for f in fields)


class Word:
    """Row `row` of a WordLevel: letters walks the parent rows, and map is
    built when first read."""

    def __init__(self, level: WordLevel, row: int):
        self.level, self.row = level, row

    def __len__(self):
        return self.level.depth

    @property
    def letters(self) -> tuple[int, ...]:
        out, lv, i = [], self.level, self.row
        while lv.up is not None:
            out.append(int(lv.letter[i]))
            lv, i = lv.up, int(lv.parent[i])
        return tuple(out[::-1])

    @cached_property
    def map(self) -> MobiusMap:
        return mobius.map_row(self.level.fields, self.row)


class WordLevel:
    """Reduced words of one length as arrays.

    Row i is the word of row parent[i] of the level `up` followed by the
    letter letter[i] (+j for g_j, -j for its inverse); fields holds the
    stacked (eps, a, r, A, b) of the rows' maps. Indexing and iteration give
    Word views, made once per level.
    """

    def __init__(self, up: WordLevel | None, parent: np.ndarray,
                 letter: np.ndarray, fields: tuple[np.ndarray, ...]):
        self.up, self.parent, self.letter, self.fields = up, parent, letter, fields
        self.depth = 0 if up is None else up.depth + 1

    def __len__(self):
        return len(self.letter)

    @cached_property
    def words(self) -> list[Word]:
        return [Word(self, i) for i in range(len(self))]

    def __getitem__(self, i) -> Word:
        return self.words[i]

    def __iter__(self):
        return iter(self.words)


class _MapDeduper:
    """Near-duplicate detection for stacks of maps, one level at a time.

    The forward fingerprint of g holds the images g(p) of three fixed probes,
    embedded on S^n side by side, from one lift per probe. It is keyed on
    two grids of cell 1e-8, the second shifted by half a cell; earlier maps
    with the same key in either grid are the candidates. A duplicate whose
    coordinates split across the grids is missed and kept as a new word.

    A candidate pair (g, h) is confirmed, by compose(g^-1, h) within 1e-8 of
    the identity, only when the inverse fingerprints g^-1(p) and h^-1(p)
    agree within 1e-6 in every coordinate. That is necessary: g^-1 h within
    1e-8 of the identity is affine with |r - 1|, A - I and b below 1e-8, so
    its inverse moves every point chordally by at most (1 + n + 2 sqrt(n))
    1e-8 to first order. The factor 100 leaves room for n up to 80.

    Deep words contract the sphere far below 1e-8, so words sharing a prefix
    share forward keys and words sharing a suffix inverse fingerprints:
    either test alone passes pairs quadratic in the level. A map is filed
    under a hash of its grid, forward key and the 1e-6 cell of the first
    inverse coordinate, and looked up in that cell and its two neighbours;
    keys and gaps are then tested in full, which removes hash collisions.

    add() records every map of a stack and returns which are kept: a map is
    dropped when it matches a kept map of an earlier stack or an earlier
    kept row of its own. The candidates are confirmed in batched
    compositions of up to 2^16 pairs; confirmed counts them.
    """

    tol = 1e-8

    def __init__(self, n: int):
        rng = np.random.default_rng(2718281828)
        self._probes = rng.normal(0.0, 1.0, (3, n))
        self.confirmed = 0
        self._buckets: dict[int, list[int]] = {}
        # every map recorded, kept or not: fields, inverse fingerprints and
        # the forward keys of both grids
        self._fields = _take(mobius.stack_fields([mobius.identity(n)]), slice(0))
        self._inverse_fps = np.empty((0, 3 * (n + 1)))
        self._keys = np.empty((2, 0, 3 * (n + 1)), dtype=np.int64)
        self._kept = np.empty(0, dtype=bool)

    def _fingerprints(self, fields) -> np.ndarray:
        """The embedded probe images side by side; a pole maps to the north pole."""
        n = self._probes.shape[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Y = np.stack([mobius._lift(fields, p, 0.0)[0] for p in self._probes],
                         axis=1)
            out = embed_rows(Y.reshape(-1, n))
        out[~np.isfinite(out).all(axis=1)] = np.eye(n + 1)[-1]
        return out.reshape(len(Y), 3 * (n + 1))

    def add(self, fields) -> np.ndarray:
        """Keep mask of the stacked maps, in order."""
        N, m = len(fields[0]), len(self._kept)
        fp = self._fingerprints(fields)
        inv = self._fingerprints(mobius.inverse_rows(fields))
        keys = np.stack([np.floor(fp / self.tol + shift)
                         for shift in (0.0, 0.5)]).astype(np.int64)
        self._inverse_fps = np.concatenate([self._inverse_fps, inv])
        self._keys = np.concatenate([self._keys, keys], axis=1)
        self._fields = tuple(np.concatenate(f) for f in zip(self._fields, fields))
        cells, keys = np.floor(inv[:, 0] / 1e-6).astype(int).tolist(), keys.tolist()
        pi: list[int] = []
        pj: list[int] = []
        for r in range(N):
            found: set[int] = set()
            for grid in (0, 1):
                key = keys[grid][r]
                for cell in (cells[r] - 1, cells[r] + 1):
                    found.update(self._buckets.get(hash((grid, cell, *key)), ()))
                bucket = self._buckets.setdefault(hash((grid, cells[r], *key)), [])
                found.update(bucket)
                bucket.append(m + r)
            pi += [m + r] * len(found)
            pj += found
        i, j = np.array(pi, dtype=np.intp), np.array(pj, dtype=np.intp)
        k = self._keys
        cand = ((k[0, i] == k[0, j]).all(axis=1) | (k[1, i] == k[1, j]).all(axis=1))
        cand &= np.abs(self._inverse_fps[i] - self._inverse_fps[j]).max(axis=1) <= 1e-6
        i, j = i[cand], j[cand]
        same = np.concatenate([np.zeros(0, dtype=bool)] + [
            mobius.is_identity_rows(mobius.compose_rows(
                mobius.inverse_rows(_take(self._fields, j[lo:lo + 2**16])),
                _take(self._fields, i[lo:lo + 2**16])), tol=self.tol)
            for lo in range(0, i.size, 2**16)])  # bounds the temporaries
        self.confirmed += i.size
        self._kept = np.concatenate([self._kept, np.ones(N, dtype=bool)])
        for row, other in zip(i[same], j[same]):  # rows ascend
            self._kept[row] &= not self._kept[other]
        return self._kept[m:].copy()


class WordTree:
    """The freely reduced words of a presentation, built level by level.

    Level d is a WordLevel holding every reduced word of length d: the
    children of the rows of level d - 1 in their order, each row's children
    in the alphabet order g1, g1^-1, g2, g2^-1, ... without the letter that
    would cancel. Its maps come from one compose_rows call on its parents'
    rows and the letters and are kept, so every caller reads the same bits.
    A level is built when first asked for, with the levels below it. A
    request past MAX_WORDS words raises WordBudgetExceeded before anything
    is composed.

    elements() is the deduplicated enumeration behind enumerate_elements.
    A schottky presentation is free (GroupPresentation checks its ping-pong),
    so its elements are the level() words themselves and no deduper runs.
    Other presentations pass each level through a _MapDeduper. While it has
    dropped no word, which holds for every free presentation, the levels
    are the level() arrays themselves; after the first dropped word, each
    later length is composed from the kept rows of the one before, and
    these pruned levels stay out of level(). The elements up to length d
    are the enumeration at depth d.
    """

    def __init__(self, G: GroupPresentation):
        self.G = G
        self._alphabet = np.array(
            [s for i in range(1, G.rank + 1) for s in (i, -i)], dtype=np.int64)
        self._letter_fields = mobius.stack_fields(
            [G.letter(int(s)) for s in self._alphabet])
        self._levels = [WordLevel(None, np.zeros(1, np.intp),
                                  np.zeros(1, np.int64),
                                  mobius.stack_fields([mobius.identity(G.n)]))]
        self._caps: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._targets: tuple | None = None  # per letter: probes, center, theta
        # _kept[d] holds the kept words of length d
        self._kept, self._pruned = [self._levels[0]], False
        self._elements = list(self._levels[0])
        self._dedup: _MapDeduper | None = None

    def _check_budget(self, d: int):
        count = word_count(self.G.rank, d)
        if count > MAX_WORDS:
            raise WordBudgetExceeded(f"depth {d} holds {count} reduced words, "
                                     f"over the budget of {MAX_WORDS}")

    def _children(self, lv: WordLevel) -> tuple[np.ndarray, np.ndarray]:
        """(parent row, alphabet index) of each reduced one-letter extension."""
        k = len(self._alphabet)
        parent = np.repeat(np.arange(len(lv)), k)
        slot = np.tile(np.arange(k), len(lv))
        keep = self._alphabet[slot] != -lv.letter[parent]
        return parent[keep], slot[keep]

    def _grow(self, lv: WordLevel) -> WordLevel:
        parent, slot = self._children(lv)
        fields = mobius.compose_rows(_take(lv.fields, parent),
                                     _take(self._letter_fields, slot))
        return WordLevel(lv, parent, self._alphabet[slot], fields)

    def level(self, d: int) -> WordLevel:
        """Every reduced word of length d, not deduplicated (shared)."""
        if d < 0:
            raise ValueError("level must be >= 0")
        self._check_budget(d)
        while len(self._levels) <= d:
            self._levels.append(self._grow(self._levels[-1]))
        return self._levels[d]

    def nested_caps(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, thetas, points) of the words of level d >= 1, schottky only.

        The nested cap of the word w s is the image of G.letter_target_cap(s)
        under w.map, and its point the image of that cap's center. The rows
        of level d - 1, the only level composed for it, map the n+1 probes
        and the center of each child's target cap, and the level is fitted,
        in one cap_images call.
        """
        if d not in self._caps:
            self._check_budget(d)
            if self._targets is None:
                caps = [self.G.letter_target_cap(int(s)) for s in self._alphabet]
                self._targets = (np.stack([c.boundary_points() for c in caps]),
                                 np.array([c.center for c in caps]),
                                 np.array([c.theta for c in caps]))
            up = self.level(d - 1)
            parent, slot = self._children(up)
            boundary, centers, thetas = (t[slot] for t in self._targets)
            centers, thetas, valid, probes = cap_images(
                _take(up.fields, parent), boundary, centers, thetas)
            if not valid.all():
                raise CapDegenerate("a nested cap is degenerate or covers a hemisphere")
            self._caps[d] = (centers, thetas, probes[:, -1].copy())
        return self._caps[d]

    def elements(self, max_len: int) -> list[Word]:
        """Distinct elements of word length <= max_len (see enumerate_elements)."""
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        self._check_budget(max_len)
        while len(self._kept) <= max_len:
            self._extend()
        return self._elements[:sum(map(len, self._kept[:max_len + 1]))]

    def element_fields(self, max_len: int) -> tuple[np.ndarray, ...]:
        """Stacked fields of elements(max_len), in the same order."""
        self.elements(max_len)
        return tuple(np.concatenate(f) for f in
                     zip(*(lv.fields for lv in self._kept[:max_len + 1])))

    def _extend(self):
        if self._pruned:
            level = self._grow(self._kept[-1])
        else:
            level = self.level(len(self._kept))
        if self.G.tag != TAG_SCHOTTKY:
            if self._dedup is None:
                self._dedup = _MapDeduper(self.G.n)
                self._dedup.add(self._levels[0].fields)
            keep = self._dedup.add(level.fields)
            if not keep.all():
                level = WordLevel(level.up, level.parent[keep],
                                  level.letter[keep], _take(level.fields, keep))
                self._pruned = True
        self._kept.append(level)
        self._elements.extend(level)


def enumerate_elements(G: GroupPresentation, max_len: int) -> list[Word]:
    """All distinct elements of word length <= max_len, from G.word_tree.

    Deterministic order: by length, then in the order of WordTree levels
    (lexicographic in the alphabet g1, g1^-1, g2, g2^-1, ... over the kept
    words). Duplicate evaluations are dropped; a schottky presentation is
    free, so its enumeration is every reduced word, with no deduplication.
    The list is fresh; the words in it are shared with the tree. The
    enumeration at depth d is the first part of any deeper one.
    """
    return G.word_tree.elements(max_len)


def element_displacements(G: GroupPresentation, max_len: int
                          ) -> tuple[list[Word], np.ndarray]:
    """Words up to max_len with the displacement rho(0, gamma 0) of each."""
    words = enumerate_elements(G, max_len)
    origin = np.zeros(G.n + 1)
    return words, mobius.orbit_distances(G.word_tree.element_fields(max_len),
                                         origin, origin)


def _truncation_horizon(words: list[Word], ds: np.ndarray, max_len: int) -> float:
    full = np.array([len(w) == max_len for w in words])
    if not full.any():
        return float("inf") if max_len == 0 else 0.0
    return float(ds[full].min())


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
    return float(mobius.orbit_distances(mobius.stack_fields([g]), x.vec,
                                        x.vec)[0])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_schottky(ball_pairs: list[tuple[SphericalCap, SphericalCap]]
                  ) -> GroupPresentation:
    """Schottky group from pairwise disjoint cap pairs.

    Generator i is inversion in the stereographic image of the source cap
    followed by the similarity taking that ball onto the target ball, so it
    maps the exterior of the source cap onto the interior of the target cap.
    GroupPresentation checks that the caps are disjoint and play ping-pong.
    """
    caps_flat = [cap for pair in ball_pairs for cap in pair]
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
    return GroupPresentation(
        n=n, generators=tuple(gens), tag=TAG_SCHOTTKY, ball_caps=tuple(caps_flat)
    )


def _check_ping_pong(G: GroupPresentation):
    """Sampled ping-pong: images of every other cap boundary land in the target."""
    for s in (t for i in range(1, G.rank + 1) for t in (i, -i)):
        g = G.letter(s)
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
