"""Finitely generated Kleinian groups as data.

Every presentation carries one WordTree, the only walker of its reduced
words: each length is one WordLevel of arrays (parent row, last letter and
the stacked fields of the maps, composed once per level in a fixed order),
the nested caps of schottky words, and the enumeration of distinct elements
read off those levels: every word of a schottky presentation, the powers of
a cyclic one up to its order. Word is a view of one row. On top of it: a
least-squares estimator for the critical exponent, displacements, a word
budget, and safe constructors for Schottky and elementary cyclic groups.
A custom presentation is checked but not enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mobius
from .caps import (CapDegenerate, CapStack, SphericalCap, cap_images,
                   cap_to_euclidean_ball, caps_disjoint)
from .geom import BallPoint, angle_from_chord
from .mobius import MobiusMap, compose, inverse

TAG_SCHOTTKY = "schottky"
TAG_CYCLIC = "elementary-cyclic"
TAG_CUSTOM = "custom"


class BadSchottkyConfiguration(ValueError):
    """Defining balls overlap, touch, or reach the north pole."""


class InsufficientRange(RuntimeError):
    """Too few usable radii for the growth-rate fit."""


@dataclass(frozen=True)
class GroupPresentation:
    """Ordered generators of a discrete conformal group, plus provenance.

    ball_caps holds the 2k defining caps of a schottky presentation in source,
    target order per generator: generator i maps the exterior of cap 2i onto
    the interior of cap 2i+1 (0-based pair layout). A schottky presentation
    is checked here: its caps are pairwise disjoint and pass the ping-pong
    check, so it presents a free group and its reduced words are distinct
    elements.
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
# of RSS; depth 10 (118,097 words) is over the budget.
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

    def child_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in rows, row of this level) of every child of the rows
        of `up`; WordTree._grow lays each word's children out contiguously,
        the same count for every word."""
        c = len(self) // len(self.up)
        pos = np.repeat(np.arange(len(rows)), c)
        return pos, rows[pos] * c + np.tile(np.arange(c), len(rows))


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

    elements() is the enumeration behind enumerate_elements, read off the
    levels without composing anything past them. A schottky presentation is
    free (GroupPresentation checks its ping-pong), so its elements are every
    level() word. A cyclic one's level d is (g^d, g^-d); these are all
    distinct unless g has finite order m, found as the first power g^(2d-1)
    or g^(2d) within 1e-8 of the identity, each composed from the first rows
    of levels d - 1 and d as level d is reached. Then the elements are g^d
    for 2d <= m and g^-d for 2d < m, and no deeper level is built. A custom
    presentation has no enumeration: elements() raises ValueError.
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
        self._targets: CapStack | None = None  # the target cap of each letter
        # cyclic only: the last level whose powers were tested, and the order
        self._tested, self._order = 0, None

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
        of level d - 1, the only level composed for it, map each child's
        target cap and its center in one closed-form cap_images call.
        """
        if d not in self._caps:
            self._check_budget(d)
            if self._targets is None:
                self._targets = CapStack.of(
                    [self.G.letter_target_cap(int(s)) for s in self._alphabet],
                    self.G.n + 1)
            up = self.level(d - 1)
            parent, slot = self._children(up)
            centers, thetas, valid, points = cap_images(
                _take(up.fields, parent), self._targets.centers[slot],
                self._targets.thetas[slot])
            if not valid.all():
                raise CapDegenerate("a nested cap is degenerate or covers a hemisphere")
            self._caps[d] = (centers, thetas, points)
        return self._caps[d]

    def elements(self, max_len: int) -> list[Word]:
        """Distinct elements of word length <= max_len (see enumerate_elements)."""
        return [w for lv, k in self._element_rows(max_len) for w in lv.words[:k]]

    def element_fields(self, max_len: int) -> tuple[np.ndarray, ...]:
        """Stacked fields of elements(max_len), in the same order."""
        return tuple(np.concatenate(f) for f in zip(
            *(_take(lv.fields, slice(k)) for lv, k in self._element_rows(max_len))))

    def _element_rows(self, max_len: int) -> list[tuple[WordLevel, int]]:
        """(level d, count of its first rows that are elements) for each
        length d <= max_len that holds an element."""
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        if self.G.tag not in (TAG_SCHOTTKY, TAG_CYCLIC):
            raise ValueError("a custom presentation is validate-only: its "
                             "elements are not enumerated")
        self._check_budget(max_len)
        if self.G.tag == TAG_SCHOTTKY:
            return [(lv, len(lv)) for lv in map(self.level, range(max_len + 1))]
        while self._order is None and self._tested < max_len:
            d = self._tested = self._tested + 1
            up, lv = self.level(d - 1), self.level(d)
            inner = tuple(np.concatenate([f[:1], g[:1]])
                          for f, g in zip(up.fields, lv.fields))
            powers = mobius.compose_rows(_take(lv.fields, [0, 0]), inner)
            found = np.flatnonzero(mobius.is_identity_rows(powers, tol=1e-8))
            if found.size:
                self._order = 2 * d - 1 + int(found[0])
        m = self._order or float("inf")
        return [(self.level(d), 1 + (0 < 2 * d < m)) for d in range(max_len + 1)
                if 2 * d <= m]


def enumerate_elements(G: GroupPresentation, max_len: int) -> list[Word]:
    """All distinct elements of word length <= max_len, from G.word_tree.

    Deterministic order: by length, then in the order of WordTree levels
    (lexicographic in the alphabet g1, g1^-1, g2, g2^-1, ...). A schottky
    presentation is free, so its enumeration is every reduced word; a cyclic
    one stops at the order of its generator; a custom one raises ValueError.
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
    """Displacement of the cheapest word of length max_len, below which N(R)
    is exact; inf when no element has that length (a finite cyclic group's
    enumeration ends before it), as the count is then exact at every radius."""
    full = np.array([len(w) == max_len for w in words])
    if not full.any():
        return float("inf")
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


def critical_exponent(G: GroupPresentation, max_len: int) -> FitResult:
    """Growth rate of log N(R) in R, fit by least squares over the reliable window.

    Radii below the 10th orbit point and above the truncation horizon (by
    more than a relative 1e-12) are discarded. Elementary cyclic groups
    return 0 by definition of the exponent for linear orbit growth; the fit
    is still run for diagnostics when the window holds 5 radii, and skipped
    (fit_slope None) when not.
    """
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

    The pairing is a convention of the chart, not of the caps: the balls are
    the images in the stereographic chart from the north pole, and the
    similarity has A = I. Rotating every cap center therefore gives a group
    that is not conjugate to the first. For two random rotations of the
    reference caps the level-(6,7) pressure zeros read 0.198752 and
    0.198507, against 0.198794, where a conjugation keeps that zero.
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
    """Ping-pong: each letter maps every cap but its source into its target.

    The image of each such cap comes from one closed-form cap_images call
    and must lie inside the target cap: angle(image center, target center)
    + image radius <= target radius + 1e-9. Caps are convex, so this is the hypothesis of
    the ping-pong lemma in any dimension, not a sample of it.
    """
    pairs = [(s, c) for i in range(1, G.rank + 1) for s in (i, -i)
             for c in G.ball_caps if c is not G.letter_source_cap(s)]
    src = CapStack.of([c for _, c in pairs], G.n + 1)
    target = CapStack.of([G.letter_target_cap(s) for s, _ in pairs], G.n + 1)
    nu, theta, valid, _ = cap_images(
        mobius.stack_fields([G.letter(s) for s, _ in pairs]), src.centers,
        src.thetas)
    gap = angle_from_chord(np.linalg.norm(nu - target.centers, axis=1))
    if not np.all(valid & (gap + theta <= target.thetas + 1e-9)):
        raise BadSchottkyConfiguration(
            "ping-pong violation: a defining cap does not map into its partner"
        )


def make_cyclic(g: MobiusMap) -> GroupPresentation:
    return GroupPresentation(n=g.n, generators=(g,), tag=TAG_CYCLIC)
