"""Hyperbolic Poisson extension, Green's functions, flux and measure identities.

The Poisson kernel is k(x, y) = (1 - |x|^2)/|x - y|^2; k^n against normalized
surface measure is the harmonic measure of the ball seen from x, which is also
the pushforward of the uniform measure under any ball isometry sending 0 to x.
That pushforward gives an exact importance sampler, so indicator extensions
are unbiased sample means with kernel-free weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import Callable

import numpy as np

from . import geom
from .geom import BallPoint, ball_gauge, normalize_rows, uniform_sphere_blocks
from .group import GroupPresentation
from .limitset import LimitSetCloud


class GreenPole(ValueError):
    """Green's function evaluated on the diagonal (or an orbit collision)."""


class CloudTooCoarse(RuntimeError):
    """Indeterminate boundary fraction too large for a meaningful estimate."""


# ---------------------------------------------------------------------------
# boundary indicators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryIndicator:
    """Pointwise-decidable membership test on S^n.

    classify maps unit rows to two boolean arrays, (member, indeterminate).
    indeterminate flags rows whose membership the indicator cannot certify,
    e.g. points inside the resolution band of a sampled limit set; those
    rows are not members. Indicators decidable everywhere flag no row.
    """

    kind: str
    classify: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def hemisphere(axis: np.ndarray) -> BoundaryIndicator:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)

    def classify(U):
        member = np.atleast_2d(U) @ axis >= 0.0
        return member, np.zeros_like(member)

    return BoundaryIndicator(kind="hemisphere", classify=classify)


def cloud_complement(L: LimitSetCloud) -> BoundaryIndicator:
    """Indicator of the domain of discontinuity, up to the resolution band.

    A row is indeterminate when its chordal distance to the nearest sample
    is at most the band (the certified resolution, 0 without one) and a
    member otherwise, as the upper distance of limitset.dist_rows(U, L)
    would decide: a row is indeterminate exactly when some sample p in its
    sweep window has sqrt(sum((u - p)^2)) <= band. The sweep's screen,
    built once here, passes on only the rows that lie, on every coordinate
    axis, in a cell next to a sample's, a superset of those within the
    band, so the flags are those of the whole sweep; the other rows cost a
    few gathers each, wherever the block was drawn from. The rows it
    passes go through the sweep geom.ROW_BLOCK at a time, so a block that
    nearly all passes, as one with a wide band does, holds the sweep's
    work arrays for ROW_BLOCK rows, not for the block.
    """
    band = L.resolution or 0.0
    near = L.sweep.screen(band)

    def classify(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        indet = np.zeros(U.shape[0], dtype=bool)
        passed = np.flatnonzero(near(U))
        for start in range(0, passed.size, geom.ROW_BLOCK):
            rows = passed[start:start + geom.ROW_BLOCK]
            for i, _, d2 in L.sweep.pairs(U[rows], band):
                indet[rows[i[np.sqrt(d2) <= band]]] = True
        return ~indet, indet

    return BoundaryIndicator(kind="complement-of-cloud", classify=classify)


# ---------------------------------------------------------------------------
# harmonic extension
# ---------------------------------------------------------------------------

def boundary_shift_rows(x: BallPoint, Z: np.ndarray) -> np.ndarray:
    """Boundary action of the ball isometry sending 0 to x, on unit rows.

    Restriction of the Mobius gyro-translation to |z| = 1; pushes the uniform
    measure forward to the harmonic measure seen from x. The affine part
    ((2 + 2 z.x) x + (1 - |x|^2) z) / (1 + 2 z.x + |x|^2) is formed one
    coordinate column at a time, with no N x (n+1) temporaries; each entry
    takes the same operations in the same order, so the same bits. At the
    centre the isometry is the identity, and Z itself is returned.
    """
    Z = np.atleast_2d(Z)
    xv = x.vec
    if not xv.any():
        return Z
    x2 = float(xv @ xv)
    dots = Z @ xv
    denom = 1.0 + 2.0 * dots + x2
    a = 2.0 + 2.0 * dots
    out = np.empty(Z.shape)
    for k in range(Z.shape[1]):
        col = out[:, k]
        np.multiply(a, xv[k], out=col)
        col += (1.0 - x2) * Z[:, k]
        col /= denom
    return normalize_rows(out)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    indeterminate_fraction: float = 0.0


def harmonic_extension(chi: BoundaryIndicator, x: BallPoint, n_samples: int,
                       seed: int = 0) -> MCEstimate:
    """u(x): harmonic measure of the indicator set, by exact importance sampling.

    Uniform sphere samples pushed through the ball isometry 0 -> x land with
    the harmonic measure of x, so the estimator is the plain mean of the
    indicator; indeterminate rows count toward the reported fraction and are
    scored as outside.
    """
    return _indicator_mean(chi, x.vec.size - 1, n_samples, seed, shift=x)


def _indicator_mean(chi: BoundaryIndicator, n: int, n_samples: int, seed: int,
                    shift: BallPoint | None = None) -> MCEstimate:
    """Mean of the indicator over uniform samples of S^n, each pushed through
    boundary_shift_rows(shift, .) when a shift is given.

    The samples are drawn, shifted and classified SAMPLE_BLOCK at a time and
    only two counts are kept, of members and of indeterminate rows, so the
    memory does not grow with n_samples. Every row's flags are the same in
    any block, so the counts are too; the mean and fraction are the counts
    over n_samples, as NumPy's mean of the flags gives them, and the stderr
    is bernoulli_stderr of the member count.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    hits = indet = 0
    for _, Z in uniform_sphere_blocks(rng, n, n_samples):
        member, undecided = chi.classify(Z if shift is None
                                         else boundary_shift_rows(shift, Z))
        hits += int(np.count_nonzero(member))
        indet += int(np.count_nonzero(undecided))
    return MCEstimate(value=hits / n_samples,
                      stderr=bernoulli_stderr(hits, n_samples),
                      samples=n_samples,
                      indeterminate_fraction=indet / n_samples)


def bernoulli_stderr(k: int, N: int) -> float:
    """Standard error of the mean of N flags of which k are set: the ddof=1
    deviation sqrt(k (N - k) / (N (N - 1))) over sqrt(N), from one correctly
    rounded quotient of integers and one square root (within 2 ulp of NumPy's
    std(ddof=1) / sqrt(N) of the flags); exactly 0 at k = 0 or k = N, and
    0 for one sample."""
    return sqrt(k * (N - k) / (N * N * (N - 1))) if N > 1 else 0.0


# ---------------------------------------------------------------------------
# Green's function on the ball
# ---------------------------------------------------------------------------

def _green_antiderivative(n: int, t: np.ndarray) -> np.ndarray:
    """Antiderivative of (1 - t^2)^{n-1} / t^n via the binomial expansion."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for k in range(n):
        c = comb(n - 1, k) * (-1.0) ** k
        p = 2 * k - n
        if p == -1:
            out = out + c * np.log(t)
        else:
            out = out + c * t ** (p + 1) / (p + 1)
    return out


def green_gauge(n: int, s) -> np.ndarray:
    """g as a function of the gauge s = tanh(rho/2), for the ball over S^n."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise GreenPole("gauge reached zero: coincident points")
    return _green_antiderivative(n, np.ones_like(s)) - _green_antiderivative(n, s)


def green_ball(x: BallPoint, y: BallPoint) -> float:
    """Green's function of the hyperbolic ball at (x, y), symmetric in x, y."""
    s = ball_gauge(x, y)
    if s <= 0.0:
        raise GreenPole("green_ball evaluated on the diagonal")
    return float(green_gauge(x.vec.size - 1, s))


# ---------------------------------------------------------------------------
# flux density and the measure identity
# ---------------------------------------------------------------------------

def flux_density_check(n: int, radii=(0.3, 0.5, 0.7)) -> dict:
    """Radial flux density of g(0, .) against the two readings of the measure.

    The hyperbolic normal derivative of g at |y| = r is (1-r^2)^n / (2 r^n)
    inward; multiplied by the hyperbolic area element it gives the constant
    density 2^{n-1} per unit of Euclidean boundary-sphere measure, while the
    unit-sphere reading leaves a residual r^n. The constant-in-r reading is
    reported as selected. g(0, .) is radial, so one central difference per
    radius, of step 1e-6, cross-checks the closed-form derivative.
    """
    step = 1e-6
    report: dict = {"n": n, "radii": list(radii)}
    ratios_unit = []
    ratios_bdry = []
    fd_errs = []
    for r in radii:
        minus_dgdn = (1.0 - r * r) ** n / (2.0 * r**n)
        hyp_area_scale = (2.0 / (1.0 - r * r)) ** n * r**n  # d sigma / d omega_unit
        measured = minus_dgdn * hyp_area_scale  # = 2^{n-1}, per unit sphere
        ratios_unit.append(measured / (2.0 ** (n - 1) / r**n))
        ratios_bdry.append(measured / (2.0 ** (n - 1) / r**n * r**n))
        radial = (green_gauge(n, r + step) - green_gauge(n, r - step)
                  ) / (2 * step)
        fd = -(1.0 - r * r) / 2.0 * radial
        fd_errs.append(float(abs(fd - minus_dgdn) / minus_dgdn))
    report["ratio_unit_sphere_measure"] = ratios_unit
    report["ratio_boundary_sphere_measure"] = ratios_bdry
    report["fd_relative_error"] = fd_errs
    spread_unit = max(ratios_unit) - min(ratios_unit)
    spread_bdry = max(ratios_bdry) - min(ratios_bdry)
    report["selected_convention"] = (
        "boundary-sphere-measure" if spread_bdry < spread_unit else
        "unit-sphere-measure"
    )
    report["constant_density"] = 2.0 ** (n - 1)
    return report


def harmonic_measure_identity(G: GroupPresentation, L: LimitSetCloud,
                              n_samples: int, seed: int = 0) -> dict:
    """u(0) for the domain indicator against the direct area fraction.

    Two Monte-Carlo estimates of the same quantity (the visual measure of the
    domain of discontinuity from the ball center); they must agree within
    combined uncertainty plus the indeterminate fraction.
    """
    chi = cloud_complement(L)
    origin = BallPoint(np.zeros(L.points.shape[1]))
    u0 = harmonic_extension(chi, origin, n_samples, seed=seed)
    area = _indicator_mean(chi, L.n, n_samples, seed + 1)
    worst_indet = max(u0.indeterminate_fraction, area.indeterminate_fraction)
    if worst_indet > 0.10:
        raise CloudTooCoarse(
            f"indeterminate fraction {worst_indet:.3f} exceeds 10%"
        )
    gap = abs(u0.value - area.value)
    budget = 3.0 * (u0.stderr + area.stderr) + worst_indet
    return {
        "u_origin": u0,
        "area_fraction": area,
        "gap": gap,
        "budget": budget,
        "agree": bool(gap <= budget),
    }
