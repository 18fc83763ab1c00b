"""Standard conformal cusp ends: the horn metric and its identities.

A cusp end of rank m inside dimension n is (R^m minus a ball of radius R)
times a compact flat factor K, carrying the metric |x|^{-2} (|dx|^2 + |dy|^2).
Relative to the flat metric the conformal factor is 1/|x|; relative to the
round metric it is (1 + |x|^2 + |y|^2) / (2 |x|), which gives the exact
product identity q(p, inf) e^{u(p)} = sqrt(1 + |x|^2 + |y|^2) / |x|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import sphere_area


class SingularStencil(ValueError):
    """Finite-difference stencil would cross the singular locus x = 0."""


@dataclass(frozen=True)
class CuspEnd:
    """Parameters of a standard conformal cusp end.

    n is the total dimension, m the rank of the horn directions (m <= n-1 so
    the volume integral converges), R the truncation radius, and the lattice
    basis spans the translational part of the stabilizer acting on the
    compact factor K = R^{n-m} / lattice.
    """

    n: int
    m: int
    R: float
    lattice_basis: np.ndarray
    vol_K: float | None = None

    def __post_init__(self):
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"rank m={self.m} outside [1, n-1] for n={self.n}")
        if self.R <= 0:
            raise ValueError("truncation radius must be positive")
        basis = np.asarray(self.lattice_basis, dtype=float).reshape(
            self.n - self.m, self.n - self.m
        )
        object.__setattr__(self, "lattice_basis", basis)
        det = abs(np.linalg.det(basis))
        if det <= 0:
            raise ValueError("lattice basis is singular")
        if self.vol_K is None:
            object.__setattr__(self, "vol_K", det)
        elif self.vol_K <= 0:
            raise ValueError("vol_K must be positive")

    def split(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = np.asarray(p, dtype=float).reshape(self.n)
        return p[: self.m], p[self.m:]


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------

def gh_factor_flat(x: np.ndarray) -> float:
    """Conformal factor of the horn metric against the flat metric: 1/|x|."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r == 0.0:
        raise ValueError("horn factor undefined at x = 0")
    return 1.0 / r


def gh_factor(x: np.ndarray, y: np.ndarray) -> float:
    """Conformal factor of the horn metric against the round metric.

    e^u = (1 + |x|^2 + |y|^2) / (2 |x|), so that q(p, inf) e^u equals
    sqrt(1 + |x|^2 + |y|^2) / |x| exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("horn factor undefined at x = 0")
    s = 1.0 + float(x @ x) + float(y @ y)
    return s / (2.0 * r)


def gh_product_identity(x: np.ndarray, y: np.ndarray) -> float:
    """q(p, inf) e^{u(p)}; equals sqrt(1+|x|^2+|y|^2)/|x| by construction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = 2.0 / np.sqrt(1.0 + float(x @ x) + float(y @ y))
    return q * gh_factor(x, y)


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def cusp_volume(end: CuspEnd) -> float:
    """Closed-form horn volume vol(K) / ((n-m) R^{n-m})."""
    return end.vol_K / ((end.n - end.m) * end.R ** (end.n - end.m))


def cusp_volume_mc(end: CuspEnd, samples: int, seed: int = 0
                   ) -> tuple[float, float]:
    """Monte-Carlo horn volume with a mismatched Pareto radial proposal.

    Importance-samples the radial coordinate with tail index (n-m)/2 (half
    the true decay), so the estimator carries genuine variance and acts as an
    independent quadrature check of the closed form.
    """
    rng = np.random.default_rng(seed)
    n, m, R = end.n, end.m, end.R
    beta = (n - m) / 2.0
    u = rng.uniform(size=samples)
    t = R * u ** (-1.0 / beta)  # Pareto(beta) on [R, inf)
    density = beta * R**beta * t ** (-beta - 1.0)
    integrand = t ** (m - 1 - n)
    weights = integrand / density
    shell = sphere_area(m - 1)
    vals = end.vol_K * shell * weights
    est = float(vals.mean())
    err = float(vals.std(ddof=1) / np.sqrt(samples))
    return est, err


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def horn_scalar_curvature(p: np.ndarray, m: int) -> float:
    """Scalar curvature of |x|^{-2} (flat) at p, by finite differences.

    Uses the conformal formula R = e^{-2w} (-2(n-1) lap w - (n-1)(n-2)
    |grad w|^2) for g = e^{2w} g_flat with w = -ln|x|, with a second-order
    stencil of step 1e-4 |x| per coordinate. The convention normalizes the
    round S^n to scalar curvature n(n-1).
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    x = p[:m]
    r = float(np.linalg.norm(x))
    h = 1e-4 * r
    if r <= np.sqrt(m) * 2 * h or r == 0.0:
        raise SingularStencil("stencil would cross x = 0")

    def w(q):
        return -np.log(np.linalg.norm(q[:m]))

    w0 = w(p)
    grad = np.zeros(n)
    lap = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        wp, wm = w(p + e), w(p - e)
        grad[i] = (wp - wm) / (2 * h)
        lap += (wp - 2 * w0 + wm) / h**2
    return float(
        np.exp(-2 * w0) * (-2 * (n - 1) * lap - (n - 1) * (n - 2) * grad @ grad)
    )


def horn_scalar_curvature_exact(n: int, m: int) -> float:
    """Closed form (n-1)(2m - n - 2) in the round-S^n = n(n-1) convention."""
    return (n - 1) * (2 * m - n - 2)


def scalar_curvature_numeric(end: CuspEnd, p: np.ndarray) -> float:
    """Scalar curvature of the cusp-end metric at p = (x, y)."""
    return horn_scalar_curvature(np.asarray(p, dtype=float).reshape(end.n), end.m)
