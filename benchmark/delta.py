"""Independent critical exponent of a Schottky group read from a group file.

The estimate shares no code with kleinlab. Each defining cap pair of the file
becomes a generator z -> p2 + r1 r2 / conj(z - p1) of the Riemann sphere,
written as a 2x2 complex matrix acting on conj(z), with p and r the centre and
radius of a cap's stereographic image from the north pole. Reduced words are
multiplied level by level. For g in SL(2, C) the displacement of the point j
of upper half-space is cosh rho(j, g j) = |g|_F^2 / 2, and the exponent at
depth k is the s that solves

    sum_{|w| = k} exp(-s rho_w) = sum_{|w| = k-1} exp(-s rho_w).

An orientation-reversing map z -> M conj(z) moves j exactly as M does, since
conjugation fixes j.
"""

from __future__ import annotations

import numpy as np


def cap_disc(center, theta) -> tuple[complex, float]:
    """Stereographic image {|z - p| <= r} of the cap {u : u . c >= cos theta}.

    The cap must avoid the north pole (0, 0, 1).
    """
    c1, c2, c3 = (float(v) for v in center)
    k = np.cos(theta) - c3
    if k <= 0.0:
        raise ValueError("cap contains the north pole")
    p = complex(c1, c2) / k
    r2 = abs(p) ** 2 - (c3 + np.cos(theta)) / k
    return p, float(np.sqrt(r2))


def schottky_letters(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (2k, 2, 2) and orientation flags of g1, g1^-1, g2, g2^-1, ..."""
    if doc.get("kind") != "schottky" or doc.get("dimension") != 2:
        raise ValueError("needs a schottky group on S^2")
    mats, anti = [], []
    for src, dst in doc["ball_pairs"]:
        p1, r1 = cap_disc(src["center"], src["theta"])
        p2, r2 = cap_disc(dst["center"], dst["theta"])
        R = r1 * r2
        m = np.array([[p2, R - p2 * np.conj(p1)], [1.0, -np.conj(p1)]])
        m = m / np.sqrt(complex(-R))
        mats += [m, np.conj(np.linalg.inv(m))]
        anti += [True, True]
    return np.array(mats), np.array(anti)


def level_displacements(mats: np.ndarray, anti: np.ndarray, depth: int):
    """Yield the arrays of rho(j, w j) over reduced words of length 1..depth.

    Letters come in inverse pairs (2i, 2i + 1).
    """
    inverse = np.arange(len(mats)) ^ 1
    words = mats.copy()
    parity = anti.copy()
    last = np.arange(len(mats))
    for level in range(1, depth + 1):
        if level > 1:
            new_w, new_p, new_l = [], [], []
            for j, (g, g_anti) in enumerate(zip(mats, anti)):
                keep = last != inverse[j]
                w, p = words[keep], parity[keep]
                # (W o g)(z) = A conj(G) z when W is orientation-reversing
                g_eff = np.where(p[:, None, None], np.conj(g), g)
                new_w.append(w @ g_eff)
                new_p.append(p ^ g_anti)
                new_l.append(np.full(len(w), j))
            words = np.concatenate(new_w)
            parity = np.concatenate(new_p)
            last = np.concatenate(new_l)
        cosh = np.maximum(np.sum(np.abs(words) ** 2, axis=(1, 2)) / 2.0, 1.0)
        yield np.arccosh(cosh)


def _log_sum(rho: np.ndarray, s: float) -> float:
    x = -s * rho
    top = float(x.max())
    return top + float(np.log(np.sum(np.exp(x - top))))


def exponent_between(rho_prev: np.ndarray, rho: np.ndarray,
                     lo: float = 0.0, hi: float = 4.0) -> float:
    """Root in s of log sum exp(-s rho) - log sum exp(-s rho_prev), by bisection."""
    def gap(s):
        return _log_sum(rho, s) - _log_sum(rho_prev, s)

    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        raise ValueError("no sign change of the level-sum gap in [lo, hi]")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exponents_by_depth(mats: np.ndarray, anti: np.ndarray, depth: int
                       ) -> dict[int, float]:
    """{k: exponent from levels k-1 and k} for k = 2..depth."""
    out = {}
    prev = None
    for k, rho in enumerate(level_displacements(mats, anti, depth), start=1):
        if prev is not None:
            out[k] = exponent_between(prev, rho)
        prev = rho
    return out


def schottky_delta(doc: dict, depth: int = 8) -> float:
    """Critical exponent of the file's Schottky group from levels depth-1, depth."""
    mats, anti = schottky_letters(doc)
    return exponents_by_depth(mats, anti, depth)[depth]
