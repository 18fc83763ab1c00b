"""Checks of kleinlab outputs against properties of the method.

Each check takes a parsed `--json` report (and the CSV the command wrote,
where there is one) and returns the list of problems it found; an empty list
means the output passed. Expected values come from the group file and from
the benchmark's own critical exponent (delta.py), never from kleinlab.
"""

from __future__ import annotations

import numpy as np

# |estimate - delta| allowed for the box dimension and the fitted exponent.
# At depths 6 and 7 on the reference file both lie within 0.002 of delta.
DIMENSION_TOL = 0.01
# Group-closed families are invariant up to round-off.
INVARIANCE_TOL = 1e-9
UNIT_TOL = 1e-12
REGION_SLACK = 1e-9
# graph truncates the fundamental strip at this chordal distance from infinity
STRIP_Q_FLOOR = 0.25


def _sphere_caps(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    caps = [cap for pair in doc["ball_pairs"] for cap in pair]
    centers = np.array([c["center"] for c in caps], dtype=float)
    cosines = np.cos(np.array([c["theta"] for c in caps], dtype=float))
    return centers, cosines


def _stereo(U: np.ndarray) -> np.ndarray:
    """Projection of unit rows from the north pole onto the equatorial plane."""
    return U[:, :-1] / (1.0 - U[:, -1])[:, None]


def region_predicate(doc: dict):
    """Membership in the fundamental region that `graph` uses for a cyclic file."""
    (gen,) = doc["generators"]
    if gen["eps"] == 0 and abs(gen["r"] - 1.0) > 1e-10:
        scale = max(gen["r"], 1.0 / gen["r"])

        def annulus(U):
            r = np.linalg.norm(_stereo(U), axis=1)
            return (r >= 1.0 - REGION_SLACK) & (r < scale + REGION_SLACK)

        return annulus
    shift = np.asarray(gen["b"], dtype=float)
    north = np.zeros(len(shift) + 1)
    north[-1] = 1.0

    def strip(U):
        t = _stereo(U) @ shift / (shift @ shift)
        q = np.linalg.norm(U - north, axis=1)
        return ((t >= -REGION_SLACK) & (t < 1.0 + REGION_SLACK)
                & (q >= STRIP_Q_FLOOR - REGION_SLACK))

    return strip


def _num(v) -> bool:
    """Reports print whole floats without a point, so ints count as numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _exit_ok(report: dict) -> list[str]:
    if report.get("exit_code") != 0:
        return [f"exit code {report.get('exit_code')}, expected 0"]
    return []


def _near_delta(label: str, value, delta: float) -> list[str]:
    if not _num(value) or abs(value - delta) > DIMENSION_TOL:
        return [f"{label} {value!r} is not within {DIMENSION_TOL} of delta {delta:.6f}"]
    return []


def _lambda0(value, n: int) -> list[str]:
    # delta < n/2, so the bottom of the spectrum is (n/2)^2
    if value != (n / 2.0) ** 2:
        return [f"lambda0 {value!r}, expected {(n / 2.0) ** 2}"]
    return []


def check_validate(report: dict) -> list[str]:
    problems = _exit_ok(report)
    if report.get("results", {}).get("valid") is not True:
        problems.append("file reported invalid")
    return problems


def check_dimension(report: dict, delta: float, n: int = 2) -> list[str]:
    problems = _exit_ok(report)
    res = report.get("results", {})
    problems += _near_delta("box dimension",
                            res.get("box_dimension", {}).get("estimate"), delta)
    problems += _near_delta("fitted exponent",
                            res.get("delta", {}).get("estimate"), delta)
    problems += _lambda0(res.get("lambda0"), n)
    return problems


def check_diagnose(report: dict, delta: float, n: int = 2) -> list[str]:
    """A Schottky group is convex cocompact, hence geometrically finite."""
    problems = _exit_ok(report)
    res = report.get("results", {})
    if res.get("verdict") != "consistent-with-geometrically-finite":
        problems.append(f"verdict {res.get('verdict')!r}")
    evidence = res.get("evidence", {})
    problems += _near_delta("box dimension", evidence.get("box"), delta)
    problems += _near_delta("fitted exponent", evidence.get("delta"), delta)
    problems += _lambda0(res.get("dimension_evidence", {}).get("lambda0"), n)
    return problems


def read_csv_rows(path) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return rows


def _unit_problems(U: np.ndarray) -> list[str]:
    err = np.abs(np.linalg.norm(U, axis=1) - 1.0)
    if err.size and err.max() > UNIT_TOL:
        return [f"{int((err > UNIT_TOL).sum())} rows off the unit sphere "
                f"(worst {err.max():.3g})"]
    return []


def check_graph(report: dict, rows: np.ndarray, region) -> list[str]:
    """Invariance at round-off, a positive band, heights in (0, 1) on the region."""
    problems = _exit_ok(report)
    res = report.get("results", {})
    inv = res.get("invariance", {})
    if not inv:
        problems.append("no invariance deviations reported")
    for name, rec in inv.items():
        dev = rec.get("max_deviation")
        if not _num(dev) or not 0.0 <= dev <= INVARIANCE_TOL:
            problems.append(f"invariance deviation of {name} is {dev!r}")
        if not rec.get("points", 0) > 0:
            problems.append(f"invariance of {name} checked on no points")
    band = res.get("band", {})
    c1, c2 = band.get("C1"), band.get("C2")
    if not (_num(c1) and _num(c2) and 0.0 < c1 <= c2):
        problems.append(f"band C1={c1!r}, C2={c2!r} violates 0 < C1 <= C2")
    if rows.shape[0] == 0:
        return problems + ["graph CSV has no rows"]
    U, f = rows[:, :-1], rows[:, -1]
    problems += _unit_problems(U)
    bad_f = ~((f > 0.0) & (f < 1.0))
    if bad_f.any():
        problems.append(f"{int(bad_f.sum())} heights outside (0, 1)")
    outside = ~region(U)
    if outside.any():
        problems.append(f"{int(outside.sum())} directions outside the "
                        "fundamental region")
    return problems


def check_limitset(report: dict, rows: np.ndarray, depth: int, doc: dict
                   ) -> list[str]:
    """4 * 3^(d-1) unit rows, each inside a defining cap (ping-pong)."""
    problems = _exit_ok(report)
    expected = 2 * len(doc["ball_pairs"]) * (2 * len(doc["ball_pairs"]) - 1) ** (depth - 1)
    if rows.shape[0] != expected:
        problems.append(f"{rows.shape[0]} rows, expected {expected}")
    if report.get("results", {}).get("size") != rows.shape[0]:
        problems.append("reported size differs from the CSV row count")
    problems += _unit_problems(rows)
    centers, cosines = _sphere_caps(doc)
    inside = np.any(rows @ centers.T >= cosines - UNIT_TOL, axis=1)
    if not inside.all():
        problems.append(f"{int((~inside).sum())} rows in no defining cap")
    return problems


def check_harmonic(report: dict) -> list[str]:
    """u(0) and the area fraction lie in [0, 1] and agree within their budget."""
    problems = _exit_ok(report)
    res = report.get("results", {})
    u, a = res.get("u_origin"), res.get("area_fraction")
    su, sa = res.get("u_origin_stderr"), res.get("area_fraction_stderr")
    indet = res.get("indeterminate_fraction")
    values = (u, a, su, sa, indet)
    if not all(_num(v) for v in values):
        return problems + [f"non-numeric estimates {values!r}"]
    for label, v in (("u_origin", u), ("area_fraction", a)):
        if not 0.0 <= v <= 1.0:
            problems.append(f"{label} {v!r} outside [0, 1]")
    budget = 3.0 * (su + sa) + indet
    if abs(u - a) > budget:
        problems.append(f"u_origin and area_fraction differ by {abs(u - a):.3g} "
                        f"> budget {budget:.3g}")
    return problems
