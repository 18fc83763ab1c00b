"""Command-line surface for group analysis runs.

kleinlab <validate|limitset|dimension|graph|harmonic|diagnose>
    --file F [--depth D] [--epsilon0 E] [--samples N] [--seed S]
    [--out PATH] [--json]

Every command reads a strict group-definition JSON file, prints a summary (or
the full JSON report with --json), writes CSV artifacts to --out where that
applies, and exits 0 on success, 2 on validation failure (of the file or of
a flag), 3 when the budget leaves the question inconclusive.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import group as group_mod
from . import harmonic as harmonic_mod
from . import limitset as limitset_mod
from . import lipgraph as lipgraph_mod
from . import mobius
from .files import GroupDefinition, ValidationError, load_group_file, render_report
from .geom import BallPoint, uniform_sphere
from .group import InsufficientRange

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinlab",
        description="Numerical exploration of Kleinian groups on S^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "parse and check a group-definition file"),
        ("limitset", "sample the limit set and export the point cloud"),
        ("dimension", "box-counting dimension, growth exponent, spectral bottom"),
        ("graph", "dome-envelope graph: band, Lipschitz, invariance, volume"),
        ("harmonic", "harmonic measure at the origin and invariance residuals"),
        ("diagnose", "geometric-finiteness evidence grading"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--file", required=True, help="group-definition JSON")
        cmd.add_argument("--depth", type=int, default=None,
                         help="word-length truncation override")
        cmd.add_argument("--epsilon0", type=float, default=None,
                         help="base-cap scale override")
        cmd.add_argument("--samples", type=int, default=None,
                         help="Monte-Carlo sample budget")
        cmd.add_argument("--seed", type=int, default=None,
                         help="random seed override")
        cmd.add_argument("--out", default=None, help="CSV output path")
        cmd.add_argument("--json", action="store_true",
                         help="print the full JSON report")
    return parser


def _check_flags(args):
    """Reject an out-of-range flag before any work, as a validation failure."""
    if args.depth is not None and args.depth < 1:
        raise ValidationError("--depth", "must be >= 1")
    if args.epsilon0 is not None and not 0.0 < args.epsilon0 <= 0.5:
        raise ValidationError("--epsilon0", "must lie in (0, 1/2]")
    # harmonic splits its budget four ways for the invariance residuals
    if args.samples is not None and args.samples < 4:
        raise ValidationError("--samples", "must be >= 4")
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed", "must be >= 0")


def _cloud_for(defn: GroupDefinition, depth: int):
    return limitset_mod.sample_limit_set(defn.presentation, depth)


def _region_for(defn: GroupDefinition):
    G = defn.presentation
    if defn.kind == "schottky":
        return lipgraph_mod.schottky_region(G)
    if defn.kind == "cyclic":
        g = G.generators[0]
        if g.eps == 0 and abs(g.r - 1.0) > 1e-10:
            return lipgraph_mod.annulus_region(g.r if g.r > 1 else 1.0 / g.r)
        if g.eps == 0 and np.linalg.norm(g.b) > 0:
            return lipgraph_mod.strip_region(g.b, q_floor=0.25)
        raise ValidationError(
            "$.generators", "cyclic graph analysis needs a dilation or translation"
        )
    raise ValidationError(
        "$.kind", "graph analysis needs a schottky or cyclic presentation"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, defn: GroupDefinition) -> tuple[dict, int]:
    G = defn.presentation
    report = {
        "valid": True,
        "kind": defn.kind,
        "dimension": G.n,
        "rank": G.rank,
        "defining_caps": len(G.ball_caps),
        "cusp_ends": len(defn.cusp_ends),
        "depths": list(defn.depths),
        "epsilon0": defn.epsilon0,
    }
    return report, EXIT_OK


def cmd_limitset(args, defn: GroupDefinition) -> tuple[dict, int]:
    depth = args.depth if args.depth is not None else defn.depths[-1]
    cloud = _cloud_for(defn, depth)
    if args.out:
        limitset_mod.export_csv(cloud, args.out)
    report = {
        "size": cloud.size,
        "depth": depth,
        "resolution": cloud.resolution,
        "certified": cloud.certified,
        "warnings": list(cloud.warnings),
        "csv": args.out,
    }
    return report, EXIT_OK


def cmd_dimension(args, defn: GroupDefinition, cloud=None) -> tuple[dict, int]:
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    if cloud is None:
        cloud = _cloud_for(defn, depth)
    report: dict = {"depth": depth, "cloud_size": cloud.size}
    try:
        if cloud.size < 2:
            # a single limit point has dimension zero by convention
            box = group_mod.FitResult(estimate=0.0, stderr=0.0,
                                      diagnostics={"degenerate": True})
            report["note"] = "limit set sampled as a single point"
        else:
            box = limitset_mod.box_dimension(cloud)
        delta = group_mod.critical_exponent(G, depth)
    except (InsufficientRange, limitset_mod.EmptyScaleWindow, ValueError) as exc:
        report["reason"] = f"budget too small: {exc}"
        return report, EXIT_INCONCLUSIVE
    lam = limitset_mod.sullivan_lambda0(
        float(np.clip(delta.estimate, 0.0, G.n)), G.n
    )
    report.update({
        "box_dimension": {"estimate": box.estimate, "stderr": box.stderr},
        "delta": {"estimate": delta.estimate, "stderr": delta.stderr,
                  "horizon": delta.diagnostics["horizon"]},
        "lambda0": lam,
        "agreement": abs(box.estimate - delta.estimate),
    })
    return report, EXIT_OK


def _volume(fam, region, samples: int, seed: int) -> dict:
    est = lipgraph_mod.graph_volume(fam, region, samples, seed=seed)
    return {"depth": fam.max_len, "value": est.value, "stderr": est.stderr,
            "covered_fraction": est.covered_fraction}


def cmd_graph(args, defn: GroupDefinition) -> tuple[dict, int]:
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    eps0 = args.epsilon0 if args.epsilon0 is not None else defn.epsilon0
    samples = args.samples if args.samples is not None else 10_000
    seed = args.seed if args.seed is not None else defn.seed
    region = _region_for(defn)
    cloud = _cloud_for(defn, depth)
    rng = np.random.default_rng(seed)
    mesh = lipgraph_mod.region_mesh(region, cloud, eps0, rng)
    caps = lipgraph_mod.base_caps(mesh, eps0, cloud)
    fam = lipgraph_mod.DomeFamily(G, cloud, caps, max_len=depth, audit=500)
    U = uniform_sphere(np.random.default_rng(seed + 1), G.n, samples)
    U = U[region.contains(U)]
    band = lipgraph_mod.graph_band(fam, U)
    try:
        M_half = lipgraph_mod.lipschitz_estimate(fam, U[: len(U) // 2])
    except ValueError as exc:  # too few samples landed on covered directions
        report = {"depth": depth, "reason": f"budget too small: {exc}"}
        return report, EXIT_INCONCLUSIVE
    M_full = lipgraph_mod.lipschitz_estimate(fam, U)
    inv = {}
    for i, g in enumerate(G.generators):
        dev, cnt = lipgraph_mod.check_invariance(fam, g, U[:2000])
        inv[f"g{i + 1}"] = {"max_deviation": dev, "points": cnt}
    if args.out:
        lipgraph_mod.export_graph_csv(fam, U, args.out)
    bilip = lipgraph_mod.bilipschitz_ratios(fam, U[:1600])
    # read before the volume queries fit further image caps into the audit
    shape = {
        "min_ratio": fam.min_shape_ratio(),
        "max_ratio": fam.max_shape_ratio(),
        "violations": fam.shape_violations,
        "unresolved": fam.shape_unresolved,
        "bound_ok": fam.shape_bound_ok,
    }
    report = {
        "depth": depth,
        "epsilon0": eps0,
        "seeds": len(caps),
        "band": {"C1": float(band.min()), "C2": float(band.max()),
                 "ratio": float(band.max() / band.min())},
        "bilipschitz": {"min": float(bilip.min()), "max": float(bilip.max())},
        "lipschitz": {"M": M_full, "M_half_sample": M_half},
        "invariance": inv,
        "volume": _volume(fam, region, samples, seed),
        "shape": shape,
        "csv": args.out,
    }
    return report, EXIT_OK


def cmd_harmonic(args, defn: GroupDefinition) -> tuple[dict, int]:
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    samples = args.samples if args.samples is not None else 200_000
    seed = args.seed if args.seed is not None else defn.seed
    cloud = _cloud_for(defn, depth)
    try:
        identity_rep = harmonic_mod.harmonic_measure_identity(
            G, cloud, samples, seed=seed
        )
    except harmonic_mod.CloudTooCoarse as exc:
        return {"reason": str(exc)}, EXIT_INCONCLUSIVE
    chi = harmonic_mod.cloud_complement(cloud)
    rng = np.random.default_rng(seed + 2)
    residuals = []
    for k in range(4):
        x = BallPoint(0.5 * rng.uniform() * uniform_sphere(rng, G.n, 1)[0])
        g = G.generators[k % G.rank]
        ext = mobius.poincare_extend(g)
        gx = ext.apply_ball(x)
        u1 = harmonic_mod.harmonic_extension(chi, x, samples // 4, seed=seed + 10 + k)
        u2 = harmonic_mod.harmonic_extension(chi, gx, samples // 4, seed=seed + 50 + k)
        residuals.append({
            "residual": abs(u1.value - u2.value),
            "budget": 3 * (u1.stderr + u2.stderr)
            + u1.indeterminate_fraction + u2.indeterminate_fraction,
        })
    report = {
        "samples": samples,
        "u_origin": identity_rep["u_origin"].value,
        "u_origin_stderr": identity_rep["u_origin"].stderr,
        "area_fraction": identity_rep["area_fraction"].value,
        "area_fraction_stderr": identity_rep["area_fraction"].stderr,
        "indeterminate_fraction": identity_rep["u_origin"].indeterminate_fraction,
        "identity_agrees": identity_rep["agree"],
        "invariance_residuals": residuals,
        "flux_convention": harmonic_mod.flux_density_check(G.n)[
            "selected_convention"
        ],
    }
    return report, EXIT_OK


def cmd_diagnose(args, defn: GroupDefinition) -> tuple[dict, int]:
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    seed = args.seed if args.seed is not None else defn.seed
    samples = args.samples if args.samples is not None else 10_000
    eps0 = args.epsilon0 if args.epsilon0 is not None else defn.epsilon0
    n = G.n
    report: dict = {"depth": depth, "dimension": n, "kind": defn.kind}
    if defn.kind == "schottky":
        report["conformal_finiteness"] = "holds by construction (schottky)"
    if depth < 2:
        report["verdict"] = "inconclusive"
        report["reason"] = "depth budget below 2 words"
        return report, EXIT_INCONCLUSIVE
    cloud = _cloud_for(defn, depth)
    dim_report, code = cmd_dimension(args, defn, cloud)
    report["dimension_evidence"] = dim_report
    if code != EXIT_OK:
        report["verdict"] = "inconclusive"
        report["reason"] = dim_report.get("reason", "dimension pipeline failed")
        return report, EXIT_INCONCLUSIVE
    box = dim_report["box_dimension"]["estimate"]
    delta = dim_report["delta"]["estimate"]
    if defn.kind == "schottky":
        region = _region_for(defn)
        rng = np.random.default_rng(seed)
        mesh = lipgraph_mod.region_mesh(region, cloud, eps0, rng)
        caps = lipgraph_mod.base_caps(mesh, eps0, cloud)
        fam = lipgraph_mod.DomeFamily(G, cloud, caps, max_len=depth, audit=200)
        report["volume_evidence"] = {
            **_volume(fam, region, samples, seed),
            "note": "the region is compact and away from the limit set, so "
                    "the volume is finite by construction: reported, not gated",
        }
    else:
        report["volume_evidence"] = (
            "skipped: elementary presentation is geometrically finite by type"
        )
    if max(box, delta) < n - 0.3:
        verdict, code = "consistent-with-geometrically-finite", EXIT_OK
    elif min(box, delta) > n - 0.1:
        verdict, code = "dimension-n-regime", EXIT_OK
    else:
        verdict, code = "inconclusive", EXIT_INCONCLUSIVE
    report["verdict"] = verdict
    report["evidence"] = {"box": box, "delta": delta, "n": n}
    return report, code


_COMMANDS = {
    "validate": cmd_validate,
    "limitset": cmd_limitset,
    "dimension": cmd_dimension,
    "graph": cmd_graph,
    "harmonic": cmd_harmonic,
    "diagnose": cmd_diagnose,
}


def _summarize(report: dict, stream):
    for key, value in report.items():
        if isinstance(value, float):
            value = format(value, ".6g")
        print(f"{key}: {value}", file=stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_flags(args)
        defn = load_group_file(args.file)
        handler = _COMMANDS[args.command]
        body, code = handler(args, defn)
    except ValidationError as exc:
        body, code = {"valid": False, "error": str(exc)}, EXIT_INVALID
    except lipgraph_mod.ShrinkEpsilon as exc:
        body, code = {"error": str(exc)}, EXIT_INCONCLUSIVE
    report = {
        "command": args.command,
        "inputs": {
            "file": args.file,
            "depth": args.depth,
            "epsilon0": args.epsilon0,
            "samples": args.samples,
            "seed": args.seed,
        },
        "results": body,
        "exit_code": code,
        "wall_time_s": time.perf_counter() - start,
    }
    if args.json:
        sys.stdout.write(render_report(report))
    else:
        _summarize(body, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
