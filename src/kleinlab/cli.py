"""Command-line surface for group analysis runs.

kleinlab validate  --file F [--seed S] [--json]
kleinlab limitset  --file F [--depth D] [--seed S] [--out PATH] [--json]
kleinlab dimension --file F [--depth D] [--seed S] [--json]
kleinlab graph     --file F [--depth D] [--epsilon0 E] [--samples N]
                   [--seed S] [--out PATH] [--json]
kleinlab harmonic  --file F [--depth D] [--samples N] [--seed S] [--json]
kleinlab diagnose  --file F [--depth D] [--seed S] [--json]

Every command reads a strict group-definition JSON file, prints a summary (or
the full JSON report with --json), writes CSV artifacts to --out where that
applies, and exits 0 on success, 2 on validation failure (of the file or of
a flag, an unknown flag included) or a bad configuration (a degenerate
nested cap), 3 when the budget leaves the question inconclusive, the depth
needs more words than group.MAX_WORDS, the cloud is too coarse to certify
the region's distance to the limit set, or a generator's type cannot be
decided numerically (mobius.AmbiguousClassification).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

# limitset, lipgraph and harmonic are imported where used, for a short start-up
from . import group as group_mod
from . import mobius
from .caps import CapDegenerate
from .files import GroupDefinition, ValidationError, load_group_file, render_report
from .geom import BallPoint, uniform_sphere, uniform_sphere_blocks
from .group import InsufficientRange

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

# Every Monte-Carlo draws and evaluates geom.SAMPLE_BLOCK samples at a time
# and heights takes geom.ROW_BLOCK rows a pass. harmonic keeps two counts per
# Monte-Carlo, so its peak RSS does not grow with --samples: 39.6, 40.0 and
# 40.0 MB at 40k, 400k and a million samples on the reference file. graph
# keeps its region rows, their heights and the per-sample volume terms, about
# 30 bytes a sample: 47, 55 and 76 MB on the loxodromic file. Peak RSS from
# os.wait4, with one BLAS thread.
MAX_SAMPLES = 1_000_000


class SampleBudgetExceeded(RuntimeError):
    """--samples asks for more than MAX_SAMPLES."""


# the flags that not every command takes: dest -> add_argument keywords
_FLAGS = {
    "depth": dict(type=int, help="word-length truncation override"),
    "epsilon0": dict(type=float, help="base-cap scale override"),
    "samples": dict(type=int, help="Monte-Carlo sample budget"),
    "out": dict(help="CSV output path"),
}

# command -> (help, the flags of _FLAGS it reads); every command also takes
# --file, --seed and --json
_COMMAND_FLAGS = {
    "validate": ("parse and check a group-definition file", ()),
    "limitset": ("sample the limit set and export the point cloud",
                 ("depth", "out")),
    "dimension": ("box-counting dimension, growth exponent, spectral bottom",
                  ("depth",)),
    "graph": ("dome-envelope graph: band, Lipschitz, invariance, volume",
              ("depth", "epsilon0", "samples", "out")),
    "harmonic": ("harmonic measure at the origin and invariance residuals",
                 ("depth", "samples")),
    "diagnose": ("geometric-finiteness grading of the dimension evidence",
                 ("depth",)),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: refuses a flag the command does not take with the
    command's own usage, where argparse would pass it up to the top-level
    parser and print that one's."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return args, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinlab",
        description="Numerical exploration of Kleinian groups on S^n",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, (help_text, flags) in _COMMAND_FLAGS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--file", required=True, help="group-definition JSON")
        for dest in flags:
            cmd.add_argument(f"--{dest}", default=None, **_FLAGS[dest])
        cmd.add_argument("--seed", type=int, default=None,
                         help="random seed override")
        cmd.add_argument("--json", action="store_true",
                         help="print the full JSON report")
        # a flag the command does not take reads None, as in its report
        cmd.set_defaults(**{dest: None for dest in _FLAGS if dest not in flags})
    return parser


def _check_flags(args):
    """Reject an out-of-range flag before any work, as a validation failure,
    and a sample count over the budget as inconclusive."""
    if args.depth is not None and args.depth < 1:
        raise ValidationError("--depth", "must be >= 1")
    if args.epsilon0 is not None and not 0.0 < args.epsilon0 <= 0.5:
        raise ValidationError("--epsilon0", "must lie in (0, 1/2]")
    # harmonic splits its budget four ways for the invariance residuals
    if args.samples is not None and args.samples < 4:
        raise ValidationError("--samples", "must be >= 4")
    if args.samples is not None and args.samples > MAX_SAMPLES:
        raise SampleBudgetExceeded(f"--samples {args.samples} is over the "
                                   f"budget of {MAX_SAMPLES}")
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed", "must be >= 0")
    if args.out is not None:
        if os.path.isdir(args.out):
            raise ValidationError("--out", "is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValidationError("--out", "parent directory does not exist")


def _cloud_for(defn: GroupDefinition, depth: int):
    from . import limitset as limitset_mod
    if defn.kind == "custom":
        raise ValidationError("$.kind", "custom files are validate-only")
    return limitset_mod.sample_limit_set(defn.presentation, depth)


def _region_for(defn: GroupDefinition):
    from . import lipgraph as lipgraph_mod
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


def _region_samples(region, rng: np.random.Generator, n: int, size: int
                    ) -> np.ndarray:
    """The rows of uniform_sphere(rng, n, size) that lie in the region, in
    draw order and with the same bits, drawn one block at a time so the whole
    draw is never held."""
    return np.concatenate([np.empty((0, n + 1))] + [
        U[region.contains(U)] for _, U in uniform_sphere_blocks(rng, n, size)])


def _write_out(export, *data, path: str):
    """export(*data, path), a write that fails after all as a bad --out."""
    try:
        export(*data, path)
    except OSError as exc:
        raise ValidationError("--out", str(exc)) from exc


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
    from . import limitset as limitset_mod
    depth = args.depth if args.depth is not None else defn.depths[-1]
    cloud = _cloud_for(defn, depth)
    if args.out:
        _write_out(limitset_mod.export_csv, cloud, path=args.out)
    report = {
        "size": cloud.size,
        "depth": depth,
        "resolution": cloud.resolution,
        "certified": cloud.certified,
        "warnings": list(cloud.warnings),
        "csv": args.out,
    }
    return report, EXIT_OK


def cmd_dimension(args, defn: GroupDefinition) -> tuple[dict, int]:
    from . import limitset as limitset_mod
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    cloud = _cloud_for(defn, depth)
    report: dict = {"depth": depth, "cloud_size": cloud.size}
    try:
        if cloud.size < 2:
            # an empty or one-point limit set has dimension zero by convention
            box = group_mod.FitResult(estimate=0.0, stderr=0.0,
                                      diagnostics={"degenerate": True})
            report["note"] = (f"limit set sampled as {cloud.size} point"
                              + "s" * (cloud.size != 1))
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


def cmd_graph(args, defn: GroupDefinition) -> tuple[dict, int]:
    from . import lipgraph as lipgraph_mod
    G = defn.presentation
    depth = args.depth if args.depth is not None else defn.depths[-1]
    eps0 = args.epsilon0 if args.epsilon0 is not None else defn.epsilon0
    samples = args.samples if args.samples is not None else 10_000
    seed = args.seed if args.seed is not None else defn.seed
    region = _region_for(defn)
    cloud = _cloud_for(defn, depth)
    mesh = lipgraph_mod.region_mesh(region, cloud, eps0)
    caps = lipgraph_mod.base_caps(mesh, eps0, cloud)
    fam = lipgraph_mod.DomeFamily(G, cloud, caps, max_len=depth, audit=500)
    U = _region_samples(region, np.random.default_rng(seed + 1), G.n, samples)
    res = fam.heights(U)  # every diagnostic below reads rows of this one result
    band = lipgraph_mod.graph_band(fam, U, res)
    try:
        M = lipgraph_mod.lipschitz_estimate(U, res)
    except ValueError as exc:  # too few samples landed on covered directions
        report = {"depth": depth, "reason": f"budget too small: {exc}"}
        return report, EXIT_INCONCLUSIVE
    inv = {}
    for i, g in enumerate(G.generators):
        dev, cnt = lipgraph_mod.check_invariance(fam, g, U[:2000], res[:2000])
        inv[f"g{i + 1}"] = {"max_deviation": dev, "points": cnt}
    if args.out:
        _write_out(lipgraph_mod.export_graph_csv, U, res, path=args.out)
    bilip = lipgraph_mod.bilipschitz_ratios(fam, U[:1600], res[:1600])
    shape = {
        "min_ratio": fam.min_shape_ratio(),
        "max_ratio": fam.max_shape_ratio(),
        "violations": fam.shape_violations,
        "unresolved": fam.shape_unresolved,
        "bound_ok": fam.shape_bound_ok,
    }
    vol = lipgraph_mod.graph_volume(fam, region, samples, seed=seed)
    report = {
        "depth": depth,
        "epsilon0": eps0,
        "seeds": len(caps),
        "band": {"C1": float(band.min()), "C2": float(band.max()),
                 "ratio": float(band.max() / band.min())},
        "bilipschitz": {"min": float(bilip.min()), "max": float(bilip.max())},
        "lipschitz": {"M": M},
        "invariance": inv,
        "volume": {"depth": depth, "value": vol.value, "stderr": vol.stderr,
                   "covered_fraction": vol.covered_fraction},
        "shape": shape,
        "csv": args.out,
    }
    return report, EXIT_OK


def cmd_harmonic(args, defn: GroupDefinition) -> tuple[dict, int]:
    from . import harmonic as harmonic_mod
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
    }
    return report, EXIT_OK


def cmd_diagnose(args, defn: GroupDefinition) -> tuple[dict, int]:
    """Grade the dimension evidence: a conformally finite group is
    geometrically finite unless its limit set has dimension n."""
    n = defn.presentation.n
    depth = args.depth if args.depth is not None else defn.depths[-1]
    report: dict = {"depth": depth, "dimension": n, "kind": defn.kind}
    if defn.kind == "schottky":
        report["conformal_finiteness"] = "holds by construction (schottky)"
    if depth < 2:
        report["verdict"] = "inconclusive"
        report["reason"] = "depth budget below 2 words"
        return report, EXIT_INCONCLUSIVE
    dim_report, code = cmd_dimension(args, defn)
    report["dimension_evidence"] = dim_report
    if code != EXIT_OK:
        report["verdict"] = "inconclusive"
        report["reason"] = dim_report.get("reason", "dimension pipeline failed")
        return report, EXIT_INCONCLUSIVE
    box = dim_report["box_dimension"]["estimate"]
    delta = dim_report["delta"]["estimate"]
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


def _inconclusive_errors() -> tuple:
    """Errors that end a run as inconclusive; lipgraph's once it is loaded."""
    lip = sys.modules.get(f"{__package__}.lipgraph")
    extra = (lip.ShrinkEpsilon, lip.UncertifiedSample) if lip else ()
    return (group_mod.WordBudgetExceeded, SampleBudgetExceeded, *extra)


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
    except CapDegenerate as exc:
        body, code = {"error": f"bad configuration: {exc}"}, EXIT_INVALID
    except mobius.AmbiguousClassification as exc:
        body = {"error": f"ambiguous classification: {exc}"}
        code = EXIT_INCONCLUSIVE
    except _inconclusive_errors() as exc:
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
