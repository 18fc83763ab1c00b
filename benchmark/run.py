"""Closed-loop benchmark of the kleinlab command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, so nothing needs installing. One client runs one `kleinlab` process
at a time, with BLAS and OpenMP pinned to one thread. Every output is
checked (checks.py) against properties of the method and against the
benchmark's own critical exponent (delta.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics. The whole run is pinned to one
CPU, and while each child runs a SpeedProbe (speed.py) samples that core's
speed; a time divided by the probe's factor is in reference seconds. A run
starts with a warm-up `validate` process, which imports every module the
commands use (compiling .pyc files and filling the file cache) and is
discarded. setup_s is the median over SETUP_RUNS further `validate`
processes on the workload's file of their wall time over their factor.
Then a fixed number of whole rounds of the workload's commands run back to
back: --seconds // ROUND_S[workload], at least one. Each round passes its
own seed to kleinlab (see ROUND_SEEDS). ref_wall_s is each command's wall
time over its factor, summed over the round. ref_wall_s and peak RSS are
means over the rounds.

--trace 1 prints the per-layer metrics: one untraced round gives the
per-command process figures, then the same round is replayed through
trace_replay.py, one traced process per command, and the spans and counters
are summed over the round. trace.overhead_s is the time the tracer itself
spent outside the spanned calls, as trace_replay.py measures it.
speed.factor is the mean probe factor of the untraced round, to read its
raw cli.<command>.s against. Spans are kept in .bench_out/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import delta as delta_mod
import speed

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"
SCHOTTKY = "groups/reference_schottky.json"
LOXODROMIC = "groups/cyclic_loxodromic.json"
PARABOLIC = "groups/cyclic_parabolic.json"

# The reference file's own eps0 = 0.1 gives a 7k-point region mesh and
# 50-65 s commands, longer than a run. eps0 = 0.25 keeps the same caps and
# depth with a 1.1k-point mesh. Trend depths start at 5 so that every
# family over this mesh is large enough for the factored evaluator: at
# eps0 >= 0.2 the materialized one ends in a LinAlgError (see CHANGES.md).
SCHOTTKY_EPS0 = 0.25
SCHOTTKY_DEPTHS = [5, 6]
DELTA_DEPTH = 8
PROCESS_TIMEOUT_S = 150.0
SETUP_RUNS = 5
# Seconds of the run given to one round. A run holds --seconds // ROUND_S
# rounds however fast they go, so the same --seed and --seconds always run
# the same round seeds. graph-cyclic and cloud-deep get their median round
# time on a 2-vCPU machine. A diagnose-schottky round takes 11-14 s there,
# but its work depends on the mesh seed, so it gets 10 s and a 30 s run
# averages three seeds rather than two.
ROUND_S = {"diagnose-schottky": 10.0, "graph-cyclic": 8.5, "cloud-deep": 23.0}
# Round r of a run with --seed S passes S * ROUND_SEEDS + r to kleinlab.
# Mesh work depends on the seed (the mesh stops after 6000 rejects in a
# row), so every round draws a fresh seed and the run reports the mean.
ROUND_SEEDS = 1000

CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Command:
    """One kleinlab invocation and the check of its outputs."""

    args: list[str]
    check: object  # (report, command) -> list of problems
    csv: Path | None = None

    @property
    def name(self) -> str:
        return self.args[0]


@dataclass
class Outcome:
    command: Command
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    factor: float  # the core's slowdown while it ran (speed.py)
    problems: list[str] = field(default_factory=list)


@dataclass
class Context:
    seed: int  # the seed of the current round, passed as kleinlab --seed
    out: Path
    delta: float
    docs: dict  # path -> parsed group file


def load_doc(path: str) -> dict:
    with open(ROOT / path) as fh:
        return json.load(fh)


def schottky_input(ctx: Context) -> str:
    """The reference caps at the benchmark's eps0 and depths."""
    doc = dict(ctx.docs[SCHOTTKY], epsilon0=SCHOTTKY_EPS0,
               depths=SCHOTTKY_DEPTHS)
    path = ctx.out / "schottky.json"
    path.write_text(json.dumps(doc, indent=2))
    ctx.docs[str(path)] = doc
    return str(path)


def _csv_rows(cmd: Command):
    return checks.read_csv_rows(cmd.csv)


def diagnose_schottky(ctx: Context) -> list[Command]:
    f = schottky_input(ctx)
    return [Command(
        ["diagnose", "--file", f, "--json", "--seed", str(ctx.seed)],
        lambda rep, cmd: checks.check_diagnose(rep, ctx.delta))]


def _graph(ctx: Context, path: str, tag: str, *flags: str) -> Command:
    csv = ctx.out / f"graph-{tag}.csv"
    region = checks.region_predicate(ctx.docs[path])
    return Command(
        ["graph", "--file", path, "--json", "--seed", str(ctx.seed),
         *flags, "--out", str(csv)],
        lambda rep, cmd: checks.check_graph(rep, _csv_rows(cmd), region),
        csv=csv)


def graph_cyclic(ctx: Context) -> list[Command]:
    return [_graph(ctx, LOXODROMIC, "loxodromic", "--samples", "40000"),
            _graph(ctx, PARABOLIC, "parabolic", "--samples", "40000")]


def cloud_deep(ctx: Context) -> list[Command]:
    seed = str(ctx.seed)
    csv = ctx.out / "cloud.csv"
    doc = ctx.docs[SCHOTTKY]
    return [
        Command(["dimension", "--file", SCHOTTKY, "--depth", "7", "--json",
                 "--seed", seed],
                lambda rep, cmd: checks.check_dimension(rep, ctx.delta)),
        Command(["limitset", "--file", SCHOTTKY, "--depth", "8", "--json",
                 "--seed", seed, "--out", str(csv)],
                lambda rep, cmd: checks.check_limitset(
                    rep, _csv_rows(cmd), 8, doc),
                csv=csv),
        Command(["harmonic", "--file", SCHOTTKY, "--json", "--seed", seed,
                 "--samples", "400000"],
                lambda rep, cmd: checks.check_harmonic(rep)),
    ]


WORKLOADS = {
    "diagnose-schottky": diagnose_schottky,
    "graph-cyclic": graph_cyclic,
    "cloud-deep": cloud_deep,
}

E2E_UNITS = {"ref_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CLI_COMMANDS = ["validate", "diagnose", "graph", "dimension", "limitset",
                "harmonic"]
SPAN_METRICS = [
    "files.load_group_file", "cli.import", "group.enumerate_elements",
    "group.critical_exponent", "limitset.sample_limit_set",
    "limitset.box_dimension", "limitset.export_csv", "lipgraph.region_mesh",
    "lipgraph.DomeFamily", "lipgraph.heights", "lipgraph.graph_volume",
    "lipgraph.check_invariance", "lipgraph.lipschitz_estimate",
    "lipgraph.bilipschitz_ratios", "lipgraph.graph_band",
    "lipgraph.export_graph_csv", "harmonic.harmonic_measure_identity",
    "harmonic.harmonic_extension",
]
COUNT_METRICS = [
    "group.words", "limitset.cloud_points", "limitset.net_balls",
    "limitset.csv_bytes", "lipgraph.mesh.candidates", "lipgraph.mesh.points",
    "lipgraph.family.cap_bound", "lipgraph.family.caps_checked",
    "lipgraph.heights.points", "harmonic.samples",
]


def run_process(argv: list[str], stdout: Path, stderr: Path) -> tuple:
    """(exit code, wall s, cpu s, peak RSS MB, speed factor) of one child,
    reaped by wait4. A SpeedProbe samples the core while the child runs.

    The child's own rusage is read, not RUSAGE_CHILDREN, which keeps the
    largest RSS of every child so far.
    """
    env = dict(os.environ, **CHILD_ENV)
    probe = speed.SpeedProbe()
    with open(stdout, "wb") as out, open(stderr, "wb") as err, probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, probe.factor())


def run_command(cmd: Command, ctx: Context, tag: str,
                trace_id: int | None = None) -> Outcome:
    stdout = ctx.out / f"{tag}.json"
    stderr = ctx.out / f"{tag}.err"
    if trace_id is None:
        argv = [sys.executable, "-m", "kleinlab.cli", *cmd.args]
    else:
        argv = [sys.executable, str(HERE / "trace_replay.py"),
                "--spans", str(ctx.out / f"{tag}.spans.json"),
                "--trace-id", str(trace_id), "--", *cmd.args]
    if cmd.csv is not None and cmd.csv.exists():
        cmd.csv.unlink()
    code, wall, cpu, rss, factor = run_process(argv, stdout, stderr)
    outcome = Outcome(cmd, wall, cpu, rss, code, factor)
    if code != 0:
        outcome.problems = [f"exit code {code}: "
                            + stderr.read_text()[-300:].strip()]
        return outcome
    try:
        report = json.loads(stdout.read_text())
        outcome.problems = cmd.check(report, cmd)
    except (OSError, ValueError, KeyError) as exc:
        outcome.problems = [f"unreadable output: {exc!r}"]
    return outcome


class Tally:
    """Operations attempted and failed; a failed check also clears correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            if outcome.exit_code == 0:
                self.correct = False
            print(f"FAILED {' '.join(outcome.command.args)}: "
                  + "; ".join(outcome.problems), file=sys.stderr)
        return outcome


def setup_runs(ctx: Context, tally: Tally, file: str) -> list[Outcome]:
    """Warm-up validate (discarded), then SETUP_RUNS timed validates."""
    cmd = Command(["validate", "--file", file, "--json"],
                  lambda rep, c: checks.check_validate(rep))
    runs = [tally.add(run_command(cmd, ctx, f"validate-{i}"))
            for i in range(SETUP_RUNS + 1)]
    return runs[1:]


def run_round(commands, ctx, tally, index, trace_id=None) -> list[Outcome]:
    kind = "traced" if trace_id is not None else "round"
    outcomes = []
    for k, cmd in enumerate(commands):
        o = tally.add(run_command(cmd, ctx, f"{kind}{index}-{k}",
                                  None if trace_id is None else trace_id + k))
        print(f"{kind} {index} seed {ctx.seed} {cmd.name}: wall {o.wall_s:.3f} s,"
              f" cpu {o.cpu_s:.3f} s, rss {o.peak_rss_mb:.1f} MB,"
              f" speed factor {o.factor:.3f}", file=sys.stderr)
        outcomes.append(o)
    return outcomes


def round_commands(workload: str, ctx: Context, base_seed: int, index: int):
    ctx.seed = base_seed * ROUND_SEEDS + index
    return WORKLOADS[workload](ctx)


def end_to_end(workload, ctx, tally, base_seed, seconds) -> dict:
    commands = round_commands(workload, ctx, base_seed, 0)
    setup = setup_runs(ctx, tally, commands[0].args[2])
    rounds = [run_round(commands, ctx, tally, 0)]
    for r in range(1, max(1, int(seconds // ROUND_S[workload]))):
        commands = round_commands(workload, ctx, base_seed, r)
        rounds.append(run_round(commands, ctx, tally, r))
    values = {
        "ref_wall_s": statistics.fmean(
            sum(o.wall_s / o.factor for o in r) for r in rounds),
        "peak_rss_mb": statistics.fmean(
            max(o.peak_rss_mb for o in r) for r in rounds),
        "setup_s": statistics.median(o.wall_s / o.factor for o in setup),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(workload, ctx, tally, base_seed) -> dict:
    commands = round_commands(workload, ctx, base_seed, 0)
    setup = setup_runs(ctx, tally, commands[0].args[2])
    plain = run_round(commands, ctx, tally, 0)
    traced = run_round(commands, ctx, tally, 0, trace_id=1)

    values: dict[str, tuple[float, str]] = {}
    for name in CLI_COMMANDS:
        outs = setup if name == "validate" else [
            o for o in plain if o.command.name == name]
        if name == "validate":
            # one process's figures, as for the other commands
            outs = [sorted(outs, key=lambda o: o.wall_s)[len(outs) // 2]]
        values[f"cli.{name}.s"] = (sum(o.wall_s for o in outs), "s")
        values[f"cli.{name}.cpu_s"] = (sum(o.cpu_s for o in outs), "s")
        values[f"cli.{name}.peak_rss_mb"] = (
            max((o.peak_rss_mb for o in outs), default=0.0), "MB")

    seconds = dict.fromkeys(SPAN_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS + ["lipgraph.heights.covered",
                                            "trace.overhead_s"], 0.0)
    records = []
    for k, outcome in enumerate(traced):
        path = ctx.out / f"traced0-{k}.spans.json"
        if outcome.exit_code != 0 or not path.exists():
            continue
        rec = json.loads(path.read_text())
        records.append(rec)
        for span in rec["spans"]:
            if span["name"] in seconds:
                seconds[span["name"]] += span["end"] - span["start"]
        for name, v in rec["counters"].items():
            counts[name] = counts.get(name, 0.0) + v
    for name, v in seconds.items():
        values[f"{name}.s"] = (v, "s")
    for name in COUNT_METRICS:
        values[name] = (counts[name], "count")

    def rate(num, den):
        return num / den if den > 0 else 0.0

    values["group.words_per_s"] = (
        rate(counts["group.words"], seconds["group.enumerate_elements"]), "1/s")
    values["lipgraph.mesh.accept_ratio"] = (
        rate(counts["lipgraph.mesh.points"],
             counts["lipgraph.mesh.candidates"]), "ratio")
    values["lipgraph.heights.points_per_s"] = (
        rate(counts["lipgraph.heights.points"], seconds["lipgraph.heights"]),
        "1/s")
    values["lipgraph.heights.covered_ratio"] = (
        rate(counts["lipgraph.heights.covered"],
             counts["lipgraph.heights.points"]), "ratio")
    values["harmonic.samples_per_s"] = (
        rate(counts["harmonic.samples"],
             seconds["harmonic.harmonic_extension"]), "1/s")
    values["trace.overhead_s"] = (counts["trace.overhead_s"], "s")
    values["speed.factor"] = (statistics.fmean(o.factor for o in plain),
                              "ratio")

    trace_file = OUT_ROOT / f"trace-{workload}-s{base_seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": ctx.seed,
                                      "commands": records}))
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    missing = [p for p in ("src/kleinlab/cli.py", SCHOTTKY, LOXODROMIC,
                           PARABOLIC) if not (ROOT / p).is_file()]
    if missing:
        print(f"run from a kleinlab checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # a SIGTERM unwinds through run_process, which kills and reaps the child
    speed.pin_to_one_cpu()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = OUT_ROOT / f"{opts.workload}-s{opts.seed}-p{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        docs = {p: load_doc(p) for p in (SCHOTTKY, LOXODROMIC, PARABOLIC)}
        ctx = Context(seed=opts.seed, out=out, docs=docs,
                      delta=delta_mod.schottky_delta(docs[SCHOTTKY],
                                                     DELTA_DEPTH))
        tally = Tally()
        if opts.trace:
            metrics = per_layer(opts.workload, ctx, tally, opts.seed)
        else:
            metrics = end_to_end(opts.workload, ctx, tally, opts.seed,
                                 opts.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
