"""Run one kleinlab command in this process with spans around its layer calls.

    python3 benchmark/trace_replay.py --spans OUT.json --trace-id K -- ARGS...

ARGS are the arguments of the `kleinlab` command. The command runs through
`kleinlab.cli.main`, so it makes the same public calls with the same
arguments as the untraced process. Before it runs, the public functions of
the layers are replaced by wrappers that record a span (name, start, end,
parent, trace id) and read counters from return values and public
attributes. Spans stay in memory and are written to OUT.json when the
command ends. The report goes to stdout as usual and the exit code is the
command's.

The counter trace.overhead_s is the tracer's own time outside the spanned
calls: installing the wrappers, span bookkeeping and counter reads. Writing
OUT.json comes after the command and is not counted. It is measured in the
process because a traced process minus an untraced one is lost in the ±20%
by which separate processes of equal work differ on a small shared machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.overhead_s = 0.0

    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value

    def own(self, fn, *args):
        """fn(*args), its time counted as tracing overhead."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.overhead_s += time.perf_counter() - start

    def record(self, name: str, start: float, end: float, parent=None):
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent,
                           "trace": self.trace_id})

    def call(self, name: str, fn, *args, **kwargs):
        enter = time.perf_counter()
        sid = len(self.spans)
        self.record(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid].update(start=start, end=end)
            self.overhead_s += (start - enter) + (time.perf_counter() - end)

    def wrap(self, module, attr: str, name: str, after=None, args_hook=None):
        """Replace module.attr by a spanned wrapper; after(out, args, kwargs)."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if args_hook is not None:
                args, kwargs = self.own(args_hook, args, kwargs)
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self.own(after, out, args, kwargs)
            return out

        setattr(module, attr, wrapper)
        return wrapper


def install(tracer: Tracer, cli) -> list:
    """Wrap the layer calls of kleinlab.cli; returns the families built."""
    from kleinlab import group, harmonic, limitset, lipgraph

    add = tracer.add
    tracer.wrap(cli, "load_group_file", "files.load_group_file")

    enum = tracer.wrap(group, "enumerate_elements", "group.enumerate_elements",
                       after=lambda out, a, k: add("group.words", len(out)))
    lipgraph.enumerate_elements = enum  # imported by name there
    tracer.wrap(group, "critical_exponent", "group.critical_exponent")

    tracer.wrap(limitset, "sample_limit_set", "limitset.sample_limit_set",
                after=lambda out, a, k: add("limitset.cloud_points", out.size))
    tracer.wrap(limitset, "box_dimension", "limitset.box_dimension",
                after=lambda out, a, k: add(
                    "limitset.net_balls", sum(out.diagnostics["counts"])))
    tracer.wrap(limitset, "export_csv", "limitset.export_csv",
                after=lambda out, a, k: add(
                    "limitset.csv_bytes", os.path.getsize(a[1])))

    def counting_region(args, kwargs):
        region, rest = args[0], args[1:]

        def contains(U):
            add("lipgraph.mesh.candidates", len(U))
            return region.contains(U)

        return (lipgraph.FundamentalRegion(region.kind, contains),) + rest, kwargs

    tracer.wrap(lipgraph, "region_mesh", "lipgraph.region_mesh",
                args_hook=counting_region,
                after=lambda out, a, k: add("lipgraph.mesh.points", len(out)))

    families = []
    family_cls = lipgraph.DomeFamily

    def build_family(*args, **kwargs):
        fam = tracer.call("lipgraph.DomeFamily", family_cls, *args, **kwargs)
        heights = fam.heights

        def count_heights(res):
            add("lipgraph.heights.points", len(res.f))
            add("lipgraph.heights.covered", int(res.covered.sum()))

        def traced_heights(U):
            res = tracer.call("lipgraph.heights", heights, U)
            tracer.own(count_heights, res)
            return res

        fam.heights = traced_heights
        families.append(fam)
        return fam

    lipgraph.DomeFamily = build_family
    for attr in ("graph_volume", "check_invariance", "lipschitz_estimate",
                 "bilipschitz_ratios", "graph_band", "export_graph_csv"):
        tracer.wrap(lipgraph, attr, f"lipgraph.{attr}")

    tracer.wrap(harmonic, "harmonic_measure_identity",
                "harmonic.harmonic_measure_identity")
    tracer.wrap(harmonic, "harmonic_extension", "harmonic.harmonic_extension",
                after=lambda out, a, k: add("harmonic.samples", out.samples))
    return families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace-id", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    tracer = Tracer(opts.trace_id)
    start = time.perf_counter()
    import kleinlab.cli as cli
    tracer.record("cli.import", start, time.perf_counter())
    families = tracer.own(install, tracer, cli)
    code = tracer.call(f"cli.{command[0]}", cli.main, command)
    sys.stdout.flush()
    finish = time.perf_counter()
    # shape audits of factored families grow as heights are evaluated
    for fam in families:
        tracer.add("lipgraph.family.cap_bound", fam.cap_count_bound)
        tracer.add("lipgraph.family.caps_checked",
                   len(fam.shape_ratios) + fam.shape_unresolved)
    tracer.add("trace.overhead_s",
               tracer.overhead_s + time.perf_counter() - finish)
    with open(opts.spans, "w") as fh:
        json.dump({"command": command, "exit_code": code,
                   "kleinlab": cli.__file__,
                   "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
