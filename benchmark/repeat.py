"""Repeat the benchmark over several seeds and report medians and spreads.

    python3 benchmark/repeat.py --seeds 1-10 [--label L]

Run from the root of a checkout. Workloads run round-robin across seeds
(seed 1 of every workload, then seed 2, ...), so slow drift of a shared
machine falls on all of them alike. For each workload and end-to-end metric
it prints the median, the quartiles from statistics.quantiles(n=4), and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
and the share of failed operations. Results are written to
.bench_out/repeat-L.json, and each run's standard error, with the per-command
wall time, CPU time, RSS and speed factor, to
.bench_out/repeat-L-<workload>-s<seed>.err.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="latest")
    opts = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    lo, hi = opts.seeds.split("-")
    seeds = range(int(lo), int(hi) + 1)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    for seed in seeds:
        for w in workloads:
            argv = [*bench["command"], "--workload", w, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            (out / f"repeat-{opts.label}-{w}-s{seed}.err").write_text(
                proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["run_s"] = took
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{w} seed={seed} run={took:.1f}s attempted="
                  f"{result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    summary = {}
    print(f"\n{'workload':18} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for w, results in runs.items():
        summary[w] = {"failed_share": sum(r["failed"] for r in results)
                      / sum(r["attempted"] for r in results),
                      "runs": results, "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread}
            flag = "" if spread < metric["bound"] / 3 else "  above bound/3"
            print(f"{w:18} {name:12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f}{flag}")
        print(f"{w:18} failed share {summary[w]['failed_share']}")
    (out / f"repeat-{opts.label}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
