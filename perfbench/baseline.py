#!/usr/bin/env python3
"""Record the benchmark's baseline: repeated runs, quartiles and one trace.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` untraced once per workload of ``BENCHMARK.json`` and seed
in ``SEEDS``, then ``TRACE_PAIRS`` times an untraced and a traced run at
``TRACE_SEED`` back to back, one process at a time.  It writes per-workload
medians and quartiles of every end-to-end metric, the spread
(q3 - q1) / median that the bounds in ``BENCHMARK.json`` are held against,
the raw per-step seconds, the failed operations per seed, the per-layer
table, each layer's share of the traced time and the tracing overhead: the
median over the pairs of traced minus untraced pass time, both
host-normalized.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_out" / "runs.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("cli", "spd", "measures", "brenier", "entropic", "gamma2", "concentration")
# inclusive times of the single functions the workloads are chosen around
SHARES = ["spd.SpdMatrix.self_s", "measures.quantile.s", "measures.regularized.s"]
SEEDS = list(range(1, 11))
TRACE_SEED = 2024
TRACE_PAIRS = 3


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    side = json.loads(RUNS.read_text().strip().splitlines()[-1]) if proc.stdout.strip() else None
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
          + (json.dumps({k: v["value"] for k, v in result["metrics"].items()})
             if result and not trace else ""), flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return proc.returncode, result, side


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    doc = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "trace_seed": TRACE_SEED,
           "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        pairs = [(bench(workload, TRACE_SEED, 0), bench(workload, TRACE_SEED, 1))
                 for _ in range(TRACE_PAIRS)]
        traced = pairs[0][1]
        sides = [side for _, _, side in runs]
        e2e = {m["name"]: quartiles([r["metrics"][m["name"]]["value"] for _, r, _ in runs])
               for m in SPEC["end_to_end"]}
        layers = {name: m["value"] for name, m in traced[1]["metrics"].items()}
        traced_wall = layers["trace.wall_s"]   # raw seconds, as are the self times
        pair_s = [[statistics.median(run[2]["pass_scaled_s"]) for run in pair] for pair in pairs]
        doc["workloads"][workload] = {
            "exit_codes": [rc for rc, _, _ in runs],
            "correct": all(r["correct"] for _, r, _ in runs),
            "failed_of_attempted": {str(s): [r["failed"], r["attempted"]]
                                    for s, (_, r, _) in zip(SEEDS, runs)},
            "end_to_end": e2e,
            "raw_wall_s": quartiles([side["step_raw_s"]["wall"] for side in sides]),
            "raw_step_s": {step: statistics.median(side["step_raw_s"][step] for side in sides)
                           for step in sides[0]["step_raw_s"]},
            "host": {key: [side[key] for side in sides]
                     for key in ("probe_median_s", "pass_raw_s", "nproc", "blas_threads")},
            "trace": {"exit_code": traced[0], "metrics": layers,
                      "correct": all(t[1]["correct"] for _, t in pairs)},
            "share_of_traced_wall": {
                name: layers[name] / traced_wall
                for name in [f"{layer}.self_s" for layer in LAYERS] + SHARES},
            # [untraced, traced] pass seconds of each pair
            "tracing_pairs_s": pair_s,
            "tracing_overhead_s": statistics.median(t - u for u, t in pair_s),
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, w in doc["workloads"].items():
        print(workload, {name: round(q["spread"], 4) for name, q in w["end_to_end"].items()})


if __name__ == "__main__":
    main()
