#!/usr/bin/env python3
"""End-to-end benchmark for otspec: time to a verified report.

    python3 perfbench/run.py --workload pointwise --seed 2024 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in, and everything it writes goes to ``.perfbench_out/``
there.  One run:

1. pins itself to one CPU with single-threaded BLAS and starts the drift
   probe, a side thread that times a fixed small-matrix numpy kernel every
   0.2 s;
2. writes the workload's configs, generated from ``--seed``;
3. measures set-up: in each of three fresh interpreters, the time to import
   ``otspec`` and validate those configs (median reported);
4. runs the workload's sequence of public calls (``otspec.cli.main`` and
   ``caffarelli_floor_check``) in this process, in as many whole passes as
   fit in ``--seconds`` (at least one);
5. checks every output: the echoed config and its hash, the set of record
   names, exit codes against pass flags, and byte-identical reports for
   identical configs, across passes and across runs of the same source tree
   on the same Python and numpy.

Times are rescaled to the reference host speed by the drift probe (see
``DriftProbe``); the raw seconds, the probe statistics, ``nproc`` and the
BLAS thread count are printed and stored beside the run in
``.perfbench_out/runs.jsonl``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the layers are wrapped from outside (``tracer.py``) and
it carries the per-layer metrics instead, taken as medians over passes.
A check record with ``passed: false`` or a floor margin <= 0 counts as a
failed operation; a broken output (wrong echo, missing report, differing
bytes, raised call) also makes ``correct`` false and the exit code 1.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PROBE_PERIOD_S = 0.2
# nominal CPU seconds of the drift-probe kernel, near its median on a
# 2-CPU Intel Xeon host; normalized times are seconds at this speed
REF_PROBE_S = 0.0025
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric names and units come from the benchmark definition at the checkout root
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# per-layer values that must repeat exactly between passes and runs of one seed
COUNTS = tuple(n for n, u in PER_LAYER.items() if u in ("count", "B", "ratio"))

SETUP_CODE = """
import json, pathlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from otspec import cli
from otspec.measures import make_catalog_measure
for step in json.loads(pathlib.Path(sys.argv[2]).read_text()):
    if step["type"] == "cli":
        cli.parse_config(step["config_path"])
    else:
        for m in (step["source"], step["target"]):
            make_catalog_measure(m["name"], tuple(m["params"]))
print(repr(time.perf_counter() - t0))
"""


def pin_process():
    """Run on one CPU with single-threaded BLAS; returns (nproc, BLAS threads).

    One CPU keeps the drift probe on the core that does the work.  Must run
    before numpy is imported, so the BLAS pools see the thread cap.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return len(cpus), 1


def probe_kernel(np, small):
    """The drift probe's fixed kernel: small-matrix numpy calls, as in the
    per-point loops, about 2.5 ms on the reference host.  It never calls
    ``otspec``, so a change to the program cannot move its own reference."""
    for _ in range(20):
        for a in small:
            w, v = np.linalg.eigh(a)
            np.linalg.norm((v * w) @ v.T - a)


class DriftProbe:
    """CPU time of a fixed kernel, sampled every ``PROBE_PERIOD_S`` on a side thread.

    The host's speed drifts by tens of percent over tens of seconds, and
    CPU time equals wall time when it does, so the work is slower rather
    than waiting.  The probe runs on the same CPU as the workload throughout
    the run; ``scale`` converts seconds measured in a window to seconds at
    the reference speed ``REF_PROBE_S``.  Its arrays take a few hundred
    bytes, so it adds nothing visible to the peak memory; its CPU time,
    about 1 % of the run, lands in the measured times.
    """

    def __init__(self):
        self.samples = []           # (perf_counter at start, CPU seconds of the kernel)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="drift-probe", daemon=True)

    def _loop(self):
        import numpy as np

        small = [np.eye(n) + 0.1 * np.ones((n, n)) for n in (3, 4, 5, 6)]
        while not self._stop.wait(PROBE_PERIOD_S):
            t, c = time.perf_counter(), time.thread_time()
            probe_kernel(np, small)
            self.samples.append((t, time.thread_time() - c))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("drift probe thread did not stop")

    def scale(self, t0, t1):
        """Reference seconds per measured second over [t0, t1].

        Work done in the window is the integral of the host's speed, and the
        probe samples the speed at even steps of time, so the factor is the
        mean of ``reference time / probe time`` over the samples in the
        window, widened to at least 5 samples.
        """
        pad = 0.0
        while True:
            inside = [c for t, c in self.samples if t0 - pad <= t <= t1 + pad]
            if len(inside) >= 5 or len(inside) == len(self.samples):
                return statistics.fmean(REF_PROBE_S / c for c in inside)
            pad += PROBE_PERIOD_S

    def summary(self):
        cpu = [c for _, c in self.samples]
        return {"probe_samples": len(cpu),
                "probe_median_s": statistics.median(cpu),
                "probe_min_s": min(cpu), "probe_max_s": max(cpu)}


def build_digest():
    """Hash of what the outputs depend on besides their inputs: the source
    tree of ``otspec`` and the Python and numpy versions."""
    import numpy

    h = hashlib.sha256(f"python {platform.python_version()} numpy {numpy.__version__}\0".encode())
    for path in sorted((SRC / "otspec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def measure_setup(steps_path, probe):
    """Median set-up seconds over fresh interpreters: (at reference speed, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(steps_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.scale(t0, time.perf_counter()))
    return statistics.median(scaled), statistics.median(raw)


class Gate:
    """Output checks and operation counts for one run."""

    def __init__(self, expected, digests, digest_key):
        self.expected = expected        # kind -> record names
        self.digests = digests          # persistent: key -> sha256 of the output
        self.digest_key = digest_key
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def error(self, msg):
        if msg not in self.errors:
            self.errors.append(msg)

    def same_output(self, step, data):
        # ``step`` names the output and a hash of its inputs
        key = f"{self.digest_key}/{step}"
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            self.error(f"{step}: output differs from an earlier pass or run of the same config")

    def cli_report(self, step, rc, path):
        cfg, kind = step["config"], step["name"]
        names = self.expected[kind]
        self.attempted += len(names)
        try:
            data = path.read_bytes()
            rep = json.loads(data)
        except (OSError, ValueError) as exc:
            self.failed += len(names)
            self.error(f"{kind}: exit code {rc}, no readable report ({exc})")
            return 0
        records = rep.get("records", [])
        nfail = sum(1 for r in records if r.get("passed") is not True)
        self.failed += nfail + max(0, len(names) - len(records))
        if rep.get("config") != cfg:
            self.error(f"{kind}: echoed config differs from the config passed")
        if rep.get("config_hash") != config_hash(cfg):
            self.error(f"{kind}: config hash differs from the hash of the config passed")
        got = [r.get("name") for r in records]
        if sorted(got) != sorted(names):
            self.error(f"{kind}: {len(got)} records, expected the {len(names)} named ones")
        if rc != (1 if nfail else 0):
            self.error(f"{kind}: exit code {rc} with {nfail} failed records")
        self.same_output(path.name, data)
        return len(data)

    def floor_margin(self, step, margin):
        self.attempted += 1
        if margin is None:
            self.failed += 1
            return
        if not margin > 0.0:
            self.failed += 1
        self.same_output(f"{step['name']}-{config_hash(step)[:12]}", repr(margin).encode())


def run_pass(plan, gate, cli, floor_check, make_measure):
    """One pass over the workload; returns per-step (start, end) and report bytes."""
    times = {}
    report_bytes = 0
    for step in plan:
        if step["type"] == "cli":
            cfg = step["config"]
            path = ROOT / cfg["out"] / f"{cfg['kind']}-{config_hash(cfg)[:12]}.json"
            path.unlink(missing_ok=True)
            argv = [cfg["kind"], "--config", step["config_path"]]
            t = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted below
                    rc = f"raised {type(exc).__name__}: {exc}"
            times[step["name"]] = (t, time.perf_counter())
            report_bytes += gate.cli_report(step, rc, path)
        else:
            t = time.perf_counter()
            try:
                margin = floor_check(
                    make_measure(step["source"]["name"], tuple(step["source"]["params"])),
                    make_measure(step["target"]["name"], tuple(step["target"]["params"])),
                    step["n_reg"],
                    grid_points=step["grid_points"],
                )
            except Exception as exc:  # noqa: BLE001 - a raised call is a failure
                margin = None
                gate.error(f"{step['name']}: raised {type(exc).__name__}: {exc}")
            times[step["name"]] = (t, time.perf_counter())
            gate.floor_margin(step, margin)
    return times, report_bytes


def load_digests(path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "otspec" / "__init__.py").is_file():
        print(f"perfbench: no otspec source tree under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    nproc, blas_threads = pin_process()
    with DriftProbe() as probe:
        values, units, gate, detail = run(args, probe)
    host = {"nproc": nproc, "blas_threads": blas_threads, **probe.summary()}

    fail_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **host, **detail,
            "fail_frac": fail_frac, "attempted": gate.attempted, "failed": gate.failed,
            "errors": gate.errors, "metrics": values,
        }, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in host.items()))
    for name in units:
        print(f"  {name:<48} {values[name]:>14.6g} {units[name]}")
    if not args.trace:
        raw = dict(detail["step_raw_s"])
        totals = {f"{name}_s": raw.pop(name) for name in ("wall", "setup")}
        if len(raw) > 1:  # with one step, wall_s already is that step's time
            totals.update({(f"{n}_s" if n.startswith("floor[") else f"kind.{n}_s"): s
                           for n, s in raw.items()})
        for label, s in totals.items():
            print(f"  {label:<48} {s:>14.6g} s, raw")
        print(f"  {'fail_frac':<48} {fail_frac:>14.6g} ratio "
              f"({gate.failed} of {gate.attempted} operations)")
    for msg in gate.errors:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not gate.errors,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not gate.errors else 1


def run(args, probe):
    """Set up, run the passes and check them.

    Returns the metric values, their units, the gate and the raw timings.
    """
    OUT.mkdir(exist_ok=True)
    (OUT / "configs").mkdir(exist_ok=True)
    plan = workloads.steps(args.workload, args.seed)
    for step in plan:
        if step["type"] == "cli":
            path = OUT / "configs" / f"{step['name']}.json"
            path.write_text(json.dumps(step["config"], indent=1) + "\n")
            step["config_path"] = str(path.relative_to(ROOT))
    steps_path = OUT / "configs" / "steps.json"
    steps_path.write_text(json.dumps(plan, indent=1) + "\n")
    setup_s, setup_raw_s = measure_setup(steps_path, probe)

    sys.path.insert(0, str(SRC))
    import otspec
    from otspec import cli
    from otspec.concentration import caffarelli_floor_check
    from otspec.measures import make_catalog_measure

    if SRC.resolve() not in Path(otspec.__file__).resolve().parents:
        raise RuntimeError(f"imported otspec from {otspec.__file__}, not from {SRC}")

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        # look the entry points up again: they are wrapped now
        caffarelli_floor_check = sys.modules["otspec.concentration"].caffarelli_floor_check
        make_catalog_measure = sys.modules["otspec.measures"].make_catalog_measure

    expected = json.loads(Path(__file__).with_name("expected_records.json").read_text())
    digests_path = OUT / "digests.json"
    gate = Gate(expected, load_digests(digests_path), build_digest())

    # whole passes, as many as fit in --seconds (at least one)
    passes = []
    t0 = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - t0 + last <= args.seconds:
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.start_run(f"{args.workload}-seed{args.seed}-pass{len(passes)}")
        passes.append(run_pass(plan, gate, cli, caffarelli_floor_check, make_catalog_measure))
        last = time.perf_counter() - t_pass

    tmp = digests_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(gate.digests, indent=1, sort_keys=True) + "\n")
    tmp.replace(digests_path)

    raw = [{name: b - a for name, (a, b) in times.items()} for times, _ in passes]
    walls = [sum((b - a) * probe.scale(a, b) for a, b in times.values()) for times, _ in passes]
    step_raw = {name: statistics.median(r[name] for r in raw) for name in raw[0]}
    step_raw["wall"] = statistics.median(sum(r.values()) for r in raw)
    step_raw["setup"] = setup_raw_s
    detail = {"step_raw_s": step_raw, "pass_raw_s": [sum(r.values()) for r in raw],
              "pass_scaled_s": walls}
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return values, END_TO_END, gate, detail

    per_pass = []
    for run_idx, (_, report_bytes) in enumerate(passes):
        m = tracer.layer_metrics(run_idx)
        m["cli.report_bytes"] = report_bytes
        # raw, like every per-layer time, so self-time shares add up to it
        m["trace.wall_s"] = sum(raw[run_idx].values())
        per_pass.append(m)
    for name in COUNTS:
        if len({m[name] for m in per_pass}) > 1:
            gate.error(f"count {name} differs between passes: {[m[name] for m in per_pass]}")
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    values = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
    return values, PER_LAYER, gate, detail


if __name__ == "__main__":
    sys.exit(main())
