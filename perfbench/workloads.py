"""Workload definitions: every input is generated here from the seed.

A workload is an ordered list of steps.  A ``cli`` step is one
``otspec <kind> --config FILE`` invocation whose config spells out every
field, so a change to a default in ``otspec.cli`` cannot shrink the load.
A ``floor`` step is one ``caffarelli_floor_check`` call, the one claim no
CLI kind reaches.  The program receives only these generated inputs.
"""

# reports land in one fixed relative directory: ``out`` is echoed in the
# report and hashed into its name, so two runs of the same seed must agree
REPORT_DIR = ".perfbench_out/reports"

EXPERIMENT_LABELS = [
    "1d:uniform(0.0,1.0)->exponential(1.0)",
    "1d:gaussian(0.0,1.0)->logistic(0.0,1.0)",
    "1d:beta(2.0,3.0)->gaussian(0.0,1.0)",
    "1d:gamma(3.0,1.0)->gaussian(0.5,0.8)",
    "gaussian:n=3",
    "gaussian:n=5",
    "product:n=3",
    "radial:ball->gaussian n=2",
    "radial:ball->gaussian n=3",
    "radial:ball->gaussian n=5",
    "radial:ball->gaussian n=8",
]
BANK = ["coordinates", "mean", "max", "log-sum-exp", "distance-to-anchor"]
C_GRID = [0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2]
VARIANCE_MAP = {
    "kind": "1d",
    "source": {"name": "uniform", "params": [0.0, 1.0]},
    "target": {"name": "exponential", "params": [1.0]},
}
# the acceptance gate's three regularized pairs: (source, target, N)
FLOOR_PAIRS = [
    (("uniform", [0.0, 1.0]), ("exponential", [1.0]), 10),
    (("gaussian", [0.0, 1.0]), ("gaussian", [0.0, 0.25]), 5),
    (("beta", [2.0, 3.0]), ("gaussian", [0.0, 1.0]), 10),
]
FLOOR_GRID_POINTS = 512

WORKLOADS = ("pointwise", "sampled", "grid", "regularized")


def _cli(kind, seed, **fields):
    cfg = {
        "kind": kind,
        "seed": seed,
        "samples": 100_000,
        "quadrature_nodes": 2048,
        "map": None,
        "experiments": "default",
        "bank": "all",
        "c_grid": list(C_GRID),
        "dims": [1, 2, 3],
        "pairs": 1000,
        "triples": 20,
        "points": 100,
        "grid": 64,
        "out": REPORT_DIR,
        "format": "json",
        "dump_samples": False,
    }
    unknown = set(fields) - set(cfg)
    if unknown:
        raise KeyError(f"unknown config fields {sorted(unknown)}")
    cfg.update(fields)
    return {"type": "cli", "name": kind, "config": cfg}


def _floor(source, target, n_reg):
    (sn, sp), (tn, tp) = source, target
    return {
        "type": "floor",
        "name": f"floor[{sn}->{tn} N={n_reg}]",
        "source": {"name": sn, "params": list(sp)},
        "target": {"name": tn, "params": list(tp)},
        "n_reg": n_reg,
        "grid_points": FLOOR_GRID_POINTS,
    }


def steps(workload, seed):
    """The workload's steps for one seed; the same seed gives the same steps."""
    seed = int(seed)
    if workload == "pointwise":
        return [
            _cli("geometry-selftest", seed, dims=[2, 3, 4, 5, 6, 7, 8], pairs=1000),
            _cli("gamma2-check", seed, dims=[1, 2, 3], triples=20, points=100),
        ]
    if workload == "sampled":
        sampled = {"experiments": list(EXPERIMENT_LABELS), "bank": list(BANK)}
        return [
            _cli("poincare", seed, **sampled),
            _cli("concentration", seed, **sampled),
            _cli("variance", seed, map=VARIANCE_MAP),
        ]
    if workload == "grid":
        return [_cli("sinkhorn2d", seed, experiments=["gaussian", "product"], grid=64)]
    if workload == "regularized":
        # the floor check takes no seed: its inputs are the same for every seed
        return [_floor(s, t, n) for s, t, n in FLOOR_PAIRS]
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
