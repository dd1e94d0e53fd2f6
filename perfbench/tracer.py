"""Outside-in span tracer for the seven ``otspec`` layers.

``install`` wraps, from outside the package, every public function and
every public method (plus ``__init__`` and ``__call__``) of the classes
defined in each layer module, and rebinds the wrapped function in every
layer namespace that imported it by name (``cli`` and ``concentration``
bind ``from .spd import spd_distance``).  Methods are replaced on the class
that defines them, so every subclass of ``LogConcaveMeasure1D`` and
``TransportMap`` is covered through its own overrides or through the base.

A span is ``(name, run id, start, end, parent span)``.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer figures and
``dump`` writes them out once the run is over.
"""

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "spd", "measures", "brenier", "entropic", "gamma2", "concentration")

# private helpers that are the unit of work a per-layer metric counts
_PRIVATE = {"_Regularized1D": ("_pointwise",)}
_DUNDERS = ("__init__", "__call__")
_MAP_KINDS = ("1d", "gaussian", "product", "radial")


def _units(layer, owner, attr):
    """Work-unit counter for the spans of one wrapped callable, or None."""
    if layer == "measures" and attr == "quantile":
        return lambda a, k, r: {"draws": int(np.size(a[1] if len(a) > 1 else k["p"]))}
    if layer == "measures" and attr == "_pointwise":
        return lambda a, k, r: {"points": int(np.size(a[1]))}
    if layer == "brenier" and attr == "log_spectra":
        return lambda a, k, r: {"points": int(np.atleast_1d(a[1] if len(a) > 1 else k["x"]).shape[0])}
    if layer == "entropic" and attr == "entropic_map":
        return lambda a, k, r: {"points": int(np.atleast_2d(a[1] if len(a) > 1 else k["x"]).shape[0])}
    if layer == "entropic" and attr == "sinkhorn_solve":
        return lambda a, k, r: {"iters": len(r.history)}
    if layer == "concentration" and attr == "spectral_samples":
        return lambda a, k, r: {"draws": int(r.count)}
    if layer == "concentration" and attr == "entropic_spectral_samples":
        return lambda a, k, r: {"kept": int(r.count), "skipped": int(r.skipped),
                                "flagged": int(r.flagged)}
    return None


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names = []                 # span-name table
        self.name_ids = {}
        self.owner = {}                 # span name -> (layer, defining class or None, attribute)
        self.span_name = array("i")     # one entry per span, in start order
        self.span_run = array("i")
        self.span_parent = array("l")   # index of the enclosing span, -1 at top level
        self.span_start = array("d")
        self.span_end = array("d")
        self.units = []                 # (span, {unit: count}) for counted spans
        self.run_ids = []
        self.run = -1
        self._stack = []

    def start_run(self, run_id):
        self.run_ids.append(run_id)
        self.run = len(self.run_ids) - 1

    def wrap(self, name, fn, owner):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.owner[name] = owner
        units = _units(*owner)
        stack, unit_rows = self._stack, self.units
        span_name, span_run, span_parent = self.span_name, self.span_run, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_run.append(self.run)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if units is not None:
                unit_rows.append((idx, units(args, kwargs, result)))
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def layer_metrics(self, run):
        """The per-layer metric values of one traced pass."""
        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.int_)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        in_run = np.frombuffer(self.span_run, dtype=np.intc) == run
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n_names = len(self.names)
        self_s = np.bincount(name[in_run], weights=(dur - child)[in_run], minlength=n_names)
        calls = np.bincount(name[in_run], minlength=n_names)
        units = defaultdict(lambda: defaultdict(int))
        for idx, counts in self.units:
            if in_run[idx]:
                for key, n in counts.items():
                    units[int(name[idx])][key] += n

        def ids(pred):
            return [i for i, n in enumerate(self.names) if pred(*self.owner[n])]

        def fn(layer, attr, owner=None):
            return ids(lambda l, o, a: l == layer and a == attr
                       and (owner is None or (o is not None and o.__name__ == owner)))

        def total(table, id_list):
            return float(sum(table[i] for i in id_list))

        def unit(id_list, key):
            return int(sum(units[i][key] for i in id_list))

        def per(num, den):
            return num / den if den else 0.0

        def incl(id_list):
            """Time inside spans of the set, not counting spans nested in one of them."""
            wanted = np.zeros(n_names + 1, dtype=bool)
            wanted[id_list] = True
            hit = wanted[name] & in_run
            covered = np.zeros(dur.size + 1, dtype=bool)   # slot -1 stays False
            anc = np.where(nested, parent, -1)
            # an ancestor in the set shows up within the stack depth
            for _ in range(64):
                nxt = hit[anc] | covered[anc]
                nxt[~nested] = False
                if np.array_equal(nxt, covered[:-1]):
                    break
                covered[:-1] = nxt
            return float(dur[hit & ~covered[:-1]].sum())

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = total(self_s, ids(lambda l, o, a, layer=layer: l == layer))

        m["cli.config_s"] = incl(
            fn("cli", "parse_config") + fn("cli", "config_from_dict") + fn("cli", "default_config")
        )
        m["cli.emit_s"] = incl(fn("cli", "emit_report"))

        spd_init = fn("spd", "__init__", "SpdMatrix")
        m["spd.SpdMatrix.calls"] = int(total(calls, spd_init))
        m["spd.SpdMatrix.self_s"] = total(self_s, spd_init)
        geo = fn("spd", "geodesic_point")
        m["spd.geodesic_point.calls"] = int(total(calls, geo))
        m["spd.geodesic_point.s_per_call"] = per(incl(geo), total(calls, geo))
        dist = fn("spd", "spd_distance")
        m["spd.spd_distance.calls"] = int(total(calls, dist))
        m["spd.spd_distance.s_per_call"] = per(incl(dist), total(calls, dist))

        ct = fn("gamma2", "contracted_tensors")
        points = int(total(calls, ct))
        m["gamma2.points"] = points
        m["gamma2.s_per_point"] = per(m["gamma2.self_s"], points)
        m["gamma2.contracted_tensors.s_per_call"] = per(incl(ct), points)

        q = fn("measures", "quantile")
        cdf = fn("measures", "cdf")
        m["measures.quantile.calls"] = int(total(calls, q))
        m["measures.quantile.draws"] = unit(q, "draws")
        m["measures.quantile.self_s"] = total(self_s, q)
        m["measures.quantile.s"] = incl(q)
        m["measures.quantile.s_per_draw"] = per(m["measures.quantile.s"], m["measures.quantile.draws"])
        m["measures.cdf.calls"] = int(total(calls, cdf))
        m["measures.cdf_per_quantile"] = per(m["measures.cdf.calls"], m["measures.quantile.calls"])
        pw = fn("measures", "_pointwise")
        m["measures.regularized.points"] = unit(pw, "points")
        m["measures.regularized.s"] = incl(pw)
        m["measures.regularized.s_per_point"] = per(m["measures.regularized.s"], m["measures.regularized.points"])
        m["measures.regularize.s"] = incl(fn("measures", "regularize"))

        for kind in _MAP_KINDS:
            ls = ids(lambda l, o, a, kind=kind: l == "brenier" and a == "log_spectra"
                     and o is not None and o.kind.startswith(kind))
            m[f"brenier.log_spectra.s_per_point.{kind}"] = per(incl(ls), unit(ls, "points"))
        m["brenier.map_points.self_s"] = total(self_s, fn("brenier", "map_points"))

        sk = fn("entropic", "sinkhorn_solve")
        m["entropic.sinkhorn_solve.iters"] = unit(sk, "iters")
        m["entropic.sinkhorn_solve.s_per_iter"] = per(incl(sk), m["entropic.sinkhorn_solve.iters"])
        em = fn("entropic", "entropic_map")
        m["entropic.entropic_map.points"] = unit(em, "points")
        m["entropic.entropic_map.s_per_point"] = per(incl(em), m["entropic.entropic_map.points"])
        m["entropic.hessian_fd.calls"] = int(total(calls, fn("entropic", "hessian_fd")))

        ss = fn("concentration", "spectral_samples")
        m["concentration.spectral_samples.draws"] = unit(ss, "draws")
        m["concentration.spectral_samples.s_per_draw"] = per(
            incl(ss), m["concentration.spectral_samples.draws"])
        m["concentration.ratio.self_s"] = total(self_s, ids(
            lambda l, o, a: l == "concentration"
            and a in ("poincare_ratio", "exp_concentration", "variance_report")))
        es = fn("concentration", "entropic_spectral_samples")
        kept, skipped, flagged = unit(es, "kept"), unit(es, "skipped"), unit(es, "flagged")
        m["concentration.entropic_spectral_samples.kept_frac"] = per(kept, kept + skipped + flagged)
        m["concentration.entropic_spectral_samples.skipped"] = skipped
        m["concentration.entropic_spectral_samples.flagged"] = flagged
        m["trace.spans"] = int(in_run.sum())
        return m

    def dump(self, path):
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            span_name=np.frombuffer(self.span_name, dtype=np.intc),
            span_run=np.frombuffer(self.span_run, dtype=np.intc),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int_),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
            names=np.array(self.names),
            runs=np.array(self.run_ids),
        )


def _wrappable(cls, attr, obj):
    if not inspect.isfunction(obj):
        return False
    if attr in _DUNDERS or attr in _PRIVATE.get(cls.__name__, ()):
        return True
    return not attr.startswith("_")


def install(tracer):
    """Wrap the layers' callables in place; returns the number wrapped."""
    modules = {layer: importlib.import_module(f"otspec.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj, (layer, None, attr))
            elif inspect.isclass(obj):
                for name, meth in list(vars(obj).items()):
                    if _wrappable(obj, name, meth):
                        setattr(obj, name, tracer.wrap(
                            f"{layer}.{obj.__name__}.{name}", meth, (layer, obj, name)))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return len(tracer.names)
