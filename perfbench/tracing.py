"""Span tracer that wraps divrel's public functions from outside the library.

Every public function is replaced, at every module that binds it (the
package namespace included), by one shared wrapper that records a span:
name, start, end, parent span, op id. Spans stay in flat in-memory
arrays until the run writes them out. A few wrappers also bump counters
at the boundary where the work happens: distribution and channel
validations, quadrature integrand evaluations, brute-force candidates
and the scalar bound evaluations of ``d_star``.

Recording uses only the standard library, so a traced CLI child pays
nothing for it before ``import divrel`` has finished; the summary
functions import numpy lazily.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from array import array
from time import perf_counter

LAYERS = (
    "cli", "distributions", "divergences", "identities",
    "moment_bounds", "inequalities", "contraction", "applications",
)
COUNTERS = (
    "validations", "checks", "check_validations", "integrand_evals",
    "candidates", "useful_candidates", "dstar_bound_evals",
)
_VALIDATION = "validate"
_COLUMNS = {
    "name_id": "i", "start": "d", "end": "d", "parent": "i",
    "op": "i", "size": "q", "failed": "b",
}


class Tracer:
    """Records spans and counters for every wrapped divrel call."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.cols = {k: array(t) for k, t in _COLUMNS.items()}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_rel_err = 0.0
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._dist_type = None
        self._brute_qx = None
        self._in_dstar = 0
        self._in_check = 0

    # -- recording ---------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int, size: int) -> int:
        c = self.cols
        i = len(c["start"])
        c["name_id"].append(nid)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op_id)
        c["size"].append(size)
        c["failed"].append(0)
        c["end"].append(0.0)
        self._stack.append(i)
        c["start"].append(perf_counter())
        return i

    def _close(self, i: int, failed: bool) -> None:
        self.cols["end"][i] = perf_counter()
        if failed:
            self.cols["failed"][i] = 1
        self._stack.pop()

    def _wrap(self, fn, name, layer, enter=None, leave=None, sized=False):
        nid = self._intern(name, layer)
        tr = self
        dist_type = self._dist_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = -1
            if sized:
                for a in args:
                    if type(a) is dist_type:
                        size = len(a.mass)
                        break
            if enter is not None:
                args = enter(args, kwargs)
            i = tr._open(nid, size)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr._close(i, True)
                if leave is not None:
                    leave(args, None)
                raise
            tr._close(i, leave(args, result) if leave is not None else False)
            return result

        return wrapper

    # -- hooks at layer boundaries -----------------------------------

    def _count_integrand(self, args, kwargs):
        f = args[0]

        def counted(s):
            self.counts["integrand_evals"] += 1
            return f(s)

        return (counted,) + args[1:]

    def _enter_brute(self, args, kwargs):
        sc = args[1] if len(args) > 1 else kwargs["sc"]
        self._brute_qx = sc.qx
        return args

    def _leave_brute(self, args, result):
        self._brute_qx = None
        return False

    def _leave_f_divergence(self, args, result):
        # Under brute_force_mu_f every candidate input law is scored against
        # the source law qx; the output-side call happens only when the input
        # divergence is usable, and the candidate is useful if it is finite.
        if self._brute_qx is not None and result is not None:
            if args[2] is self._brute_qx:
                self.counts["candidates"] += 1
            elif math.isfinite(result):
                self.counts["useful_candidates"] += 1
        return False

    def _enter_dstar(self, args, kwargs):
        self._in_dstar += 1
        return args

    def _leave_dstar(self, args, result):
        self._in_dstar -= 1
        return False

    def _leave_bound(self, args, result):
        if self._in_dstar:
            self.counts["dstar_bound_evals"] += 1
        return False

    def _enter_check(self, args, kwargs):
        if not self._in_check:
            self.counts["checks"] += 1
        self._in_check += 1
        return args

    def _leave_check(self, args, result):
        self._in_check -= 1
        if result is not None:
            self.max_rel_err = max(self.max_rel_err, float(result.rel_err))
        return False

    def _enter_validation(self, args, kwargs):
        self.counts["validations"] += 1
        if self._in_check:
            self.counts["check_validations"] += 1
        return args

    @staticmethod
    def _leave_cli_main(args, result):
        return result not in (None, 0)

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every public divrel function at each module that binds it."""
        if not self._bindings:
            self._bindings = self._make_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)

    def _make_bindings(self) -> list:
        import divrel
        from divrel.distributions import Channel, DiscreteDistribution

        self._dist_type = DiscreteDistribution
        hooks = {
            "integrate": (self._count_integrand, None),
            "brute_force_mu_f": (self._enter_brute, self._leave_brute),
            "f_divergence": (None, self._leave_f_divergence),
            "d_star": (self._enter_dstar, self._leave_dstar),
            "kl_moment_lower_bound": (None, self._leave_bound),
            "main": (None, self._leave_cli_main),
        }
        modules = [importlib.import_module(f"divrel.{m}") for m in LAYERS]
        wrappers, bindings = {}, []
        for mod in modules + [divrel]:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    enter, leave = hooks.get(obj.__name__, (None, None))
                    if obj.__name__.startswith("check_"):
                        enter, leave = self._enter_check, self._leave_check
                    wrappers[obj] = self._wrap(
                        obj, obj.__name__, layer, enter, leave,
                        sized=layer == "divergences",
                    )
                bindings.append((mod, name, obj, wrappers[obj]))
        for cls in (DiscreteDistribution, Channel):
            orig = cls.__post_init__
            bindings.append((cls, "__post_init__", orig, self._wrap(
                orig, f"{cls.__name__}.{_VALIDATION}", "distributions",
                self._enter_validation,
            )))
        return bindings

    # -- output ------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        out = {k: np.frombuffer(v, dtype=v.typecode).copy()
               for k, v in self.cols.items()}
        out["names"] = np.array(self.names, dtype=str)
        out["layers"] = np.array(self.layers, dtype=str)
        out["meta"] = np.array(json.dumps(
            {"counts": self.counts, "max_rel_err": self.max_rel_err}))
        return out


def merge(logs: list[dict]) -> dict:
    """Concatenate span logs (from several processes) into one log."""
    import numpy as np

    out = {k: [] for k in _COLUMNS}
    names, layers, offset = [], [], 0
    counts = dict.fromkeys(COUNTERS, 0)
    max_rel_err = 0.0
    for log in logs:
        shifted = {"parent": np.where(log["parent"] >= 0, log["parent"] + offset, -1),
                   "name_id": log["name_id"] + len(names)}
        for k in _COLUMNS:
            out[k].append(shifted.get(k, log[k]))
        names += list(log["names"])
        layers += list(log["layers"])
        offset += len(log["start"])
        meta = json.loads(str(log["meta"]))
        for k in COUNTERS:
            counts[k] += meta["counts"][k]
        max_rel_err = max(max_rel_err, meta["max_rel_err"])
    merged = {k: np.concatenate(v) if v else np.zeros(0, dtype=_COLUMNS[k])
              for k, v in out.items()}
    merged["names"] = np.array(names, dtype=str)
    merged["layers"] = np.array(layers, dtype=str)
    merged["meta"] = np.array(json.dumps(
        {"counts": counts, "max_rel_err": max_rel_err}))
    return merged


def layer_metrics(log: dict) -> dict:
    """Per-layer numbers from a span log.

    A layer is the divrel module that defines a function. ``<layer>.calls``
    counts its public-function spans (validations excluded), ``self_s`` is
    the layer's span time minus the time its child spans cover, ``failed``
    counts spans that raised (and, for cli, calls that returned non-zero).
    ``divergences.ns_per_atom`` and ``bytes_computed`` cover the outermost
    divergences spans at the largest support size the log holds; bytes are
    16 per atom (two float64 vectors), computed, not measured.
    ``identities.validations_per_check`` is the validations inside each
    ``check_*`` call, ``contraction.useful_ratio`` the share of
    brute-force candidates whose ratio is finite and ``contraction.spectral_s``
    the time inside ``chi2_contraction``.
    """
    import numpy as np

    dur = log["end"] - log["start"]
    parent = log["parent"]
    nested = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[nested], dur[nested])
    self_time = dur - covered
    span_layer = log["layers"][log["name_id"]] if len(dur) else np.zeros(0, str)
    span_name = log["names"][log["name_id"]] if len(dur) else np.zeros(0, str)
    is_validation = np.char.endswith(span_name, "." + _VALIDATION)
    meta = json.loads(str(log["meta"]))
    counts = meta["counts"]

    m = {}
    for layer in LAYERS:
        in_layer = span_layer == layer
        m[f"{layer}.calls"] = int(np.sum(in_layer & ~is_validation))
        m[f"{layer}.self_s"] = float(np.sum(self_time[in_layer]))
        m[f"{layer}.failed"] = int(np.sum(log["failed"][in_layer]))
    m["distributions.validations"] = counts["validations"]

    # divergence kernels: outermost divergences span of each call chain,
    # at the largest support size the workload evaluates
    div = span_layer == "divergences"
    parent_div = np.zeros(len(dur), dtype=bool)
    parent_div[nested] = div[parent[nested]]
    top = div & ~parent_div & (log["size"] > 0)
    n_max = int(log["size"][top].max()) if top.any() else 0
    at_max = top & (log["size"] == n_max)
    atoms = int(np.sum(log["size"][at_max]))
    m["divergences.ns_per_atom"] = (
        float(np.sum(dur[at_max])) / atoms * 1e9 if atoms else 0.0)
    m["divergences.bytes_computed"] = 16 * atoms
    m["divergences.n_max"] = n_max

    m["identities.integrand_evals"] = counts["integrand_evals"]
    m["identities.validations_per_check"] = (
        counts["check_validations"] / counts["checks"] if counts["checks"] else 0.0)
    m["identities.max_rel_err"] = meta["max_rel_err"]
    m["contraction.candidates_scored"] = counts["candidates"]
    m["contraction.useful_ratio"] = (
        counts["useful_candidates"] / counts["candidates"]
        if counts["candidates"] else 0.0)
    m["contraction.spectral_s"] = float(
        np.sum(dur[span_name == "chi2_contraction"]))
    m["applications.dstar_bound_evals"] = counts["dstar_bound_evals"]
    m["spans"] = int(len(dur))
    return m
