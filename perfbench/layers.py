"""Per-layer instrumentation of sdlevy, applied from outside the package.

``instrument`` wraps the public functions of every sdlevy module (and the
artifact writers and the record-level identity helper, which are private)
as spans, under every module attribute that bound them. A few hooks add
counts that spans cannot give: streams built, variates drawn, jumps
simulated, gamma proposals, perpetuity pairs and KS margins. ``metrics``
turns one traced run into the per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import importlib
import inspect
import math
import re

import numpy as np

from tracer import Tracer

MODULES = ("rng", "levy", "discount", "decomposition", "perpetuity", "operator",
           "stats", "cli")

# Private functions that are layer boundaries all the same.
_PRIVATE_SPANS = {
    "cli": ("_write_samples_csv", "_write_cdf_csv", "_write_ecf_csv"),
    "decomposition": ("_first_jump_identity",),
}

_VARIATE_METHODS = ("uniform", "normal", "exponential", "poisson")

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "rng.split_s": ("s", "lower"),
    "rng.streams": ("count", "lower"),
    "rng.variates": ("count", "lower"),
    "rng.gamma_s": ("s", "lower"),
    "rng.gamma_accept_ratio": ("ratio", "higher"),
    "levy.simulate_s": ("s", "lower"),
    "levy.paths": ("count", "lower"),
    "levy.jumps": ("count", "lower"),
    "levy.jump_use_ratio": ("ratio", "higher"),
    "levy.shift_thin_s": ("s", "lower"),
    "levy.extensions": ("count", "lower"),
    "discount.eval_s": ("s", "lower"),
    "discount.evals": ("count", "lower"),
    "discount.batch_s": ("s", "lower"),
    "decomposition.self_s": ("s", "lower"),
    "decomposition.records": ("count", "higher"),
    "decomposition.us_per_record": ("us", "lower"),
    "perpetuity.iterate_s": ("s", "lower"),
    "perpetuity.series_s": ("s", "lower"),
    "perpetuity.pairs": ("count", "lower"),
    "operator.decompose_s": ("s", "lower"),
    "operator.integral_s": ("s", "lower"),
    "operator.paths": ("count", "lower"),
    "operator.records": ("count", "higher"),
    "stats.ks_s": ("s", "lower"),
    "stats.ks_tests": ("count", "higher"),
    "stats.ecf_s": ("s", "lower"),
    "stats.indep_s": ("s", "lower"),
    "stats.ks_min_margin": ("ratio", "higher"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.validate_s": ("s", "lower"),
    "setup.import_numpy_s": ("s", "lower"),
    "setup.import_scipy_s": ("s", "lower"),
    "setup.import_jsonschema_s": ("s", "lower"),
    "setup.import_sdlevy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between two traced runs with one seed.
DETERMINISTIC = ("rng.streams", "rng.variates", "levy.jumps", "levy.extensions",
                 "decomposition.records", "perpetuity.pairs",
                 "rng.gamma_accept_ratio", "stats.ks_min_margin", "cli.bytes_written")

# Metrics that are the inclusive time of a set of spans.
_SPAN_TIMES = {
    "rng.split_s": ("rng.RngStream.split",),
    "rng.gamma_s": ("rng.sample_gamma",),
    "levy.simulate_s": ("levy.simulate_path",),
    "levy.shift_thin_s": ("levy.shift_path", "levy.thin_path"),
    "discount.eval_s": ("discount.eval_jump_sum", "discount.eval_by_parts"),
    "discount.batch_s": ("discount.sample_discounted_integral_many",),
    "perpetuity.iterate_s": ("perpetuity.iterate_many", "perpetuity.iterate_to_stationarity"),
    "perpetuity.series_s": ("perpetuity.sample_backward_series_many",
                            "perpetuity.sample_backward_series"),
    "operator.decompose_s": ("operator.operator_decompose_many", "operator.operator_decompose"),
    "operator.integral_s": ("operator.sample_operator_integral_many",
                            "operator.sample_operator_integral"),
    "stats.ks_s": ("stats.ks_two_sample",),
    "stats.ecf_s": ("stats.empirical_cf",),
    "stats.indep_s": ("stats.independence_diagnostic",),
    "cli.write_s": ("cli._write_samples_csv", "cli._write_cdf_csv", "cli._write_ecf_csv"),
    "cli.validate_s": ("cli.validate_config",),
}

# Metrics that are the number of spans in a set.
_SPAN_COUNTS = {
    "levy.paths": ("levy.simulate_path",),
    "levy.extensions": ("levy.extend_path",),
    "discount.evals": ("discount.eval_jump_sum", "discount.eval_by_parts"),
    "decomposition.records": ("decomposition.decompose", "decomposition._first_jump_identity"),
    "operator.paths": ("operator.simulate_operator_path",),
    "operator.records": ("operator.operator_decompose",),
    "stats.ks_tests": ("stats.ks_two_sample",),
}

_RECORD_SPANS = _SPAN_COUNTS["decomposition.records"]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Counters:
    """Counts gathered by the hooks of one traced run."""

    def __init__(self):
        self.streams = 0
        self.variates = 0
        self.jumps = 0
        self.jumps_in_records = 0     # jumps simulated for decomposition records
        self.jumps_used = 0           # of those, jumps at or before tau + T
        self.gamma_out = 0
        self.gamma_proposals = 0
        self.pairs = 0
        self.ks_min_margin = math.inf
        self.last_path = None

    # Each hook takes (args, kwargs) and may return a callback for the result.

    def on_stream(self, args, kwargs):
        self.streams += 1

    def on_variates(self, args, kwargs):
        stream = args[0]
        before = stream.counter

        def done(_):
            self.variates += stream.counter - before
        return done

    def on_simulate(self, args, kwargs):
        def done(path):
            self.jumps += path.n_jumps
            self.last_path = path
        return done

    def on_extend(self, args, kwargs):
        old = _arg(args, kwargs, 0, "path")

        def done(path):
            self.jumps += path.n_jumps - old.n_jumps
            self.last_path = path
        return done

    def on_record(self, args, kwargs):
        # decompose(model, rule, policy, stream) and
        # _first_jump_identity(model, jump_set, policy, stream) both return
        # an object with .tau; the record's path is the last one simulated.
        policy = _arg(args, kwargs, 2, "policy")

        def done(record):
            path = self.last_path
            if path is not None:
                cut = record.tau + policy.horizon
                self.jumps_used += int(np.searchsorted(path.jump_times, cut, side="right"))
                self.jumps_in_records += path.n_jumps
        return done

    def on_gamma(self, args, kwargs):
        params = _arg(args, kwargs, 0, "params")
        stream = _arg(args, kwargs, 1, "stream")
        size = _arg(args, kwargs, 2, "size")
        n = 1 if size is None else int(size)
        before = stream.counter

        def done(_):
            # Each Marsaglia-Tsang proposal draws one normal and one uniform;
            # shapes below 1 add one boost uniform per output.
            drawn = stream.counter - before - (n if params.shape < 1.0 else 0)
            self.gamma_out += n
            self.gamma_proposals += drawn // 2
        return done

    def on_pairs(self, args, kwargs):
        def done(result):
            self.pairs += int(np.size(result[0]))
        return done

    def on_compare(self, args, kwargs):
        def done(report):
            self.ks_min_margin = min(self.ks_min_margin, report.ks_threshold - report.ks_stat)
        return done


def instrument(tracer: Tracer) -> Counters:
    """Wrap the sdlevy layers; ``tracer.restore()`` undoes every patch."""
    pkg = importlib.import_module("sdlevy")
    mods = {name: importlib.import_module(f"sdlevy.{name}") for name in MODULES}
    namespaces = [pkg, *mods.values()]
    counters = Counters()
    hooks = {
        "levy.simulate_path": counters.on_simulate,
        "levy.extend_path": counters.on_extend,
        "rng.sample_gamma": counters.on_gamma,
        "stats.compare_samples": counters.on_compare,
        **{name: counters.on_record for name in _RECORD_SPANS},
    }
    for short, mod in mods.items():
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not n.startswith("_")]
        names += _PRIVATE_SPANS.get(short, ())
        for name in names:
            span = f"{short}.{name}"
            tracer.patch(mod, name, span, namespaces, hook=hooks.get(span))

    stream_cls = mods["rng"].RngStream
    tracer.patch(stream_cls, "split", "rng.RngStream.split")
    tracer.patch(stream_cls, "__init__", "rng.RngStream.__init__", span=False,
                 hook=counters.on_stream)
    for name in _VARIATE_METHODS:
        tracer.patch(stream_cls, name, f"rng.RngStream.{name}", span=False,
                     hook=counters.on_variates)
    for cls_name, cls in vars(mods["perpetuity"]).items():
        if inspect.isclass(cls) and "sample_pairs" in vars(cls):
            tracer.patch(cls, "sample_pairs", f"perpetuity.{cls_name}.sample_pairs",
                         span=False, hook=counters.on_pairs)
    return counters


def metrics(tracer: Tracer, counters: Counters, bytes_written: int) -> dict:
    """Per-layer metrics of one traced run, except the setup.* imports and
    trace.overhead_s, which the parent measures. Layers that did not run
    report 0."""
    out = {name: tracer.inclusive(spans) for name, spans in _SPAN_TIMES.items()}
    out.update({name: tracer.count(spans) for name, spans in _SPAN_COUNTS.items()})
    records = out["decomposition.records"]
    out.update({
        "rng.streams": counters.streams,
        "rng.variates": counters.variates,
        "rng.gamma_accept_ratio": (counters.gamma_out / counters.gamma_proposals
                                   if counters.gamma_proposals else 0.0),
        "levy.jumps": counters.jumps,
        "levy.jump_use_ratio": (counters.jumps_used / counters.jumps_in_records
                                if counters.jumps_in_records else 0.0),
        "decomposition.self_s": tracer.self_time("decomposition."),
        "decomposition.us_per_record": (1e6 * tracer.inclusive(_RECORD_SPANS) / records
                                        if records else 0.0),
        "perpetuity.pairs": counters.pairs,
        "stats.ks_min_margin": (counters.ks_min_margin
                                if math.isfinite(counters.ks_min_margin) else 0.0),
        "cli.bytes_written": bytes_written,
    })
    return out


# ---------------------------------------------------------------------------
# setup.*: import times from ``python -X importtime``
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")

IMPORT_PACKAGES = {
    "setup.import_numpy_s": "numpy",
    "setup.import_scipy_s": "scipy",
    "setup.import_jsonschema_s": "jsonschema",
    "setup.import_sdlevy_s": "sdlevy",
}


def import_times(stderr: str) -> dict:
    """Seconds spent executing each package's modules during import.

    ``-X importtime`` prints one line per module with its self time (its own
    body, without the imports it triggers). Summing self times over the
    package and its submodules attributes every microsecond to exactly one
    package, wherever the import happened (numpy submodules loaded lazily
    by scipy count for numpy).
    """
    metric_of = {pkg: metric for metric, pkg in IMPORT_PACKAGES.items()}
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        metric = m and metric_of.get(m.group(2).split(".")[0])
        if metric:
            out[metric] += int(m.group(1)) * 1e-6
    return out
