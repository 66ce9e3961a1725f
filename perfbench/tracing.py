"""Spans around the public functions of each scfsim module, recorded from
outside the program.

``patched(tracer)`` replaces every traced function with a timing wrapper in
every ``scfsim.*`` module namespace that holds it, so calls are caught where
callers look the name up (``from .detectors import local_combiners`` in
``se_mc`` as much as ``se_closed.se_centralized_closed`` in ``harness``), and
restores the originals on exit. Nothing under ``src/`` is modified.
"""

import functools
import importlib
import inspect
import logging
import statistics
import sys
import time
from contextlib import contextmanager

# The layers are the simulator's modules. config and cli are paid inside
# setup_s, rng is negligible, rayleigh_ideal is the test-only oracle.
LAYERS = ("channel", "quantization", "pilots", "scheduler", "lsfd",
          "se_closed", "sampling", "detectors", "se_mc", "numerics",
          "harness", "validation")

# Private functions traced because a named count needs them.
PRIVATE_SPANS = ("se_closed._f_kernels", "harness._run_point")


def _links(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    return scenario.K * scenario.L


def _cluster_shape(args, kwargs, result):
    cluster = result[0]
    return (sum(map(len, cluster.serving)) / cluster.K,
            sum(map(len, cluster.overlap)) / cluster.K)


def _nbytes(args, kwargs, result):
    return result.nbytes


def _mc_work(args, kwargs, result):
    return len(result.se) * result.trials


# Per-call values kept with the span: links built, cluster-set sizes,
# random bytes drawn (computed from array sizes), UE-trials evaluated.
EXTRAS = {
    "channel.channel_statistics": _links,
    "scheduler.run_algorithm1": _cluster_shape,
    "numerics.crandn": _nbytes,
    "se_mc.distributed_mc_report": _mc_work,
    "se_mc.centralized_mc_report": _mc_work,
}


class Tracer:
    """In-memory span log: one record [name, parent index, start, end, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if extra is not None:
                record[4] = extra(args, kwargs, result)
            return result

        return wrapper


def traced_functions(only=None):
    """{span name: function} for every public function defined in a layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"scfsim.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                continue
            if attr.startswith("_") and name not in PRIVATE_SPANS:
                continue
            if only is None or name in only:
                found[name] = obj
    return found


@contextmanager
def patched(tracer, only=None):
    """Route every scfsim reference to a traced function through ``tracer``."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn))
                for name, fn in traced_functions(only).items()}
    saved = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "scfsim" and not mod_name.startswith("scfsim."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                saved.append((module, attr, obj))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for module, attr, obj in saved:
            setattr(module, attr, obj)


class RidgeCounter(logging.Handler):
    """Counts the ridge fallbacks ``numerics.solve_hermitian`` logs; the log
    line is the only signal the program gives for them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "ridge" in record.getMessage():
            self.count += 1


@contextmanager
def counting_ridge_fallbacks():
    counter = RidgeCounter()
    logger = logging.getLogger("scfsim.numerics")
    logger.addHandler(counter)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def durations(spans):
    return [s[3] - s[2] for s in spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    dur = durations(spans)
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child[s[1]] += d
    return [d - c for d, c in zip(dur, child)]


def top_level_seconds(spans):
    return sum(s[3] - s[2] for s in spans if s[1] < 0)


def tail_percentile(values):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or None when fewer than 20 samples exist."""
    n = len(values)
    if n < 20:
        return None
    pct = min(99, int(100 * (1 - 10 / n)))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return pct, cuts[pct - 1]


def span_table(spans):
    """Per span name: sample count, total, median and tail percentile."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s[3] - s[2])
    table = {}
    for name in sorted(by_name):
        values = by_name[name]
        tail = tail_percentile(values)
        table[name] = {"count": len(values), "total_s": sum(values),
                       "median_s": statistics.median(values),
                       "tail": None if tail is None else
                       {"percentile": tail[0], "value_s": tail[1]}}
    return table


def layer_metrics(spans):
    """Per-layer numbers of one traced unit of work (see BENCHMARK.json)."""
    dur = durations(spans)
    own = self_times(spans)
    total, count = {}, {}
    for s, d in zip(spans, dur):
        total[s[0]] = total.get(s[0], 0.0) + d
        count[s[0]] = count.get(s[0], 0) + 1

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    def extras(name):       # None where the call raised
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    def parent_layer(s):
        return spans[s[1]][0].split(".")[0] if s[1] >= 0 else None

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            o for s, o in zip(spans, own) if s[0].startswith(layer + "."))

    links = sum(extras("channel.channel_statistics"))
    out["channel.channel_statistics_s"] = t("channel.channel_statistics")
    out["channel.links_per_s"] = (links / t("channel.channel_statistics")
                                  if links else 0.0)

    shapes = extras("scheduler.run_algorithm1")
    out["scheduler.run_algorithm1_s"] = t("scheduler.run_algorithm1")
    out["scheduler.serving_mean"] = (statistics.fmean(x[0] for x in shapes)
                                     if shapes else 0.0)
    out["scheduler.overlap_mean"] = (statistics.fmean(x[1] for x in shapes)
                                     if shapes else 0.0)

    out["pilots.build_estimation_context_s"] = t("pilots.build_estimation_context")
    out["quantization.received_noise_covariance_calls"] = c(
        "quantization.received_noise_covariance")
    out["quantization.received_noise_covariance_s"] = t(
        "quantization.received_noise_covariance")
    out["lsfd.build_ingredients_s"] = t("lsfd.build_ingredients")
    out["lsfd.build_ingredients_calls"] = c("lsfd.build_ingredients")

    out["se_closed.centralized_s"] = t("se_closed.se_centralized_closed")
    out["se_closed.distributed_s"] = (t("se_closed.se_distributed_closed")
                                      + t("se_closed.se_distributed_closed_max"))
    out["se_closed.pair_kernels"] = c("se_closed._f_kernels")

    for fn in ("local_combiners", "centralized_combiners",
               "centralized_system_matrices"):
        out[f"detectors.{fn}_s"] = t(f"detectors.{fn}")
    out["detectors.centralized_error_noise_calls"] = c(
        "detectors.centralized_error_noise")

    out["sampling.sample_joint_s"] = t("sampling.sample_joint")
    out["sampling.sample_data_noise_s"] = t("sampling.sample_data_noise")
    out["sampling.bytes_drawn"] = sum(
        s[4] for s in spans if s[0] == "numerics.crandn"
        and s[4] is not None and parent_layer(s) == "sampling")

    reports = ("se_mc.distributed_mc_report", "se_mc.centralized_mc_report")
    report_s = sum(t(r) for r in reports)
    ue_trials = sum(sum(extras(r)) for r in reports)
    out["se_mc.ue_trials_per_s"] = ue_trials / report_s if report_s else 0.0
    out["se_mc.batches"] = sum(
        1 for s in spans
        if s[0] == "sampling.sample_joint" and parent_layer(s) == "se_mc")

    out["numerics.solve_hermitian_calls"] = c("numerics.solve_hermitian")
    out["harness.build_system_s"] = t("harness.build_system")
    out["harness.points"] = c("harness._run_point")
    out["validation.run_validation_s"] = t("validation.run_validation")
    out["validation.run_invariant_checks_s"] = t("validation.run_invariant_checks")
    return out
