"""Experiment orchestration: seeded scenario construction, the named
experiment suite mirroring the study's sweeps and CDFs, result tables, and
the closed-form-vs-Monte-Carlo validation suite.

Every experiment is one ``REGISTRY`` entry: its point specs, the point
function that evaluates one spec, the reducer that turns the per-point
results into rows (sweep rows, or pooled by label into empirical CDFs) and
the output columns. A point is one scenario drop, the systems scheduled on
it and the reports read from each system, each built once (``_point``): a
sum-SE sweep has one point per N, which the statistics read, and one point
for all ADC bit widths; a CDF has one point per drop. Each draws from RNG
streams derived from (seed, experiment, point id). Points are independent
and may run in a process pool (SCFSIM_WORKERS); results are reduced in spec
order, so output bytes never depend on the worker count.
"""

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import se_closed
from .channel import channel_statistics, generate_scenario
from .config import DETECTORS, SimConfig, config_hash
from .lsfd import build_ingredients, se_from_moments
from .numerics import _usable_cpus
from .pilots import build_estimation_context, round_robin_pilots
from .quantization import QuantizerConfig
from .rng import substream
from .scheduler import equal_powers, full_cluster_plan, run_algorithm1
from .se_mc import SEReport, centralized_mc_report, distributed_mc_report
from . import __version__

WORKERS_ENV = "SCFSIM_WORKERS"
CDF_REPS = 4            # scenario drops pooled into each CDF
NU_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
N_SWEEP = (1, 2, 3, 4)
BITS_SWEEP = (1, 2, 3, 4, 5)


class ExperimentError(ValueError):
    pass


@dataclass
class ResultTable:
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def with_provenance(self, cfg, seed):
        """Append run metadata to every row so each row is re-runnable alone."""
        extra = (config_hash(cfg), seed, cfg.trials)
        return ResultTable(
            columns=tuple(self.columns) + ("config_hash", "seed", "trials"),
            rows=[tuple(r) + extra for r in self.rows],
            meta=self.meta)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_results(table, fmt, path):
    """Write a ResultTable as CSV (17 significant digits) or JSON."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_fmt(v) for v in row])
    elif fmt == "json":
        payload = {"meta": table.meta, "columns": list(table.columns),
                   "rows": [dict(zip(table.columns, r)) for r in table.rows]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ExperimentError(f"unknown output format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# scenario construction and evaluation
# ---------------------------------------------------------------------------

def build_system(cfg, seed, strategy="algorithm1", stats=None):
    """Scenario + statistics + scheduling for one seeded drop.

    ``strategy``: "algorithm1" (the joint scheduler), "random-pilot"
    (scheduler with uniformly random pilots) or "full" (no scheduler:
    equal powers, round-robin pilots and every AP serving every UE, the
    drop the validation suite checks the closed forms on). ``stats``, the
    drop's channel statistics from an earlier call with this seed, skips
    rebuilding them. Returns the estimation context, the cluster plan and
    the (K,) p̈ array; cfg.nu = 0 gives equal power.
    """
    if stats is None:
        stats = channel_statistics(generate_scenario(cfg, seed), seed, cfg.asd_rad,
                                   rayleigh=(cfg.fading == "rayleigh"))
    q = QuantizerConfig(b_da=cfg.b_da, b_ad=cfg.b_ad)
    if strategy == "full":
        p_ddot = equal_powers(cfg.K, cfg.p_max_mw, q.rho_da)
        pilots = round_robin_pilots(cfg.K, cfg.tau)
        cluster = full_cluster_plan(stats)
    elif strategy in ("algorithm1", "random-pilot"):
        pilot_override = None
        if strategy == "random-pilot":
            pilot_override = substream(seed, "pilot-baseline").integers(
                0, cfg.tau, size=cfg.K)
        cluster, pilots, p_ddot = run_algorithm1(
            stats, q, cfg.tau, cfg.p_max_mw, eta_db=cfg.eta_db, nu=cfg.nu,
            d_bar=cfg.d_bar, iterations=cfg.iterations,
            pilot_override=pilot_override)
    else:
        raise ExperimentError(f"unknown scheduling strategy {strategy!r}")
    ctx = build_estimation_context(stats, pilots, p_ddot, q, cfg.sigma2_mw)
    return ctx, cluster, p_ddot


def distributed_closed_report(ctx, cluster, weighting, prelog):
    """Closed-form per-UE distributed SE (MRC detection)."""
    se = se_from_moments(build_ingredients(ctx, cluster), weighting, prelog)
    return SEReport(se=se, prelog=prelog, scheme="distributed", detector="mrc",
                    weighting=weighting, evaluation="closed-form")


def centralized_closed_report(ctx, cluster, prelog):
    se = se_closed.se_centralized_closed(ctx, cluster, prelog)
    return SEReport(se=se, prelog=prelog, scheme="centralized", detector="mrc",
                    weighting=None, evaluation="closed-form")


def evaluate(cfg, ctx, cluster, seed):
    """SE report for the configured scheme/detector/weighting.

    MRC uses the closed forms; the MMSE-family detectors are evaluated by
    Monte Carlo with cfg.trials realizations.
    """
    prelog = cfg.prelog
    if cfg.scheme == "distributed":
        if cfg.detector == "mrc":
            return distributed_closed_report(ctx, cluster, cfg.weighting, prelog)
        return distributed_mc_report(ctx, cluster, cfg.detector, cfg.weighting,
                                     cfg.trials, seed, prelog)
    if cfg.detector == "mrc":
        return centralized_closed_report(ctx, cluster, prelog)
    return centralized_mc_report(ctx, cluster, cfg.detector, cfg.trials, seed,
                                 prelog)


def delta_se(report):
    """Fairness spread: best minus worst per-UE SE."""
    return float(np.max(report.se) - np.min(report.se))


# ---------------------------------------------------------------------------
# experiment points
# ---------------------------------------------------------------------------

DISTRIBUTED_CDF_STRATEGIES = (
    ("mrc", "lsfd"), ("mrc", "plsfd"), ("mrc", "l2"),
    ("lmmse", "lsfd"), ("lpmmse", "plsfd"), ("lpmmse-full", "plsfd"),
)
CENTRALIZED_CDF_STRATEGIES = DETECTORS["centralized"]


def _point(cfg, seed, spec):
    """One scenario drop, spec (drop, systems): (label, per-UE SEs) for each
    evaluation, in spec order. ``drop`` None is the seed's own drop, a (tag,
    rep) pair a substream of it; a system is (strategy, overrides,
    evaluations), an evaluation (label, overrides). Each level is built once:
    the drop's statistics from the first system's config, which later systems
    override only in fields the statistics do not read, and each system's
    context, which its evaluations override only in scheme, detector and
    weighting, the fields ``build_system`` does not read."""
    drop, systems = spec
    drop_seed = seed if drop is None else substream(seed, *drop).integers(0, 2**63)
    stats, results = None, []
    for strategy, overrides, evaluations in systems:
        system_cfg = cfg.replace(**overrides)
        ctx, cluster, _ = build_system(system_cfg, drop_seed, strategy, stats)
        stats = ctx.stats
        for label, evaluation in evaluations:
            report = evaluate(system_cfg.replace(**evaluation), ctx, cluster, drop_seed)
            results.append((label, list(map(float, report.se))))
    return results


def _cdf_rows(label, samples):
    values = np.sort(np.asarray(samples, dtype=float))
    n = len(values)
    return [(label, float(v), (i + 1) / n) for i, v in enumerate(values)]


def _validate_rows(cfg, seed, _spec):
    from .validation import run_validation
    checks = run_validation(cfg, seed)
    return [(c.name, c.case, c.closed, c.monte_carlo, c.rel_gap) for c in checks]


# reducers: per-point results -> table rows -----------------------------------

def _concat_rows(points):
    return [row for point in points for row in point]


def _sweep_rows(points):
    rows = []
    for (sweep, value), ses in (pair for point in points for pair in point):
        rows.extend((sweep, value, k, se, 0.0) for k, se in enumerate(ses))
        rows.append((sweep, value, "sum", float(np.sum(ses)), 0.0))
    return rows


def _pooled_cdf_rows(points):
    pooled = {}
    for label, ses in (pair for point in points for pair in point):
        pooled.setdefault(label, []).extend(ses)
    return [row for label in sorted(pooled) for row in _cdf_rows(label, pooled[label])]


# registry --------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    specs: tuple        # one picklable spec per independent point, reduce order
    point: Callable     # point(cfg, seed, spec) -> that point's results
    reduce: Callable    # reduce(results, in spec order) -> rows
    columns: tuple


def _mrc_system(sweep, value):
    return ("algorithm1", {sweep: value}, tuple(
        ((f"{sweep}:{scheme}", value), {"scheme": scheme, "detector": "mrc"})
        for scheme in ("distributed", "centralized")))


def _cdf(tag, systems, reps=CDF_REPS):
    """``systems`` drawn on each of ``reps`` scenario drops of ``tag``."""
    specs = tuple(((tag, rep), tuple(systems)) for rep in range(reps))
    return Experiment(specs, _point, _pooled_cdf_rows, ("strategy", "se", "cdf"))


_SWEEP_COLUMNS = ("sweep", "value", "ue_index", "se", "stderr")
REGISTRY = {
    # N is read by the channel statistics: one drop per value
    "sum-se-vs-N": Experiment(tuple((None, (_mrc_system("N", n),)) for n in N_SWEEP),
                              _point, _sweep_rows, _SWEEP_COLUMNS),
    # b_ad is not: one drop, one system per value
    "sum-se-vs-bits": Experiment(
        ((None, tuple(_mrc_system("b_ad", b) for b in BITS_SWEEP)),),
        _point, _sweep_rows, _SWEEP_COLUMNS),
    "cdf-detectors-distributed": _cdf("cdf-distributed", [
        ("algorithm1", {}, tuple(
            (f"{d}+{w}", {"scheme": "distributed", "detector": d, "weighting": w})
            for d, w in DISTRIBUTED_CDF_STRATEGIES))]),
    "cdf-detectors-centralized": _cdf("cdf-centralized", [
        ("algorithm1", {}, tuple(
            (d, {"scheme": "centralized", "detector": d})
            for d in CENTRALIZED_CDF_STRATEGIES))]),
    "cdf-algorithm": _cdf("cdf-algorithm", [
        ("algorithm1", {}, (("algorithm1", {}),)),
        ("random-pilot", {}, (("random-pilot", {}),)),
        ("algorithm1", {"nu": 0.0}, (("equal-power", {}),))]),
    "cdf-vs-nu": _cdf("cdf-nu", [
        ("algorithm1", {"nu": nu}, ((f"nu={nu:g}", {}),)) for nu in NU_SWEEP],
        reps=max(1, CDF_REPS // 2)),
    "validate-closed-forms": Experiment(
        ((),), _validate_rows, _concat_rows,
        ("metric", "case", "closed_form", "monte_carlo", "rel_gap")),
}
EXPERIMENTS = tuple(REGISTRY)


def _run_point(args):
    """Top-level (picklable) dispatcher: one point of a registry experiment."""
    name, cfg_dict, seed, spec = args
    return REGISTRY[name].point(SimConfig(**cfg_dict), seed, spec)


def worker_count():
    """Pool size from SCFSIM_WORKERS, at least 1 and at most the CPUs this
    process may use (``numerics._usable_cpus``: its affinity set, not the
    machine's count)."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ExperimentError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(1, min(requested, _usable_cpus()))


def _map_points(name, cfg, seed, specs, workers):
    args = [(name, cfg.to_dict(), seed, spec) for spec in specs]
    if workers <= 1 or len(args) <= 1:
        return [_run_point(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
        return list(pool.map(_run_point, args))


def run_experiment(name, cfg, workers=None):
    """Run one named experiment; deterministic for fixed (cfg, cfg.seed)."""
    if name not in REGISTRY:
        raise ExperimentError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    experiment = REGISTRY[name]
    workers = worker_count() if workers is None else workers
    seed = cfg.seed
    meta = {"experiment": name, "config_hash": config_hash(cfg), "seed": seed,
            "trials": cfg.trials, "version": __version__,
            "config": cfg.to_dict()}
    points = _map_points(name, cfg, seed, experiment.specs, workers)
    rows = experiment.reduce(points)
    return ResultTable(experiment.columns, rows, meta).with_provenance(cfg, seed)
