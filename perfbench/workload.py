"""One run of one scfsim benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--tiny]

Started by ``perfbench/run.py`` from the root of a checkout with ``src`` on
PYTHONPATH. Everything before the first timed unit of work is set-up. The
last stdout line is one JSON object for run.py.

Units of work (the "ops" are what ``ops_failed_share`` counts):

    paper-closed   one seeded paper-scale drop: build_system, distributed
                   closed-form report for lsfd and plsfd, centralized
                   closed-form report (3 ops: the SE reports)
    paper-mc       one MC seed on the drop built in set-up: distributed
                   LP-MMSE + P-LSFD and centralized P-MMSE MC reports (2 ops)
    desk-cdf-pool  run_experiment("cdf-detectors-distributed") at desk scale,
                   1000 trials, SCFSIM_WORKERS=2 (24 ops: one per point's SE
                   report, visible pooled per strategy, 4 reports each)
    validate-desk  run_validation + run_invariant_checks of the default
                   `scfsim validate`, seed 0 (19 ops: one per check)

Every drop, MC and experiment seed comes from the workload seed through a
fixed pool whose outputs are stored in ``perfbench/refs``; unit i of a run
with seed n takes pool entry (n + i) mod pool size.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from scfsim import harness, validation
from scfsim.config import SimConfig, load_config

import tracing as spans  # perfbench/tracing.py, beside this file

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
PAPER_CONFIG = os.path.join("configs", "paper_full_scale.json")
DESK_CONFIG = os.path.join("configs", "desk_scale.json")

CLOSED_DROPS = tuple(range(1, 9))
MC_DROPS = (1, 2)
MC_SEEDS = (101, 102, 103, 104)
# 192 = three full 64-trial batches, so three equal stderr groups; a budget
# with a short last batch (200 gives 64+64+64+8) inflates the group stderr.
MC_TRIALS = 192
CDF_EXPERIMENT = "cdf-detectors-distributed"
CDF_SEEDS = tuple(range(1, 9))
CDF_TRIALS = 1000

# Outputs must match the stored references to REL_TOL, relative to each
# value (the Theorem-1 kernels are ~1e-25, so no absolute floor); the SHA-256
# of the float64 bytes is compared too and only reported.
REL_TOL = 1e-9

# --tiny: the smoke test's network, far below paper scale; no references.
TINY_NET = dict(L=8, K=12, N=2, tau=4)
TINY_MC_TRIALS = 128
TINY_VALIDATE_TRIALS = 2000

MIN_UNITS = 2
MIN_TRACED_PAIRS = 1


def _se_fields(report, stderr=False):
    fields = {"se": np.asarray(report.se, dtype=float)}
    if stderr:
        fields["stderr"] = np.asarray(report.stderr, dtype=float)
    return fields


def _guarded(fn):
    """Run one op; an exception is reported and makes the op fail."""
    try:
        return fn()
    except Exception:  # an op that raises is a failed op, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None


class PaperClosed:
    name = "paper-closed"
    ops_per_unit = 3

    def __init__(self, seed, tiny):
        cfg = load_config(PAPER_CONFIG)
        self.cfg = cfg.replace(**TINY_NET) if tiny else cfg
        self.seed = seed

    def inputs(self, i):
        return {"drop": CLOSED_DROPS[(self.seed + i) % len(CLOSED_DROPS)]}

    @staticmethod
    def key(inputs):
        return str(inputs["drop"])

    def run(self, inputs, workers=None):
        cfg = self.cfg
        system = _guarded(lambda: harness.build_system(cfg, inputs["drop"]))
        if system is None:
            return {}
        ctx, cluster, _ = system
        return {
            "lsfd": _guarded(lambda: _se_fields(harness.distributed_closed_report(
                ctx, cluster, "lsfd", cfg.prelog))),
            "plsfd": _guarded(lambda: _se_fields(harness.distributed_closed_report(
                ctx, cluster, "plsfd", cfg.prelog))),
            "centralized": _guarded(lambda: _se_fields(
                harness.centralized_closed_report(ctx, cluster, cfg.prelog))),
        }


class PaperMC:
    name = "paper-mc"
    ops_per_unit = 2

    def __init__(self, seed, tiny):
        cfg = load_config(PAPER_CONFIG)
        self.cfg = cfg.replace(**TINY_NET) if tiny else cfg
        self.trials = TINY_MC_TRIALS if tiny else MC_TRIALS
        self.seed = seed
        self.drop = MC_DROPS[seed % len(MC_DROPS)]
        self.ctx, self.cluster, _ = harness.build_system(self.cfg, self.drop)

    def inputs(self, i):
        return {"drop": self.drop,
                "mc_seed": MC_SEEDS[(self.seed + i) % len(MC_SEEDS)],
                "trials": self.trials}

    @staticmethod
    def key(inputs):
        return f"{inputs['drop']}/{inputs['mc_seed']}"

    def run(self, inputs, workers=None):
        ctx, cluster, prelog = self.ctx, self.cluster, self.cfg.prelog
        seed, trials = inputs["mc_seed"], inputs["trials"]
        return {
            "distributed": _guarded(lambda: _se_fields(harness.distributed_mc_report(
                ctx, cluster, "lpmmse", "plsfd", trials, seed, prelog), True)),
            "centralized": _guarded(lambda: _se_fields(harness.centralized_mc_report(
                ctx, cluster, "pmmse", trials, seed, prelog), True)),
        }


class DeskCdfPool:
    name = "desk-cdf-pool"
    ops_per_unit = (len(harness.DISTRIBUTED_CDF_STRATEGIES) * harness.CDF_REPS)
    op_weight = harness.CDF_REPS

    def __init__(self, seed, tiny):
        cfg = load_config(DESK_CONFIG).replace(trials=CDF_TRIALS)
        self.cfg = cfg.replace(**TINY_NET, trials=TINY_MC_TRIALS) if tiny else cfg
        self.seed = seed
        self.workers = harness.worker_count()    # run.py sets SCFSIM_WORKERS=2

    def inputs(self, i):
        return {"seed": CDF_SEEDS[(self.seed + i) % len(CDF_SEEDS)]}

    @staticmethod
    def key(inputs):
        return str(inputs["seed"])

    def run(self, inputs, workers=None):
        table = _guarded(lambda: harness.run_experiment(
            CDF_EXPERIMENT, self.cfg.replace(seed=inputs["seed"]), workers=workers))
        if table is None:
            return {}
        pooled = {}
        for row in table.rows:
            pooled.setdefault(row[0], []).append(row[1])
        return {label: {"se": np.asarray(v, dtype=float)}
                for label, v in pooled.items()}


class ValidateDesk:
    name = "validate-desk"
    ops_per_unit = 19        # 4 kernel cases + 6 UEs + 1 sum + 8 invariants

    def __init__(self, seed, tiny):
        # The default `scfsim validate`: CLI seed 0 whatever the workload seed.
        cfg = validation.desk_validation_config(SimConfig())
        self.cfg = cfg.replace(trials=TINY_VALIDATE_TRIALS) if tiny else cfg

    def inputs(self, i):
        return {"seed": self.cfg.seed}

    @staticmethod
    def key(inputs):
        return str(inputs["seed"])

    def run(self, inputs, workers=None):
        ops = {}
        checks = _guarded(lambda: validation.run_validation(self.cfg, inputs["seed"]))
        for c in checks or ():
            ops[f"{c.name}[{c.case}]"] = {
                "closed": np.array([c.closed]), "monte_carlo": np.array([c.monte_carlo]),
                "rel_gap": np.array([c.rel_gap]), "passed": np.array([float(c.passed)])}
        invariants = _guarded(lambda: validation.run_invariant_checks(
            self.cfg, inputs["seed"]))
        for name, ok, _ in invariants or ():
            ops[name] = {"ok": np.array([float(ok)])}
        return ops


WORKLOADS = {w.name: w for w in (PaperClosed, PaperMC, DeskCdfPool, ValidateDesk)}


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def load_refs(name):
    path = os.path.join(REFS, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def verdict_failed(fields):
    return any(k in fields and fields[k][0] == 0.0 for k in ("passed", "ok"))


def check_unit(wl, ops, ref, tiny):
    """Return (ok weight, failed verdict weight, problems, digest drifts)."""
    weight = getattr(wl, "op_weight", 1)
    ok = verdicts = drift = 0
    problems = []
    names = sorted(ops) if ref is None else sorted(ref)
    for op in names:
        fields = ops.get(op)
        if fields is None:
            problems.append(f"{op}: raised or missing")
            continue
        if not all(np.all(np.isfinite(v)) for v in fields.values()):
            problems.append(f"{op}: non-finite output")
            continue
        if ref is None:
            if not tiny:
                problems.append(f"{op}: no stored reference")
                continue
        else:
            expect = ref[op]
            bad = [f for f in expect if f not in fields
                   or np.shape(fields[f]) != np.shape(expect[f]["values"])
                   or not np.allclose(fields[f], expect[f]["values"],
                                      rtol=REL_TOL, atol=0.0)]
            if bad or set(fields) != set(expect):
                problems.append(f"{op}: {','.join(bad) or 'fields'} off reference")
                continue
            drift += sum(digest(fields[f]) != expect[f]["sha256"] for f in expect)
        ok += weight
        if verdict_failed(fields):
            verdicts += weight
    if ref is not None:
        problems += [f"{op}: not in reference" for op in ops if op not in ref]
    return ok, verdicts, problems, drift


def rel_stderr(ops):
    """Mean over UEs and reports of stderr_k / se_k (MC reports only)."""
    ratios = [f["stderr"] / f["se"] for f in ops.values()
              if f is not None and "stderr" in f]
    return float(np.mean(np.concatenate(ratios))) if ratios else None


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, via its own C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(wl, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SCFSIM_WORKERS": os.environ.get(harness.WORKERS_ENV),
        "seed": seed,
        "inputs_unit0": wl.inputs(0),
    }


def peak_rss_mb(workers):
    """Own peak RSS plus workers x the largest pool child's peak (an upper
    bound on the process tree's peak; getrusage keeps only the maximum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _timed(wl, inputs, workers=None):
    t0 = time.perf_counter()
    ops = wl.run(inputs, workers=workers)
    return time.perf_counter() - t0, ops


class Tally:
    def __init__(self, wl, tiny):
        self.wl, self.tiny = wl, tiny
        self.refs = None if tiny else load_refs(wl.name)
        self.attempted = self.ok = self.verdicts = self.drift = 0
        self.problems = []

    def add(self, inputs, ops):
        key = self.wl.key(inputs)
        ref = None if self.refs is None else self.refs.get(key)
        if ref is None and not self.tiny:
            ops = {}          # no reference for this input: every op fails
            self.problems.append(f"{key}: no stored reference")
        ok, verdicts, problems, drift = check_unit(self.wl, ops, ref, self.tiny)
        self.attempted += self.wl.ops_per_unit
        self.ok += ok
        self.verdicts += verdicts
        self.drift += drift
        self.problems += [f"{key}/{p}" for p in problems]
        return verdicts

    def summary(self):
        failed = self.attempted - self.ok
        return {"attempted": self.attempted, "failed": failed,
                "failed_verdicts": self.verdicts,
                "ops_failed_share": (failed + self.verdicts) / self.attempted,
                "digest_drift": self.drift, "problems": self.problems}


def _keep_going(count, minimum, elapsed, steps, seconds):
    return count < minimum or elapsed + statistics.median(steps) <= seconds


def run_plain(wl, tally, seconds, workers):
    units = []
    start = time.perf_counter()
    while True:
        inputs = wl.inputs(len(units))
        wall, ops = _timed(wl, inputs, workers)
        tally.add(inputs, ops)
        units.append({"inputs": inputs, "wall_s": wall, "rel_stderr": rel_stderr(ops)})
        walls = [u["wall_s"] for u in units]
        if not _keep_going(len(units), MIN_UNITS, time.perf_counter() - start,
                           walls, seconds):
            return units


def run_traced(wl, tally, seconds, workers):
    """Pairs of one untraced and one traced unit on the same inputs.

    With a pool, the traced unit runs serially (spans are kept in this
    process), and an untraced serial unit timed only at harness._run_point
    gives the serial point-seconds for the parallel efficiency.
    """
    pairs = []
    start = time.perf_counter()
    while True:
        inputs = wl.inputs(len(pairs))
        pair = {"inputs": inputs}
        wall, ops = _timed(wl, inputs, workers)
        tally.add(inputs, ops)
        pair["untraced_wall_s"] = wall
        pair["rel_stderr"] = rel_stderr(ops)
        if workers > 1:
            tracer = spans.Tracer()
            with spans.patched(tracer, only={"harness._run_point"}):
                wall_serial, ops = _timed(wl, inputs, 1)
            tally.add(inputs, ops)
            point_s = sum(spans.durations(tracer.spans))
            pair["serial_wall_s"] = wall_serial
            pair["parallel_efficiency"] = point_s / (workers * wall)
        tracer = spans.Tracer()
        with spans.patched(tracer):
            traced_wall, ops = _timed(wl, inputs, 1)
        pair["verdicts_failed"] = tally.add(inputs, ops)
        pair["traced_wall_s"] = traced_wall
        base = pair.get("serial_wall_s", wall)
        pair["overhead_s"] = traced_wall - base
        pair["top_level_s"] = spans.top_level_seconds(tracer.spans)
        pair["min_self_s"] = min(spans.self_times(tracer.spans), default=0.0)
        pair["layers"] = spans.layer_metrics(tracer.spans)
        pair["spans"] = spans.span_table(tracer.spans)
        pairs.append(pair)
        steps = [p["traced_wall_s"] + p["untraced_wall_s"] + p.get("serial_wall_s", 0.0)
                 for p in pairs]
        if not _keep_going(len(pairs), MIN_TRACED_PAIRS,
                           time.perf_counter() - start, steps, seconds):
            return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workers = getattr(wl, "workers", 1)
    tally = Tally(wl, args.tiny)

    with spans.counting_ridge_fallbacks() as ridge:
        if args.trace:
            records = run_traced(wl, tally, args.seconds, workers)
        else:
            records = run_plain(wl, tally, args.seconds, workers)
    result = {"ready": ready,
              "env": environment(wl, args.seed), "records": records,
              "ridge_fallbacks": ridge.count,
              "peak_rss_mb": peak_rss_mb(workers), "ops_per_unit": wl.ops_per_unit,
              **tally.summary()}
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
