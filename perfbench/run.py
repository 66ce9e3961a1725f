"""scfsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Starts the workload in a process of its
own (perfbench/workload.py, with ``src`` on PYTHONPATH), checks its outputs
against the references in perfbench/refs, prints every metric by name with
its unit and sample count, writes the full result with the environment
record to perfbench/out/, and prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a traced run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
OUT = os.path.join(HERE, "out")
REQUIRED = ("BENCHMARK.json", os.path.join("src", "scfsim", "__init__.py"),
            os.path.join("configs", "paper_full_scale.json"),
            os.path.join("configs", "desk_scale.json"))
WORKLOADS = ("paper-closed", "paper-mc", "desk-cdf-pool", "validate-desk")
POOL_WORKERS = {"desk-cdf-pool": 2}
SETUP_PROBES = 4          # extra set-up-only processes besides the measured run
DEADLINE_S = 170.0        # the whole run, set-up probes included
PROBE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    pass


def child_env(workload):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if workload in POOL_WORKERS:
        env["SCFSIM_WORKERS"] = str(POOL_WORKERS[workload])
    return env


def spawn(args, env, timeout):
    """Run workload.py; returns (monotonic spawn time, its JSON result)."""
    cmd = [sys.executable, WORKLOAD] + args
    started = time.monotonic()
    # A process group of its own, so a timeout also stops the pool's children.
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return started, json.loads(lines[-1])


def describe(values):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} over {n} sample{'s' * (n != 1)}"
    tail = tracing.tail_percentile(values)
    if tail is None:
        return f"{text}, no percentile with 10 samples beyond it"
    return f"{text}, p{tail[0]} {tail[1]:.6g}"


def mc_time_to_1pct(wall, rel):
    """MC seconds to reach a 1% mean relative stderr, at 1/sqrt(trials)."""
    return wall * (rel / 0.01) ** 2


def end_to_end(result, setups, workload):
    walls = [u["wall_s"] for u in result["records"]]
    values = {"wall_s": walls, "setup_s": setups,
              "peak_rss_mb": [result["peak_rss_mb"]]}
    if workload == "paper-mc":
        values["mc_time_to_1pct_s"] = [mc_time_to_1pct(u["wall_s"], u["rel_stderr"])
                                       for u in result["records"]]
    return values


def per_layer(result, workload):
    pairs = result["records"]
    values = {name: [p["layers"][name] for p in pairs] for name in pairs[0]["layers"]}
    values["trace.overhead_s"] = [p["overhead_s"] for p in pairs]
    rel = [p["rel_stderr"] for p in pairs if p["rel_stderr"] is not None]
    values["se_mc.rel_stderr"] = rel or [0.0]
    values["mc_time_to_1pct_s"] = (
        [mc_time_to_1pct(p["untraced_wall_s"], p["rel_stderr"]) for p in pairs]
        if rel else [0.0])
    values["harness.parallel_efficiency"] = [
        p.get("parallel_efficiency", 0.0) for p in pairs]
    values["numerics.ridge_fallbacks"] = [result["ridge_fallbacks"]]
    checks = workload == "validate-desk"
    values["validation.checks_failed"] = [
        p["verdicts_failed"] if checks else 0 for p in pairs]
    values["validation.checks_total"] = [result["ops_per_unit"] if checks else 0]
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="far-below-scale inputs for the smoke test; "
                             "no reference check")
    args = parser.parse_args(argv)
    t0 = time.monotonic()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"not a scfsim checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env(args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = spawn(common + ["--seconds", "0", "--setup-only"],
                                       env, PROBE_TIMEOUT_S)
                setups.append(probe["ready"] - started)
        started, result = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, DEADLINE_S - (time.monotonic() - t0))
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["ready"] - started)

    values = (per_layer(result, args.workload) if args.trace
              else end_to_end(result, setups, args.workload))
    metrics = {m["name"]: {"value": statistics.median(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['records'])} timed {'pairs' if args.trace else 'units'}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<45} {metrics[m['name']]['value']:<14.6g} "
              f"{m['unit']:<6} {describe(values[m['name']])}")
    if "mc_time_to_1pct_s" in values and not args.trace:
        print(f"  {'mc_time_to_1pct_s':<45} "
              f"{statistics.median(values['mc_time_to_1pct_s']):<14.6g} "
              f"{'s':<6} {describe(values['mc_time_to_1pct_s'])}")
    failed_any = result["failed"] + result["failed_verdicts"]
    print(f"  {'ops_failed_share':<45} {result['ops_failed_share']:<14.6g} "
          f"{'1':<6} {failed_any} of {result['attempted']} ops "
          f"({result['failed']} raised, non-finite or off reference; "
          f"{result['failed_verdicts']} FAIL verdicts)")
    print(f"  digests differing from the reference: {result['digest_drift']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        print("  spans of the last traced unit (count, median, tail):")
        for name, row in result["records"][-1]["spans"].items():
            tail = row["tail"]
            tail_text = (f"p{tail['percentile']} {tail['value_s']:.3g} s"
                         if tail else "no tail percentile")
            print(f"    {name:<48} n={row['count']:<7} "
                  f"median {row['median_s']:.3g} s, {tail_text}, "
                  f"total {row['total_s']:.4g} s")

    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "setup_s": setups,
                   "metrics": metrics, **result}, fh, indent=1, default=float)
        fh.write("\n")

    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
