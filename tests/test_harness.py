import dataclasses
import json
import math
import os

import numpy as np
import pytest

from scfsim.channel import SHADOW_STD_DB, large_scale_fading
from scfsim.config import (MAX_AREA_SIDE, SHADOW_MARGIN_STD, ConfigError,
                           SimConfig, config_hash, load_config)
from scfsim.harness import (EXPERIMENTS, REGISTRY, ResultTable, build_system,
                            delta_se, emit_results, run_experiment, worker_count)
from scfsim import channel, harness, numerics, validation
from scfsim.pilots import PilotPlan
from scfsim.scheduler import ClusterPlan
from scfsim.validation import run_invariant_checks

from conftest import allow_cpus

TINY = dict(L=5, K=6, N=2, tau=3, trials=256, b_da=4, b_ad=4, seed=13)


def test_load_config_defaults(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    cfg = load_config(empty)
    assert cfg.tau == 10 and cfg.tau_c == 200
    assert cfg.p_max_mw == 100.0
    assert cfg.asd_deg == 15.0 and cfg.eta_db == -20.0
    sigma2_dbm = 10 * math.log10(cfg.sigma2_mw)
    assert abs(sigma2_dbm - (-96.0)) < 0.02      # -174 + 10log10(20e6) + 5


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tau": 200, "tau_c": 200}))
    with pytest.raises(ConfigError, match="tau"):
        load_config(bad)
    # a tau_c that rounds the prelog 1 - tau/tau_c to 1 loaded, then the run
    # ended in a traceback from SEReport; one that rounds it to 0 likewise
    for i, (tau, tau_c) in enumerate(((3, 10**20), (2**60, 2**60 + 1))):
        path = tmp_path / f"prelog_{i}.json"
        path.write_text(json.dumps({"L": 4, "K": 5, "N": 2, "tau": tau,
                                    "trials": 64, "tau_c": tau_c}))
        with pytest.raises(ConfigError, match="tau_c must leave the prelog"):
            load_config(path)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(unknown)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="parse"):
        load_config(garbled)
    # an integer past Python's 4300-digit conversion limit escaped json.loads
    # as a bare ValueError
    huge = tmp_path / "huge.json"
    huge.write_text('{"K": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError, match="parse"):
        load_config(huge)
    # values that would otherwise break deep inside a run (JSON via
    # Python's Infinity/NaN literals)
    inf, nan = float("inf"), float("nan")
    for field, value in (("asd_deg", 0.0), ("asd_deg", inf), ("asd_deg", nan),
                         ("bandwidth_hz", 0.0), ("bandwidth_hz", -20e6),
                         ("bandwidth_hz", inf), ("noise_figure_db", inf),
                         ("p_max_mw", inf), ("area_side", inf),
                         ("eta_db", nan), ("eta_db", -inf),
                         ("d_bar", 0.0), ("d_bar", -10.0), ("d_bar", nan)):
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    # counts, bits and the seed are integers: 5.5 UEs failed deep inside a
    # run, 2.5 bits ran as 2 bits, a negative seed failed in the drop
    for i, (field, value) in enumerate((
            ("K", 5.5), ("b_ad", 2.5), ("b_da", 3.0), ("seed", -1),
            ("seed", 1.5), ("L", True), ("trials", 100.7), ("N", "2"),
            ("tau", 2.0), ("tau_c", 200.5), ("iterations", False))):
        path = tmp_path / f"noninteger_{i}.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    # physical values are numbers: a string, a bool or a null where none is
    # allowed escaped as a bare TypeError, and True ran as 1.0
    for i, (field, value) in enumerate((
            ("asd_deg", "15"), ("nu", "0.5"), ("eta_db", "x"), ("d_bar", "5"),
            ("area_side", None), ("area_side", True), ("nu", None),
            ("p_max_mw", False), ("sigma2_dbm", "-90"), ("bandwidth_hz", [1e6]),
            ("scheme", ["distributed"]),
            # an integer no float holds raised a bare OverflowError
            ("area_side", 10**400), ("eta_db", -10**400))):
        path = tmp_path / f"nonnumeric_{i}.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    # an ASD whose square in radians underflows: NaN quadrature weights at
    # 1e-198 (the node doubling ran out of memory), weights summing to 1.33
    # at 1e-160
    for i, value in enumerate((1e-198, 1e-160)):
        path = tmp_path / f"tiny_asd_{i}.json"
        path.write_text(json.dumps({"asd_deg": value}))
        with pytest.raises(ConfigError, match="asd_deg"):
            load_config(path)
    # an ASD wider than half a turn, outside the local-scattering model: on a
    # 16-AP x 20-UE drop the quadrature ran 51 s (1e6, N=2) and 58 s (1000,
    # N=8) before its QuadratureError; 180 itself loads
    for i, (value, n_ant) in enumerate(((1e6, 2), (1000, 8), (180.5, 2))):
        path = tmp_path / f"wide_asd_{i}.json"
        path.write_text(json.dumps({"asd_deg": value, "N": n_ant}))
        with pytest.raises(ConfigError, match="asd_deg must be at most 180"):
            load_config(path)
    widest = tmp_path / "widest_asd.json"
    widest.write_text(json.dumps({"asd_deg": 180, "N": 8}))
    assert load_config(widest).asd_deg == 180
    # a noise power that overflows (sigma2_dbm or noise_figure_db at 4000
    # dB) or underflows to zero (-4000 dB), and bits too large for the
    # distortion law: each loaded, then crashed inside the run
    for i, (field, value) in enumerate((
            ("sigma2_dbm", 4000), ("sigma2_dbm", -4000),
            ("noise_figure_db", 4000), ("noise_figure_db", -4000),
            ("b_ad", 10**400), ("b_da", 10**400))):
        path = tmp_path / f"out_of_range_{i}.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"K": 5, "b_ad": 2, "b_da": None, "seed": 0,
                              "d_bar": None, "sigma2_dbm": -90}))
    cfg = load_config(ok)
    assert (cfg.K, cfg.b_ad, cfg.b_da, cfg.seed) == (5, 2, None, 0)
    assert (cfg.d_bar, cfg.sigma2_dbm) == (None, -90)


def test_load_config_single_override(tmp_path):
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"b_ad": 4}))
    cfg = load_config(path)
    assert cfg.b_ad == 4
    assert cfg.replace(b_ad=SimConfig().b_ad) == SimConfig()


def test_config_rejects_unknown_detector_and_weighting(tmp_path):
    with pytest.raises(ConfigError, match="distributed scheme.*lpmmse-full"):
        SimConfig(detector="nope")
    for weighting in ("nope", "mr"):
        with pytest.raises(ConfigError, match="weighting"):
            SimConfig(weighting=weighting)
    # each scheme's detectors are rejected under the other scheme
    with pytest.raises(ConfigError, match="centralized scheme.*pmmse"):
        SimConfig(scheme="centralized", detector="lpmmse")
    with pytest.raises(ConfigError, match="distributed scheme"):
        SimConfig(detector="mmse")
    assert SimConfig(scheme="centralized", detector="pmmse-full").detector == "pmmse-full"
    path = tmp_path / "bad_detector.json"
    path.write_text(json.dumps({"scheme": "centralized", "detector": "lmmse"}))
    with pytest.raises(ConfigError, match="centralized"):
        load_config(path)
    path = tmp_path / "bad_weighting.json"
    path.write_text(json.dumps({"weighting": "mr"}))
    with pytest.raises(ConfigError, match="weighting"):
        load_config(path)


def test_config_hash_tracks_content():
    assert config_hash(SimConfig()) == config_hash(SimConfig())
    assert config_hash(SimConfig()) != config_hash(SimConfig(seed=1))


def test_emit_empty_table_and_roundtrip(tmp_path):
    table = ResultTable(columns=("a", "b"), rows=[], meta={"x": 1})
    csv_path = tmp_path / "empty.csv"
    emit_results(table, "csv", csv_path)
    assert csv_path.read_bytes() == b"a,b\r\n"

    full = ResultTable(columns=("a", "b"), rows=[(0.1 + 0.2, "sum"), (1e-300, 3)],
                       meta={"x": 1})
    json_path = tmp_path / "t.json"
    emit_results(full, "json", json_path)
    back = json.loads(json_path.read_text(encoding="utf-8"))
    assert back["columns"] == list(full.columns)
    assert [[row[c] for c in full.columns] for row in back["rows"]] \
        == [list(r) for r in full.rows]
    assert back["meta"] == full.meta

    csv2 = tmp_path / "t.csv"
    emit_results(full, "csv", csv2)
    first = csv2.read_text().splitlines()[1].split(",")
    assert float(first[0]) == 0.1 + 0.2          # 17 significant digits survive

    with pytest.raises(Exception):
        emit_results(full, "yaml", tmp_path / "t.yaml")


def test_unknown_experiment_rejected():
    with pytest.raises(Exception, match="unknown experiment"):
        run_experiment("frisbee", SimConfig(**TINY))


def test_sweep_rows_and_monotone_bits():
    cfg = SimConfig(**{**TINY, "b_da": 1})
    table = run_experiment("sum-se-vs-bits", cfg, workers=1)
    assert table.columns == ("sweep", "value", "ue_index", "se", "stderr",
                             "config_hash", "seed", "trials")
    sums = [r[3] for r in table.rows
            if r[0] == "b_ad:distributed" and r[2] == "sum"]
    assert len(sums) == 5
    assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
    assert all(r[5] == config_hash(cfg) and r[6] == cfg.seed for r in table.rows)


def test_cdf_rows_are_a_distribution():
    cfg = SimConfig(**TINY)
    table = run_experiment("cdf-vs-nu", cfg, workers=1)
    by_label = {}
    for row in table.rows:
        by_label.setdefault(row[0], []).append((row[1], row[2]))
    for label, pairs in by_label.items():
        ses = [p[0] for p in pairs]
        cdf = [p[1] for p in pairs]
        assert ses == sorted(ses)
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_worker_determinism(name, tmp_path):
    cfg = SimConfig(**TINY)
    one = run_experiment(name, cfg, workers=1)
    two = run_experiment(name, cfg, workers=2)
    assert one.rows == two.rows
    emit_results(one, "csv", tmp_path / "one.csv")
    emit_results(two, "csv", tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_area_side_bound_is_where_gain_products_stay_normal():
    """Two path gains at the area diagonal, each SHADOW_MARGIN_STD shadow
    standard deviations below the mean, multiply to the smallest normal
    float at MAX_AREA_SIDE (to rounding), and fall below it past the bound."""
    tiny = np.finfo(float).tiny
    margin = -SHADOW_MARGIN_STD * SHADOW_STD_DB
    at = large_scale_fading(np.sqrt(2.0) * MAX_AREA_SIDE, margin)
    assert at * at == pytest.approx(tiny, rel=1e-9)
    past = large_scale_fading(np.sqrt(2.0) * 1.01 * MAX_AREA_SIDE, margin)
    assert past * past < tiny
    # 1e44 loaded, then every run died in a singular solve or a non-finite SE
    for side in (1e44, math.inf):
        with pytest.raises(ConfigError, match="^area_side must be"):
            SimConfig(area_side=side)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_largest_area_side_runs_and_the_next_is_refused(name):
    cfg = SimConfig(**dict(TINY, area_side=MAX_AREA_SIDE))
    table = run_experiment(name, cfg, workers=1)
    assert table.rows
    above = math.nextafter(MAX_AREA_SIDE, math.inf)
    with pytest.raises(ConfigError, match="^area_side must be at most"):
        SimConfig(**dict(TINY, area_side=above))


# channel_statistics, run_algorithm1 and build_estimation_context calls on TINY
BUILDS = (("sum-se-vs-N", (4, 4, 4)), ("sum-se-vs-bits", (1, 5, 5)),
          ("cdf-detectors-distributed", (4, 4, 4)),
          ("cdf-detectors-centralized", (4, 4, 4)),
          ("cdf-algorithm", (4, 12, 12)), ("cdf-vs-nu", (2, 12, 12)))


@pytest.mark.parametrize("name, builds", BUILDS,
                         ids=[f"{name}-{builds[0]}" for name, builds in BUILDS])
def test_cdf_builds_each_drop_once(monkeypatch, name, builds):
    """Each level of a point is built once: a drop's channel statistics, and
    each system's Algorithm 1 and estimation context. A build per report
    would read 5/5/5 for sum-se-vs-bits (one drop, five bit widths), 4/24/24
    and 4/16/16 for the detector CDFs (six and four reports per drop)."""
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(fn.__name__, []).append(args)
            return fn(*args, **kwargs)
        return wrapper

    levels = ("channel_statistics", "run_algorithm1", "build_estimation_context")
    for level in levels:
        monkeypatch.setattr(harness, level, counted(getattr(harness, level)))
    run_experiment(name, SimConfig(**TINY), workers=1)
    assert tuple(len(calls.get(level, ())) for level in levels) == builds
    # no drop, a (seed, N) pair, is built twice
    drops = [(int(a[1]), a[0].antennas_per_ap) for a in calls["channel_statistics"]]
    assert len(set(drops)) == len(drops)


def test_cdf_variants_override_only_what_a_drop_does_not_read():
    """Sharing is sound at both levels of a point. A system after a point's
    first differs from it only in fields the drop's statistics do not read,
    so the statistics are the same under its overrides; an evaluation
    overrides only fields build_system does not read, so the context and the
    plans are the same under its overrides."""
    statistics_free = {"nu", "b_ad"}
    evaluation_fields = {"scheme", "detector", "weighting"}
    cfg = SimConfig(**TINY)
    points = [e for e in REGISTRY.values() if e.point is harness._point]
    assert len(points) == 6
    for experiment in points:
        for _drop, systems in experiment.specs:
            first, *later = (dataclasses.asdict(cfg.replace(**overrides))
                             for _strategy, overrides, _evaluations in systems)
            for system in later:
                assert {f for f, v in system.items() if v != first[f]} <= statistics_free
            assert all(set(overrides) <= evaluation_fields
                       for _strategy, _overrides, evaluations in systems
                       for _label, overrides in evaluations)
    shifted = cfg.replace(scheme="centralized", detector="pmmse", weighting="l2")
    (ctx, plan, p_ddot), (ctx2, plan2, p_ddot2) = (build_system(c, 7)
                                                   for c in (cfg, shifted))
    stats = build_system(shifted.replace(nu=0.3, b_ad=1), 7)[0].stats
    for a, b in ((ctx.stats, stats), (ctx.stats.scenario, stats.scenario)):
        for name in (f.name for f in dataclasses.fields(a) if f.name != "scenario"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("p_ddot", "sigma2", "c_n_sqrt", "w", "est_gain", "c_hhat",
                 "adc_diag", "nx"):
        assert np.array_equal(getattr(ctx, name), getattr(ctx2, name)), name
    assert ctx.q == ctx2.q and ctx.plan.tau == ctx2.plan.tau
    for a, b in ((ctx.plan.pilot_of, ctx2.plan.pilot_of), (plan.D, plan2.D),
                 (plan.primary, plan2.primary), (p_ddot, p_ddot2)):
        assert np.array_equal(a, b)


def test_worker_count_env(monkeypatch):
    allow_cpus(monkeypatch, 16)
    monkeypatch.delenv("SCFSIM_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SCFSIM_WORKERS", "8")
    assert worker_count() == 8
    monkeypatch.setenv("SCFSIM_WORKERS", "zero")
    with pytest.raises(Exception):
        worker_count()


def test_worker_count_capped_at_cpu_count(monkeypatch):
    allow_cpus(monkeypatch, 2)
    monkeypatch.setenv("SCFSIM_WORKERS", "64")
    assert worker_count() == 2
    monkeypatch.setenv("SCFSIM_WORKERS", "0")
    assert worker_count() == 1
    # no affinity set on the platform, and the count unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("SCFSIM_WORKERS", "4")
    assert worker_count() == 1


@pytest.mark.parametrize("affinity, machine, expected", [
    ({0}, 16, 1),              # taskset -c 0 on a 16-CPU machine
    ({1, 3}, 4, 2),
    (None, 6, 6),              # no affinity set on the platform
    (None, None, 1),           # and the machine count unknown
])
def test_both_pools_size_from_the_usable_cpus(monkeypatch, affinity, machine,
                                              expected):
    """Both pools read the CPUs this process may run on. Read from
    os.cpu_count(), both were 2 under taskset -c 0 with SCFSIM_WORKERS=2."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: machine)
    assert numerics._usable_cpus() == expected
    monkeypatch.setenv("SCFSIM_WORKERS", "64")
    assert worker_count() == expected
    assert channel._quadrature_threads(20) == expected


def test_delta_se():
    from scfsim.se_mc import SEReport
    rep = SEReport(se=np.array([0.5, 2.0, 1.0]), prelog=0.95,
                   scheme="distributed", detector="mrc", weighting="lsfd",
                   evaluation="closed-form")
    assert delta_se(rep) == 1.5
    with pytest.raises(ValueError):
        SEReport(se=np.array([0.5]), prelog=1.0, scheme="distributed",
                 detector="mrc", weighting="lsfd", evaluation="closed-form")
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            SEReport(se=np.array([0.5, bad]), prelog=0.9, scheme="distributed",
                     detector="mrc", weighting="lsfd", evaluation="closed-form")


def test_build_system_strategies_differ():
    cfg = SimConfig(**TINY)
    _, cl_a, pw_a = build_system(cfg, 3)
    _, cl_e, pw_e = build_system(cfg.replace(nu=0.0), 3)
    assert np.allclose(pw_e, pw_e[0])
    assert not np.allclose(pw_a, pw_a[0])
    ctx_f, cl_f, pw_f = build_system(cfg, 3, strategy="full")
    assert cl_f.D.all() and not cl_a.D.all()
    assert np.array_equal(ctx_f.plan.pilot_of, np.arange(cfg.K) % cfg.tau)
    assert np.all(pw_f == pw_a.max())
    with pytest.raises(Exception, match="strategy"):
        build_system(cfg, 3, strategy="bogus")


def test_invariant_checks_pass():
    cfg = SimConfig(**TINY)
    results = run_invariant_checks(cfg, 5)
    failed = [name for name, ok, _ in results if not ok]
    assert failed == []


def _invariants_on(monkeypatch, cluster, pilot_of):
    """``run_invariant_checks`` on a drop whose plans are replaced."""
    cfg = SimConfig(**TINY)
    ctx, _, p_ddot = build_system(cfg, 5)
    ctx = dataclasses.replace(ctx, plan=PilotPlan(cfg.tau, pilot_of))
    monkeypatch.setattr(validation, "build_system",
                        lambda *args: (ctx, cluster, p_ddot))
    return {name for name, ok, _ in run_invariant_checks(cfg, 5) if not ok}


def test_invariant_checks_fail_on_bad_plans(monkeypatch):
    primary = [0, 1, 2, 3, 4, 0]
    d = np.zeros((6, 5), dtype=bool)
    d[np.arange(6), primary] = True
    d[[1, 2], 0] = True                     # UEs 1 and 2: secondary at AP 0
    cluster = ClusterPlan(d, primary)
    # on different pilots, or sharing one with a UE AP 0 serves as primary
    assert _invariants_on(monkeypatch, cluster, [0, 1, 2, 0, 1, 2]) == set()
    assert _invariants_on(monkeypatch, cluster, [1, 0, 2, 0, 1, 1]) == set()
    # two secondary UEs on one pilot at one AP
    assert _invariants_on(monkeypatch, cluster, [0, 1, 1, 2, 0, 2]) == {
        "secondary-pilot-uniqueness"}
    # UE 3's primary AP does not serve it: such a plan cannot be built, so a
    # valid plan (UE 3 on AP 4 alone) has its primary corrupted afterwards
    d = d.copy()
    d[3] = [False, False, False, False, True]
    cluster = ClusterPlan(d, [0, 1, 2, 4, 4, 0])
    object.__setattr__(cluster, "primary", np.array(primary))
    assert _invariants_on(monkeypatch, cluster, [0, 1, 2, 0, 1, 2]) == {
        "one-primary-per-ue"}


def test_validate_experiment_rows():
    cfg = SimConfig(L=3, K=4, N=2, tau=2, trials=4000, b_da=1, b_ad=2, seed=1)
    table = run_experiment("validate-closed-forms", cfg, workers=1)
    metrics = {r[0] for r in table.rows}
    assert "theorem1-kernel" in metrics and "distributed-se" in metrics
    assert "centralized-se" in metrics
