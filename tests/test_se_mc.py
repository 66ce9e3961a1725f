import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scfsim import se_mc
from scfsim.config import DETECTORS, SimConfig
from scfsim.harness import build_system
from scfsim.pilots import build_estimation_context
from scfsim.rng import substream
from scfsim.scheduler import full_cluster_plan
from scfsim.se_mc import (MC_BATCH_ELEMS, STDERR_GROUPS, batch_plan,
                          centralized_mc_report, distributed_mc_report,
                          distributed_mc_sums, mc_batches)

from conftest import small_system


def test_batch_plan_covers_trials():
    for trials in (1, 63, 64, 1000, 12345):
        plan = batch_plan(trials, 4, 2, 2)
        assert plan[0][0] == 0 and plan[-1][1] == trials
        for (a, b), (c, _) in zip(plan, plan[1:]):
            assert b == c


@pytest.mark.parametrize("trials, shape, count", [
    (192, (150, 64, 3), 3),           # paper scale, the MC benchmark: 3 x 64
    (100000, (6, 4, 2), 10),          # desk validation: 10 x 10000
    (1000, (20, 16, 3), 10),          # desk scale: 10 x 100
    (200, (150, 64, 3), 4),           # 4 x 50, not 64/64/64/8
    (2000, (150, 64, 3), 30),         # 30 x 66-67, not 27 x 72 + 56
])
def test_batch_plan_groups_are_equal(trials, shape, count):
    plan = batch_plan(trials, *shape)
    sizes = [hi - lo for lo, hi in plan]
    assert len(plan) == count and sum(sizes) == trials
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= max(64, MC_BATCH_ELEMS // np.prod(shape))
    groups = min(STDERR_GROUPS, count)
    assert count % groups == 0
    # the schedule's groups, each holding count // groups batches
    net = SimpleNamespace(K=shape[0], L=shape[1], N=shape[2])
    batches, per_group = mc_batches(net, trials, 0, "groups")
    assert [g for g, _, _ in batches] == [b // (count // groups)
                                          for b in range(count)]
    assert per_group.shape == (groups,) and per_group.sum() == trials
    assert per_group.max() - per_group.min() <= count // groups


@pytest.mark.parametrize("trials", [0, -5, 2.5, True])
def test_mc_reports_refuse_a_bad_trial_count(trials, monkeypatch):
    """0 and -5 raised ZeroDivisionError and 2.5 a TypeError; True ran one
    trial and reported trials=True. Each is refused before any draw."""
    _, _, _, _, _, ctx, cluster = small_system(seed=52)
    # a draw would call None and raise TypeError, not the ValueError
    monkeypatch.setattr(se_mc, "sample_joint", None)
    for report in (
            lambda: distributed_mc_report(ctx, cluster, "mrc", "lsfd", trials,
                                          0, 0.9),
            lambda: centralized_mc_report(ctx, cluster, "mrc", trials, 0, 0.9),
            lambda: batch_plan(trials, ctx.K, ctx.L, ctx.N)):
        with pytest.raises(ValueError, match=rf"^trials must be an integer "
                                             rf">= 1, got {trials!r}$"):
            report()


@pytest.mark.parametrize("seed", [2.7, True, "3", -1])
def test_substream_refuses_a_seed_that_is_not_a_count(seed):
    """int() floored 2.7 to 2, so a report at seed 2.7 was the report at
    seed 2 bit for bit; True read as 1 and "3" as 3."""
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, "
                                         rf"got {seed!r}$"):
        substream(seed, "x")
    _, _, _, _, _, ctx, cluster = small_system(seed=52)
    with pytest.raises(ValueError, match="^seed"):
        distributed_mc_report(ctx, cluster, "mrc", "lsfd", 64, seed, 0.9)
    # numpy integers are seeds: the CDF points derive theirs with integers()
    assert (substream(np.int64(3), "x").integers(2**62)
            == substream(3, "x").integers(2**62))


def test_zero_power_ue_gets_zero_se():
    cfg, stats, q, powers, plan, _, cluster = small_system(seed=50)
    p = powers.copy()
    p[2] = 0.0
    ctx = build_estimation_context(stats, plan, p, q, cfg.sigma2_mw)
    report = distributed_mc_report(ctx, cluster, "mrc", "lsfd", 2000, 0, 0.95)
    assert report.se[2] == 0.0
    assert np.all(report.se[[0, 1, 3]] > 0)


def test_lmmse_dominates_mrc():
    _, _, _, _, _, ctx, cluster = small_system(seed=51)
    mrc = distributed_mc_report(ctx, cluster, "mrc", "lsfd", 20000, 1, 0.95)
    lmmse = distributed_mc_report(ctx, cluster, "lmmse", "lsfd", 20000, 1, 0.95)
    assert np.all(lmmse.se >= mrc.se * (1 - 5e-3))


def test_mc_determinism_and_metadata():
    _, _, _, _, _, ctx, cluster = small_system(seed=52)
    a = distributed_mc_report(ctx, cluster, "mrc", "plsfd", 4000, 9, 0.9)
    b = distributed_mc_report(ctx, cluster, "mrc", "plsfd", 4000, 9, 0.9)
    assert np.array_equal(a.se, b.se)
    assert np.array_equal(a.stderr, b.stderr, equal_nan=True)
    assert np.all(np.isfinite(a.stderr))
    assert a.trials == 4000 and a.evaluation == "monte-carlo"
    c = centralized_mc_report(ctx, cluster, "pmmse", 2000, 9, 0.9)
    d = centralized_mc_report(ctx, cluster, "pmmse", 2000, 9, 0.9)
    assert np.array_equal(c.se, d.se)
    assert c.scheme == "centralized" and c.weighting is None


def test_centralized_mmse_dominates_mrc_per_instance():
    _, _, _, _, _, ctx, cluster = small_system(seed=53)
    mrc = centralized_mc_report(ctx, cluster, "mrc", 3000, 2, 0.95)
    mmse = centralized_mc_report(ctx, cluster, "mmse", 3000, 2, 0.95)
    assert np.all(mmse.se >= mrc.se * (1 - 1e-9))


def test_weighting_ordering_under_mc():
    _, _, _, _, _, ctx, cluster = small_system(seed=54)
    opt = distributed_mc_report(ctx, cluster, "mrc", "lsfd", 20000, 3, 0.95)
    l2 = distributed_mc_report(ctx, cluster, "mrc", "l2", 20000, 3, 0.95)
    assert np.all(l2.se <= opt.se * (1 + 1e-9))


def test_mc_plsfd_matches_corollary_closed_form():
    # the generic moment-restricted weighting must land on the closed form
    # when the detector is MRC, also under genuinely partial clusters
    from scfsim.config import DETECTORS, SimConfig
    from scfsim.harness import build_system, distributed_closed_report
    cfg = SimConfig(L=8, K=10, N=2, tau=4, b_da=1, b_ad=2)
    ctx, cluster, _ = build_system(cfg, seed=21)
    assert any(len(o) < cfg.K for o in cluster.overlap)
    closed = distributed_closed_report(ctx, cluster, "plsfd", cfg.prelog).se
    mc = distributed_mc_report(ctx, cluster, "mrc", "plsfd", 30000, 3,
                               cfg.prelog)
    gaps = np.abs(closed - mc.se) / closed
    assert np.max(gaps) < 0.02


def test_lpmmse_close_to_lmmse_at_desk_scale():
    from scfsim.config import DETECTORS, SimConfig
    from scfsim.harness import build_system
    cfg = SimConfig(L=16, K=20, N=3, tau=5, b_da=4, b_ad=4)
    ctx, cluster, _ = build_system(cfg, seed=42)
    lp = distributed_mc_report(ctx, cluster, "lpmmse", "plsfd", 2000, 5,
                               cfg.prelog).se
    lm = distributed_mc_report(ctx, cluster, "lmmse", "lsfd", 2000, 5,
                               cfg.prelog).se
    gap = abs(np.median(lp) - np.median(lm)) / np.median(lm)
    assert gap < 0.10


def test_centralized_exact_mc_scalar_oracle():
    # L=1, K=1, ideal hardware: oracle draws estimates straight from their
    # distribution CN(h_bar, C_hhat) and averages the bound directly
    from scfsim.numerics import crandn
    from oracles import hermitian_sqrt
    from scfsim.rng import substream
    _, stats, _, powers, plan, _, cluster = small_system(
        L=1, K=1, N=2, tau=1, b_da=None, b_ad=None, seed=57)
    from scfsim.quantization import QuantizerConfig
    q0 = QuantizerConfig()
    sigma2 = small_system(L=1, K=1, N=2, tau=1, seed=57)[0].sigma2_mw
    ctx = build_estimation_context(stats, plan, powers, q0, sigma2)

    trials = 60000
    got = centralized_mc_report(ctx, cluster, "mrc", trials, 7, 0.95).se[0]

    rng = substream(99, "oracle")
    factor = hermitian_sqrt(ctx.c_hhat[0, 0])
    draws = stats.h_bar[0, 0] + (factor @ crandn(rng, (trials, 2)).T).T
    w = powers[0] * (stats.R[0, 0] - ctx.c_hhat[0, 0]) \
        + sigma2 * np.eye(2)
    num = powers[0] * np.abs(np.einsum("bn,bn->b", np.conj(draws), draws)) ** 2
    den = np.real(np.einsum("bn,nm,bm->b", np.conj(draws), w, draws))
    oracle = 0.95 * np.mean(np.log2(1 + num / den))
    assert abs(got - oracle) / oracle < 0.02


def test_unknown_detector_or_weighting_raises(monkeypatch):
    _, _, _, _, _, ctx, cluster = small_system(seed=56)
    with pytest.raises(ValueError):
        distributed_mc_report(ctx, cluster, "zf", "lsfd", 256, 0, 0.95)
    with pytest.raises(ValueError):
        distributed_mc_report(ctx, cluster, "mrc", "magic", 256, 0, 0.95)

    # the names are checked before any trial is drawn
    drawn = []

    def no_sampling(*args, **kwargs):
        drawn.append(args)
        raise AssertionError("sampled before the names were checked")

    monkeypatch.setattr(se_mc, "sample_joint", no_sampling)
    for call in (
            lambda: distributed_mc_report(ctx, cluster, "zf", "lsfd", 256, 0, 0.95),
            lambda: distributed_mc_report(ctx, cluster, "mrc", "magic", 256, 0, 0.95),
            lambda: distributed_mc_report(ctx, cluster, "mmse", "lsfd", 256, 0, 0.95),
            lambda: centralized_mc_report(ctx, cluster, "zf", 256, 0, 0.95),
            lambda: centralized_mc_report(ctx, cluster, "lpmmse", 256, 0, 0.95)):
        with pytest.raises(ValueError):
            call()
    assert drawn == []


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batches_are_freed_before_the_next_draw():
    # desk scale under Algorithm 1: a 64-trial batch (~1 MB per channel
    # array) outweighs the per-group sums, which grow with the group count
    cfg = SimConfig(L=16, K=20, N=3, tau=5, area_side=1000.0)
    ctx, cluster, _ = build_system(cfg, 3)
    assert len(batch_plan(64, ctx.K, ctx.L, ctx.N)) == 1
    assert [hi - lo for lo, hi in batch_plan(640, ctx.K, ctx.L, ctx.N)] == [64] * 10
    calls = {
        "distributed": lambda trials: distributed_mc_sums(
            ctx, cluster, "lpmmse", trials, 1),
        "centralized": lambda trials: centralized_mc_report(
            ctx, cluster, "mrc", trials, 1, 0.95),
    }
    for name, call in calls.items():
        call(64)                     # per-context memos are built outside the trace
        one = _traced_peak(lambda: call(64))
        ten = _traced_peak(lambda: call(640))
        assert ten <= 1.2 * one, (name, ten / one)


def test_report_peaks_stay_near_one_batch():
    # a scheduled plan at a scale where one 64-trial batch of true channels
    # (5.9 MB) outweighs the static parts and every per-UE temporary: a
    # batch holds one copy of the channels plus only what its engine reads,
    # its draws pass through a float buffer of at most 32 trials, and the
    # per-UE work walks it in chunks of about CHUNK_ELEMS. The peaks read
    # 1.34-1.35 batches for every distributed detector (the per-UE loop)
    # and 1.29 (the channel draw); drawing each part whole and forming each
    # UE's work on the whole batch peaked at 1.52 and 1.54, and L-MMSE
    # forming every (UE, AP) pair's estimates per chunk at 2.34
    cfg = SimConfig(L=32, K=60, N=3, tau=5, area_side=1000.0)
    ctx, cluster, _ = build_system(cfg, 5)
    assert all(len(m) < ctx.L for m in cluster.serving)
    assert [hi - lo for lo, hi in batch_plan(128, ctx.K, ctx.L, ctx.N)] == [64, 64]
    batch = ctx.K * ctx.L * ctx.N * 64 * np.dtype(complex).itemsize
    calls = {("distributed", d): (1.4, lambda d=d: distributed_mc_report(
        ctx, cluster, d, "plsfd", 128, 1, 0.95)) for d in DETECTORS["distributed"]}
    calls["centralized", "pmmse"] = (1.35, lambda: centralized_mc_report(
        ctx, cluster, "pmmse", 128, 1, 0.95))
    for name, (bound, call) in calls.items():
        call()                       # per-context memos are built outside the trace
        peak = _traced_peak(call)
        assert peak <= bound * batch, (name, peak / batch)

    # the full plan at the shape `scfsim validate` runs, in 10,000-trial
    # batches: a batch is drawn whole and consumed in chunks, so a chunk's
    # estimates, combiners and effective channels stay a fraction of it.
    # Consuming each batch whole peaked at 3.43, 4.69 and 4.47 batches
    cfg = SimConfig(L=4, K=6, N=2, tau=3, b_da=1, b_ad=2)
    ctx = build_system(cfg, 0)[0]
    cluster = full_cluster_plan(ctx.stats)
    assert [hi - lo for lo, hi in batch_plan(100000, ctx.K, ctx.L, ctx.N)] \
        == [10000] * 10
    batch = ctx.K * ctx.L * ctx.N * 10000 * np.dtype(complex).itemsize
    for detector in ("mrc", "lmmse", "lpmmse"):
        distributed_mc_report(ctx, cluster, detector, "lsfd", 640, 1, 0.95)
        peak = _traced_peak(lambda: distributed_mc_report(
            ctx, cluster, detector, "lsfd", 100000, 1, 0.95))
        assert peak <= 2.6 * batch, (detector, peak / batch)
