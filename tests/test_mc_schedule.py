"""The one Monte Carlo schedule (``se_mc.mc_batches``) and its readers.

Both SE engines and ``validation``'s Theorem-1 oracle take their batches,
RNG streams and stderr groups from ``mc_batches``, and both reports take
their standard errors from ``se_mc._stderr``. The schedule is checked
against ``batch_plan``, ``substream`` and the group rule written out
(``oracles.group_of``); each reader is checked to draw from it once, under
its own tag; and ``_kernel_mc`` is pinned bit for bit to a loop over
``batch_plan`` and ``substream`` of its own.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from scfsim import se_mc, validation
from scfsim.config import SimConfig
from scfsim.harness import build_system
from scfsim.rng import substream
from scfsim.sampling import estimates, sample_joint
from scfsim.se_mc import (STDERR_GROUPS, _stderr, batch_plan,
                          centralized_mc_report, distributed_mc_report,
                          mc_batches)

from conftest import small_system
from oracles import group_of


@pytest.fixture(scope="module")
def validate_shape():
    """The network ``scfsim validate`` runs, full plan."""
    cfg = validation.desk_validation_config(SimConfig())
    ctx, cluster, _ = build_system(cfg, 0, strategy="full")
    return cfg, ctx, cluster


@pytest.mark.parametrize("trials, shape", [
    (64, (4, 2, 2)),              # one batch: one group
    (192, (150, 64, 3)),          # three batches, three groups
    (700, (6, 4, 2)),             # ten batches, ten groups
    (2000, (150, 64, 3)),         # thirty batches, three per group
    (12345, (20, 16, 3)),         # uneven batch sizes
])
def test_schedule_is_the_plan_the_streams_and_the_groups(trials, shape):
    net = SimpleNamespace(K=shape[0], L=shape[1], N=shape[2])
    plan = batch_plan(trials, *shape)
    batches, counts = mc_batches(net, trials, 17, "schedule")
    batches = list(batches)
    assert len(batches) == len(plan)
    want_counts = np.zeros(min(STDERR_GROUPS, len(plan)))
    for b_idx, ((g, n, rng), (lo, hi)) in enumerate(zip(batches, plan)):
        assert g == group_of(b_idx, len(plan)) and n == hi - lo
        want = substream(17, "schedule", b_idx).integers(2**62, size=4)
        assert np.array_equal(rng.integers(2**62, size=4), want)
        want_counts[g] += n
    assert counts.dtype == float
    assert np.array_equal(counts, want_counts) and counts.sum() == trials


def test_stderr_rule():
    rng = substream(3, "stderr")
    per_group = rng.normal(size=(4, 5))
    assert np.array_equal(_stderr(per_group),
                          np.std(per_group, axis=0, ddof=1) / np.sqrt(4))
    # a list of (K,) rows is read like the (G, K) array
    assert np.array_equal(_stderr(list(per_group)), _stderr(per_group))
    for one in (per_group[:1], list(per_group[:1])):
        got = _stderr(one)
        assert got.shape == (5,) and np.all(np.isnan(got))


def test_a_one_batch_budget_reports_nan_stderr():
    _, _, _, _, _, ctx, cluster = small_system(seed=58)
    assert len(batch_plan(64, ctx.K, ctx.L, ctx.N)) == 1
    for report in (
            distributed_mc_report(ctx, cluster, "mrc", "lsfd", 64, 2, 0.9),
            distributed_mc_report(ctx, cluster, "lmmse", "plsfd", 64, 2, 0.9),
            centralized_mc_report(ctx, cluster, "mmse", 64, 2, 0.9)):
        assert report.stderr.shape == (ctx.K,)
        assert np.all(np.isnan(report.stderr))
        assert np.all(np.isfinite(report.se)) and report.trials == 64
    # two batches: a stderr for every UE
    assert len(batch_plan(128, ctx.K, ctx.L, ctx.N)) == 2
    two = centralized_mc_report(ctx, cluster, "mmse", 128, 2, 0.9)
    assert np.all(np.isfinite(two.stderr))


def test_each_reader_takes_the_schedule_once_under_its_tag(validate_shape,
                                                           monkeypatch):
    cfg, ctx, cluster = validate_shape
    calls, streams = [], []
    schedule = se_mc.mc_batches

    def spy(ctx_, trials, seed, tag):
        calls.append((trials, seed, tag))
        batches, counts = schedule(ctx_, trials, seed, tag)

        def logged():
            for g, n, rng in batches:
                streams.append((tag, g, n))
                yield g, n, rng
        return logged(), counts

    monkeypatch.setattr(se_mc, "mc_batches", spy)
    monkeypatch.setattr(validation, "mc_batches", spy)
    cases = list(validation.theorem1_cases(ctx.plan).values())
    trials = 700
    batches = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    assert len(batches) == STDERR_GROUPS
    plan = [(group_of(b, len(batches)), hi - lo)
            for b, (lo, hi) in enumerate(batches)]
    for run, tag in (
            (lambda: distributed_mc_report(ctx, cluster, "lpmmse", "plsfd",
                                           trials, 4, cfg.prelog),
             "mc-distributed"),
            (lambda: centralized_mc_report(ctx, cluster, "pmmse", trials, 4,
                                           cfg.prelog), "mc-centralized"),
            (lambda: validation._kernel_mc(ctx, cases, trials, 4),
             "kernel-oracle")):
        calls.clear()
        streams.clear()
        run()
        assert calls == [(trials, 4, tag)]
        assert streams == [(tag, g, n) for g, n in plan]
    # validation reads no stream or batch plan of its own
    assert not {"substream", "batch_plan"} & set(vars(validation))


def _kernel_mc_loop(ctx, pairs, trials, seed):
    """The Theorem-1 oracle's sample means as a plain loop over
    ``batch_plan`` and ``substream(seed, "kernel-oracle", b)``."""
    ues = [k for k, _, _, _ in pairs for _ in range(2)]
    aps = [l for _, _, l1, l2 in pairs for l in (l1, l2)]
    sums = np.zeros(len(pairs), dtype=complex)
    total = 0
    for b_idx, (lo, hi) in enumerate(batch_plan(trials, ctx.K, ctx.L, ctx.N)):
        h, z = sample_joint(ctx, substream(seed, "kernel-oracle", b_idx),
                            hi - lo)
        hhat = estimates(ctx, z, ues, aps)
        total += hi - lo
        for j, (k, i, l1, l2) in enumerate(pairs):
            left = np.einsum("nb,nb->b", np.conj(hhat[2 * j]), h[i, l1])
            right = np.einsum("nb,nb->b", np.conj(h[i, l2]), hhat[2 * j + 1])
            sums[j] += np.sum(left * right)
    return sums / total


@pytest.mark.parametrize("trials, seed", [(64, 0), (700, 5), (2345, 9)])
def test_kernel_mc_matches_its_loop_oracle_bit_for_bit(validate_shape, trials,
                                                       seed):
    _, ctx, _ = validate_shape
    cases = list(validation.theorem1_cases(ctx.plan).values())
    got = validation._kernel_mc(ctx, cases, trials, seed)
    assert np.array_equal(got, _kernel_mc_loop(ctx, cases, trials, seed))
