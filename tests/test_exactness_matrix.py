"""The exactness claim as a test matrix.

The distributed MRC closed forms claim to be exact: Theorem 2's SE under
the LSFD, P-LSFD and L2 weightings, and the Theorem-1 kernels it is built
from. Each is checked against the joint Monte Carlo (MC) sampler on one
drop of an L=8, K=10, N=2, tau=4 network, under Rician and Rayleigh
fading, on the full plan (every AP serves every UE, equal powers,
round-robin pilots) and on Algorithm 1's plan, with (1,2)-bit, 4-bit and
ideal converters. Acceptance criteria 1-3 cover the Rician full-plan cells.

Every verdict is a z-score against the MC's own standard error. The seeds
are fixed, so each verdict is reproducible; each bound below holds the
family-wise false-alarm rate of its test at 1% when the closed form is
exact. The quantiles were computed with ``scipy.stats``, which the suite
does not depend on.

On the same (1,2)-bit cells of both fadings and plans, the batched step from
moments to SE, one solve per serving-set size class, is pinned to the
former per-UE one (``oracles.se_from_moments``) applied to each UE's row:
to 1e-13 relative for the closed form, and to 1e-12 for the MC report's SE
and stderr, whose per-UE oracle reads the same sums.
"""

import numpy as np
import pytest

from scfsim import se_mc
from scfsim.config import WEIGHTINGS, SimConfig
from scfsim.harness import build_system, distributed_closed_report
from scfsim.lsfd import build_ingredients
from scfsim.rng import substream
from scfsim.se_closed import theorem1_kernel
from scfsim.validation import theorem1_cases
from oracles import joint_batch, se_from_moments, ue_row

NETWORK = dict(L=8, K=10, N=2, tau=4)
DROP_SEED, MC_SEED = 21, 5
FADINGS = ("rician", "rayleigh")
STRATEGIES = ("full", "algorithm1")
CONVERTERS = {"1-2-bit": (1, 2), "4-bit": (4, 4), "ideal": (None, None)}

# SE matrix: 2 fadings x 2 plans x 3 converters = 12 cells, each one
# distributed_mc_sums run of SE_TRIALS trials in 10 stderr groups, shared by
# its 3 weightings. A UE's z = (MC SE - closed SE) / stderr, with the stderr
# from the 10 group SEs, is about a t with 9 degrees of freedom.
SE_TRIALS = 20_000
# Bonferroni over the matrix's 12 x 30 z-scores, two-sided:
# t_9 quantile at 1 - 0.01 / 720 = 7.775.
SE_MAX_ABS_Z = 7.78
# A cell's mean z^2 over its 30 z-scores. The 3 weightings of a UE read the
# same trials, so count 10 independent z-scores per cell, each with
# E[z^2] = 9/7 under t_9: chi-square_10 quantile at 1 - 0.01 / 12 (30.07),
# over 10, times 9/7 = 3.867.
SE_MEAN_Z2 = 3.87

# Theorem-1 kernels: the cells criterion 1 leaves out, 4 cases x (real,
# imaginary) each, from KERNEL_BATCHES batch means of KERNEL_BATCH trials.
KERNEL_CELLS = (("rayleigh", "full"), ("rayleigh", "algorithm1"),
                ("rician", "algorithm1"))
KERNEL_BATCHES, KERNEL_BATCH = 20, 2_500
# Bonferroni over 3 cells x 8 z-scores, two-sided, t_19 quantile at
# 1 - 0.01 / 48 = 4.267.
KERNEL_MAX_ABS_Z = 4.27


def _system(fading, strategy, b_da=1, b_ad=2):
    cfg = SimConfig(**NETWORK, b_da=b_da, b_ad=b_ad, fading=fading)
    ctx, cluster, _ = build_system(cfg, DROP_SEED, strategy)
    # Algorithm 1 must leave some UE a partial cluster and overlap set, or
    # its cells would repeat the full plan's
    assert cluster.D.all() == (strategy == "full")
    assert all(q.size == cfg.K for q in cluster.overlap) == (strategy == "full")
    return cfg, ctx, cluster


@pytest.mark.parametrize("converters", CONVERTERS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("fading", FADINGS)
def test_distributed_se_closed_form_matches_mc(fading, strategy, converters,
                                              monkeypatch):
    cfg, ctx, cluster = _system(fading, strategy, *CONVERTERS[converters])
    sums = se_mc.distributed_mc_sums(ctx, cluster, "mrc", SE_TRIALS, MC_SEED)
    assert sums.groups == 10
    # each weighting's report reads the cell's one set of sums
    monkeypatch.setattr(se_mc, "distributed_mc_sums", lambda *args: sums)
    z = []
    for weighting in WEIGHTINGS:
        closed = distributed_closed_report(ctx, cluster, weighting, cfg.prelog)
        mc = se_mc.distributed_mc_report(ctx, cluster, "mrc", weighting,
                                         SE_TRIALS, MC_SEED, cfg.prelog)
        z.append((mc.se - closed.se) / mc.stderr)
    z = np.concatenate(z)
    assert np.max(np.abs(z)) <= SE_MAX_ABS_Z, z
    assert np.mean(z ** 2) <= SE_MEAN_Z2, z


# the batched SE against the per-UE oracle: 10 batches of 64 trials, one per
# stderr group
ORACLE_TRIALS = 640
CLOSED_REL, MC_REL = 1e-13, 1e-12


def _rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("fading", FADINGS)
def test_batched_se_matches_per_ue_oracle(fading, strategy, monkeypatch):
    cfg, ctx, cluster = _system(fading, strategy)
    sizes = cluster.D.sum(axis=1)
    classes = build_ingredients(ctx, cluster)
    sums = se_mc.distributed_mc_sums(ctx, cluster, "mrc", ORACLE_TRIALS,
                                     MC_SEED)
    assert sums.groups == 10
    # every UE sits in exactly one class row, of its own serving-set size
    for ues in ([c.ues for c in classes], sums.ues,
                [c.ues for c in sums.moments()]):
        assert np.array_equal(np.sort(np.concatenate(ues)), np.arange(ctx.K))
    for c in classes:
        assert np.all(sizes[c.ues] == c.signal.shape[1])
    assert (len(classes) > 1) == (strategy == "algorithm1")

    monkeypatch.setattr(se_mc, "distributed_mc_sums", lambda *args: sums)
    pooled = sums.moments()
    grouped = [sums.moments(slice(g, g + 1)) for g in range(sums.groups)]
    for weighting in WEIGHTINGS:
        closed = distributed_closed_report(ctx, cluster, weighting, cfg.prelog)
        want = [se_from_moments(ue_row(classes, k), weighting, cfg.prelog)
                for k in range(ctx.K)]
        assert _rel(closed.se, want) <= CLOSED_REL

        mc = se_mc.distributed_mc_report(ctx, cluster, "mrc", weighting,
                                         ORACLE_TRIALS, MC_SEED, cfg.prelog)
        want_se, want_stderr = [], []
        for k in range(ctx.K):
            want_se.append(se_from_moments(ue_row(pooled, k), weighting,
                                           cfg.prelog))
            per_group = [se_from_moments(ue_row(m, k), weighting, cfg.prelog)
                         for m in grouped]
            want_stderr.append(np.std(per_group, ddof=1) / np.sqrt(len(grouped)))
        assert _rel(mc.se, want_se) <= MC_REL
        assert _rel(mc.stderr, want_stderr) <= MC_REL


@pytest.mark.parametrize("fading, strategy", KERNEL_CELLS)
def test_theorem1_kernels_match_mc(fading, strategy):
    _, ctx, _ = _system(fading, strategy)
    strongest = np.argsort(-ctx.stats.beta[0])[:2]       # UE 0's two best APs
    cases = {name: (k, i, strongest[a], strongest[b])
             for name, (k, i, a, b) in theorem1_cases(ctx.plan).items()}
    means = {name: [] for name in cases}
    rng = substream(MC_SEED, "kernel-matrix")
    for _ in range(KERNEL_BATCHES):
        h, hhat = joint_batch(ctx, rng, KERNEL_BATCH)
        for name, (k, i, l1, l2) in cases.items():
            left = np.einsum("bn,bn->b", np.conj(hhat[:, k, l1]), h[:, i, l1])
            right = np.einsum("bn,bn->b", np.conj(h[:, i, l2]), hhat[:, k, l2])
            means[name].append(np.mean(left * right))
    for name, idx in cases.items():
        batches = np.array(means[name])
        mc, closed = batches.mean(), theorem1_kernel(*idx, ctx)
        # a part that is zero up to rounding (the imaginary part of the
        # same-AP cases) gets a machine-precision stderr floor
        floor = 1e-12 * max(abs(closed), abs(mc))
        for part in (np.real, np.imag):
            stderr = max(part(batches).std(ddof=1) / np.sqrt(KERNEL_BATCHES),
                         floor)
            z = (part(mc) - part(closed)) / stderr
            assert abs(z) <= KERNEL_MAX_ABS_Z, (name, part.__name__, z)
