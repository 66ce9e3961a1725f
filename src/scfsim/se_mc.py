"""Monte Carlo spectral-efficiency estimators.

Distributed scheme: the hardening bound evaluated from jointly sampled
(channel, estimate, receive-noise) trials. The trials are summed into
per-UE sample moments (``DistributedSums``), which give the same
``lsfd.Moments`` bundle the closed form builds; ``lsfd.se_from_moments``
turns it into weights and SE for both engines, so numerator and denominator
share the same trials to keep the ratio variance down. Centralized scheme:
the instantaneous-SINR bound averaged over estimate realizations.

Trials are processed in fixed-size batches with per-batch derived RNG
streams and summed in batch order, so results are bit-identical no matter
how the surrounding experiment is scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detectors import (centralized_combiners, centralized_error_noise,
                        centralized_system_matrices, local_combiners)
from .lsfd import Moments, se_from_moments
from .pilots import context_memo
from .rng import substream
from .sampling import sample_data_noise, sample_joint

MC_BATCH_ELEMS = 1 << 21   # target complex elements per (trials x K x L x N) batch
STDERR_GROUPS = 10


@dataclass(frozen=True)
class SEReport:
    se: np.ndarray             # (K,) bit/s/Hz per UE
    prelog: float
    scheme: str                # distributed | centralized
    detector: str
    weighting: str | None      # second-stage weights (distributed only)
    evaluation: str            # closed-form | monte-carlo
    trials: int | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.prelog < 1.0:
            raise ValueError(f"prelog must lie in (0, 1), got {self.prelog}")
        if np.any(np.asarray(self.se) < 0):
            raise ValueError("spectral efficiencies must be non-negative")

    @property
    def sum_se(self):
        return float(np.sum(self.se))


def batch_plan(trials, k_count, l_count, n_ant):
    """Deterministic batch sizes for a trial budget (independent of workers).

    Batches are capped by memory and also split roughly STDERR_GROUPS ways so
    group-based standard errors exist whenever the budget allows. Sizes
    differ by at most one trial, and when there are more batches than stderr
    groups their count is a multiple of the group count, so every group holds
    the same number of trials, give or take one per batch.
    """
    per_trial = max(1, k_count * l_count * n_ant)
    by_groups = -(-trials // STDERR_GROUPS)
    size = int(max(64, min(by_groups, MC_BATCH_ELEMS // per_trial)))
    count = -(-trials // size)
    if count > STDERR_GROUPS:
        count = -(-count // STDERR_GROUPS) * STDERR_GROUPS
    edges = [trials * i // count for i in range(count + 1)]
    return [(edges[i], edges[i + 1]) for i in range(count)]


def _group_of(batch_idx, n_batches, groups):
    return batch_idx * groups // n_batches


class DistributedSums:
    """Per-UE running sums of every Eq.-18 moment, split into stderr groups."""

    def __init__(self, ctx, sizes, groups):
        self.p = ctx.p_ddot
        self.one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
        self.rho_da = ctx.q.rho_da
        self.count = np.zeros(groups)
        self.g_sum = [np.zeros((groups, m), dtype=complex) for m in sizes]
        self.w_full = [np.zeros((groups, m, m), dtype=complex) for m in sizes]
        self.w_overlap = [np.zeros((groups, m, m), dtype=complex) for m in sizes]
        self.f_outer = [np.zeros((groups, m, m), dtype=complex) for m in sizes]
        self.d_local = [np.zeros((groups, m)) for m in sizes]

    @property
    def groups(self):
        return len(self.count)

    def moments(self, k, sel=slice(None)):
        """UE k's Moments from the trials of the stderr groups ``sel``:

            C_k   = (1-rho_ad)^2 W + F - (1-rho_ad)^2 p̈_k g g^H
            C_k^P = diag(d) + (1-rho_ad)^2/(1-rho_da) W_Q
                    - (1-rho_ad)^2 p̈_k g g^H

        with g the sample mean of g_kk, W and W_Q the power-weighted
        interference Grams over all UEs and over Q_k, F the receive-noise
        Gram and d its AP-local diagonal.
        """
        n = self.count[sel].sum()
        g_bar = self.g_sum[k][sel].sum(axis=0) / n
        w_full = self.w_full[k][sel].sum(axis=0) / n
        w_overlap = self.w_overlap[k][sel].sum(axis=0) / n
        f_mat = self.f_outer[k][sel].sum(axis=0) / n
        d_vec = self.d_local[k][sel].sum(axis=0) / n
        signal_term = self.one_ad2 * self.p[k] * np.outer(g_bar, np.conj(g_bar))
        return Moments(
            signal=g_bar,
            c_full=self.one_ad2 * w_full + f_mat - signal_term,
            c_partial=(np.diag(d_vec)
                       + self.one_ad2 / (1.0 - self.rho_da) * w_overlap
                       - signal_term),
            p_ddot_k=float(self.p[k]), one_ad2=self.one_ad2)


def distributed_mc_sums(ctx, cluster, detector, trials, seed):
    """Joint Monte Carlo sample sums of every UE's distributed moments."""
    serving = [np.asarray(cluster.serving[k], dtype=int) for k in range(ctx.K)]
    overlap = [np.asarray(cluster.overlap[k], dtype=int) for k in range(ctx.K)]
    batches = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    acc = DistributedSums(ctx, [len(s) for s in serving],
                          min(STDERR_GROUPS, len(batches)))
    p = ctx.p_ddot

    for b_idx, (lo, hi) in enumerate(batches):
        rng = substream(seed, "mc-distributed", b_idx)
        h, hhat = sample_joint(ctx, rng, hi - lo)
        noise = sample_data_noise(ctx, h, rng)
        v = local_combiners(hhat, ctx, cluster, detector)
        g_idx = _group_of(b_idx, len(batches), acc.groups)
        acc.count[g_idx] += hi - lo
        for k in range(ctx.K):
            m_idx = serving[k]
            v_k = v[:, k, m_idx, :]
            g = np.einsum("bmn,bimn->bim", np.conj(v_k), h[:, :, m_idx, :])
            acc.g_sum[k][g_idx] += g[:, k].sum(axis=0)
            acc.w_full[k][g_idx] += np.einsum("i,bim,bin->mn", p, g, np.conj(g))
            q_idx = overlap[k]
            acc.w_overlap[k][g_idx] += np.einsum(
                "i,bim,bin->mn", p[q_idx], g[:, q_idx], np.conj(g[:, q_idx]))
            f = np.einsum("bmn,bmn->bm", np.conj(v_k), noise[:, m_idx, :])
            acc.f_outer[k][g_idx] += np.einsum("bm,bn->mn", f, np.conj(f))
            v_abs2 = np.abs(v_k) ** 2
            acc.d_local[k][g_idx] += (
                np.einsum("bmn,mn->m", v_abs2, ctx.nx_diag[m_idx])
                + np.einsum("bmn,m->m", v_abs2, ctx.nx_iso[m_idx]))
    return acc


def distributed_mc_report(ctx, cluster, detector, weighting, trials, seed,
                          prelog):
    """Per-UE distributed SE (hardening bound) by joint Monte Carlo."""
    sums = distributed_mc_sums(ctx, cluster, detector, trials, seed)
    groups = sums.groups
    se = np.empty(ctx.K)
    stderr = np.full(ctx.K, np.nan)
    for k in range(ctx.K):
        se[k] = se_from_moments(sums.moments(k), weighting, prelog)
        if groups >= 2:
            per_group = [se_from_moments(sums.moments(k, slice(g_i, g_i + 1)),
                                         weighting, prelog)
                         for g_i in range(groups)]
            stderr[k] = np.std(per_group, ddof=1) / math.sqrt(groups)
    return SEReport(se=se, prelog=prelog, scheme="distributed",
                    detector=detector, weighting=weighting,
                    evaluation="monte-carlo", trials=trials, stderr=stderr)


def centralized_mc_report(ctx, cluster, detector, trials, seed, prelog):
    """Per-UE centralized SE: E[log2(1 + instantaneous SINR)] over estimates."""
    w_full = context_memo(ctx, centralized_error_noise)
    statics = (centralized_system_matrices(ctx, cluster, detector)
               if detector != "mrc" else {k: None for k in range(ctx.K)})
    w_sub = {}
    for k in range(ctx.K):
        serving = cluster.serving[k]
        m = len(serving) * ctx.N
        w_k = np.zeros((m, m), dtype=complex)
        for j, l in enumerate(serving):
            sl = slice(j * ctx.N, (j + 1) * ctx.N)
            w_k[sl, sl] = w_full[l]
        w_sub[k] = w_k

    batches = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    groups = min(STDERR_GROUPS, len(batches))
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    log_sum = np.zeros((groups, ctx.K))
    count = np.zeros(groups)

    for b_idx, (lo, hi) in enumerate(batches):
        rng = substream(seed, "mc-centralized", b_idx)
        _, hhat = sample_joint(ctx, rng, hi - lo)
        g_idx = _group_of(b_idx, len(batches), groups)
        count[g_idx] += hi - lo
        for k in range(ctx.K):
            serving = cluster.serving[k]
            sub = hhat[:, :, serving, :].reshape(hhat.shape[0], ctx.K, -1)
            v = centralized_combiners(hhat, ctx, cluster, detector, k,
                                      static=statics[k])
            cross = np.einsum("bm,bim->bi", np.conj(v), sub)
            num = one_ad2 * p[k] * np.abs(cross[:, k]) ** 2
            inter = one_ad2 * (np.einsum("i,bi->b", p, np.abs(cross) ** 2)
                               - p[k] * np.abs(cross[:, k]) ** 2)
            noise = np.real(np.einsum("bm,mn,bn->b", np.conj(v), w_sub[k], v))
            log_sum[g_idx, k] += np.sum(np.log2(1.0 + num / (inter + noise)))

    se = prelog * log_sum.sum(axis=0) / count.sum()
    stderr = np.full(ctx.K, np.nan)
    if groups >= 2:
        per_group = prelog * log_sum / count[:, None]
        stderr = np.std(per_group, axis=0, ddof=1) / math.sqrt(groups)
    return SEReport(se=se, prelog=prelog, scheme="centralized",
                    detector=detector, weighting=None,
                    evaluation="monte-carlo", trials=trials, stderr=stderr)
