"""Monte Carlo spectral-efficiency estimators.

Distributed scheme: the hardening bound evaluated from jointly sampled
(channel, estimate, receive-noise) trials. The trials are summed into
sample moments per size class (``DistributedSums``), which give the same
``lsfd.Moments`` classes the closed form builds; ``lsfd.se_from_moments``
turns them into weights and SE for both engines, so numerator and
denominator share the same trials to keep the ratio variance down.
Centralized scheme: the instantaneous-SINR bound averaged over estimate
realizations.

Every Monte Carlo estimate here and in ``validation`` follows one schedule
of batches, RNG streams and stderr groups (``mc_batches``) and is summed in
batch order, so results are bit-identical no matter how the surrounding
experiment is scheduled; both reports take standard errors from one rule
(``_stderr``). A batch holds one copy of the true channels plus only what
its engine reads, in the layout it reads (``sampling``), and is consumed in
trial chunks of at most about CHUNK_ELEMS elements (``distributed_mc_sums``,
``centralized_mc_report``). At paper scale (L=64, K=150) both engines then
peak in the channel draw, within 0.3 batches of the channels. Estimate-free
combiner parts (static matrices, error-plus-noise blocks) are built once per
report by the one reader of the detector name; detector and weighting names
are checked before sampling.
"""

from dataclasses import dataclass

import numpy as np

from .config import check_weighting
from .detectors import (centralized_combiners, centralized_system_matrices,
                        local_combiners, local_statics, serving_subspace)
from .lsfd import Moments, se_from_moments
from .numerics import _is_integer
from .pilots import block_diag_cov
from .rng import substream
from .sampling import estimates_ue_last, sample_data_noise, sample_joint

MC_BATCH_ELEMS = 1 << 21   # target complex elements per (trials x K x L x N) batch
CHUNK_ELEMS = 1 << 16      # the same per distributed chunk of a batch, per UE
                           # sub-chunk of its g, per centralized UE chunk
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
        se = np.asarray(self.se)
        if not np.all(np.isfinite(se)):
            raise ValueError("spectral efficiencies must be finite")
        if np.any(se < 0):
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
    the same number of trials, give or take one per batch. A ``trials``
    that is not an integer >= 1 raises ``ValueError``.
    """
    if not (_is_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    per_trial = max(1, k_count * l_count * n_ant)
    by_groups = -(-trials // STDERR_GROUPS)
    size = int(max(64, min(by_groups, MC_BATCH_ELEMS // per_trial)))
    count = -(-trials // size)
    if count > STDERR_GROUPS:
        count = -(-count // STDERR_GROUPS) * STDERR_GROUPS
    return [(s.start, s.stop) for s in _slices(trials, count)]


def _slices(n_trials, count):
    """``count`` trial slices of one batch, sizes within one trial of each
    other."""
    edges = [n_trials * i // count for i in range(count + 1)]
    return [slice(edges[i], edges[i + 1]) for i in range(count)]


def _chunks(n_trials, per_trial):
    """Trial slices of one batch, sizes within one trial of each other.

    With size = max(64, CHUNK_ELEMS // per_trial) there are n_trials // size
    slices, one at least, so each holds size to 2 size - 1 trials and a
    batch shorter than 2 size (every paper-scale batch) is one slice.
    """
    count = n_trials // max(64, CHUNK_ELEMS // max(1, per_trial))
    return _slices(n_trials, max(1, count))


def _ue_chunks(n_trials, per_trial):
    """The fewest trial slices of at most CHUNK_ELEMS elements each, at
    ``per_trial`` elements a trial (one trial a slice at least): the
    pieces in which one UE's work walks a batch or a chunk."""
    count = -(-n_trials * per_trial // CHUNK_ELEMS)
    return _slices(n_trials, max(1, min(n_trials, count)))


def mc_batches(ctx, trials, seed, tag):
    """The one Monte Carlo schedule: (batches, counts). ``batches`` yields
    (stderr group b G // B, trial count, ``substream(seed, tag, b)``) for
    each batch b of ``batch_plan`` in order; ``counts`` (G,) holds every
    group's trial count, G = min(STDERR_GROUPS, B)."""
    plan = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    group = np.arange(len(plan)) * min(STDERR_GROUPS, len(plan)) // len(plan)
    counts = np.bincount(group, [hi - lo for lo, hi in plan])
    return ((group[b], hi - lo, substream(seed, tag, b))
            for b, (lo, hi) in enumerate(plan)), counts


def _stderr(per_group):
    """Per-UE ddof-1 standard error over the (G, K) group estimates: the
    spread of the G estimates over sqrt(G), all NaN (K,) below two groups."""
    if len(per_group) < 2:
        return np.full(np.shape(per_group)[1], np.nan)
    return np.std(per_group, axis=0, ddof=1) / np.sqrt(len(per_group))


class DistributedSums:
    """Running sums of every Eq.-18 moment, split into stderr groups of
    ``counts`` trials: one (groups, n, m[, m]) array per size class of the
    cluster plan, row j for UE ``ues[c][j]``."""

    def __init__(self, ctx, cluster, counts):
        self.p = ctx.p_ddot
        self.one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
        self.rho_da = ctx.q.rho_da
        self.count = counts
        self.ues = cluster.size_classes
        shapes = [(len(counts), len(u), cluster.serving[u[0]].size) for u in self.ues]
        self.g_sum = [np.zeros(s, dtype=complex) for s in shapes]
        self.w_full = [np.zeros(s + s[-1:], dtype=complex) for s in shapes]
        self.w_overlap = [np.zeros(s + s[-1:], dtype=complex) for s in shapes]
        self.f_outer = [np.zeros(s + s[-1:], dtype=complex) for s in shapes]
        self.d_local = [np.zeros(s) for s in shapes]

    @property
    def groups(self):
        return len(self.count)

    def moments(self, sel=slice(None)):
        """Each size class's Moments from the trials of the groups ``sel``:

            C_k   = (1-rho_ad)^2 W + F - (1-rho_ad)^2 p̈_k g g^H
            C_k^P = diag(d) + (1-rho_ad)^2/(1-rho_da) W_Q
                    - (1-rho_ad)^2 p̈_k g g^H

        with g the sample mean of g_kk, W and W_Q the power-weighted
        interference Grams over all UEs and over Q_k, F the receive-noise
        Gram and d its AP-local diagonal.
        """
        n = self.count[sel].sum()
        sums = (self.g_sum, self.w_full, self.w_overlap, self.f_outer, self.d_local)
        classes = []
        for c, ues in enumerate(self.ues):
            g_bar, w, w_q, f, d = (s[c][sel].sum(axis=0) / n for s in sums)
            signal_term = self.one_ad2 * self.p[ues, None, None] * (
                g_bar[:, :, None] * np.conj(g_bar[:, None, :]))
            classes.append(Moments(
                ues=ues, signal=g_bar,
                c_full=self.one_ad2 * w + f - signal_term,
                c_partial=(d[:, :, None] * np.eye(d.shape[1])
                           + self.one_ad2 / (1.0 - self.rho_da) * w_q
                           - signal_term),
                p_ddot=self.p[ues], one_ad2=self.one_ad2))
        return tuple(classes)


def _gram(x):
    """x x^H: the sum over columns of each row pair's products."""
    return x @ np.conj(x.T)


def distributed_mc_sums(ctx, cluster, detector, trials, seed):
    """Joint Monte Carlo sample sums of every UE's distributed moments.

    A batch is drawn whole: the true channels, trials-last (K, L, N, n),
    the pilot observations and the data noise, with the same streams and
    draws at any chunk size. It is consumed in the trial chunks of
    ``_chunks``; a chunk of c trials holds the combiners on the served
    pairs, each AP's from its own estimates, (P, N, c) in the plan's pair
    rows, so UE k's combiners are the view ``cluster.pair_rows[k]``.
    Each UE walks the chunk again in the sub-chunks of ``_ue_chunks``, at
    most CHUNK_ELEMS / (|M_k| K) trials each, which hold its effective
    channels g (|M_k|, K, c') of every UE and the conjugated copy its Grams
    take. Per serving AP, g is N multiply-adds of UE k's conjugated
    combiner with that AP's (K, c') channel slices, read in place; the
    interference Grams are BLAS products of sqrt(p̈)-scaled g. When Q_k is
    every UE the overlap Gram is the full one. Each sub-chunk's g sums and
    Grams, and each chunk's F and d, are added to its batch's stderr group.
    """
    serving = cluster.serving
    overlap = [None if q.size == ctx.K else q for q in cluster.overlap]
    batches, counts = mc_batches(ctx, trials, seed, "mc-distributed")
    acc = DistributedSums(ctx, cluster, counts)
    statics = local_statics(ctx, cluster, detector)
    sqrt_p = np.sqrt(ctx.p_ddot)[:, None]

    for g_idx, n, rng in batches:
        h, z = sample_joint(ctx, rng, n)
        noise = sample_data_noise(ctx, h, rng)                   # (L, N, n)
        for t in _chunks(n, ctx.K * ctx.L * ctx.N):
            v = local_combiners(z[..., t], ctx, cluster, statics)  # (P, N, c)
            h_t = h[..., t]
            for cls, ues in enumerate(acc.ues):
                for row, k in enumerate(ues):
                    v_k = v[cluster.pair_rows[k]]                # (M, N, c)
                    cv = np.conj(v_k)
                    for u in _ue_chunks(t.stop - t.start, len(v_k) * ctx.K):
                        g = np.empty((len(v_k), ctx.K, u.stop - u.start), complex)
                        for j, l in enumerate(serving[k]):
                            np.multiply(h_t[:, l, 0, u], cv[j, 0, u],
                                        out=g[j])                # (K, c')
                            for a in range(1, ctx.N):
                                g[j] += h_t[:, l, a, u] * cv[j, a, u]
                        acc.g_sum[cls][g_idx, row] += g[:, k].sum(axis=1)
                        g *= sqrt_p
                        w_full = _gram(g.reshape(len(g), -1))
                        acc.w_full[cls][g_idx, row] += w_full
                        q_idx = overlap[k]
                        acc.w_overlap[cls][g_idx, row] += (
                            w_full if q_idx is None
                            else _gram(g[:, q_idx].reshape(len(g), -1)))
                        # freed before the next sub-chunk is formed
                        del g
                    f = np.sum(cv * noise[serving[k], :, t], axis=1)  # (M, c)
                    acc.f_outer[cls][g_idx, row] += _gram(f)
                    v_abs2 = np.sum(np.abs(v_k) ** 2, axis=-1)  # (M, N)
                    acc.d_local[cls][g_idx, row] += np.sum(
                        v_abs2 * ctx.nx[serving[k]], axis=1)
            # freed before the next chunk is formed, not overwritten after
            # it; v_k and cv would keep v alive
            del v, v_k, cv
        # freed before the next batch is drawn
        del h, h_t, z, noise
    return acc


def distributed_mc_report(ctx, cluster, detector, weighting, trials, seed,
                          prelog):
    """Per-UE distributed SE (hardening bound) by joint Monte Carlo."""
    # checked before any trial is drawn, like the detector in the sums
    check_weighting(weighting)
    sums = distributed_mc_sums(ctx, cluster, detector, trials, seed)
    se = se_from_moments(sums.moments(), weighting, prelog)
    stderr = _stderr([se_from_moments(sums.moments(slice(g, g + 1)),
                                      weighting, prelog)
                      for g in range(sums.groups)])
    return SEReport(se=se, prelog=prelog, scheme="distributed",
                    detector=detector, weighting=weighting,
                    evaluation="monte-carlo", trials=trials, stderr=stderr)


def centralized_mc_report(ctx, cluster, detector, trials, seed, prelog):
    """Per-UE centralized SE: E[log2(1 + instantaneous SINR)] over estimates.

    Each batch's true channels are dropped once the pilot observations
    exist, and its estimates are written one AP at a time straight into the
    UE-last layout. Each UE walks the batch in the trial chunks of
    ``_ue_chunks``, at most CHUNK_ELEMS / (|M_k| N K) trials each:
    a chunk's serving subspace is one gather (a view when M_k is every AP)
    shared by its combiner and its SINR, so the gather and the combiner
    temporaries never hold more than about one chunk. The per-trial
    log2(1 + SINR) terms fill one (n,) buffer, summed once per UE.
    """
    # checks the detector before any trial is drawn
    statics = centralized_system_matrices(ctx, cluster, detector)
    w_sub = [block_diag_cov(ctx.w[None, serving])[0]
             for serving in cluster.serving]

    batches, count = mc_batches(ctx, trials, seed, "mc-centralized")
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    log_sum = np.zeros((len(count), ctx.K))

    for g_idx, n, rng in batches:
        z = sample_joint(ctx, rng, n)[1]
        hhat_t = estimates_ue_last(ctx, z)                      # (n, L, N, K)
        del z
        rate = np.empty(n)
        for k in range(ctx.K):
            per_trial = cluster.serving[k].size * ctx.N * ctx.K
            for t in _ue_chunks(n, per_trial):
                sub = serving_subspace(hhat_t[t], cluster, k)   # (c, m, K)
                v = centralized_combiners(sub, ctx, k, statics[k])
                cross2 = np.abs((np.conj(v)[:, None, :] @ sub)[:, 0]) ** 2
                own = p[k] * cross2[:, k]
                num = one_ad2 * own
                inter = one_ad2 * (cross2 @ p - own)
                noise = np.real(np.sum(np.conj(v) * (v @ w_sub[k].T), axis=1))
                rate[t] = np.log2(1.0 + num / (inter + noise))
                # freed before the next chunk is gathered
                del sub, v
            log_sum[g_idx, k] += np.sum(rate)
        del hhat_t

    se = prelog * log_sum.sum(axis=0) / count.sum()
    stderr = _stderr(prelog * log_sum / count[:, None])
    return SEReport(se=se, prelog=prelog, scheme="centralized",
                    detector=detector, weighting=None,
                    evaluation="monte-carlo", trials=trials, stderr=stderr)
