"""Uplink combining vectors.

Local (per-AP) detectors: MRC, the full L-MMSE, and the partial LP-MMSE that
replaces non-primary UEs' instantaneous estimates with channel statistics.
Centralized detectors: MMSE and the partial P-MMSE, both solved on the
serving-AP subspace so the masked blocks stay exactly zero. A batch is
relaid out once (``ue_last``) so each UE's subspace is one gather
(``serving_subspace``); the system matrix is a BLAS product of the
sqrt-power-scaled estimates. The P-MMSE static parts sum one per-UE, per-AP
moment stack over Q_k on the serving APs and pass it through the same
receive-noise formula as ``quantization.received_noise_covariance``.
"""

import numpy as np

from .numerics import hermitize
from .pilots import block_diag_cov, context_memo
from .quantization import (moment_stack, noise_covariance_from_moments,
                           received_noise_covariance)


# ---------------------------------------------------------------------------
# local combiners
# ---------------------------------------------------------------------------

def mrc_local(hhat_kl):
    return np.array(hhat_kl)


def _lpmmse_static(ctx, cluster, full=False):
    """Estimate-independent part of the LP-MMSE system matrix per AP.

    Statistics of secondary-served UEs (or none, when ``full``) stand in for
    their estimates; the hardware-noise terms run over the served set only.
    """
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    static = np.empty_like(ctx.c_n)
    for l in range(ctx.L):
        served = cluster.served[l]
        est_set = served if full else cluster.served_primary[l]
        stat_set = () if full else cluster.served_secondary[l]
        acc = received_noise_covariance(l, ctx.stats, ctx.p_ddot, ctx.q,
                                        ctx.sigma2, subset=served)
        for i in est_set:
            acc = acc + one_ad2 * ctx.p_ddot[i] * (ctx.stats.R[i, l] - ctx.c_hhat[i, l])
        for i in stat_set:
            h_bar = ctx.stats.h_bar[i, l]
            acc = acc + one_ad2 * ctx.p_ddot[i] * (
                np.outer(h_bar, np.conj(h_bar)) + ctx.stats.R[i, l])
        static[l] = hermitize(acc)
    return static


def local_statics(ctx, cluster, method):
    """Estimate-independent parts of the local combiners, per AP.

    Returns (static, weights): the (L, N, N) static system matrices and, per
    AP, the UEs whose instantaneous estimates enter (index array, powers).
    Validates ``method`` (see ``local_combiners``).
    """
    if method == "mrc":
        return None
    if method == "lmmse":
        # estimate-independent part: the error-plus-noise W_l of every AP
        static = context_memo(ctx, centralized_error_noise)
        weights = {l: (np.arange(ctx.K), ctx.p_ddot) for l in range(ctx.L)}
    elif method in ("lpmmse", "lpmmse-full"):
        static = _lpmmse_static(ctx, cluster, full=(method == "lpmmse-full"))
        weights = {}
        for l in range(ctx.L):
            est_set = (cluster.served[l] if method == "lpmmse-full"
                       else cluster.served_primary[l])
            idx = np.asarray(est_set, dtype=int)
            weights[l] = (idx, ctx.p_ddot[idx])
    else:
        raise ValueError(f"unknown local combining method {method!r}")
    return static, weights


def local_combiners(hhat, ctx, cluster, method, statics=None):
    """Batched local combining vectors, (n, K, L, N); zero where l ∉ M_k.

    ``method``: "mrc", "lmmse", "lpmmse" (partial), or "lpmmse-full"
    (estimates for every served UE, the unreduced scalable baseline).
    ``statics``: ``local_statics(ctx, cluster, method)``, when the caller
    reuses it across batches.
    """
    if statics is None:
        statics = local_statics(ctx, cluster, method)
    if method == "mrc":
        return hhat * cluster.D[None, :, :, None]

    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    static, weights = statics
    v = np.zeros_like(hhat)
    for l in range(ctx.L):
        served = np.asarray(cluster.served[l], dtype=int)
        if served.size == 0:
            continue
        idx, p_idx = weights[l]
        a = static[l][None] + one_ad2 * np.einsum(
            "i,bin,bim->bnm", p_idx, hhat[:, idx, l], np.conj(hhat[:, idx, l]))
        rhs = np.swapaxes(hhat[:, served, l], 1, 2)        # (n, N, |served|)
        sol = np.linalg.solve(a, rhs)
        v[:, served, l] = np.swapaxes(sol, 1, 2)
    return v


def l_mmse_local(k, l, hhat_l, ctx):
    """Single L-MMSE vector from AP l's estimates of every UE ((K, N) array)."""
    v = local_combiners(hhat_l[None, :, None, :],
                        _single_ap_view(ctx, l),
                        _serve_all_plan(ctx.K), "lmmse")
    return v[0, k, 0]


def lp_mmse_local(k, l, hhat_l, ctx, cluster):
    if l not in cluster.serving[k]:
        raise ValueError(f"AP {l} does not serve UE {k}")
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    a = _lpmmse_static(ctx, cluster, full=False)[l]
    for i in cluster.served_primary[l]:
        a = a + one_ad2 * ctx.p_ddot[i] * np.outer(hhat_l[i], np.conj(hhat_l[i]))
    return np.linalg.solve(a, hhat_l[k])


def _serve_all_plan(n_users):
    from .scheduler import cluster_plan_from_indicators
    return cluster_plan_from_indicators(np.ones((n_users, 1), dtype=bool),
                                        np.zeros(n_users, dtype=int))


class _single_ap_view:
    """Minimal ctx facade exposing AP l as the only AP (for one-off solves)."""

    def __init__(self, ctx, l):
        self.q = ctx.q
        self.sigma2 = ctx.sigma2
        self.p_ddot = ctx.p_ddot
        self.K = ctx.K
        self.L = 1
        self.N = ctx.N
        self.c_n = ctx.c_n[l][None]
        self.c_hhat = ctx.c_hhat[:, l][:, None]
        self.stats = _single_ap_stats(ctx.stats, l)


class _single_ap_stats:
    def __init__(self, stats, l):
        self.K, self.L, self.N = stats.K, 1, stats.N
        self.R = stats.R[:, l][:, None]
        self.h_bar = stats.h_bar[:, l][:, None]
        self.beta_los = stats.beta_los[:, l][:, None]


# ---------------------------------------------------------------------------
# centralized combiners (serving-subspace solves)
# ---------------------------------------------------------------------------

def centralized_error_noise(ctx):
    """(L, N, N) per-AP W_l: full-K estimation-error power plus receive noise.

    Callers share one read-only copy per context through ``context_memo``.
    """
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    w = np.array(ctx.c_n)
    for l in range(ctx.L):
        w[l] += one_ad2 * np.einsum(
            "i,inm->nm", ctx.p_ddot, ctx.stats.R[:, l] - ctx.c_hhat[:, l])
    return w


def _block_on_subspace(per_ap, serving):
    """Block-diagonal matrix restricted to the serving APs' rows/columns."""
    return block_diag_cov(per_ap[None, list(serving)])[0]


def centralized_system_matrices(ctx, cluster, method):
    """Estimate-independent system-matrix parts per UE, on its subspace.

    Returns dict k -> (matrix, estimate index set). "mmse" sums instantaneous
    outer products over every UE; "pmmse" only over overlap UEs served by k's
    primary AP, with statistics for the remaining overlap UEs; "pmmse-full"
    uses estimates for the whole overlap set. The partial detectors' noise
    blocks come from one (K, L) moment stack, summed over Q_k on k's serving
    APs only.
    """
    n_ant = ctx.N
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    if method == "mmse":
        w_full = context_memo(ctx, centralized_error_noise)
        every = np.arange(ctx.K)
        return {k: (hermitize(_block_on_subspace(w_full, cluster.serving[k])),
                    every)
                for k in range(ctx.K)}
    if method not in ("pmmse", "pmmse-full"):
        raise ValueError(f"unknown centralized method {method!r}")

    p = ctx.p_ddot
    moments = moment_stack(ctx.stats, p)
    error = p[:, None, None, None] * (ctx.stats.R - ctx.c_hhat)
    nlos = p[:, None, None, None] * ctx.stats.R
    out = {}
    for k in range(ctx.K):
        serving = np.asarray(cluster.serving[k], dtype=int)
        overlap = np.asarray(cluster.overlap[k], dtype=int)
        if method == "pmmse":
            on_primary = cluster.D[overlap, cluster.primary[k]]
            est_set, stat_set = overlap[on_primary], overlap[~on_primary]
        else:
            est_set, stat_set = overlap, overlap[:0]
        noise = noise_covariance_from_moments(
            hermitize(moments[np.ix_(overlap, serving)].sum(axis=0)),
            ctx.q, ctx.sigma2)
        blocks = noise + one_ad2 * (error[np.ix_(est_set, serving)].sum(axis=0)
                                    + nlos[np.ix_(stat_set, serving)].sum(axis=0))
        h_bar = ctx.stats.h_bar[np.ix_(stat_set, serving)].reshape(
            stat_set.size, serving.size * n_ant)
        static = block_diag_cov(blocks[None])[0] + (
            (one_ad2 * p[stat_set]) * h_bar.T) @ np.conj(h_bar)
        out[k] = (hermitize(static), est_set)
    return out


def ue_last(hhat):
    """(n, L, N, K) copy of an (n, K, L, N) batch: one AP's channels of every
    UE are contiguous, so a serving subspace is a gather of |M_k| blocks."""
    return np.ascontiguousarray(np.moveaxis(hhat, 1, -1))


def serving_subspace(hhat_t, cluster, k):
    """Every UE's channel on UE k's serving subspace, (n, |M_k| N, K).

    ``hhat_t`` is a batch in the ``ue_last`` layout. When M_k is every AP in
    order the result is a reshaped view of the batch, not a copy; callers
    only read it.
    """
    serving = cluster.serving[k]
    if serving != tuple(range(hhat_t.shape[1])):
        hhat_t = np.take(hhat_t, serving, axis=1)
    return hhat_t.reshape(hhat_t.shape[0], -1, hhat_t.shape[-1])


def centralized_combiners(sub, ctx, cluster, method, k, static=None):
    """Batched combining vectors for UE k on its serving subspace, (n, m).

    ``sub`` is ``serving_subspace`` of the batch; ``static`` the precomputed
    system-matrix part.
    """
    if method == "mrc":
        return sub[..., k]
    if static is None:
        static = centralized_system_matrices(ctx, cluster, method)[k]
    mat, est_set = static
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    scaled = np.take(sub, est_set, axis=-1) * np.sqrt(one_ad2 * ctx.p_ddot[est_set])
    a = mat + scaled @ np.conj(np.swapaxes(scaled, -1, -2))
    return np.linalg.solve(a, sub[..., k, None])[..., 0]


def mmse_centralized(k, hhat_single, ctx, cluster):
    """One MMSE combining vector, embedded back into the full LN stack."""
    sub = serving_subspace(ue_last(hhat_single[None]), cluster, k)
    v_sub = centralized_combiners(sub, ctx, cluster, "mmse", k)[0]
    return embed_subspace(v_sub, cluster, k, ctx.L, ctx.N)


def p_mmse_centralized(k, hhat_single, ctx, cluster, full=False):
    method = "pmmse-full" if full else "pmmse"
    sub = serving_subspace(ue_last(hhat_single[None]), cluster, k)
    v_sub = centralized_combiners(sub, ctx, cluster, method, k)[0]
    return embed_subspace(v_sub, cluster, k, ctx.L, ctx.N)


def embed_subspace(v_sub, cluster, k, n_aps, n_antennas):
    v = np.zeros(n_aps * n_antennas, dtype=complex)
    for j, l in enumerate(cluster.serving[k]):
        v[l * n_antennas:(l + 1) * n_antennas] = \
            v_sub[j * n_antennas:(j + 1) * n_antennas]
    return v
