"""Uplink combining vectors.

Local (per-AP) detectors: MRC, the full L-MMSE, and the partial LP-MMSE that
replaces non-primary UEs' instantaneous estimates with channel statistics.
Centralized detectors: MMSE and the partial P-MMSE, both solved on the
serving-AP subspace so the masked blocks stay exactly zero.
"""

import numpy as np

from .numerics import hermitize
from .pilots import context_memo
from .quantization import received_noise_covariance


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


def local_combiners(hhat, ctx, cluster, method):
    """Batched local combining vectors, (n, K, L, N); zero where l ∉ M_k.

    ``method``: "mrc", "lmmse", "lpmmse" (partial), or "lpmmse-full"
    (estimates for every served UE, the unreduced scalable baseline).
    """
    if method == "mrc":
        return hhat * cluster.D[None, :, :, None]

    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
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


def _block_on_subspace(per_ap, serving, n_antennas):
    """Block-diagonal matrix restricted to the serving APs' rows/columns."""
    m = len(serving) * n_antennas
    out = np.zeros((m, m), dtype=complex)
    for j, l in enumerate(serving):
        sl = slice(j * n_antennas, (j + 1) * n_antennas)
        out[sl, sl] = per_ap[l]
    return out


def centralized_system_matrices(ctx, cluster, method):
    """Estimate-independent system-matrix parts per UE, on its subspace.

    Returns dict k -> (matrix, estimate index set). "mmse" sums instantaneous
    outer products over every UE; "pmmse" only over overlap UEs served by k's
    primary AP, with statistics for the remaining overlap UEs; "pmmse-full"
    uses estimates for the whole overlap set.
    """
    one_ad, n_ant = 1.0 - ctx.q.rho_ad, ctx.N
    one_ad2 = one_ad ** 2
    w_full = context_memo(ctx, centralized_error_noise)
    out = {}
    for k in range(ctx.K):
        serving = cluster.serving[k]
        m = len(serving) * n_ant
        if method == "mmse":
            static = _block_on_subspace(w_full, serving, n_ant)
            est_set = np.arange(ctx.K)
        elif method in ("pmmse", "pmmse-full"):
            overlap = set(cluster.overlap[k])
            primary_served = set(cluster.served[cluster.primary[k]])
            if method == "pmmse":
                est_set = sorted(overlap & primary_served)
                stat_set = sorted(overlap - primary_served)
            else:
                est_set = sorted(overlap)
                stat_set = []
            noise = np.empty((ctx.L, n_ant, n_ant), dtype=complex)
            for l in range(ctx.L):
                noise[l] = received_noise_covariance(
                    l, ctx.stats, ctx.p_ddot, ctx.q, ctx.sigma2, subset=overlap)
            static = _block_on_subspace(noise, serving, n_ant)
            for i in est_set:
                static += one_ad2 * ctx.p_ddot[i] * _block_on_subspace(
                    ctx.stats.R[i] - ctx.c_hhat[i], serving, n_ant)
            for i in stat_set:
                h_bar = ctx.stats.h_bar[i, serving].reshape(m)
                static += one_ad2 * ctx.p_ddot[i] * np.outer(h_bar, np.conj(h_bar))
                static += one_ad2 * ctx.p_ddot[i] * _block_on_subspace(
                    ctx.stats.R[i], serving, n_ant)
            est_set = np.asarray(est_set, dtype=int)
        else:
            raise ValueError(f"unknown centralized method {method!r}")
        out[k] = (hermitize(static), est_set)
    return out


def centralized_combiners(hhat, ctx, cluster, method, k, static=None):
    """Batched combining vectors for UE k on its serving subspace, (n, m).

    ``hhat`` is (n, K, L, N); ``static`` the precomputed system-matrix part.
    """
    serving = cluster.serving[k]
    n_ant = ctx.N
    sub = hhat[:, :, serving, :].reshape(hhat.shape[0], ctx.K, -1)
    if method == "mrc":
        return sub[:, k]
    if static is None:
        static = centralized_system_matrices(ctx, cluster, method)[k]
    mat, est_set = static
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    a = mat[None] + one_ad2 * np.einsum(
        "i,bin,bim->bnm", ctx.p_ddot[est_set], sub[:, est_set], np.conj(sub[:, est_set]))
    return np.linalg.solve(a, sub[:, k][..., None])[..., 0]


def mmse_centralized(k, hhat_single, ctx, cluster):
    """One MMSE combining vector, embedded back into the full LN stack."""
    v_sub = centralized_combiners(hhat_single[None], ctx, cluster, "mmse", k)[0]
    return embed_subspace(v_sub, cluster, k, ctx.L, ctx.N)


def p_mmse_centralized(k, hhat_single, ctx, cluster, full=False):
    method = "pmmse-full" if full else "pmmse"
    v_sub = centralized_combiners(hhat_single[None], ctx, cluster, method, k)[0]
    return embed_subspace(v_sub, cluster, k, ctx.L, ctx.N)


def embed_subspace(v_sub, cluster, k, n_aps, n_antennas):
    v = np.zeros(n_aps * n_antennas, dtype=complex)
    for j, l in enumerate(cluster.serving[k]):
        v[l * n_antennas:(l + 1) * n_antennas] = \
            v_sub[j * n_antennas:(j + 1) * n_antennas]
    return v
