"""Uplink combining vectors.

Local (per-AP) detectors: MRC, L-MMSE, and the partial LP-MMSE that lets
channel statistics stand in for the estimates of secondary-served UEs.
Centralized detectors: MRC, MMSE and the partial P-MMSE, on the UE's
serving-AP subspace, so a combining vector lives on its serving APs only.
Only the statics builders (``local_statics``, ``centralized_system_matrices``)
read a detector name, any ``config.check_detector`` takes; the combiners
take a batch and the statics, None for MRC.

Every MMSE-family detector is one formula on different sets.
``detector_sets`` is the table: for a method and an index (the AP of a
local detector, the UE of a centralized one) it gives the APs the system
matrix spans, the noise set whose channel moments enter the receive noise,
the UEs whose estimates enter, and the UEs whose statistics stand in for
their estimates. ``static_part`` builds the estimate-independent part of
the system matrix from those sets:

    blockdiag over l in APs of [ N_l(noise set) + (1-rho_ad)^2 (
        Sum_est p̈_i (R_il - C_il) + Sum_stat p̈_i R_il ) ]
    + (1-rho_ad)^2 Sum_stat p̈_i h_bar_i h_bar_i^H

with N_l from ``quantization.received_noise_covariance`` and the LOS term
stacked over the APs, cross-AP blocks kept. The solve adds the Gram of the
sqrt-power-scaled estimates of the estimate set. The MMSE blocks on every
AP, with no statistics set, are the error-plus-noise matrices W_l that the
estimation context holds as ``ctx.w``.

Local combiners take a trials-last pilot-observation batch, from which each
AP forms its own estimates (``sampling.estimates``), and return one vector
per served pair in the rows of ``ClusterPlan.pair_of``, so UE k's vectors
are the slice ``ClusterPlan.pair_rows[k]``. A centralized batch holds every
estimate UE-last, (n, L, N, K), so each UE's subspace is one gather, or a
view when M_k is every AP (``serving_subspace``).
"""

import numpy as np

from .config import check_detector
from .numerics import hermitize
from .pilots import block_diag_cov
from .quantization import received_noise_covariance
from .sampling import estimates


# ---------------------------------------------------------------------------
# the detector sets and the static part
# ---------------------------------------------------------------------------

def detector_sets(cluster, method, index):
    """(APs, noise set, estimate set, statistics set) as sorted int arrays.

    ``index`` is the AP l for the local methods and the UE k for the
    centralized ones:

        method       APs  noise    estimates             statistics
        lmmse        {l}  all UEs  all UEs               -
        lpmmse       {l}  D_l      D_l, l their primary  the rest of D_l
        lpmmse-full  {l}  D_l      D_l                   -
        mmse         M_k  all UEs  all UEs               -
        pmmse        M_k  Q_k      Q_k ∩ D_(primary k)   the rest of Q_k
        pmmse-full   M_k  Q_k      Q_k                   -

    D_l, the UEs AP l serves, is the plan's ``served[l]``.
    """
    every = np.arange(cluster.K)
    none = every[:0]
    if method in ("lmmse", "lpmmse", "lpmmse-full"):
        aps = np.array([index], dtype=int)
        served = cluster.served[index]
        on_l = cluster.primary[served] == index
        sets = {"lmmse": (every, every, none),
                "lpmmse": (served, served[on_l], served[~on_l]),
                "lpmmse-full": (served, served, none)}
    elif method in ("mmse", "pmmse", "pmmse-full"):
        aps = cluster.serving[index]
        overlap = cluster.overlap[index]
        on_primary = cluster.D[overlap, cluster.primary[index]]
        sets = {"mmse": (every, every, none),
                "pmmse": (overlap, overlap[on_primary], overlap[~on_primary]),
                "pmmse-full": (overlap, overlap, none)}
    else:
        raise ValueError(f"unknown detector {method!r}")
    return (aps,) + sets[method]


def _ap_blocks(ctx, aps, noise_set, est_set, stat_set):
    """(|aps|, N, N) per-AP blocks of the static part. Each pair's
    p̈_i (R_il - C_il) is formed before the sum, so nothing cancels."""
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p, stats = ctx.p_ddot, ctx.stats
    est, stat = np.ix_(est_set, aps), np.ix_(stat_set, aps)
    return received_noise_covariance(stats, p, ctx.q, ctx.sigma2,
                                     noise_set, aps) + one_ad2 * (
        np.einsum("i,ianm->anm", p[est_set], stats.R[est] - ctx.c_hhat[est])
        + np.einsum("i,ianm->anm", p[stat_set], stats.R[stat]))


def static_part(ctx, cluster, method, index):
    """Estimate-independent part of an MMSE-family system matrix.

    Returns (matrix, estimate set): the Hermitian (|APs| N, |APs| N) matrix
    on the APs of ``detector_sets(cluster, method, index)`` and the UEs
    whose instantaneous estimates the solve adds to it.
    """
    aps, noise_set, est_set, stat_set = detector_sets(cluster, method, index)
    blocks = _ap_blocks(ctx, aps, noise_set, est_set, stat_set)
    h_bar = ctx.stats.h_bar[np.ix_(stat_set, aps)].reshape(
        stat_set.size, aps.size * ctx.N)
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    los = ((one_ad2 * ctx.p_ddot[stat_set]) * h_bar.T) @ np.conj(h_bar)
    return hermitize(block_diag_cov(blocks[None])[0] + los), est_set


# ---------------------------------------------------------------------------
# local combiners
# ---------------------------------------------------------------------------

def local_statics(ctx, cluster, method):
    """Per AP, ``static_part``: (matrix, estimate set). None for MRC.

    Validates ``method``: "mrc", "lmmse", "lpmmse" (partial) or
    "lpmmse-full" (every served UE's estimate, the unreduced baseline).
    """
    check_detector("distributed", method)
    if method == "mrc":
        return None
    return [static_part(ctx, cluster, method, l) for l in range(ctx.L)]


def local_combiners(z, ctx, cluster, statics):
    """Batched local combining vectors on the served pairs, (P, N, n).

    ``z`` is a pilot-observation batch, (tau, L, N, n); the result's rows
    follow ``cluster.pair_of``. Each AP forms its estimates of the UEs it
    serves, MRC's vectors when ``statics`` is None. Otherwise, with the
    ``local_statics`` built once for every batch, AP l also forms those of
    its estimate set, adds their Gram to its static part and solves: AP l's
    combiners read AP l's observations only.
    """
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    v = np.empty((len(cluster.pairs[0]), ctx.N, z.shape[-1]), dtype=complex)
    for l, served in enumerate(cluster.served):
        if served.size == 0:
            continue
        rhs = estimates(ctx, z, served, l)                  # (|served|, N, n)
        if statics is not None:
            static, est_set = statics[l]
            e = estimates(ctx, z, est_set, l)               # (|est|, N, n)
            a = static[None] + one_ad2 * np.einsum(
                "i,inb,imb->bnm", ctx.p_ddot[est_set], e, np.conj(e))
            rhs = np.linalg.solve(a, rhs.T).T
        v[cluster.pair_of[served, l]] = rhs
    return v


# ---------------------------------------------------------------------------
# centralized combiners (serving-subspace solves)
# ---------------------------------------------------------------------------

def centralized_system_matrices(ctx, cluster, method):
    """Per UE, ``static_part`` on its serving subspace: (matrix, estimate
    set), or None per UE for MRC. Validates ``method``."""
    check_detector("centralized", method)
    if method == "mrc":
        return [None] * ctx.K
    return [static_part(ctx, cluster, method, k) for k in range(ctx.K)]


def serving_subspace(hhat_t, cluster, k):
    """Every UE's channel on UE k's serving subspace, (n, |M_k| N, K).

    ``hhat_t`` is an estimate batch in the UE-last (n, L, N, K) layout of
    ``sampling.estimates_ue_last``. When M_k is every AP in
    order the result is a reshaped view of the batch, not a copy; callers
    only read it.
    """
    if not cluster.D[k].all():
        hhat_t = np.take(hhat_t, cluster.serving[k], axis=1)
    return hhat_t.reshape(hhat_t.shape[0], -1, hhat_t.shape[-1])


def centralized_combiners(sub, ctx, k, static):
    """Batched combining vectors for UE k on its serving subspace, (n, m).

    ``sub`` is ``serving_subspace`` of the batch; ``static`` UE k's entry of
    ``centralized_system_matrices``, built once for every batch. None (MRC,
    which has no system matrix) gives UE k's own channels.
    """
    if static is None:
        return sub[..., k]
    mat, est_set = static
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    scaled = np.take(sub, est_set, axis=-1)
    scaled *= np.sqrt(one_ad2 * ctx.p_ddot[est_set])
    a = scaled @ np.conj(np.swapaxes(scaled, -1, -2))
    del scaled
    a += mat
    return np.linalg.solve(a, sub[..., k, None])[..., 0]
