"""The distributed SE: one moment layer shared by the closed form and the
Monte Carlo engine.

The distributed scheme is MRC at the APs followed by a second-stage
weighting, applied to three second moments of UE k served by the AP set
M_k: E[g_kk], the interference-plus-noise matrix C_k (sums over all UEs) and
its overlap-restricted counterpart C_k^P (sums over Q_k). ``Moments`` holds
them for a size class, the UEs sharing one |M_k| (the cluster plan's
``size_classes``);
``lsfd_weights`` maps a class and a weighting (checked against
``config.WEIGHTINGS``) to weights in one batched solve, ``se_from_moments``
a tuple of classes to every UE's SE. ``build_ingredients`` builds the
classes in closed form, and ``se_mc.DistributedSums.moments`` from samples.

The closed-form ingredients are, per served pair (k, l) and UE i, written
in the estimation context's estimator gain G_kl and estimate covariance
C_kl (``pilots``), the matrices the Monte Carlo engine reads too:

    lambda_kl^i = h_bar_kl^H h_bar_il                  (LOS alignment)
    b_kl^i      = (1-rho_ad) sqrt(tau p̈_i) tr(R_il G_kl^H)
                  (co-pilot estimate correlation; zero for i off P_k)
    c_kl^i      = tr(R_il C_kl) + h_bar_il^H C_kl h_bar_il
                  + h_bar_kl^H R_il h_bar_kl           (interference power)
    d_kl        = tr(diag(nx_l) (h_bar_kl h_bar_kl^H + C_kl))
                  (AP-local noise, from the context's ``nx``)

They come from one pass over the APs: AP l gives g = lambda + b and c of the
UEs it serves against every UE, each a (K x N^2) or (K x 2N^2) matmul
(``_ap_kernels``, which the centralized closed form in ``se_closed`` reads
too). Over the P served pairs the pass fills one (P, K) table g and two
(P,) vectors, the p̈-weighted sums of c over all UEs and over Q_k. Since b
is real and zero off P_k, the co-pilot cross terms fold into one weighted
Gram of g over k's serving APs:

    C_k = (1-rho_ad)^2/(1-rho_da) [sum_{i in S} p̈_i g_i g_i^H
                                   + diag(sum_{i in S} p̈_i c_i)]
          - (1-rho_ad)^2 p̈_k E[g_kk] E[g_kk]^H + diag(d_k),

with S = all UEs for C_k and S = Q_k for C_k^P, and E[g_kk] = g_k. Each
size class is assembled in one batched matmul.
Under the ULA model all trace kernels are real; tiny imaginary residue from
quadrature is dropped. The LSFD levels follow Björnson & Sanguinetti,
"Making Cell-Free Massive MIMO Competitive With MMSE Processing and
Centralized Implementation" (IEEE TWC 2020).
"""

from dataclasses import dataclass

import numpy as np

from .config import check_weighting
from .numerics import hermitize, solve_hermitian


@dataclass(frozen=True)
class Moments:
    """The second moments of the n UEs k of one size class, m = |M_k|."""
    ues: np.ndarray            # (n,) the UEs k
    signal: np.ndarray         # (n, m) E[g_kk]
    c_full: np.ndarray         # (n, m, m) C_k, sums over all UEs
    c_partial: np.ndarray      # (n, m, m) C_k^P, sums over Q_k
    p_ddot: np.ndarray         # (n,) p̈_k
    one_ad2: float             # (1 - rho_ad)^2


def _ap_kernels(ctx, l, served, centralized=False):
    """Kernel blocks of AP l: column j is the served UE k = served[j], row i
    every UE. Returns two (K, |served|) blocks: g_kl^i = lambda_kl^i + b_kl^i
    (complex) and c_kl^i, or for the centralized form the trace part of
    f^g + f^e, which is c with C_il in place of R_il. tr(A B) =
    vec(A) . vec(B^T), so b is one product of the R_il with the conj(G_kl),
    and the second block one of [R_il or C_il | h_bar_il h_bar_il^H] with
    [(C_kl + h_bar_kl h_bar_kl^H)^T ; C_kl^T].
    """
    stats, n2, m = ctx.stats, ctx.N ** 2, len(served)
    p, pilot = ctx.p_ddot, ctx.plan.pilot_of
    h = stats.h_bar[:, l]                                       # (K, N)
    hh = h[:, :, None] * np.conj(h)[:, None, :]
    c_k = ctx.c_hhat[served, l]
    r = stats.R[:, l].reshape(-1, n2)
    b = (r @ np.conj(ctx.est_gain[served, l]).reshape(m, n2).T).real
    b = np.where(pilot[:, None] == pilot[served],
                 (1.0 - ctx.q.rho_ad) * np.sqrt(ctx.tau * p)[:, None] * b, 0.0)
    left = ctx.c_hhat[:, l].reshape(-1, n2) if centralized else r
    c = (np.concatenate((left, hh.reshape(-1, n2)), axis=1) @ np.concatenate((
        np.swapaxes(c_k + hh[served], -1, -2).reshape(m, n2),
        np.swapaxes(c_k, -1, -2).reshape(m, n2)), axis=1).T).real
    return h @ np.conj(h[served]).T + b, c


def build_ingredients(ctx, cluster):
    """The closed-form Moments under the given plan, from one pass over the
    APs: one per size class of the plan (``ClusterPlan.size_classes``), its
    per-pair rows read from ``ClusterPlan.pair_of``."""
    stats, q = ctx.stats, ctx.q
    one_ad2 = (1.0 - q.rho_ad) ** 2
    p = ctx.p_ddot

    kk, ll = cluster.pairs                                      # served pairs
    overlap = cluster.overlap_mask                              # i in Q_k
    g = np.empty((len(kk), ctx.K), dtype=complex)    # [(k, l), i] lambda + b
    c_full = np.empty(len(kk))                       # sum_i p̈_i c_kl^i
    c_partial = np.empty(len(kk))                    # the same over Q_k
    for l in range(ctx.L):
        served = cluster.served[l]
        g_l, c = _ap_kernels(ctx, l, served)
        rows = cluster.pair_of[served, l]
        g[rows] = g_l.T
        c_full[rows] = p @ c
        c_partial[rows] = np.einsum("ji,ij->j", p * overlap[served], c)

    # d_kl = tr(E[n_x n_x^H] E[hhat hhat^H]); the first factor is diagonal
    e_diag = (np.abs(stats.h_bar[kk, ll]) ** 2
              + np.diagonal(ctx.c_hhat, axis1=-2, axis2=-1)[kk, ll].real)
    d = np.einsum("pn,pn->p", ctx.nx[ll], e_diag)

    scale = one_ad2 / (1.0 - q.rho_da)
    classes = []
    for ues in cluster.size_classes:
        rows = cluster.pair_of[ues][cluster.D[ues]].reshape(len(ues), -1)  # (n, m)
        signal = g[rows, ues[:, None]]                          # E[g_kk], (n, m)
        diag = np.arange(rows.shape[1])

        def interference(weights, c_sum):   # weights (n or 1, K): p̈_i on S
            a = g[rows]                                         # (n, m, K)
            a *= np.sqrt(weights)[:, None, :]
            acc = a @ np.conj(np.swapaxes(a, -1, -2))
            acc[:, diag, diag] += c_sum[rows]
            acc *= scale
            acc -= one_ad2 * p[ues, None, None] * (
                signal[:, :, None] * np.conj(signal[:, None, :]))
            acc[:, diag, diag] += d[rows]
            return hermitize(acc)

        classes.append(Moments(
            ues=ues, signal=signal, c_full=interference(p[None], c_full),
            c_partial=interference(p * overlap[ues], c_partial),
            p_ddot=p[ues], one_ad2=one_ad2))
    return tuple(classes)


def lsfd_weights(moments, weighting):
    """(n, m) second-stage weights of one size class: C_k^{-1} E[g_kk] for
    lsfd, (C_k^P)^{-1} E[g_kk] for the scalable plsfd, all ones for l2.

    C_k has the mean-signal term removed, so C_k^{-1} E[g_kk] is the
    Rayleigh-quotient optimum of the SINR in ``se_from_moments``.
    """
    check_weighting(weighting)
    if weighting == "l2":
        return np.ones(moments.signal.shape, dtype=complex)
    c = moments.c_full if weighting == "lsfd" else moments.c_partial
    return solve_hermitian(c, moments.signal)


def se_from_moments(classes, weighting, prelog):
    """Distributed SE of every UE of the size classes, in UE order, under
    the given weighting. The denominator always uses C_k, also when the
    weights came from C_k^P."""
    se = []
    for c in classes:
        a = np.conj(lsfd_weights(c, weighting))                 # (n, m)
        if not np.all(np.any(a, axis=1)):
            raise ValueError("all-zero weighting vector")
        num = c.one_ad2 * c.p_ddot * np.abs(np.sum(a * c.signal, axis=1)) ** 2
        den = np.einsum("nm,nmj,nj->n", a, c.c_full, np.conj(a)).real
        se.append(prelog * np.log2(1.0 + num / den))
    return np.concatenate(se)[np.argsort(np.concatenate([c.ues for c in classes]))]
