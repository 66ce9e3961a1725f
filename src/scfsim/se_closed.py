"""Closed-form spectral-efficiency expressions (MRC detection).

Centralized scheme: the hardening-style approximation built from the
estimate-moment kernels f^g, f^e of every UE pair (k, i), summed over k's
serving APs. One pass over the APs computes them for every UE at once: AP l
gives the kernel blocks of the UEs it serves against every UE
(``lsfd._ap_kernels``, the blocks the distributed closed form reads too),
and adds them to the rows of its served UEs in two (K, K) accumulators:
sum_{l in M_k} g_kl^i, with g = lambda + b the distributed form's mean
gain, and the trace part, in the estimate covariances C_kl of the
estimation context:

    tr(C_il C_kl) + h_bar_il^H C_kl h_bar_il + h_bar_kl^H C_il h_bar_kl.

f^g + f^e is |sum_l g_kl^i|^2 plus the trace part, because the co-pilot
part f^e = b^2 + 2 b Re(lambda) completes the square of the LOS part
|lambda|^2. The interference, the noise term
sum_{l in M_k} tr(W_l E[hhat_kl hhat_kl^H]) and the SE are then array
operations; the per-AP error-plus-noise matrices W_l are a field of the
estimation context (``ctx.w``), which the Monte Carlo engine reads too.

Also the expectation kernel E[hhat_k^H h_i h_i^H hhat_k] the distributed
expressions rest on (Theorem 1), read from the same per-AP kernel blocks,
which ``scfsim validate`` checks against Monte Carlo. The distributed closed
form is ``lsfd.build_ingredients``'s size classes taken to every UE's SE by
``lsfd.se_from_moments``, the path the Monte Carlo engine shares.
"""

import numpy as np

from .lsfd import _ap_kernels


def theorem1_kernel(k, i, l1, l2, ctx):
    """E[hhat_{k,l1}^H h_{i,l1} h_{i,l2}^H hhat_{k,l2}] in closed form, read
    from the kernel blocks of UE k at APs l1 and l2 (``lsfd._ap_kernels``).

    The kernel is g_{k,l1}^i conj(g_{k,l2}^i), plus c_kl^i when l1 == l2.
    """
    g, c = (x[i, 0] for x in _ap_kernels(ctx, l1, [k]))
    if l1 != l2:
        return complex(g * np.conj(_ap_kernels(ctx, l2, [k])[0][i, 0]))
    return complex(g * np.conj(g) + c)


def se_centralized_closed(ctx, cluster, prelog):
    """(K,) centralized MRC SE of every UE, hardening-style closed-form
    approximation."""
    k_count = ctx.K
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot

    # f^g + f^e of UE k (row) against UE i (column) is |sum_l g_kl^i|^2 plus
    # the trace part, all summed over k's serving APs: each AP adds its
    # blocks to the rows of the UEs it serves
    g = np.zeros((k_count, k_count), dtype=complex)
    f = np.zeros((k_count, k_count))
    for l in range(ctx.L):
        served = cluster.served[l]
        g_l, trace_part = _ap_kernels(ctx, l, served, centralized=True)
        g[served] += g_l.T
        f[served] += trace_part.T
    f += np.abs(g) ** 2
    num = one_ad2 * p * np.diagonal(f)
    np.fill_diagonal(f, 0.0)
    interference = f @ p

    # sum over l in M_k of tr(W_l E[hhat_kl hhat_kl^H]), over the served pairs
    kk, ll = np.nonzero(cluster.D)
    h_bar = ctx.stats.h_bar[kk, ll]
    e_hh = h_bar[:, :, None] * np.conj(h_bar[:, None, :]) + ctx.c_hhat[kk, ll]
    noise = np.bincount(kk, np.einsum("pnm,pmn->p", ctx.w[ll], e_hh).real,
                        minlength=k_count)
    return prelog * np.log2(1.0 + num / (one_ad2 * interference + noise))
