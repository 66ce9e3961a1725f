"""Closed-form spectral-efficiency expressions (MRC detection).

Centralized scheme: the hardening-style approximation built from the
estimate-moment kernels f^g, f^e. Each UE k gets one vector kernel call that
returns f^g and f^e against every interferer at once, contracted over k's
serving APs and antennas; the per-AP error-plus-noise matrices W_l are
computed once per estimation context and shared by every UE. Also the
four-case expectation kernel E[hhat_k^H h_i h_i^H hhat_k] the distributed
expressions rest on, kept standalone for oracle validation. The distributed
closed form is ``lsfd.build_ingredients`` followed by
``lsfd.se_from_moments``, the path the Monte Carlo engine shares.
"""

import numpy as np

from .detectors import centralized_error_noise
from .pilots import context_memo


def theorem1_kernel(k, i, l1, l2, ctx):
    """E[hhat_{k,l1}^H h_{i,l1} h_{i,l2}^H hhat_{k,l2}] in closed form.

    Case split on pilot sharing (i co-pilot with k or not) and on l1 == l2.
    """
    stats = ctx.stats
    copilot = i in ctx.plan.copilot_sets[k]
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot

    h_k1, h_i1 = stats.h_bar[k, l1], stats.h_bar[i, l1]
    h_k2, h_i2 = stats.h_bar[k, l2], stats.h_bar[i, l2]
    los_cross = np.vdot(h_k1, h_i1) * np.vdot(h_i2, h_k2)

    if l1 == l2:
        s_k = ctx.s_mat[k, l1]
        common = (np.vdot(h_k1, stats.R[i, l1] @ h_k1)
                  + one_ad2 * tau * p[k] * (
                      np.trace(stats.R[i, l1] @ s_k)
                      + np.vdot(h_i1, s_k @ h_i1)))
        value = los_cross + common
        if copilot:
            tr1 = np.trace(stats.R[i, l1] @ ctx.t_mat[k, l1])
            value += one_ad2**2 * tau**2 * p[k] * p[i] * np.abs(tr1) ** 2
            value += 2.0 * one_ad2 * tau * np.sqrt(p[i] * p[k]) * np.real(
                tr1 * np.vdot(h_i1, h_k1))
        return complex(value)

    if not copilot:
        return complex(los_cross)
    tr1 = np.trace(stats.R[i, l1] @ ctx.t_mat[k, l1])
    tr2 = np.trace(stats.R[k, l2] @ np.linalg.solve(
        ctx.psi[ctx.plan.pilot_of[k], l2], stats.R[i, l2]))
    value = los_cross + one_ad2**2 * tau**2 * p[k] * p[i] * tr1 * tr2
    value += one_ad2 * tau * np.sqrt(p[k] * p[i]) * (
        np.vdot(h_i2, h_k2) * tr1 + np.vdot(h_k1, h_i1) * tr2)
    return complex(value)


def _f_kernels(k, ctx, cluster):
    """Estimate-moment kernels (f^g, f^e) of UE k against every UE i at once.

    Returns two (K,) vectors indexed by the interferer i, each contracted
    over k's serving APs and their antennas; f^e is zero off k's pilot.
    """
    stats = ctx.stats
    m_idx = np.asarray(cluster.serving[k], dtype=int)
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot
    h_bar_k = stats.h_bar[k, m_idx]                      # (|M|, N)
    h_bar = stats.h_bar[:, m_idx]                        # (K, |M|, N)
    s_all = ctx.s_mat[:, m_idx]                          # (K, |M|, N, N)
    s_k = ctx.s_mat[k, m_idx]
    los_cross = np.einsum("mn,imn->i", np.conj(h_bar_k), h_bar)

    tr_mix = np.einsum("imnp,mpn->i", s_all, s_k).real
    # h_bar_k^H S_il h_bar_k and h_bar_i^H S_kl h_bar_i, summed over serving APs
    quad_ki = np.einsum("mn,imnp,mp->i", np.conj(h_bar_k), s_all, h_bar_k).real
    quad_ik = np.einsum("imn,mnp,imp->i", np.conj(h_bar), s_k, h_bar).real
    # tr(R_il Psi_k^{-1} R_kl): the co-pilot coupling
    tr_cross = np.einsum("imnp,mpn->i", stats.R[:, m_idx],
                         ctx.t_mat[k, m_idx]).real

    f_g = np.abs(los_cross) ** 2
    f_g += one_ad2**2 * tau**2 * p[k] * p * tr_mix
    f_g += one_ad2 * tau * p * quad_ki
    f_g += one_ad2 * tau * p[k] * quad_ik

    f_e = one_ad2**2 * tau**2 * p[k] * p * tr_cross**2
    f_e += 2.0 * one_ad2 * tau * np.sqrt(p * p[k]) * tr_cross * los_cross.real
    f_e[ctx.plan.pilot_of != ctx.plan.pilot_of[k]] = 0.0
    return f_g, f_e


def se_centralized_closed(k, ctx, cluster, prelog):
    """Centralized MRC SE, hardening-style closed-form approximation."""
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    f_g, f_e = _f_kernels(k, ctx, cluster)
    num = one_ad2 * p[k] * (f_g[k] + f_e[k])

    others = np.ones(ctx.K, dtype=bool)
    others[k] = False
    interference = np.dot(p[others], f_g[others] + f_e[others])

    m_idx = np.asarray(cluster.serving[k], dtype=int)
    h_bar_k = ctx.stats.h_bar[k, m_idx]
    e_hh = (np.einsum("mn,mp->mnp", h_bar_k, np.conj(h_bar_k))
            + ctx.c_hhat[k, m_idx])
    w_full = context_memo(ctx, centralized_error_noise)
    noise = np.einsum("mnp,mpn->", w_full[m_idx], e_hh).real
    den = one_ad2 * interference + noise
    return prelog * np.log2(1.0 + num / den)
