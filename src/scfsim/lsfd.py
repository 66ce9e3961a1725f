"""The distributed SE: one moment layer shared by the closed form and the
Monte Carlo engine.

The distributed scheme is MRC at the APs followed by a second-stage
weighting, applied to three second moments of UE k served by the AP set
M_k: E[g_kk], the interference-plus-noise matrix C_k (sums over all UEs) and
its overlap-restricted counterpart C_k^P (sums over Q_k). ``Moments`` holds
them; ``lsfd_weights`` maps a bundle and a weighting (one of
``config.WEIGHTINGS``) to weights, ``se_from_moments`` to the SE.
``build_ingredients`` builds the bundle in closed form, and
``se_mc.DistributedSums.moments`` estimates it from samples.

The closed-form ingredients are, per serving AP l and interfering UE i:

    lambda_kl^i = h_bar_kl^H h_bar_il                  (LOS alignment)
    b_kl^i      = (1-rho_ad)^2 tau sqrt(p̈_k p̈_i) tr(R_il Psi^{-1} R_kl)
                  (co-pilot estimate correlation; defined for i in P_k)
    c_kl^i      = interference power kernel
    d_kl        = AP-local noise power seen through the estimate

Every ingredient is a (K, |M_k|) array built by one contraction over the
interferers. C_k and C_k^P are gathered through index arrays of the sum set
and the co-pilot set into one (|set|, |M_k|, |M_k|) stack of per-interferer
terms and reduced along it, with no Python loop over interferers.
Under the ULA model all trace kernels are real; tiny imaginary residue from
quadrature is dropped. The LSFD levels follow Björnson & Sanguinetti,
"Making Cell-Free Massive MIMO Competitive With MMSE Processing and
Centralized Implementation" (IEEE TWC 2020).
"""

from dataclasses import dataclass

import numpy as np

from .config import WEIGHTINGS
from .numerics import hermitize, solve_hermitian


@dataclass(frozen=True)
class Moments:
    """The second moments the distributed SE of one UE k rests on."""
    signal: np.ndarray         # (|M_k|,) E[g_kk]
    c_full: np.ndarray         # (|M_k|, |M_k|) C_k, sums over all UEs
    c_partial: np.ndarray      # (|M_k|, |M_k|) C_k^P, sums over Q_k
    p_ddot_k: float
    one_ad2: float             # (1 - rho_ad)^2


@dataclass(frozen=True)
class LsfdIngredients:
    k: int
    serving: tuple             # M_k
    copilot: tuple             # P_k
    overlap: tuple             # Q_k (equals all UEs for unscaled plans)
    lam: np.ndarray            # (K, |M_k|) complex
    b: np.ndarray              # (K, |M_k|) real; rows meaningful for i in P_k
    c: np.ndarray              # (K, |M_k|) real
    d: np.ndarray              # (|M_k|,) real
    moments: Moments           # signal = lambda_k^k + b_k^k


def build_ingredients(k, ctx, cluster):
    """Assemble every Theorem-2 ingredient and the Moments of UE k under
    the given plan."""
    stats, plan = ctx.stats, ctx.plan
    serving = cluster.serving[k]
    if len(serving) == 0:
        raise ValueError(f"UE {k} has an empty serving set")
    m_idx = np.asarray(serving, dtype=int)
    copilot = plan.copilot_sets[k]
    overlap = cluster.overlap[k]
    one_ad = 1.0 - ctx.q.rho_ad
    one_ad2 = one_ad ** 2
    tau = ctx.tau
    p = ctx.p_ddot

    h_bar_k = stats.h_bar[k, m_idx]                      # (|M|, N)
    lam = np.einsum("mn,imn->im", np.conj(h_bar_k), stats.h_bar[:, m_idx])

    # trace kernels against this UE's estimator sandwich S_kl = R Psi^{-1} R
    s_k = ctx.s_mat[k, m_idx]                            # (|M|, N, N)
    t_k = ctx.t_mat[k, m_idx]                            # (|M|, N, N) = Psi^{-1} R_kl
    r_all = stats.R[:, m_idx]                            # (K, |M|, N, N)

    b = np.zeros((ctx.K, len(serving)))
    tr_i_tk = np.einsum("imnp,mpn->im", r_all, t_k).real  # tr(R_il Psi^{-1} R_kl)
    cp_idx = np.asarray(copilot, dtype=int)
    b[cp_idx] = one_ad2 * tau * np.sqrt(p[k] * p[cp_idx])[:, None] * tr_i_tk[cp_idx]

    c = one_ad2 * tau * p[k] * np.einsum("imnp,mpn->im", r_all, s_k).real
    c += np.einsum("mn,imnp,mp->im", np.conj(h_bar_k), r_all, h_bar_k).real
    c += one_ad2 * tau * p[k] * np.einsum(
        "imn,mnp,imp->im", np.conj(stats.h_bar[:, m_idx]), s_k,
        stats.h_bar[:, m_idx]).real

    # AP-local noise kernel d_kl = tr(E[n_x n_x^H] E[hhat hhat^H])
    nlos_diag = np.einsum("i,imnn->mn", p, r_all).real            # (|M|, N)
    d = (ctx.q.rho_ad * one_ad / (1.0 - ctx.q.rho_da)) * np.einsum(
        "mn,mn->m", np.abs(h_bar_k) ** 2, nlos_diag)
    d += (ctx.q.rho_ad * one_ad**3 / (1.0 - ctx.q.rho_da)) * tau * p[k] * \
        np.einsum("mn,mnn->m", nlos_diag, s_k).real
    iso = one_ad * (ctx.sigma2 + (ctx.q.rho_ad / (1.0 - ctx.q.rho_da))
                    * np.einsum("i,im->m", p, stats.beta_los[:, m_idx]))
    d += iso * (np.einsum("mn,mn->m", np.conj(h_bar_k), h_bar_k).real
                + one_ad2 * tau * p[k] * np.einsum("mnn->m", s_k).real)

    signal = lam[k] + b[k]

    diag = np.arange(len(serving))

    def interference(sum_idx, copilot_idx):
        # Per-interferer terms p_i (lam_i lam_i^H + diag c_i) over the sum set,
        # then p_i (b_i b_i^T + b_i lam_i^H + lam_i b_i^T) over the co-pilot
        # set, stacked and summed along the stack in that order: the same
        # additions in the same order as accumulating one UE at a time
        # (cumsum, because sum turns pairwise when |M_k| = 1).
        lam_s, lam_c, b_c = lam[sum_idx], lam[copilot_idx], b[copilot_idx]
        los = lam_s[:, :, None] * np.conj(lam_s[:, None, :])
        los[:, diag, diag] += c[sum_idx]
        terms = np.concatenate((
            p[sum_idx, None, None] * los,
            p[copilot_idx, None, None] * (
                b_c[:, :, None] * b_c[:, None, :]
                + b_c[:, :, None] * np.conj(lam_c[:, None, :])
                + lam_c[:, :, None] * b_c[:, None, :])))
        acc = np.cumsum(terms, axis=0)[-1]
        acc *= one_ad2 / (1.0 - ctx.q.rho_da)
        acc -= one_ad2 * p[k] * np.outer(signal, np.conj(signal))
        acc += np.diag(d)
        return hermitize(acc)

    moments = Moments(
        signal=signal,
        c_full=interference(np.arange(ctx.K), cp_idx),
        c_partial=interference(
            np.asarray(overlap, dtype=int),
            np.asarray(sorted(set(copilot) & set(overlap)), dtype=int)),
        p_ddot_k=float(p[k]), one_ad2=one_ad2)
    return LsfdIngredients(
        k=k, serving=tuple(serving), copilot=tuple(copilot),
        overlap=tuple(overlap), lam=lam, b=b, c=c, d=d, moments=moments)


def lsfd_weights(moments, weighting):
    """Second-stage weights: C_k^{-1} E[g_kk] for lsfd, (C_k^P)^{-1} E[g_kk]
    for the scalable plsfd, all ones for l2.

    C_k has the mean-signal term removed, so C_k^{-1} E[g_kk] is the
    Rayleigh-quotient optimum of the SINR in ``se_from_moments``.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}; "
                         f"choose from {'|'.join(WEIGHTINGS)}")
    if weighting == "l2":
        return np.ones(len(moments.signal), dtype=complex)
    c = moments.c_full if weighting == "lsfd" else moments.c_partial
    return solve_hermitian(c, moments.signal)


def se_from_moments(moments, weighting, prelog):
    """Distributed SE of one UE from its Moments under the given weighting.

    The denominator always uses C_k, also when the weights came from C_k^P.
    """
    a = lsfd_weights(moments, weighting)
    if not np.any(a):
        raise ValueError("all-zero weighting vector")
    num = moments.one_ad2 * moments.p_ddot_k * np.abs(
        np.vdot(a, moments.signal)) ** 2
    den = np.real(np.vdot(a, moments.c_full @ a))
    return prelog * np.log2(1.0 + num / den)
