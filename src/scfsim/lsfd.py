"""Closed-form ingredients of the distributed MRC+LSFD spectral efficiency
and the second-stage weighting vectors.

For UE k served by the AP set M_k the ingredients are, per serving AP l and
interfering UE i:

    lambda_kl^i = h_bar_kl^H h_bar_il                  (LOS alignment)
    b_kl^i      = (1-rho_ad)^2 tau sqrt(p̈_k p̈_i) tr(R_il Psi^{-1} R_kl)
                  (co-pilot estimate correlation; defined for i in P_k)
    c_kl^i      = interference power kernel
    d_kl        = AP-local noise power seen through the estimate

from which the interference-plus-noise matrix C_k (full-K sums) and its
partial counterpart C_k^P (sums over the overlap set Q_k) are assembled.
Every ingredient is a (K, |M_k|) array built by one contraction over the
interferers. C_k and C_k^P are gathered through index arrays of the sum set
and the co-pilot set into one (|set|, |M_k|, |M_k|) stack of per-interferer
terms and reduced along it, with no Python loop over interferers.
Under the ULA model all trace kernels are real; tiny imaginary residue from
quadrature is dropped.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import hermitize, solve_hermitian


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
    c_mat: np.ndarray          # (|M_k|, |M_k|) Hermitian, full-K sums
    c_mat_partial: np.ndarray  # (|M_k|, |M_k|) Hermitian, Q_k sums
    signal: np.ndarray         # (|M_k|,) = lambda_k^k + b_k^k = E[g_kk]
    p_ddot_k: float
    rho_ad: float
    rho_da: float


@dataclass(frozen=True)
class LsfdVector:
    a: np.ndarray
    method: str


def build_ingredients(k, ctx, cluster):
    """Assemble every Theorem-2 ingredient for UE k under the given plan."""
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

    c_mat = interference(np.arange(ctx.K), cp_idx)
    c_mat_partial = interference(
        np.asarray(overlap, dtype=int),
        np.asarray(sorted(set(copilot) & set(overlap)), dtype=int))
    return LsfdIngredients(
        k=k, serving=tuple(serving), copilot=tuple(copilot),
        overlap=tuple(overlap), lam=lam, b=b, c=c, d=d, c_mat=c_mat,
        c_mat_partial=c_mat_partial, signal=signal, p_ddot_k=float(p[k]),
        rho_ad=ctx.q.rho_ad, rho_da=ctx.q.rho_da)


def lsfd_optimal(mean_g, b_matrix):
    """Generalized-Rayleigh-optimal weights a = B^{-1} E[g_kk]."""
    return LsfdVector(a=solve_hermitian(b_matrix, mean_g), method="optimal")


def lsfd_mr(ing):
    """Unscaled LSFD weights from the closed-form full-K matrix."""
    return LsfdVector(a=solve_hermitian(ing.c_mat, ing.signal), method="mr")


def p_lsfd(ing):
    """Partial LSFD weights: interference sums restricted to the overlap set."""
    return LsfdVector(a=solve_hermitian(ing.c_mat_partial, ing.signal),
                      method="p-mr")


def l2_lsfd(size):
    """Statistics-free all-ones weighting."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return LsfdVector(a=np.ones(size, dtype=complex), method="l2")
