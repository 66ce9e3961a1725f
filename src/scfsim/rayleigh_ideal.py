"""Independently coded ideal-hardware correlated-Rayleigh reference path.

Textbook cell-free expressions with no converter distortion and no LOS:
MMSE estimation, local MMSE combining, and the MRC+LSFD closed-form SE.
Deliberately written from scratch (plain loops, no shared helpers beyond
numpy) so it can serve as an oracle for the general model's rho -> 0,
kappa -> 0 limit.
"""

import numpy as np


def ideal_psi(stats, plan, p, sigma2, t, l):
    psi = sigma2 * np.eye(stats.N, dtype=complex)
    for i in plan.users_on_pilot(t):
        psi = psi + plan.tau * p[i] * stats.R[i, l]
    return psi


def ideal_estimate(z_w, k, l, stats, plan, p, sigma2):
    """hhat = sqrt(p tau) R Psi^{-1} z_w (zero-mean Rayleigh links)."""
    psi = ideal_psi(stats, plan, p, sigma2, plan.pilot_of[k], l)
    return np.sqrt(p[k] * plan.tau) * stats.R[k, l] @ np.linalg.solve(psi, z_w)


def ideal_estimate_cov(k, l, stats, plan, p, sigma2):
    psi = ideal_psi(stats, plan, p, sigma2, plan.pilot_of[k], l)
    return p[k] * plan.tau * stats.R[k, l] @ np.linalg.solve(psi, stats.R[k, l])


def ideal_lmmse(k, l, hhat_l, stats, plan, p, sigma2):
    """v = [sum_i p_i (hhat hhat^H + R - C_hhat) + sigma^2 I]^{-1} hhat_kl."""
    a = sigma2 * np.eye(stats.N, dtype=complex)
    for i in range(stats.K):
        c_i = ideal_estimate_cov(i, l, stats, plan, p, sigma2)
        a = a + p[i] * (np.outer(hhat_l[i], np.conj(hhat_l[i]))
                        + stats.R[i, l] - c_i)
    return np.linalg.solve(a, hhat_l[k])


def ideal_se_mrc_lsfd(k, stats, plan, p, sigma2, prelog):
    """Closed-form distributed SE, MRC + optimal LSFD, Rayleigh, no hardware loss."""
    tau = plan.tau
    l_count = stats.L
    copilot = plan.pilot_of == plan.pilot_of[k]          # P_k as a mask

    b = np.zeros((stats.K, l_count))
    c = np.zeros((stats.K, l_count))
    d = np.zeros(l_count)
    for l in range(l_count):
        psi = ideal_psi(stats, plan, p, sigma2, plan.pilot_of[k], l)
        sandwich = stats.R[k, l] @ np.linalg.solve(psi, stats.R[k, l])
        for i in range(stats.K):
            c[i, l] = tau * p[k] * np.trace(stats.R[i, l] @ sandwich).real
            if copilot[i]:
                b[i, l] = tau * np.sqrt(p[k] * p[i]) * np.trace(
                    stats.R[i, l] @ np.linalg.solve(psi, stats.R[k, l])).real
        d[l] = sigma2 * tau * p[k] * np.trace(
            np.linalg.solve(psi, stats.R[k, l] @ stats.R[k, l])).real

    c_mat = np.diag(d).astype(complex)
    for i in range(stats.K):
        c_mat += p[i] * np.diag(c[i])
        if copilot[i]:
            c_mat += p[i] * np.outer(b[i], b[i])
    c_mat -= p[k] * np.outer(b[k], b[k])
    sinr = p[k] * np.real(np.vdot(b[k], np.linalg.solve(c_mat, b[k])))
    return prelog * np.log2(1.0 + sinr)
