"""Batched Monte Carlo sampling of the transceiver model.

Pilot phase: the effective receive noise on each pilot is Gaussian with the
ensemble covariance C_n,l, drawn independently of the realized channels (the
additive quantization model the closed forms are derived under); co-pilot UEs
share one observation, so pilot contamination is structural, not resampled.
Data phase: fully constructive — the scalar UE DAC noise rides through the
same trial's true channels and is shared across APs.

Batches are worked on trials-last, (K, L, N, n) and (tau, L, N, n), so every
correlation, noise-factor and estimator product is a BLAS matmul of N x N by
N x n. The random draws keep the (n, ...) order of ``crandn`` and are written
straight into that layout; callers get (n, ...) views of it.
"""

import numpy as np

from .numerics import crandn


def _crandn_trials_last(rng, n_trials, shape):
    """``crandn(rng, (n_trials, *shape))`` of unit variance, stored trials-last.

    The same draws in the same order, written through an (n, ...) view of
    the trials-last array instead of copied into it.
    """
    out = np.empty(shape + (n_trials,), dtype=complex)
    crandn(rng, (n_trials,) + shape, out=np.moveaxis(out, -1, 0))
    return out


def sample_joint(ctx, rng, n_trials):
    """(true channels, MMSE estimates), both (n, K, L, N), jointly consistent.

    Both are views of (K, L, N, n) arrays.
    """
    h = ctx.stats.r_sqrt @ _crandn_trials_last(
        rng, n_trials, (ctx.K, ctx.L, ctx.N))

    one_ad = 1.0 - ctx.q.rho_ad
    root_tau = np.sqrt(ctx.tau)
    # per-pilot effective noise, independent across pilots and APs
    z = ctx.c_n_sqrt @ _crandn_trials_last(
        rng, n_trials, (ctx.tau, ctx.L, ctx.N))
    for t in range(ctx.tau):
        for i in ctx.plan.users_on_pilot(t):
            z[t] += one_ad * np.sqrt(ctx.p_ddot[i]) * root_tau * h[i]

    hhat = np.empty_like(h)
    for k in range(ctx.K):
        np.matmul(ctx.est_gain[k], z[ctx.plan.pilot_of[k]], out=hhat[k])
    h_bar = ctx.stats.h_bar[..., None]
    h += h_bar
    hhat += h_bar
    return np.moveaxis(h, -1, 0), np.moveaxis(hhat, -1, 0)


def sample_data_noise(ctx, h, rng):
    """(n, L, N) effective data-phase receive noise per AP.

    The scalar UE DAC noise is shared across APs within a trial, so the
    cross-AP noise correlation the LSFD closed form accounts for is present.
    The channel-weighted sum runs per UE on the trials-last layout of ``h``.
    """
    n_trials = h.shape[0]
    q = ctx.q
    one_ad = 1.0 - q.rho_ad
    n_da = crandn(rng, (n_trials, ctx.K), q.rho_da * ctx.p_full)
    n_an = crandn(rng, (n_trials, ctx.L, ctx.N), ctx.sigma2)
    n_ad = crandn(rng, (n_trials, ctx.L, ctx.N), q.rho_ad * one_ad * ctx.adc_diag)
    h_t = np.moveaxis(h, 0, -1)                                  # (K, L, N, n)
    n_da_t = np.ascontiguousarray(n_da.T)                        # (K, n)
    mixed = h_t[0] * n_da_t[0]
    for k in range(1, ctx.K):
        mixed += h_t[k] * n_da_t[k]
    return one_ad * (np.moveaxis(mixed, -1, 0) + n_an) + n_ad
