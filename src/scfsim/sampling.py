"""Batched Monte Carlo sampling of the transceiver model.

Pilot phase: the effective receive noise on each pilot is Gaussian with the
ensemble covariance C_n,l, drawn independently of the realized channels (the
additive quantization model the closed forms are derived under); co-pilot UEs
share one observation, so pilot contamination is structural, not resampled.
Data phase: fully constructive — the scalar UE DAC noise rides through the
same trial's true channels and is shared across APs.

Batches are held trials-last: true channels (K, L, N, n), LOS-stripped
pilot observations (tau, L, N, n), data noise (L, N, n). Every correlation,
noise-factor and estimator product is a BLAS matmul of N x N by N x n.
Every random draw, the (K, n) UE DAC noise included, keeps the (n, ...)
order of ``crandn``, which writes it into that layout
(``_crandn_trials_last``): each part, real then imaginary, in trial blocks
through one reused float buffer. A draw block holds about
``numerics.DRAW_BLOCK_ELEMS`` values and at least 32 trials, so on a
64-trial paper-scale batch the buffer is a quarter of the batch. The pilot
noise is transformed in place, one pilot at a time, and each data-noise
draw is freed once it is mixed. A batch holds one copy of the true
channels; estimates are formed from the pilot observations one AP at a
time, as each AP forms its own (``estimates``): for the UEs an AP's
combiners read, or for every UE in the UE-last (n, L, N, K) layout of the
centralized subspaces (``estimates_ue_last``).
"""

import numpy as np

from .numerics import crandn


def _crandn_trials_last(rng, n_trials, shape, var=1.0):
    """``crandn(rng, (n_trials, *shape), var)``, stored trials-last.

    The same draws in the same order, written in trial blocks through an
    (n, ...) view of the trials-last array instead of copied into it.
    """
    out = np.empty(shape + (n_trials,), dtype=complex)
    crandn(rng, (n_trials,) + shape, var, out=np.moveaxis(out, -1, 0))
    return out


def sample_joint(ctx, rng, n_trials):
    """(h, z): one trial batch of channels and pilot observations.

    ``h`` holds the true channels with their LOS part, (K, L, N, n). ``z``
    holds the LOS-stripped pilot observations, (tau, L, N, n): the pilot
    noise plus every co-pilot UE's NLOS channel, so UE k's MMSE estimate at
    AP l is est_gain[k, l] @ z[pilot_of[k], l] + h_bar[k, l].
    """
    h = _crandn_trials_last(rng, n_trials, (ctx.K, ctx.L, ctx.N))
    r_sqrt = ctx.stats.r_sqrt
    # one UE at a time, through one reused buffer of one UE's channels
    product = np.empty(h.shape[1:], dtype=complex)
    for k in range(ctx.K):
        np.matmul(r_sqrt[k], h[k], out=product)
        h[k] = product
    del product

    one_ad = 1.0 - ctx.q.rho_ad
    root_tau = np.sqrt(ctx.tau)
    # per-pilot effective noise, independent across pilots and APs,
    # transformed in place one pilot at a time
    z = _crandn_trials_last(rng, n_trials, (ctx.tau, ctx.L, ctx.N))
    for t in range(ctx.tau):
        z[t] = ctx.c_n_sqrt @ z[t]
    for i, t in enumerate(ctx.plan.pilot_of):
        z[t] += one_ad * np.sqrt(ctx.p_ddot[i]) * root_tau * h[i]
    h += ctx.stats.h_bar[..., None]
    return h, z


def estimates(ctx, z, ues, l):
    """AP l's MMSE estimates of the UEs ``ues``, (|ues|, N, n).

    ``z`` is the pilot-observation batch of ``sample_joint``: the estimates
    are one matmul of AP l's estimator gains with its observations of the
    UEs' pilots, plus h̄, added in place.
    """
    est = ctx.est_gain[ues, l] @ z[ctx.plan.pilot_of[ues], l]
    est += ctx.stats.h_bar[ues, l, :, None]
    return est


def estimates_ue_last(ctx, z):
    """Every pair's estimate, UE-last (n, L, N, K), one AP at a time: one
    AP's estimates of every UE are contiguous, so a serving subspace is a
    gather of |M_k| blocks (``detectors.serving_subspace``)."""
    n_trials = z.shape[-1]
    out = np.empty((n_trials, ctx.L, ctx.N, ctx.K), dtype=complex)
    every = np.arange(ctx.K)
    for l in range(ctx.L):
        out[:, l] = estimates(ctx, z, every, l).T
    return out


def sample_data_noise(ctx, h, rng):
    """(L, N, n) effective data-phase receive noise per AP.

    The scalar UE DAC noise is shared across APs within a trial, so the
    cross-AP noise correlation the LSFD closed form accounts for is present.
    The channel-weighted sum runs per UE on the trials-last ``h`` of
    ``sample_joint``.
    """
    n_trials = h.shape[-1]
    q = ctx.q
    one_ad = 1.0 - q.rho_ad
    n_da_t = _crandn_trials_last(rng, n_trials, (ctx.K,),
                                 q.rho_da * ctx.p_full)          # (K, n)
    mixed = h[0] * n_da_t[0]
    for k in range(1, ctx.K):
        mixed += h[k] * n_da_t[k]
    del n_da_t
    # the stream order is n_da, n_an, n_ad; each draw is freed once mixed
    mixed += _crandn_trials_last(rng, n_trials, (ctx.L, ctx.N), ctx.sigma2)
    mixed *= one_ad
    mixed += _crandn_trials_last(rng, n_trials, (ctx.L, ctx.N),
                                 q.rho_ad * one_ad * ctx.adc_diag)
    return mixed
