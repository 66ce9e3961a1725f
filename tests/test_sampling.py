"""The trials-last matmul sampler against the einsum sampler it replaced.

The oracles below draw with ``crandn`` in the (n, ...) layout and contract
with einsum, one pilot and one UE at a time. The sampler must consume the
same stream in the same order and agree with them to 1e-13 relative, on
Rician and Rayleigh fading, ideal and 1-4 bit converters, N = 1, 2, 3
antennas, and more UEs than pilots (co-pilot UEs share an observation).
"""

import numpy as np
import pytest

from scfsim.numerics import crandn
from scfsim.rng import substream
from scfsim.sampling import _crandn_trials_last, sample_data_noise, sample_joint

from conftest import small_system

REL = 1e-13
CONVERTERS = [(None, None), (1, 1), (2, 3), (3, 2), (4, 4)]


def _oracle_nlos(ctx, rng, n_trials):
    w = crandn(rng, (n_trials, ctx.K, ctx.L, ctx.N))
    return np.einsum("klnm,bklm->bkln", ctx.stats.r_sqrt, w)


def _oracle_joint(ctx, rng, n_trials):
    h_w = _oracle_nlos(ctx, rng, n_trials)
    h = ctx.stats.h_bar[None] + h_w
    one_ad = 1.0 - ctx.q.rho_ad
    root_tau = np.sqrt(ctx.tau)
    w = crandn(rng, (n_trials, ctx.tau, ctx.L, ctx.N))
    z_w = np.einsum("lnm,btlm->btln", ctx.c_n_sqrt, w)
    for t in range(ctx.tau):
        for i in ctx.plan.users_on_pilot(t):
            z_w[:, t] += one_ad * np.sqrt(ctx.p_ddot[i]) * root_tau * h_w[:, i]
    hhat = np.empty_like(h)
    for k in range(ctx.K):
        t_k = ctx.plan.pilot_of[k]
        hhat[:, k] = ctx.stats.h_bar[k][None] + np.einsum(
            "lnm,blm->bln", ctx.est_gain[k], z_w[:, t_k])
    return h, hhat


def _oracle_data_noise(ctx, h, rng):
    n_trials = h.shape[0]
    q = ctx.q
    one_ad = 1.0 - q.rho_ad
    n_da = crandn(rng, (n_trials, ctx.K), q.rho_da * ctx.p_full)
    n_an = crandn(rng, (n_trials, ctx.L, ctx.N), ctx.sigma2)
    n_ad = crandn(rng, (n_trials, ctx.L, ctx.N), q.rho_ad * one_ad * ctx.adc_diag)
    return one_ad * (np.einsum("bkln,bk->bln", h, n_da) + n_an) + n_ad


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("n_trials", [1, 64])
@pytest.mark.parametrize("n_ant", [1, 2, 3])
@pytest.mark.parametrize("bits", CONVERTERS, ids=lambda b: f"da{b[0]}-ad{b[1]}")
@pytest.mark.parametrize("fading", ["rician", "rayleigh"])
def test_sampler_matches_einsum_oracle(fading, bits, n_ant, n_trials):
    ctx = small_system(L=3, K=5, N=n_ant, tau=2, b_da=bits[0], b_ad=bits[1],
                       fading=fading, seed=21)[5]
    assert any(len(s) > 1 for s in ctx.plan.copilot_sets)
    rng, rng_oracle = substream(4, "joint"), substream(4, "joint")
    h, hhat = sample_joint(ctx, rng, n_trials)
    want_h, want_hhat = _oracle_joint(ctx, rng_oracle, n_trials)
    _assert_close(h, want_h)
    _assert_close(hhat, want_hhat)
    # the data noise continues the stream where the joint draw left it
    _assert_close(sample_data_noise(ctx, h, rng),
                  _oracle_data_noise(ctx, want_h, rng_oracle))


@pytest.mark.parametrize("shape", [(5,), (5, 3, 2), (1, 1)])
@pytest.mark.parametrize("n_trials", [1, 7])
def test_trials_last_draws_are_bit_identical(shape, n_trials):
    got = _crandn_trials_last(substream(2, "draw"), n_trials, shape)
    want = np.moveaxis(crandn(substream(2, "draw"), (n_trials,) + shape), 0, -1)
    assert got.shape == shape + (n_trials,)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_shapes_and_repeatability():
    ctx = small_system(L=3, K=5, N=2, tau=2, seed=22)[5]
    h, hhat = sample_joint(ctx, substream(6, "shape"), 16)
    assert h.shape == hhat.shape == (16, ctx.K, ctx.L, ctx.N)
    noise = sample_data_noise(ctx, h, substream(7, "noise"))
    assert noise.shape == (16, ctx.L, ctx.N)
    again_h, again_hhat = sample_joint(ctx, substream(6, "shape"), 16)
    assert np.array_equal(again_h, h) and np.array_equal(again_hhat, hhat)
    assert np.array_equal(sample_data_noise(ctx, h, substream(7, "noise")), noise)
