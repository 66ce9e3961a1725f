"""The trials-last matmul sampler against the einsum sampler it replaced.

The oracles below draw with ``crandn`` in the (n, ...) layout and contract
with einsum, one pilot and one UE at a time. The sampler must consume the
same stream in the same order and agree with them to 1e-13 relative, on
Rician and Rayleigh fading, ideal and 1-4 bit converters, N = 1, 2, 3
antennas, and more UEs than pilots (co-pilot UEs share an observation):
the channels, the pilot observations, the estimates formed from them and
the data noise.
"""

import numpy as np
import pytest

from scfsim import numerics
from scfsim.numerics import crandn
from scfsim.rng import substream
from scfsim.sampling import (_crandn_trials_last, estimates, estimates_ue_last,
                             sample_data_noise, sample_joint)

from conftest import small_system
from oracles import copilot_sets, joint_batch, ue_last

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
    return h, z_w, hhat


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
    assert any(len(s) > 1 for s in copilot_sets(ctx.plan.pilot_of))
    rng, rng_oracle = substream(4, "joint"), substream(4, "joint")
    h, z = sample_joint(ctx, rng, n_trials)
    want_h, want_z, want_hhat = _oracle_joint(ctx, rng_oracle, n_trials)
    _assert_close(np.moveaxis(h, -1, 0), want_h)
    _assert_close(np.moveaxis(z, -1, 0), want_z)
    every = np.nonzero(np.ones((ctx.K, ctx.L), dtype=bool))
    hhat = estimates(ctx, z, *every).reshape(ctx.K, ctx.L, ctx.N, n_trials)
    _assert_close(np.moveaxis(hhat, -1, 0), want_hhat)
    # the data noise continues the stream where the joint draw left it
    _assert_close(np.moveaxis(sample_data_noise(ctx, h, rng), -1, 0),
                  _oracle_data_noise(ctx, want_h, rng_oracle))


@pytest.mark.parametrize("shape", [(5,), (5, 3, 2), (1, 1)])
@pytest.mark.parametrize("n_trials", [1, 7])
def test_trials_last_draws_are_bit_identical(shape, n_trials):
    got = _crandn_trials_last(substream(2, "draw"), n_trials, shape)
    want = np.moveaxis(crandn(substream(2, "draw"), (n_trials,) + shape), 0, -1)
    assert got.shape == shape + (n_trials,)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    var = np.linspace(0.5, 2.0, shape[-1])
    got = _crandn_trials_last(substream(2, "draw"), n_trials, shape, var)
    want = crandn(substream(2, "draw"), (n_trials,) + shape, var)
    assert np.array_equal(got, np.moveaxis(want, 0, -1))


class _CountingRng:
    """A Generator whose ``standard_normal`` calls are recorded."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        self.sizes.append(out.shape[0])
        return out


@pytest.mark.parametrize("shape", [(5,), (5, 3, 2), (1, 1)])
@pytest.mark.parametrize("budget_trials, n_trials, blocks", [
    (None, 7, [7]),                  # one block, at the default budget
    (0, 32, [32]),                   # one block at the 32-trial floor
    (0, 64, [32, 32]),               # exactly two
    (0, 100, [32, 32, 32, 4]),       # several, the last one ragged
    (40, 100, [40, 40, 20]),
])
def test_trials_last_draws_in_blocks_are_bit_identical(
        shape, budget_trials, n_trials, blocks, monkeypatch):
    """Each part is drawn in blocks of whole trials, real parts first, and
    the values are ``crandn``'s one-shot draw, for scalar and array ``var``."""
    if budget_trials is not None:
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMS",
                            budget_trials * int(np.prod(shape)))
    for var in (1.0, 0.3, np.linspace(0.5, 2.0, shape[-1])):
        rng = _CountingRng(substream(2, "draw"))
        got = _crandn_trials_last(rng, n_trials, shape, var)
        want = crandn(substream(2, "draw"), (n_trials,) + shape, var)
        assert got.shape == shape + (n_trials,)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.moveaxis(want, 0, -1))
        assert rng.sizes == blocks * 2


def test_shapes_and_repeatability():
    ctx = small_system(L=3, K=5, N=2, tau=2, seed=22)[5]
    h, z = sample_joint(ctx, substream(6, "shape"), 16)
    assert h.shape == (ctx.K, ctx.L, ctx.N, 16)
    assert z.shape == (ctx.tau, ctx.L, ctx.N, 16)
    assert h.flags.c_contiguous and z.flags.c_contiguous
    noise = sample_data_noise(ctx, h, substream(7, "noise"))
    assert noise.shape == (ctx.L, ctx.N, 16)
    again_h, again_z = sample_joint(ctx, substream(6, "shape"), 16)
    assert np.array_equal(again_h, h) and np.array_equal(again_z, z)
    assert np.array_equal(sample_data_noise(ctx, h, substream(7, "noise")), noise)


@pytest.mark.parametrize("fading", ["rician", "rayleigh"])
def test_estimate_layouts_agree(fading):
    """Estimates on a list of pairs and the UE-last batch are the full
    estimate batch at those places."""
    ctx = small_system(L=3, K=5, N=2, tau=2, fading=fading, seed=23)[5]
    _, hhat = joint_batch(ctx, substream(8, "layout"), 9)
    z = sample_joint(ctx, substream(8, "layout"), 9)[1]
    ues, aps = np.array([4, 0, 0, 2, 4]), np.array([1, 2, 0, 2, 1])
    got = estimates(ctx, z, ues, aps)
    assert got.shape == (len(ues), ctx.N, 9)
    _assert_close(np.moveaxis(got, -1, 0), hhat[:, ues, aps])
    _assert_close(estimates_ue_last(ctx, z), ue_last(hhat))
