"""The independently coded ideal-hardware correlated-Rayleigh path must agree
with the general model evaluated at rho_da = rho_ad = 0, kappa = 0."""

import numpy as np

from scfsim import rayleigh_ideal as ideal
from scfsim.lsfd import build_ingredients, se_from_moments
from scfsim.numerics import crandn
from scfsim.pilots import build_estimation_context
from scfsim.quantization import QuantizerConfig
from scfsim.rng import substream

from conftest import lmmse_at_ap, small_system
from oracles import estimate_local, pilot_batch


def _ideal_system(seed=60, L=3, K=5, N=2, tau=2):
    parts = small_system(L=L, K=K, N=N, tau=tau, seed=seed, fading="rayleigh",
                         b_da=None, b_ad=None)
    cfg, stats, _, powers, plan, _, cluster = parts
    q0 = QuantizerConfig()
    ctx = build_estimation_context(stats, plan, powers, q0, cfg.sigma2_mw)
    return cfg, stats, powers, plan, ctx, cluster


def test_estimation_agrees():
    _, stats, p, plan, ctx, _ = _ideal_system()
    z = crandn(substream(0, "z"), (stats.N,), 1e-10)
    for (k, l) in ((0, 0), (2, 1), (4, 2)):
        got = estimate_local(z, k, l, ctx)
        want = ideal.ideal_estimate(z, k, l, stats, plan, p, ctx.sigma2)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(np.max(np.abs(want)), 1e-300)


def test_estimate_covariance_agrees():
    _, stats, p, plan, ctx, _ = _ideal_system(seed=61)
    for (k, l) in ((1, 0), (3, 2)):
        want = ideal.ideal_estimate_cov(k, l, stats, plan, p, ctx.sigma2)
        assert np.max(np.abs(ctx.c_hhat[k, l] - want)) <= 1e-8 * np.max(np.abs(want))


def test_lmmse_agrees():
    _, stats, p, plan, ctx, cluster = _ideal_system(seed=62)
    z, hhat = pilot_batch(ctx, substream(1, "h"), 1)
    for l in range(stats.L):
        got = lmmse_at_ap(z, l, ctx, cluster)[1]
        want = ideal.ideal_lmmse(1, l, hhat[0, :, l], stats, plan, p, ctx.sigma2)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_closed_form_se_agrees():
    cfg, stats, p, plan, ctx, cluster = _ideal_system(seed=63)
    prelog = cfg.prelog
    se = se_from_moments(build_ingredients(ctx, cluster), "lsfd", prelog)
    for k, got in enumerate(se):
        want = ideal.ideal_se_mrc_lsfd(k, stats, plan, p, ctx.sigma2, prelog)
        assert abs(got - want) <= 1e-8 * abs(want)
