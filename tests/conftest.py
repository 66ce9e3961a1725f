"""Shared builders for the test suite."""

import os

import numpy as np
import pytest

from scfsim.channel import ChannelStatistics, Scenario, channel_statistics, generate_scenario
from scfsim.config import SimConfig
from scfsim.pilots import build_estimation_context, round_robin_pilots
from scfsim.quantization import QuantizerConfig
from scfsim.scheduler import equal_powers, full_cluster_plan


def small_system(L=2, K=4, N=2, tau=2, b_da=1, b_ad=2, seed=7, fading="rician",
                 side=500.0, p_max=100.0):
    """A fully built small system: stats, context, full cluster, equal power
    (``powers``, the (K,) p̈ array)."""
    cfg = SimConfig(L=L, K=K, N=N, tau=tau, b_da=b_da, b_ad=b_ad,
                    area_side=side, fading=fading, p_max_mw=p_max)
    scenario = generate_scenario(cfg, seed)
    stats = channel_statistics(scenario, seed, cfg.asd_rad,
                               rayleigh=(fading == "rayleigh"))
    q = QuantizerConfig(b_da=b_da, b_ad=b_ad)
    powers = equal_powers(K, p_max, q.rho_da)
    plan = round_robin_pilots(K, tau)
    ctx = build_estimation_context(stats, plan, powers, q, cfg.sigma2_mw)
    cluster = full_cluster_plan(stats)
    return cfg, stats, q, powers, plan, ctx, cluster


def allow_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs as both pools see it: the
    affinity set, and the machine count where the platform has no such set."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def lmmse_at_ap(hhat_l, l, ctx, cluster):
    """Every UE's L-MMSE vector at AP l, (K, N), from AP l's (K, N) estimates:
    a one-trial batch holding them at AP l (AP l's solve reads no other AP's
    estimates), through the batched ``local_combiners``."""
    from oracles import local_combiners_full

    hhat = np.zeros((1, ctx.K, ctx.L, ctx.N), dtype=complex)
    hhat[0, :, l] = hhat_l
    return local_combiners_full(hhat, ctx, cluster, "lmmse")[0, :, l]


def synthetic_stats(beta, kappa, theta, n_ant, asd_rad=np.radians(15.0)):
    """ChannelStatistics from explicit per-link large-scale arrays."""
    from oracles import los_steering
    from scfsim.channel import spatial_correlation

    beta = np.asarray(beta, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    theta = np.asarray(theta, dtype=float)
    k_count, l_count = beta.shape
    side = 1000.0
    scenario = Scenario(area_side=side,
                        ap_positions=np.full((l_count, 2), side / 2),
                        ue_positions=np.full((k_count, 2), side / 4),
                        antennas_per_ap=n_ant)
    beta_los = beta * kappa / (kappa + 1.0)
    beta_nlos = beta / (kappa + 1.0)
    h_bar = np.empty((k_count, l_count, n_ant), dtype=complex)
    corr = np.empty((k_count, l_count, n_ant, n_ant), dtype=complex)
    for k in range(k_count):
        for l in range(l_count):
            h_bar[k, l] = los_steering(theta[k, l], n_ant, beta_los[k, l])
            corr[k, l] = spatial_correlation(theta[k, l], asd_rad,
                                             beta_nlos[k, l], n_ant)
    return ChannelStatistics(scenario=scenario, beta=beta, kappa=kappa,
                             theta=theta, beta_los=beta_los,
                             beta_nlos=beta_nlos, h_bar=h_bar, R=corr)


@pytest.fixture(scope="session")
def desk_system():
    """The (L=4, K=6, N=2, tau=3) system the closed forms are validated on."""
    return small_system(L=4, K=6, N=2, tau=3, seed=3)
