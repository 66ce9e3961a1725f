import numpy as np
import pytest

from scfsim import channel
from scfsim.channel import (MIN_DISTANCE_M, channel_statistics,
                            generate_scenario, large_scale_fading,
                            los_steering, rician_factor, sample_channel,
                            spatial_correlation)
from scfsim.config import SimConfig
from scfsim.numerics import hermitize
from scfsim.rng import substream

from conftest import small_system


def test_generate_scenario_paper_scale():
    cfg = SimConfig(L=64, K=40, N=2, area_side=1000.0)
    scn = generate_scenario(cfg, 0)
    assert scn.ap_positions.shape == (64, 2)
    assert scn.ue_positions.shape == (40, 2)
    assert np.all(scn.ap_positions >= 0) and np.all(scn.ap_positions <= 1000)
    assert np.all(scn.ue_positions >= 0) and np.all(scn.ue_positions <= 1000)


def test_generate_scenario_degenerate_and_deterministic():
    cfg = SimConfig(L=1, K=1, N=1, tau=1, tau_c=2)
    one = generate_scenario(cfg, 5)
    assert one.L == one.K == 1
    cfg = SimConfig(L=3, K=2, N=2)
    a = generate_scenario(cfg, 9)
    b = generate_scenario(cfg, 9)
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.ue_positions, b.ue_positions)


def test_generate_scenario_rejects_bad_dims():
    with pytest.raises(Exception):
        SimConfig(L=0, K=4)


def test_pathloss_reference_points():
    assert np.isclose(large_scale_fading(1.0), 10 ** (-30.5 / 10), rtol=1e-12)
    assert np.isclose(large_scale_fading(1000.0), 10 ** (-140.6 / 10), rtol=1e-12)
    with pytest.raises(ValueError):
        large_scale_fading(0.0)


def test_shadow_fading_std():
    rng = substream(0, "shadow-test")
    shadow = rng.normal(0.0, 4.0, size=100000)
    beta = large_scale_fading(100.0, shadow)
    measured = np.std(10 * np.log10(beta))
    assert abs(measured - 4.0) < 0.05


def test_rician_factor_points():
    assert np.isclose(rician_factor(100.0), 10.0, rtol=1e-12)      # 13 - 3 dB
    assert np.isclose(rician_factor(1300.0 / 3.0), 1.0, rtol=1e-12)
    assert rician_factor(50.0, rayleigh=True) == 0.0
    with pytest.raises(ValueError):
        rician_factor(-1.0)


def test_los_steering_properties():
    flat = los_steering(0.0, 5, 2.0)
    assert np.allclose(flat, np.sqrt(2.0) * np.ones(5))
    v = los_steering(0.7, 6, 3.5)
    assert np.isclose(np.vdot(v, v).real, 6 * 3.5, rtol=1e-12)
    two = los_steering(np.pi / 6, 2, 1.0)
    assert np.isclose(np.angle(two[1]), -np.pi / 2, atol=1e-12)


def test_spatial_correlation_scalar_and_diagonal():
    r1 = spatial_correlation(0.3, np.radians(15), 2.5, 1)
    assert abs(r1[0, 0].real - 2.5) < 2.5e-8
    r4 = spatial_correlation(-0.8, np.radians(15), 0.7, 4)
    assert np.max(np.abs(np.diag(r4) - 0.7)) < 0.7e-8


def test_spatial_correlation_riemann_oracle():
    theta, asd, beta, n = np.radians(30), np.radians(15), 1.0, 4
    half = 20 * asd
    nodes = 1_000_000
    d = (np.arange(nodes) + 0.5) / nodes * 2 * half - half
    w = (2 * half / nodes) / (np.sqrt(2 * np.pi) * asd) * np.exp(-d**2 / (2 * asd**2))
    m = np.arange(n)
    oracle = beta * (np.exp(1j * np.pi * np.outer(m, np.sin(theta + d))) @ w)
    r = spatial_correlation(theta, asd, beta, n)
    assert np.max(np.abs(r[:, 0] - oracle)) < 1e-8 * np.max(np.abs(oracle))


BAD_ASDS = (np.nan, 0.0, -1.0, np.inf)


def _no_quadrature(*args):
    raise AssertionError("quadrature reached with a bad ASD")


def test_spatial_correlation_requires_positive_asd(monkeypatch):
    monkeypatch.setattr(channel, "_converged_rows", _no_quadrature)
    for asd in BAD_ASDS:
        with pytest.raises(ValueError):
            spatial_correlation(0.0, asd, 1.0, 2)


def test_channel_statistics_rejects_bad_asd(monkeypatch):
    monkeypatch.setattr(channel, "_converged_rows", _no_quadrature)
    scn = generate_scenario(SimConfig(L=3, K=4, N=3), 0)
    for asd in BAD_ASDS:
        with pytest.raises(ValueError):
            channel_statistics(scn, 0, asd)


def test_spatial_correlation_node_budget_exhaustion():
    from scfsim.channel import QuadratureError
    with pytest.raises(QuadratureError):
        spatial_correlation(0.3, np.radians(15), 1.0, 4, rtol=1e-30,
                            max_nodes=256)


def test_statistics_invariants():
    _, stats, *_ = small_system(L=3, K=5, N=3, tau=2, seed=11)
    for k in range(stats.K):
        for l in range(stats.L):
            r = stats.R[k, l]
            assert np.max(np.abs(r - r.conj().T)) < 1e-12
            trace = np.trace(r).real
            assert np.isclose(trace, stats.N * stats.beta_nlos[k, l], rtol=1e-8)
            assert np.min(np.linalg.eigvalsh(hermitize(r))) > -1e-10 * trace
            assert np.isclose(stats.beta_los[k, l] + stats.beta_nlos[k, l],
                              stats.beta[k, l], rtol=1e-12)
            norm = np.vdot(stats.h_bar[k, l], stats.h_bar[k, l]).real
            assert np.isclose(norm, stats.N * stats.beta_los[k, l], rtol=1e-12)


def test_min_distance_floor():
    from scfsim.channel import Scenario
    pos = np.array([[5.0, 5.0]])
    scn = Scenario(area_side=10.0, ap_positions=pos, ue_positions=pos.copy(),
                   antennas_per_ap=1)
    stats = channel_statistics(scn, 0, np.radians(15))
    # collocated UE/AP is priced at the 1 m reference distance
    shadow_db = 10 * np.log10(stats.beta[0, 0]) + 30.5
    assert abs(shadow_db) < 40        # finite, shadow fading only
    assert stats.kappa[0, 0] == pytest.approx(rician_factor(MIN_DISTANCE_M))


def test_sample_channel_pure_los():
    _, stats, *_ = small_system(seed=2)
    link = stats.link(0, 0)
    pure = type(link)(beta=link.beta, kappa=link.kappa, theta=link.theta,
                      beta_los=link.beta_los, beta_nlos=0.0, h_bar=link.h_bar,
                      R=np.zeros_like(link.R))
    h = sample_channel(pure, substream(0, "los"))
    assert np.array_equal(h, pure.h_bar)


def test_sample_channel_moments_and_determinism():
    _, stats, *_ = small_system(L=1, K=1, N=2, tau=1, seed=4, fading="rayleigh")
    link = stats.link(0, 0)
    rng = substream(1, "mc")
    draws = np.array([sample_channel(link, rng) for _ in range(100000)])
    centered = draws - link.h_bar
    cov = np.einsum("bn,bm->nm", centered, np.conj(centered)) / len(draws)
    mean_stderr = 3 * np.sqrt(link.beta_nlos / len(draws))
    cov_stderr = 3 * link.beta_nlos / np.sqrt(len(draws))
    assert np.max(np.abs(draws.mean(0) - link.h_bar)) < mean_stderr
    assert np.max(np.abs(cov - link.R)) < 3 * cov_stderr
    a = sample_channel(link, substream(5, "det"))
    b = sample_channel(link, substream(5, "det"))
    assert np.array_equal(a, b)
