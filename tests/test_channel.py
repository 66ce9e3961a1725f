import numpy as np
import pytest

from scfsim import channel
from scfsim.channel import (MIN_DISTANCE_M, Scenario, channel_statistics,
                            generate_scenario, large_scale_fading,
                            rician_factor)
from scfsim.config import SimConfig
from scfsim.numerics import NotPositiveSemidefiniteError, hermitize
from scfsim.rng import substream

from conftest import small_system
from oracles import (los_steering, sample_channel, spatial_correlation,
                     toeplitz_psd)


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


def test_scenario_refuses_a_non_integer_antenna_count():
    """Scenario(..., antennas_per_ap=2.5) was accepted."""
    positions = np.array([[100.0, 200.0], [300.0, 400.0]])
    for n_ant in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^antennas_per_ap must be an integer"):
            Scenario(1000.0, positions, positions[:1], antennas_per_ap=n_ant)
    assert Scenario(1000.0, positions, positions[:1], antennas_per_ap=np.int64(2)).N == 2


def test_scenario_refuses_a_non_finite_area_side():
    """Scenario(nan, ...) and Scenario(inf, ...) were accepted: the check
    read ``area_side <= 0``, which is False for both."""
    positions = np.array([[100.0, 200.0]])
    for side in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="^area_side must be finite and > 0"):
            Scenario(side, positions, positions, antennas_per_ap=2)


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


# two that square to a subnormal float and to zero, then two wider than the
# half turn the config allows, whose rows took a minute to converge (1000
# degrees, N=4) or never did (1e4 degrees)
BAD_ASDS = (np.nan, 0.0, -1.0, np.inf, np.radians(1e-160), np.radians(1e-198),
            np.nextafter(np.pi, 4.0), np.radians(1e4))


def _no_quadrature(*args):
    raise AssertionError("quadrature reached with a bad ASD")


def test_channel_statistics_rejects_bad_asd(monkeypatch):
    monkeypatch.setattr(channel, "_converged_rows", _no_quadrature)
    scn = generate_scenario(SimConfig(L=3, K=4, N=3), 0)
    for asd in BAD_ASDS:
        with pytest.raises(ValueError):
            channel_statistics(scn, 0, asd)
    channel._check_asd(SimConfig(asd_deg=180).asd_rad)     # the widest one


def test_tiny_asd_whose_square_is_normal_builds_r():
    """At 1e-150 degrees the ASD's square is still a normal float: the
    config loads and R carries the NLOS power, trace N * beta."""
    cfg = SimConfig(asd_deg=1e-150)
    for n_ant in (2, 3):
        r = spatial_correlation(0.3, cfg.asd_rad, 0.7, n_ant)
        assert np.all(np.isfinite(r))
        assert abs(np.trace(r).real - n_ant * 0.7) <= 1e-12 * n_ant * 0.7


def test_spatial_correlation_node_budget_exhaustion(monkeypatch):
    """128 nodes is the first pass; with no budget for a second one, the
    quadrature cannot check its convergence. At N=8 and ASD 30 deg the
    Gauss-Legendre bound certifies nothing, so the node doubling runs."""
    assert channel._certified_gap(np.radians(30), 8) > channel.QUAD_RTOL / 2
    monkeypatch.setattr(channel, "QUAD_MAX_NODES", 128)
    with pytest.raises(channel.QuadratureError, match="within 128 nodes"):
        spatial_correlation(0.3, np.radians(30), 1.0, 8)


@pytest.mark.parametrize("asd_deg",
                         (0.01, 0.1, 0.5, 1, 5, 15, 30, 60, 180, 1000))
def test_64_node_pass_never_converges(asd_deg):
    """Why the node doubling starts at 128: the Gaussian weight sums at 64
    and 128 nodes differ by far more than QUAD_RTOL, and that sum is antenna
    0's entry of every row, so a 64 -> 128 check fails on every link."""
    asd = np.radians(asd_deg)
    sums = []
    for n_nodes in (64, 128):
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        delta = 20.0 * asd * x
        sums.append(np.sum(20.0 * asd * w / (np.sqrt(2.0 * np.pi) * asd)
                           * np.exp(-delta**2 / (2.0 * asd**2))))
    assert abs(sums[1] - sums[0]) >= 10 * channel.QUAD_RTOL * sums[1]
    thetas = np.linspace(-np.pi, np.pi, 9)
    coarse, fine = (channel._correlation_rows(thetas, asd, 3, n_nodes)
                    for n_nodes in (64, 128))
    scale = np.max(np.abs(fine), axis=1)
    assert np.all(np.abs(fine[:, 0] - coarse[:, 0])
                  >= 10 * channel.QUAD_RTOL * scale)


GRID_ASDS_DEG = (0.5, 2, 5, 10, 15, 20, 30, 45, 60)
GRID_N = (1, 2, 3, 4, 8, 16, 32, 64)


def _spy(monkeypatch, module, name):
    """Record the positional arguments of every call to module.name."""
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_certified_gap_never_contradicts_the_doubling(monkeypatch):
    """Where the Gauss-Legendre bound certifies a (ASD, N) pair, the node
    doubling with the certificate switched off stops at 256 nodes, and the
    certified pass, which runs 256 nodes only, returns the same bits."""
    thetas = np.random.default_rng(28).uniform(-np.pi, np.pi, 512)
    certified = [(a, n) for a in GRID_ASDS_DEG for n in GRID_N
                 if channel._certified_gap(np.radians(a), n)
                 <= channel.QUAD_RTOL / 2]
    assert {(15, 2), (15, 3), (15, 4)} <= set(certified)
    assert not {(15, 8), (30, 3), (5, 32), (2, 64)} & set(certified)
    calls = _spy(monkeypatch, channel, "_correlation_rows")

    def converged(a, n):
        calls.clear()
        rows = channel._converged_rows(thetas, np.radians(a), n)
        return rows, [args[3] for args in calls]

    fast = {}
    for a, n in certified:
        fast[a, n], nodes = converged(a, n)
        assert nodes == [256]
    monkeypatch.setattr(channel, "_certified_gap", lambda asd, n: np.inf)
    for a, n in certified:
        rows, nodes = converged(a, n)
        assert nodes == [128, 256], (a, n)
        assert np.array_equal(rows, fast[a, n])


def _rows(asd_deg, n_ant):
    thetas = np.random.default_rng(7).uniform(-np.pi, np.pi, 512)
    return channel._converged_rows(thetas, np.radians(asd_deg), n_ant)


def test_toeplitz_psd_skips_eigh_where_cholesky_proves_no_clip(monkeypatch):
    """At the paper's ASD 15 deg and N = 3 the shifted Cholesky succeeds,
    so the matrices come back without an ``eigh``, equal to the eigh-only
    assembly."""
    rows = _rows(15, 3)
    oracle = toeplitz_psd(rows)
    eigh_calls = _spy(monkeypatch, np.linalg, "eigh")
    assert np.array_equal(channel._toeplitz_psd(rows), oracle)
    assert eigh_calls == []


def test_toeplitz_psd_clips_like_the_eigh_assembly(monkeypatch):
    """At ASD 0.5 deg and N = 8 quadrature noise makes eigenvalues slightly
    negative: the Cholesky fails and the clip runs as in the eigh-only
    assembly."""
    rows = _rows(0.5, 8)
    clip_calls = _spy(monkeypatch, np, "clip")
    oracle = toeplitz_psd(rows)
    assert len(clip_calls) == 1
    assert np.array_equal(channel._toeplitz_psd(rows), oracle)


def test_toeplitz_psd_refuses_an_indefinite_chunk():
    rows = _rows(15, 3)
    rows[7, 1] = 2.0 * rows[7, 0]   # |off-diagonal| above the diagonal
    with pytest.raises(NotPositiveSemidefiniteError):
        toeplitz_psd(rows)
    with pytest.raises(NotPositiveSemidefiniteError):
        channel._toeplitz_psd(rows)


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
    h_bar = stats.h_bar[0, 0]
    h = sample_channel(h_bar, np.zeros_like(stats.R[0, 0]), substream(0, "los"))
    assert np.array_equal(h, h_bar)


def test_sample_channel_moments_and_determinism():
    _, stats, *_ = small_system(L=1, K=1, N=2, tau=1, seed=4, fading="rayleigh")
    h_bar, r, beta_nlos = stats.h_bar[0, 0], stats.R[0, 0], stats.beta_nlos[0, 0]
    rng = substream(1, "mc")
    draws = np.array([sample_channel(h_bar, r, rng) for _ in range(100000)])
    centered = draws - h_bar
    cov = np.einsum("bn,bm->nm", centered, np.conj(centered)) / len(draws)
    mean_stderr = 3 * np.sqrt(beta_nlos / len(draws))
    cov_stderr = 3 * beta_nlos / np.sqrt(len(draws))
    assert np.max(np.abs(draws.mean(0) - h_bar)) < mean_stderr
    assert np.max(np.abs(cov - r)) < 3 * cov_stderr
    a = sample_channel(h_bar, r, substream(5, "det"))
    b = sample_channel(h_bar, r, substream(5, "det"))
    assert np.array_equal(a, b)
