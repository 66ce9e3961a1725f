import numpy as np
import pytest

from scfsim.detectors import (centralized_combiners, centralized_error_noise,
                              centralized_system_matrices, embed_subspace,
                              l_mmse_local, local_combiners, lp_mmse_local,
                              mmse_centralized, mrc_local, p_mmse_centralized,
                              serving_subspace, ue_last)
from scfsim.numerics import crandn, hermitize
from scfsim.pilots import build_estimation_context
from scfsim.quantization import QuantizerConfig
from scfsim.rng import substream
from scfsim.sampling import sample_joint
from scfsim.scheduler import cluster_plan_from_indicators

from conftest import small_system


def test_mrc_identity_and_linearity():
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(mrc_local(e1), e1)
    v = np.array([1 + 1j, 2.0])
    assert np.allclose(mrc_local(3j * v), 3j * mrc_local(v))
    assert not np.any(mrc_local(np.zeros(2)))


def _instantaneous_sinr(v, hhat, k, static_err, p_ddot, one_ad2):
    """Generalized Rayleigh quotient the L-MMSE vector maximizes at one AP."""
    num = one_ad2 * p_ddot[k] * np.abs(np.vdot(v, hhat[k])) ** 2
    a = np.array(static_err, dtype=complex)
    for i in range(len(p_ddot)):
        if i != k:
            a += one_ad2 * p_ddot[i] * np.outer(hhat[i], np.conj(hhat[i]))
    return num / np.real(np.vdot(v, a @ v))


def test_lmmse_k1_collinear_with_estimate():
    _, stats, _, powers, plan, _, _ = small_system(L=1, K=1, N=3, tau=1,
                                                   b_da=None, b_ad=None, seed=17)
    q0 = QuantizerConfig.ideal()
    ctx = build_estimation_context(stats, plan, powers.p_ddot, q0, 1e-2)
    # ideal hardware with the estimate treated as exact: R == C_hhat
    ctx.c_hhat[0, 0] = stats.R[0, 0]
    hhat_l = crandn(substream(0, "h"), (1, 3), 1e-9)
    v = l_mmse_local(0, 0, hhat_l, ctx)
    cross = np.abs(np.vdot(v, hhat_l[0]))
    assert cross > (1 - 1e-10) * np.linalg.norm(v) * np.linalg.norm(hhat_l[0])


def test_lmmse_beats_mrc_instantaneous():
    _, stats, q, powers, plan, ctx, cluster = small_system(seed=18)
    trials = 100
    _, hhat = sample_joint(ctx, substream(1, "det"), trials)
    one_ad2 = (1 - q.rho_ad) ** 2
    l = 0
    static = np.array(ctx.c_n[l])
    for i in range(stats.K):
        static += one_ad2 * powers.p_ddot[i] * (stats.R[i, l] - ctx.c_hhat[i, l])
    v_all = local_combiners(hhat, ctx, cluster, "lmmse")
    won = 0
    for b in range(trials):
        h_l = hhat[b, :, l]
        s_mmse = _instantaneous_sinr(v_all[b, 0, l], h_l, 0, static,
                                     powers.p_ddot, one_ad2)
        s_mrc = _instantaneous_sinr(h_l[0], h_l, 0, static,
                                    powers.p_ddot, one_ad2)
        won += s_mmse >= s_mrc * (1 - 1e-10)
    assert won == trials


def test_lmmse_matches_ideal_rayleigh_formula():
    from scfsim import rayleigh_ideal as ideal
    _, stats, _, _, plan, _, _ = small_system(L=2, K=4, N=2, tau=2, seed=19,
                                              fading="rayleigh",
                                              b_da=None, b_ad=None)
    q0 = QuantizerConfig.ideal()
    p = np.full(4, 7.0)
    sigma2 = 3e-3
    ctx = build_estimation_context(stats, plan, p, q0, sigma2)
    hhat_l = crandn(substream(2, "h"), (4, 2), 1e-9)
    got = l_mmse_local(2, 1, hhat_l, ctx)
    want = ideal.ideal_lmmse(2, 1, hhat_l, stats, plan, p, sigma2)
    assert np.allclose(got, want, rtol=1e-8)


def test_lpmmse_reduces_to_lmmse_when_all_primary():
    _, stats, q, powers, plan, ctx, _ = small_system(L=1, K=3, N=2, tau=3, seed=20)
    # single AP serving everyone as primary: N_l^P covers all UEs
    cluster = cluster_plan_from_indicators(np.ones((3, 1), dtype=bool),
                                           np.zeros(3, dtype=int))
    hhat_l = crandn(substream(3, "h"), (3, 2), 1e-9)
    got = lp_mmse_local(1, 0, hhat_l, ctx, cluster)
    want = l_mmse_local(1, 0, hhat_l, ctx)
    assert np.allclose(got, want, rtol=1e-10)
    with pytest.raises(ValueError):
        d = np.ones((3, 1), dtype=bool)
        d[2, 0] = False
        bad = cluster_plan_from_indicators(d, np.zeros(3, dtype=int))
        lp_mmse_local(2, 0, hhat_l, ctx, bad)


def test_lpmmse_system_matrix_hermitian_pd():
    from scfsim.detectors import _lpmmse_static
    _, stats, q, powers, plan, ctx, cluster = small_system(L=3, K=5, N=2,
                                                           tau=2, seed=21)
    static = _lpmmse_static(ctx, cluster, full=False)
    for l in range(stats.L):
        assert np.max(np.abs(static[l] - static[l].conj().T)) < 1e-20
        assert np.min(np.linalg.eigvalsh(hermitize(static[l]))) > 0


def test_centralized_mmse_single_ap_equals_local():
    _, stats, q, powers, plan, ctx, cluster = small_system(L=1, K=3, N=2,
                                                           tau=3, seed=22)
    _, hhat = sample_joint(ctx, substream(4, "c"), 1)
    v_central = mmse_centralized(1, hhat[0], ctx, cluster)
    v_local = l_mmse_local(1, 0, hhat[0, :, 0], ctx)
    assert np.allclose(v_central, v_local, rtol=1e-10)


def test_centralized_masking_and_residual():
    _, stats, q, powers, plan, ctx, _ = small_system(L=3, K=4, N=2, tau=2, seed=23)
    d = np.zeros((4, 3), dtype=bool)
    d[:, 0] = True
    d[1, 2] = True
    d[3, 1] = True
    cluster = cluster_plan_from_indicators(d, np.zeros(4, dtype=int))
    _, hhat = sample_joint(ctx, substream(5, "c"), 1)
    for k in range(4):
        v = mmse_centralized(k, hhat[0], ctx, cluster)
        mask = np.repeat(d[k], stats.N)
        assert not np.any(v[~mask])
        v_p = p_mmse_centralized(k, hhat[0], ctx, cluster)
        assert not np.any(v_p[~mask])

    # solve residual on the subspace
    static, est = centralized_system_matrices(ctx, cluster, "mmse")[1]
    sub = hhat[0][:, cluster.serving[1], :].reshape(4, -1)
    a = static + (1 - q.rho_ad) ** 2 * np.einsum(
        "i,in,im->nm", powers.p_ddot[est], sub[est], np.conj(sub[est]))
    v_sub = centralized_combiners(serving_subspace(ue_last(hhat), cluster, 1),
                                  ctx, cluster, "mmse", 1)[0]
    resid = np.linalg.norm(a @ v_sub - sub[1]) / np.linalg.norm(sub[1])
    assert resid < 1e-8


def test_pmmse_full_overlap_equals_mmse():
    # every AP serves every UE: Q_k = all, primary set = all -> same system
    _, stats, q, powers, plan, ctx, cluster = small_system(L=2, K=3, N=2,
                                                           tau=3, seed=24)
    _, hhat = sample_joint(ctx, substream(6, "c"), 1)
    for k in range(3):
        v_m = mmse_centralized(k, hhat[0], ctx, cluster)
        v_p = p_mmse_centralized(k, hhat[0], ctx, cluster)
        assert np.allclose(v_m, v_p, rtol=1e-10)


def test_sinr_scale_invariance():
    _, stats, q, powers, plan, ctx, cluster = small_system(seed=25)
    w_full = centralized_error_noise(ctx)
    _, hhat = sample_joint(ctx, substream(7, "c"), 1)
    k = 0
    serving = cluster.serving[k]
    sub = hhat[0][:, serving, :].reshape(stats.K, -1)
    w_sub = np.zeros((len(serving) * stats.N,) * 2, dtype=complex)
    for j, l in enumerate(serving):
        sl = slice(j * stats.N, (j + 1) * stats.N)
        w_sub[sl, sl] = w_full[l]
    one_ad2 = (1 - q.rho_ad) ** 2

    def sinr(v):
        cross = np.conj(v) @ sub.T
        num = one_ad2 * powers.p_ddot[k] * np.abs(cross[k]) ** 2
        den = one_ad2 * np.sum(powers.p_ddot * np.abs(cross) ** 2) - num
        den += np.real(np.vdot(v, w_sub @ v))
        return num / den

    v = centralized_combiners(serving_subspace(ue_last(hhat), cluster, k),
                              ctx, cluster, "mmse", k)[0]
    assert sinr(v) == pytest.approx(sinr((0.3 - 2.2j) * v), rel=1e-10)


def test_pmmse_equals_mmse_when_neglected_ues_are_silent():
    # zero transmit power for every UE the partial detector drops or
    # statistically replaces -> identical system matrices, identical vectors
    cfg, stats, q, powers, plan, _, _ = small_system(L=3, K=5, N=2, tau=3,
                                                     seed=26)
    d = np.zeros((5, 3), dtype=bool)
    d[0, 0] = d[1, 0] = True       # UEs 0,1 share AP 0
    d[2, 1] = d[3, 1] = True       # UEs 2,3 on AP 1
    d[4, 2] = True
    cluster = cluster_plan_from_indicators(d, np.array([0, 0, 1, 1, 2]))
    k = 0
    from scfsim.scheduler import estimates_required
    kept = estimates_required("pmmse", cluster, k)
    p = powers.p_ddot.copy()
    for i in range(5):
        if i not in kept:
            p[i] = 0.0
    ctx = build_estimation_context(stats, plan, p, q, cfg.sigma2_mw)
    _, hhat = sample_joint(ctx, substream(8, "c"), 1)
    v_m = mmse_centralized(k, hhat[0], ctx, cluster)
    v_p = p_mmse_centralized(k, hhat[0], ctx, cluster)
    assert np.allclose(v_m, v_p, rtol=1e-10, atol=0)


def test_embed_subspace_layout():
    d = np.zeros((1, 3), dtype=bool)
    d[0, [0, 2]] = True
    cluster = cluster_plan_from_indicators(d, np.array([0]))
    v = embed_subspace(np.arange(4, dtype=complex), cluster, 0, 3, 2)
    assert np.array_equal(v, np.array([0, 1, 0, 0, 2, 3], dtype=complex))
