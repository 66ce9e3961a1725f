import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfsim.detectors import (centralized_combiners,
                              centralized_system_matrices, detector_sets,
                              local_statics, serving_subspace)
from scfsim.numerics import hermitize
from scfsim.pilots import build_estimation_context
from scfsim.quantization import QuantizerConfig
from scfsim.rng import substream
from scfsim.scheduler import ClusterPlan

from conftest import lmmse_at_ap, small_system
from oracles import (cluster_sets, joint_batch, local_combiners_full,
                     pilot_batch, receive_noise, ue_last)


LOCAL = ("lmmse", "lpmmse", "lpmmse-full")
CENTRALIZED = ("mmse", "pmmse", "pmmse-full")


def _centralized(method, k, hhat, ctx, cluster):
    """UE k's centralized combining vectors of a batch, on its subspace."""
    sub = serving_subspace(ue_last(hhat), cluster, k)
    static = centralized_system_matrices(ctx, cluster, method)[k]
    return centralized_combiners(sub, ctx, k, static)


def _instantaneous_sinr(v, hhat, k, static_err, p_ddot, one_ad2):
    """Generalized Rayleigh quotient the L-MMSE vector maximizes at one AP."""
    num = one_ad2 * p_ddot[k] * np.abs(np.vdot(v, hhat[k])) ** 2
    a = np.array(static_err, dtype=complex)
    for i in range(len(p_ddot)):
        if i != k:
            a += one_ad2 * p_ddot[i] * np.outer(hhat[i], np.conj(hhat[i]))
    return num / np.real(np.vdot(v, a @ v))


def test_lmmse_k1_collinear_with_estimate():
    _, stats, _, powers, plan, _, cluster = small_system(
        L=1, K=1, N=3, tau=1, b_da=None, b_ad=None, seed=17)
    q0 = QuantizerConfig()
    ctx = build_estimation_context(stats, plan, powers, q0, 1e-2)
    # ideal hardware with the estimate treated as exact: R == C_hhat
    ctx.c_hhat[0, 0] = stats.R[0, 0]
    z, hhat = pilot_batch(ctx, substream(0, "h"), 1)
    hhat_l = hhat[0, :, 0]
    v = lmmse_at_ap(z, 0, ctx, cluster)[0]
    cross = np.abs(np.vdot(v, hhat_l[0]))
    assert cross > (1 - 1e-10) * np.linalg.norm(v) * np.linalg.norm(hhat_l[0])


def test_lmmse_beats_mrc_instantaneous():
    _, stats, q, powers, plan, ctx, cluster = small_system(seed=18)
    trials = 100
    z, hhat = pilot_batch(ctx, substream(1, "det"), trials)
    one_ad2 = (1 - q.rho_ad) ** 2
    l = 0
    static = receive_noise(ctx)[l]
    for i in range(stats.K):
        static += one_ad2 * powers[i] * (stats.R[i, l] - ctx.c_hhat[i, l])
    v_all = local_combiners_full(z, ctx, cluster, "lmmse")
    won = 0
    for b in range(trials):
        h_l = hhat[b, :, l]
        s_mmse = _instantaneous_sinr(v_all[b, 0, l], h_l, 0, static,
                                     powers, one_ad2)
        s_mrc = _instantaneous_sinr(h_l[0], h_l, 0, static,
                                    powers, one_ad2)
        won += s_mmse >= s_mrc * (1 - 1e-10)
    assert won == trials


def test_lmmse_matches_ideal_rayleigh_formula():
    from scfsim import rayleigh_ideal as ideal
    _, stats, _, _, plan, _, cluster = small_system(
        L=2, K=4, N=2, tau=2, seed=19, fading="rayleigh", b_da=None, b_ad=None)
    q0 = QuantizerConfig()
    p = np.full(4, 7.0)
    sigma2 = 3e-3
    ctx = build_estimation_context(stats, plan, p, q0, sigma2)
    z, hhat = pilot_batch(ctx, substream(2, "h"), 1)
    hhat_l = hhat[0, :, 1]
    got = lmmse_at_ap(z, 1, ctx, cluster)[2]
    want = ideal.ideal_lmmse(2, 1, hhat_l, stats, plan, p, sigma2)
    assert np.allclose(got, want, rtol=1e-8)


def test_lpmmse_reduces_to_lmmse_when_all_primary():
    _, stats, q, powers, plan, ctx, _ = small_system(L=1, K=3, N=2, tau=3, seed=20)
    # single AP serving everyone as primary: N_l^P covers all UEs
    cluster = ClusterPlan(np.ones((3, 1), dtype=bool),
                          np.zeros(3, dtype=int))
    z = pilot_batch(ctx, substream(3, "h"), 1)[0]
    got = local_combiners_full(z, ctx, cluster, "lpmmse")
    want = local_combiners_full(z, ctx, cluster, "lmmse")
    assert np.allclose(got, want, rtol=1e-10)
    # a plan in which an AP would combine for a UE it does not serve (its
    # primary AP left out of its cluster) is rejected when it is built
    d = np.ones((3, 1), dtype=bool)
    d[2, 0] = False
    with pytest.raises(ValueError, match="primary AP of UE 2"):
        ClusterPlan(d, np.zeros(3, dtype=int))


def test_lpmmse_system_matrix_hermitian_pd():
    _, stats, q, powers, plan, ctx, cluster = small_system(L=3, K=5, N=2,
                                                           tau=2, seed=21)
    for static, _ in local_statics(ctx, cluster, "lpmmse"):
        assert np.max(np.abs(static - static.conj().T)) < 1e-20
        assert np.min(np.linalg.eigvalsh(hermitize(static))) > 0


def test_centralized_mmse_single_ap_equals_local():
    _, stats, q, powers, plan, ctx, cluster = small_system(L=1, K=3, N=2,
                                                           tau=3, seed=22)
    z, hhat = pilot_batch(ctx, substream(4, "c"), 1)
    v_central = _centralized("mmse", 1, hhat, ctx, cluster)[0]
    v_local = local_combiners_full(z, ctx, cluster, "lmmse")[0, 1, 0]
    assert np.allclose(v_central, v_local, rtol=1e-10)


def test_centralized_masking_and_residual():
    _, stats, q, powers, plan, ctx, _ = small_system(L=3, K=4, N=2, tau=2, seed=23)
    d = np.zeros((4, 3), dtype=bool)
    d[:, 0] = True
    d[1, 2] = True
    d[3, 1] = True
    cluster = ClusterPlan(d, np.zeros(4, dtype=int))
    _, hhat = joint_batch(ctx, substream(5, "c"), 1)
    # a centralized vector has entries on its serving APs only
    for k in range(4):
        for method in ("mmse", "pmmse"):
            v = _centralized(method, k, hhat, ctx, cluster)
            assert v.shape == (1, d[k].sum() * stats.N)
            assert np.all(np.isfinite(v)) and np.all(v != 0)

    # solve residual on the subspace
    static, est = centralized_system_matrices(ctx, cluster, "mmse")[1]
    sub = hhat[0][:, cluster.serving[1], :].reshape(4, -1)
    a = static + (1 - q.rho_ad) ** 2 * np.einsum(
        "i,in,im->nm", powers[est], sub[est], np.conj(sub[est]))
    v_sub = centralized_combiners(serving_subspace(ue_last(hhat), cluster, 1),
                                  ctx, 1, (static, est))[0]
    resid = np.linalg.norm(a @ v_sub - sub[1]) / np.linalg.norm(sub[1])
    assert resid < 1e-8


def test_pmmse_full_overlap_equals_mmse():
    # every AP serves every UE: Q_k = all, primary set = all -> same system
    _, stats, q, powers, plan, ctx, cluster = small_system(L=2, K=3, N=2,
                                                           tau=3, seed=24)
    _, hhat = joint_batch(ctx, substream(6, "c"), 1)
    for k in range(3):
        v_m = _centralized("mmse", k, hhat, ctx, cluster)
        v_p = _centralized("pmmse", k, hhat, ctx, cluster)
        assert np.allclose(v_m, v_p, rtol=1e-10)


def test_other_schemes_methods_are_rejected():
    _, _, _, _, _, ctx, cluster = small_system(seed=27)
    for method in ("lpmmse", "zf"):
        with pytest.raises(ValueError, match="centralized detector"):
            centralized_system_matrices(ctx, cluster, method)
    # MRC has no system matrix: one None per UE, as local_statics gives None
    assert centralized_system_matrices(ctx, cluster, "mrc") == [None] * ctx.K
    for method in ("pmmse", "zf"):
        with pytest.raises(ValueError, match="distributed detector"):
            local_statics(ctx, cluster, method)


def test_sinr_scale_invariance():
    _, stats, q, powers, plan, ctx, cluster = small_system(seed=25)
    w_full = ctx.w
    _, hhat = joint_batch(ctx, substream(7, "c"), 1)
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
        num = one_ad2 * powers[k] * np.abs(cross[k]) ** 2
        den = one_ad2 * np.sum(powers * np.abs(cross) ** 2) - num
        den += np.real(np.vdot(v, w_sub @ v))
        return num / den

    static = centralized_system_matrices(ctx, cluster, "mmse")[k]
    v = centralized_combiners(serving_subspace(ue_last(hhat), cluster, k),
                              ctx, k, static)[0]
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
    cluster = ClusterPlan(d, np.array([0, 0, 1, 1, 2]))
    k = 0
    kept = set(detector_sets(cluster, "pmmse", k)[2])
    p = powers.copy()
    for i in range(5):
        if i not in kept:
            p[i] = 0.0
    ctx = build_estimation_context(stats, plan, p, q, cfg.sigma2_mw)
    _, hhat = joint_batch(ctx, substream(8, "c"), 1)
    v_m = _centralized("mmse", k, hhat, ctx, cluster)
    v_p = _centralized("pmmse", k, hhat, ctx, cluster)
    assert np.allclose(v_m, v_p, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# the detector set table
# ---------------------------------------------------------------------------

def _estimates_required(detector, plan, index):
    """Oracle: the estimate sets as ``scheduler.estimates_required`` stated
    them before the set table replaced it."""
    sets = cluster_sets(plan)
    if detector == "lpmmse":
        return set(sets.served_primary[index])
    if detector == "lpmmse-full":
        return set(sets.served[index])
    if detector == "pmmse":
        primary_set = set(sets.served[plan.primary[index]])
        return set(sets.overlap[index]) & primary_set
    if detector == "pmmse-full":
        return set(sets.overlap[index])
    raise ValueError(f"unknown detector tag {detector!r}")


@st.composite
def _cluster_plans(draw):
    n_ues, n_aps = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    primary = np.array(draw(st.lists(st.integers(0, n_aps - 1),
                                     min_size=n_ues, max_size=n_ues)))
    d = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n_aps,
                                        max_size=n_aps),
                               min_size=n_ues, max_size=n_ues)))
    d[np.arange(n_ues), primary] = True
    return ClusterPlan(d, primary)


@settings(max_examples=80, deadline=None)
@given(_cluster_plans())
def test_detector_sets_table(plan):
    every = set(range(plan.K))
    sets = cluster_sets(plan)
    for method in LOCAL + CENTRALIZED:
        local = method in LOCAL
        for index in range(plan.L if local else plan.K):
            aps, noise, est, stat = detector_sets(plan, method, index)
            for members in (aps, noise, est, stat):
                assert members.dtype == int and np.all(np.diff(members) > 0)
            assert aps.tolist() == ([index] if local
                                    else list(sets.serving[index]))
            if method in ("lmmse", "mmse"):
                assert set(noise) == set(est) == every and stat.size == 0
                continue
            assert set(est) == _estimates_required(method, plan, index)
            assert set(noise) == set(sets.served[index] if local
                                     else sets.overlap[index])
            # estimates and statistics split the noise set
            assert not set(est) & set(stat)
            assert set(est) | set(stat) == set(noise)
            if method.endswith("-full"):
                assert stat.size == 0
    with pytest.raises(ValueError):
        detector_sets(plan, "zf", 0)
