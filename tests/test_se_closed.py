import dataclasses

import numpy as np
import pytest

from scfsim.harness import distributed_closed_report
from scfsim.lsfd import build_ingredients, se_from_moments
from scfsim.pilots import build_estimation_context, round_robin_pilots
from scfsim.quantization import QuantizerConfig
from scfsim.scheduler import cluster_plan_from_indicators, full_cluster_plan
from scfsim.se_closed import se_centralized_closed, theorem1_kernel

from conftest import small_system, synthetic_stats
from oracles import f_kernels


def test_kernel_case4_rayleigh_is_zero():
    _, _, _, _, plan, ctx, _ = small_system(seed=40, fading="rayleigh")
    other = [i for i in range(4) if i not in plan.copilot_sets[0]][0]
    assert theorem1_kernel(0, other, 0, 1, ctx) == 0


def test_kernel_case4_is_los_product():
    _, stats, _, _, plan, ctx, _ = small_system(seed=41)
    other = [i for i in range(4) if i not in plan.copilot_sets[0]][0]
    got = theorem1_kernel(0, other, 0, 1, ctx)
    want = (np.vdot(stats.h_bar[0, 0], stats.h_bar[other, 0])
            * np.vdot(stats.h_bar[other, 1], stats.h_bar[0, 1]))
    assert got == pytest.approx(want, rel=1e-12)


def test_distributed_scalar_oracle():
    # one UE, one AP, ideal hardware, pure LOS: SINR = p ||h_bar||^2 / sigma^2
    stats = synthetic_stats([[0.3]], [[5.0]], [[0.4]], 2)
    stats.R[0, 0][:] = 0.0
    stats.beta_nlos[0, 0] = 0.0
    q0 = QuantizerConfig.ideal()
    plan = round_robin_pilots(1, 1)
    p = np.array([4.0])
    sigma2 = 2e-3
    ctx = build_estimation_context(stats, plan, p, q0, sigma2)
    cluster = cluster_plan_from_indicators(np.ones((1, 1), dtype=bool),
                                           np.zeros(1, dtype=int))
    moments = build_ingredients(ctx, cluster)[0]
    prelog = 0.9
    norm2 = np.vdot(stats.h_bar[0, 0], stats.h_bar[0, 0]).real
    expected = prelog * np.log2(1 + p[0] * norm2 / sigma2)
    assert se_from_moments(moments, "lsfd", prelog) == pytest.approx(
        expected, rel=1e-10)


def test_corollary_consistency_and_scale_invariance():
    _, _, _, _, _, ctx, cluster = small_system(seed=42)
    prelog = 0.95
    for m in build_ingredients(ctx, cluster):
        # the LSFD SE is the Rayleigh-quotient optimum p̈ s^H C_k^{-1} s
        quotient = m.one_ad2 * m.p_ddot_k * np.real(
            np.vdot(m.signal, np.linalg.solve(m.c_full, m.signal)))
        best = se_from_moments(m, "lsfd", prelog)
        assert best == pytest.approx(prelog * np.log2(1 + quotient), rel=1e-10)
        # rescaling g_kk (the combiner) leaves every weighting's SE unchanged
        scaled = dataclasses.replace(m, signal=5.0 * m.signal,
                                     c_full=25.0 * m.c_full,
                                     c_partial=25.0 * m.c_partial)
        for weighting in ("lsfd", "plsfd", "l2"):
            assert se_from_moments(scaled, weighting, prelog) == pytest.approx(
                se_from_moments(m, weighting, prelog), rel=1e-10)
    with pytest.raises(ValueError, match="all-zero"):
        se_from_moments(dataclasses.replace(m, signal=0.0 * m.signal), "lsfd",
                        prelog)


def test_prelog_scales_linearly():
    _, _, _, _, _, ctx, cluster = small_system(seed=43)
    m = build_ingredients(ctx, cluster)[0]
    se1 = se_from_moments(m, "lsfd", 1.0)
    assert se_from_moments(m, "lsfd", 0.25) == pytest.approx(0.25 * se1, rel=1e-14)
    assert se_centralized_closed(ctx, cluster, 0.5) == pytest.approx(
        0.5 * se_centralized_closed(ctx, cluster, 1.0), rel=1e-14)


def test_f_kernels_orthogonal_pilot_has_no_copilot_term():
    _, _, _, _, plan, ctx, cluster = small_system(seed=44)
    other = [i for i in range(4) if i not in plan.copilot_sets[0]][0]
    copilot = [i for i in plan.copilot_sets[0] if i != 0][0]
    _, f_e = f_kernels(0, ctx, cluster)
    assert f_e[other] == 0.0
    f_e_cp = f_e[copilot]
    assert f_e_cp != 0.0


def test_f_kernels_rayleigh_drops_los_terms():
    _, stats, _, _, _, ctx, cluster = small_system(seed=45, fading="rayleigh")
    q = ctx.q
    one_ad2 = (1 - q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot
    k, i = 0, 1
    f_g = f_kernels(k, ctx, cluster)[0][i]
    trace_only = one_ad2**2 * tau**2 * p[k] * p[i] * sum(
        np.trace(ctx.s_mat[k, l] @ ctx.s_mat[i, l]).real
        for l in cluster.serving[k])
    assert f_g == pytest.approx(trace_only, rel=1e-12)


def test_se_monotone_in_resolution():
    # per-UE closed-form SE never decreases as either converter gains bits
    base = small_system(L=3, K=4, N=2, tau=2, seed=46)
    stats, plan = base[1], base[4]
    prelog = 0.95
    from scfsim.scheduler import equal_power_plan

    def sweep(fixed_da, fixed_ad, vary):
        prev = None
        for b in range(1, 9):
            b_da = b if vary == "da" else fixed_da
            b_ad = b if vary == "ad" else fixed_ad
            q = QuantizerConfig(b_da=b_da, b_ad=b_ad)
            powers = equal_power_plan(4, 100.0, q.rho_da)
            ctx = build_estimation_context(stats, plan, powers.p_ddot, q,
                                           base[0].sigma2_mw)
            cluster = full_cluster_plan(stats)
            se = distributed_closed_report(ctx, cluster, "lsfd", prelog).se
            if prev is not None:
                assert np.all(se >= prev - 1e-12)
            prev = se

    sweep(fixed_da=1, fixed_ad=None, vary="ad")
    sweep(fixed_da=None, fixed_ad=2, vary="da")
