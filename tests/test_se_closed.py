import dataclasses

import numpy as np
import pytest

from scfsim.config import SimConfig
from scfsim.harness import distributed_closed_report
from scfsim.lsfd import _ap_kernels, build_ingredients, se_from_moments
from scfsim.pilots import build_estimation_context, round_robin_pilots
from scfsim.quantization import QuantizerConfig
from scfsim.scheduler import ClusterPlan, full_cluster_plan, run_algorithm1
from scfsim.se_closed import se_centralized_closed, theorem1_kernel
from scfsim.validation import desk_validation_config

from conftest import small_system, synthetic_stats
from oracles import (cluster_sets, copilot_sets, estimator_products, f_kernels,
                     ue_row)
from oracles import theorem1_kernel as theorem1_kernel_four_case


def _desk_drop(fading):
    """The drop ``scfsim validate`` checks the Theorem-1 kernel on."""
    cfg = desk_validation_config(SimConfig(fading=fading))
    return small_system(L=cfg.L, K=cfg.K, N=cfg.N, tau=cfg.tau, b_da=cfg.b_da,
                        b_ad=cfg.b_ad, seed=cfg.seed, fading=fading,
                        side=cfg.area_side, p_max=cfg.p_max_mw)


@pytest.mark.parametrize("drop", (
    lambda: _desk_drop("rician"),
    lambda: _desk_drop("rayleigh"),
    lambda: small_system(L=6, K=9, N=2, tau=4, seed=47),
), ids=("desk-rician", "desk-rayleigh", "L6-K9-N2"))
def test_kernel_matches_four_case_formula(drop):
    """The kernel read from the AP kernel table is the four-case formula,
    for every (k, i, l1, l2); exact zeros stay exact."""
    ctx = drop()[5]
    zeros = 0
    for k in range(ctx.K):
        for i in range(ctx.K):
            for l1 in range(ctx.L):
                for l2 in range(ctx.L):
                    got = theorem1_kernel(k, i, l1, l2, ctx)
                    want = theorem1_kernel_four_case(k, i, l1, l2, ctx)
                    if want == 0:
                        zeros += 1
                        assert got == 0, (k, i, l1, l2)
                    assert abs(got - want) <= 1e-12 * abs(want), (k, i, l1, l2)
    if ctx.stats.h_bar.any():
        assert zeros == 0
    else:       # Rayleigh: every orthogonal cross-AP kernel is exactly zero
        pilot = ctx.plan.pilot_of
        orthogonal = np.count_nonzero(pilot[:, None] != pilot[None, :])
        assert zeros == orthogonal * ctx.L * (ctx.L - 1)


@pytest.mark.parametrize("centralized", (False, True))
def test_one_ue_kernel_blocks_are_a_column_of_the_served_blocks(centralized):
    """``theorem1_kernel``'s one-UE call reads the numbers the closed forms'
    call over an AP's served UEs reads."""
    _, stats, q, _, _, _, _ = small_system(L=6, K=9, N=2, tau=4, seed=48)
    cluster, plan, powers = run_algorithm1(stats, q, 4, 100.0)
    cfg = SimConfig(L=6, K=9, N=2, tau=4)
    ctx = build_estimation_context(stats, plan, powers, q, cfg.sigma2_mw)
    checked = 0
    for l in range(ctx.L):
        for served in (np.asarray(cluster_sets(cluster).served[l], dtype=int),
                       np.arange(ctx.K)):
            table = _ap_kernels(ctx, l, served, centralized)
            for j, k in enumerate(served):
                column = _ap_kernels(ctx, l, [k], centralized)
                assert len(column) == len(table)
                # a one-column matmul may round apart from a wider one, so
                # each family's column is compared against its largest entry
                for got, want in zip(column, table):
                    assert got.shape == (ctx.K, 1)
                    gap = np.max(np.abs(got[:, 0] - want[:, j]))
                    assert gap <= 1e-14 * np.max(np.abs(want[:, j]))
                checked += 1
    assert checked > ctx.K * ctx.L


def test_kernel_case4_rayleigh_is_zero():
    _, _, _, _, plan, ctx, _ = small_system(seed=40, fading="rayleigh")
    other = [i for i in range(4) if i not in copilot_sets(plan.pilot_of)[0]][0]
    assert theorem1_kernel(0, other, 0, 1, ctx) == 0


def test_kernel_case4_is_los_product():
    _, stats, _, _, plan, ctx, _ = small_system(seed=41)
    other = [i for i in range(4) if i not in copilot_sets(plan.pilot_of)[0]][0]
    got = theorem1_kernel(0, other, 0, 1, ctx)
    want = (np.vdot(stats.h_bar[0, 0], stats.h_bar[other, 0])
            * np.vdot(stats.h_bar[other, 1], stats.h_bar[0, 1]))
    assert got == pytest.approx(want, rel=1e-12)


def test_distributed_scalar_oracle():
    # one UE, one AP, ideal hardware, pure LOS: SINR = p ||h_bar||^2 / sigma^2
    stats = synthetic_stats([[0.3]], [[5.0]], [[0.4]], 2)
    stats.R[0, 0][:] = 0.0
    stats.beta_nlos[0, 0] = 0.0
    q0 = QuantizerConfig()
    plan = round_robin_pilots(1, 1)
    p = np.array([4.0])
    sigma2 = 2e-3
    ctx = build_estimation_context(stats, plan, p, q0, sigma2)
    cluster = ClusterPlan(np.ones((1, 1), dtype=bool),
                          np.zeros(1, dtype=int))
    prelog = 0.9
    norm2 = np.vdot(stats.h_bar[0, 0], stats.h_bar[0, 0]).real
    expected = prelog * np.log2(1 + p[0] * norm2 / sigma2)
    se = se_from_moments(build_ingredients(ctx, cluster), "lsfd", prelog)
    assert se[0] == pytest.approx(expected, rel=1e-10)


def test_corollary_consistency_and_scale_invariance():
    _, _, _, _, _, ctx, cluster = small_system(seed=42)
    prelog = 0.95
    classes = build_ingredients(ctx, cluster)
    for k in range(ctx.K):
        m = ue_row(classes, k)
        # the LSFD SE is the Rayleigh-quotient optimum p̈ s^H C_k^{-1} s
        quotient = m.one_ad2 * m.p_ddot[0] * np.real(
            np.vdot(m.signal[0], np.linalg.solve(m.c_full[0], m.signal[0])))
        best = se_from_moments((m,), "lsfd", prelog)[0]
        assert best == pytest.approx(prelog * np.log2(1 + quotient), rel=1e-10)
        # rescaling g_kk (the combiner) leaves every weighting's SE unchanged
        scaled = dataclasses.replace(m, signal=5.0 * m.signal,
                                     c_full=25.0 * m.c_full,
                                     c_partial=25.0 * m.c_partial)
        for weighting in ("lsfd", "plsfd", "l2"):
            assert se_from_moments((scaled,), weighting, prelog) == \
                pytest.approx(se_from_moments((m,), weighting, prelog),
                              rel=1e-10)
    with pytest.raises(ValueError, match="all-zero"):
        se_from_moments((dataclasses.replace(m, signal=0.0 * m.signal),),
                        "lsfd", prelog)
    # one UE's zero signal in a class of several still raises, under either
    # solved weighting
    crowded = max(range(len(classes)), key=lambda c: len(classes[c].ues))
    assert len(classes[crowded].ues) > 1
    signal = classes[crowded].signal.copy()
    signal[1] = 0.0
    zeroed = list(classes)
    zeroed[crowded] = dataclasses.replace(classes[crowded], signal=signal)
    for weighting in ("lsfd", "plsfd"):
        with pytest.raises(ValueError, match="all-zero"):
            se_from_moments(tuple(zeroed), weighting, prelog)


def test_prelog_scales_linearly():
    _, _, _, _, _, ctx, cluster = small_system(seed=43)
    classes = build_ingredients(ctx, cluster)
    se1 = se_from_moments(classes, "lsfd", 1.0)
    assert se_from_moments(classes, "lsfd", 0.25) == pytest.approx(
        0.25 * se1, rel=1e-14)
    assert se_centralized_closed(ctx, cluster, 0.5) == pytest.approx(
        0.5 * se_centralized_closed(ctx, cluster, 1.0), rel=1e-14)


def test_f_kernels_orthogonal_pilot_has_no_copilot_term():
    _, _, _, _, plan, ctx, cluster = small_system(seed=44)
    other = [i for i in range(4) if i not in copilot_sets(plan.pilot_of)[0]][0]
    copilot = [i for i in copilot_sets(plan.pilot_of)[0] if i != 0][0]
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
    _, s_mat = estimator_products(ctx)
    trace_only = one_ad2**2 * tau**2 * p[k] * p[i] * sum(
        np.trace(s_mat[k, l] @ s_mat[i, l]).real
        for l in cluster.serving[k])
    assert f_g == pytest.approx(trace_only, rel=1e-12)


def test_se_monotone_in_resolution():
    # per-UE closed-form SE never decreases as either converter gains bits
    base = small_system(L=3, K=4, N=2, tau=2, seed=46)
    stats, plan = base[1], base[4]
    prelog = 0.95
    from scfsim.scheduler import equal_powers

    def sweep(fixed_da, fixed_ad, vary):
        prev = None
        for b in range(1, 9):
            b_da = b if vary == "da" else fixed_da
            b_ad = b if vary == "ad" else fixed_ad
            q = QuantizerConfig(b_da=b_da, b_ad=b_ad)
            powers = equal_powers(4, 100.0, q.rho_da)
            ctx = build_estimation_context(stats, plan, powers, q,
                                           base[0].sigma2_mw)
            cluster = full_cluster_plan(stats)
            se = distributed_closed_report(ctx, cluster, "lsfd", prelog).se
            if prev is not None:
                assert np.all(se >= prev - 1e-12)
            prev = se

    sweep(fixed_da=1, fixed_ad=None, vary="ad")
    sweep(fixed_da=None, fixed_ad=2, vary="da")
