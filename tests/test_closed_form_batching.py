"""The batched closed forms against explicit per-UE and per-pair loops.

The oracles below are the per-interferer formulas written out one UE pair
and one serving AP at a time; ``oracles`` holds the per-UE builders. On
Rician and Rayleigh fading, under the full cluster plan and under the
scheduled (Algorithm 1) plan, the per-UE centralized kernels must agree with
the per-pair loops to 1e-12 relative and the per-UE LSFD matrices, which
keep the loop's order of additions, exactly. The all-UE closed forms
(one pass over the APs) must agree with the per-UE builders to 1e-12
relative.
"""

import os

import numpy as np
import pytest

from scfsim.config import WEIGHTINGS, SimConfig, load_config
from scfsim.detectors import local_statics
from scfsim.harness import build_system
from scfsim.lsfd import build_ingredients, se_from_moments
from scfsim.scheduler import full_cluster_plan
from scfsim.se_closed import se_centralized_closed

import oracles

REL = 1e-12


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(got - want)) <= REL * scale


@pytest.fixture(scope="module",
                params=[(f, p) for f in ("rician", "rayleigh")
                        for p in ("full", "algorithm1")],
                ids=lambda fp: f"{fp[0]}-{fp[1]}")
def system(request):
    fading, plan = request.param
    cfg = SimConfig(L=6, K=9, N=2, tau=3, area_side=400.0, b_da=2, b_ad=3,
                    fading=fading)
    ctx, cluster, _ = build_system(cfg, 11)
    if plan == "full":
        cluster = full_cluster_plan(ctx.stats)
    else:
        assert any(len(m) < ctx.L for m in cluster.serving)
    return ctx, cluster


# ---------------------------------------------------------------------------
# per-pair oracles
# ---------------------------------------------------------------------------

def _f_kernels_pair(k, i, ctx, cluster):
    """(f^g, f^e) of one UE pair, one serving AP at a time."""
    stats = ctx.stats
    serving = cluster.serving[k]
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot
    h_bar_k = stats.h_bar[k, serving].reshape(-1)
    h_bar_i = stats.h_bar[i, serving].reshape(-1)
    los_cross = np.vdot(h_bar_k, h_bar_i)

    f_g = np.abs(los_cross) ** 2
    tr_mix = quad_ki = quad_ik = tr_cross = 0.0
    t_mat, s_mat = oracles.estimator_products(ctx)
    for l in serving:
        s_k, s_i = s_mat[k, l], s_mat[i, l]
        tr_mix += np.trace(s_k @ s_i).real
        quad_ki += np.vdot(stats.h_bar[k, l], s_i @ stats.h_bar[k, l]).real
        quad_ik += np.vdot(stats.h_bar[i, l], s_k @ stats.h_bar[i, l]).real
        tr_cross += np.trace(stats.R[i, l] @ t_mat[k, l]).real
    f_g += one_ad2**2 * tau**2 * p[k] * p[i] * tr_mix
    f_g += one_ad2 * tau * p[i] * quad_ki
    f_g += one_ad2 * tau * p[k] * quad_ik

    if i in oracles.copilot_sets(ctx.plan.pilot_of)[k]:
        f_e = one_ad2**2 * tau**2 * p[k] * p[i] * tr_cross**2
        f_e += 2.0 * one_ad2 * tau * np.sqrt(p[i] * p[k]) * np.real(
            tr_cross * np.vdot(h_bar_i, h_bar_k))
    else:
        f_e = 0.0
    return float(f_g), float(f_e)


def _se_centralized_pairwise(k, ctx, cluster, prelog):
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    num_g, num_e = _f_kernels_pair(k, k, ctx, cluster)
    num = one_ad2 * p[k] * (num_g + num_e)
    interference = 0.0
    for i in range(ctx.K):
        if i != k:
            f_g, f_e = _f_kernels_pair(k, i, ctx, cluster)
            interference += p[i] * (f_g + f_e)
    noise = 0.0
    for l in cluster.serving[k]:
        h_bar = ctx.stats.h_bar[k, l]
        e_hh = np.outer(h_bar, np.conj(h_bar)) + ctx.c_hhat[k, l]
        noise += np.trace(ctx.w[l] @ e_hh).real
    return prelog * np.log2(1.0 + num / (one_ad2 * interference + noise))


def _interference_outer(ing, ctx, sum_set, copilot_set):
    """C_k as a sum of per-interferer outer products."""
    p, k = ctx.p_ddot, ing.k
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    m = len(ing.serving)
    acc = np.zeros((m, m), dtype=complex)
    for i in sum_set:
        acc += p[i] * (np.outer(ing.lam[i], np.conj(ing.lam[i]))
                       + np.diag(ing.c[i]))
    for i in copilot_set:
        acc += p[i] * (np.outer(ing.b[i], ing.b[i])
                       + np.outer(ing.b[i], np.conj(ing.lam[i]))
                       + np.outer(ing.lam[i], ing.b[i]))
    acc *= one_ad2 / (1.0 - ctx.q.rho_da)
    signal = ing.moments.signal[0]
    acc -= one_ad2 * p[k] * np.outer(signal, np.conj(signal))
    acc += np.diag(ing.d)
    return 0.5 * (acc + acc.conj().T)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_vector_f_kernels_match_pairwise(system):
    ctx, cluster = system
    for k in range(ctx.K):
        f_g, f_e = oracles.f_kernels(k, ctx, cluster)
        want = np.array([_f_kernels_pair(k, i, ctx, cluster)
                         for i in range(ctx.K)])
        _assert_close(f_g, want[:, 0])
        _assert_close(f_e, want[:, 1])
        off_pilot = ctx.plan.pilot_of != ctx.plan.pilot_of[k]
        assert np.all(f_e[off_pilot] == 0.0)


def test_se_centralized_closed_matches_pairwise(system):
    ctx, cluster = system
    got = se_centralized_closed(ctx, cluster, 0.95)
    for k in range(ctx.K):
        want = _se_centralized_pairwise(k, ctx, cluster, 0.95)
        assert abs(got[k] - want) <= REL * want


def test_lsfd_matrices_match_outer_products(system):
    ctx, cluster = system
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    t_mat, _ = oracles.estimator_products(ctx)
    for k in range(ctx.K):
        ing = oracles.build_ingredients(k, ctx, cluster)
        copilot = oracles.copilot_sets(ctx.plan.pilot_of)[k]
        b_want = np.zeros_like(ing.b)
        for i in copilot:
            b_want[i] = [one_ad2 * ctx.tau * np.sqrt(p[k] * p[i]) * np.trace(
                ctx.stats.R[i, l] @ t_mat[k, l]).real for l in ing.serving]
        _assert_close(ing.b, b_want)
        # same additions in the same order as the loop: equal, not just close
        overlap = cluster.overlap[k]
        assert np.array_equal(
            ing.moments.c_full[0],
            _interference_outer(ing, ctx, range(ctx.K), copilot))
        assert np.array_equal(ing.moments.c_partial[0], _interference_outer(
            ing, ctx, overlap, sorted(set(copilot) & set(overlap))))


# ---------------------------------------------------------------------------
# the all-UE closed forms against the per-UE builders
# ---------------------------------------------------------------------------

DESK_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "desk_scale.json")
NETWORKS = {
    "L6-K9-N2": dict(L=6, K=9, N=2, tau=3, area_side=400.0, b_da=2, b_ad=3),
    "L4-K5-N1": dict(L=4, K=5, N=1, tau=1, area_side=400.0, b_da=2, b_ad=3),
    "desk": None,
}


@pytest.mark.parametrize("plan", ("full", "algorithm1"))
@pytest.mark.parametrize("fading", ("rician", "rayleigh"))
@pytest.mark.parametrize("network", NETWORKS)
def test_all_ue_closed_forms_match_per_ue_oracles(network, fading, plan):
    base = NETWORKS[network]
    cfg = load_config(DESK_CONFIG) if base is None else SimConfig(**base)
    ctx, cluster, _ = build_system(cfg.replace(fading=fading), 11)
    if plan == "full":
        cluster = full_cluster_plan(ctx.stats)
    else:       # UEs of several |M_k| go through separate batches
        assert len(np.unique(cluster.D.sum(axis=1))) > 1

    moments = build_ingredients(ctx, cluster)
    # every UE sits in exactly one class row
    assert np.array_equal(np.sort(np.concatenate([m.ues for m in moments])),
                          np.arange(ctx.K))
    se = {w: se_from_moments(moments, w, 0.95) for w in WEIGHTINGS}
    for k in range(ctx.K):
        want = oracles.build_ingredients(k, ctx, cluster).moments
        row = oracles.ue_row(moments, k)
        for field in ("signal", "c_full", "c_partial"):
            _assert_close(getattr(row, field), getattr(want, field))
        assert np.array_equal(row.p_ddot, want.p_ddot)
        assert row.one_ad2 == want.one_ad2
        for weighting in WEIGHTINGS:
            got = se[weighting][k]
            want_se = oracles.se_from_moments(want, weighting, 0.95)
            assert abs(got - want_se) <= REL * got

    got = se_centralized_closed(ctx, cluster, 0.95)
    want = np.array([oracles.se_centralized_closed(k, ctx, cluster, 0.95)
                     for k in range(ctx.K)])
    assert np.all(np.abs(got - want) <= REL * want)


# ---------------------------------------------------------------------------
# the per-AP error-plus-noise matrices of the estimation context
# ---------------------------------------------------------------------------

def test_context_w_is_the_former_error_noise_builder(system):
    """``ctx.w``, built with the context, equals bit for bit the former
    builder that rebuilt the receive noise for every UE on every AP."""
    ctx, _ = system
    assert np.array_equal(ctx.w, oracles.centralized_error_noise(ctx))


def _lmmse_static_formula(ctx):
    """The L-MMSE static part as the former dedicated helper computed it."""
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    static = oracles.receive_noise(ctx)
    for l in range(ctx.L):
        static[l] += one_ad2 * np.einsum(
            "i,inm->nm", ctx.p_ddot, ctx.stats.R[:, l] - ctx.c_hhat[:, l])
    return static


def test_lmmse_static_part_is_bit_identical(system):
    ctx, cluster = system
    want = _lmmse_static_formula(ctx)
    assert np.array_equal(ctx.w, want)
    # the per-AP static parts of the shared builder (every AP, one at a time)
    for l, (static, est) in enumerate(local_statics(ctx, cluster, "lmmse")):
        assert np.array_equal(static, want[l])
        assert np.array_equal(est, np.arange(ctx.K))
