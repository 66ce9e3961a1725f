import logging

import numpy as np
import pytest

from scfsim import lsfd
from scfsim.config import ConfigError, SimConfig
from scfsim.harness import build_system
from scfsim.lsfd import Moments, build_ingredients, lsfd_weights, se_from_moments
from scfsim.numerics import crandn, solve_hermitian
from scfsim.rng import substream
from scfsim.scheduler import full_cluster_plan
from scfsim.se_mc import distributed_mc_sums

from conftest import small_system
import oracles


def test_rayleigh_kills_los_alignment():
    _, stats, _, _, _, ctx, cluster = small_system(seed=30, fading="rayleigh")
    ing = oracles.build_ingredients(0, ctx, cluster)
    assert np.all(ing.lam == 0)
    assert np.all(ing.b >= 0) and np.all(ing.c >= 0) and np.all(ing.d > 0)


def test_b_defined_only_for_copilot():
    _, stats, _, _, plan, ctx, cluster = small_system(seed=31)
    ing = oracles.build_ingredients(0, ctx, cluster)
    for i in range(stats.K):
        if i in oracles.copilot_sets(plan.pilot_of)[0]:
            assert np.all(ing.b[i] > 0)
        else:
            assert np.all(ing.b[i] == 0)


def test_ingredients_match_monte_carlo_moments():
    _, stats, q, powers, plan, ctx, cluster = small_system(seed=32)
    k = 0
    m = oracles.ue_row(build_ingredients(ctx, cluster), k)
    trials = 150000
    rng = substream(8, "moments")
    m_idx = np.asarray(cluster.serving[k])
    g_sum = np.zeros(len(m_idx), dtype=complex)
    w_sum = np.zeros((len(m_idx),) * 2, dtype=complex)
    f_sum = np.zeros((len(m_idx),) * 2, dtype=complex)
    done = 0
    while done < trials:
        n = min(30000, trials - done)
        h, hhat = oracles.joint_batch(ctx, rng, n)
        noise = oracles.data_noise_batch(ctx, h, rng)
        v = hhat[:, k, m_idx, :]
        g = np.einsum("bmn,bimn->bim", np.conj(v), h[:, :, m_idx, :])
        g_sum += g[:, k].sum(axis=0)
        w_sum += np.einsum("i,bim,bin->mn", powers, g, np.conj(g))
        f = np.einsum("bmn,bmn->bm", np.conj(v), noise[:, m_idx, :])
        f_sum += np.einsum("bm,bn->mn", f, np.conj(f))
        done += n
    g_bar = g_sum / trials
    one_ad2 = (1 - q.rho_ad) ** 2
    b_hat = (one_ad2 * w_sum / trials + f_sum / trials
             - one_ad2 * powers[k] * np.outer(g_bar, np.conj(g_bar)))

    # E[g_kk] = lambda_k^k + b_k^k
    scale = np.abs(m.signal[0]).max()
    assert np.max(np.abs(g_bar - m.signal[0])) < 0.02 * scale
    # closed-form C_k = Monte Carlo B_k^d
    assert (np.linalg.norm(b_hat - m.c_full[0])
            / np.linalg.norm(m.c_full[0])) < 0.05


def test_optimal_weights_identity_matrix():
    g = np.array([[1 + 1j, 2.0, -3j]])
    m = Moments(ues=np.array([0]), signal=g, c_full=np.eye(3)[None],
                c_partial=2.0 * np.eye(3)[None], p_ddot=np.ones(1),
                one_ad2=1.0)
    assert np.allclose(lsfd_weights(m, "lsfd"), g)
    assert np.allclose(lsfd_weights(m, "plsfd"), g / 2.0)
    assert np.array_equal(lsfd_weights(m, "l2"), np.ones((1, 3)))
    with pytest.raises(ValueError, match="weighting"):
        lsfd_weights(m, "mr")


def _definite_stack(seed, n, m):
    """n Hermitian positive-definite (m, m) matrices and n right-hand sides."""
    rng = substream(seed, "solve-stack")
    x = crandn(rng, (n, m, m))
    return x @ np.conj(np.swapaxes(x, -1, -2)) + m * np.eye(m), crandn(rng, (n, m))


def _cholesky_2d(a, b):
    c = np.linalg.cholesky(a)
    return np.linalg.solve(np.conj(c.T), np.linalg.solve(c, b))


def test_solve_hermitian_falls_back_per_matrix(caplog):
    a, b = _definite_stack(14, 5, 3)
    a[2] = np.diag([2.0, -1e-14, 1.0])      # numerically indefinite
    with caplog.at_level(logging.WARNING, logger="scfsim.numerics"):
        x = solve_hermitian(a, b)
    ridge = [r for r in caplog.records if "ridge" in r.getMessage()]
    assert len(ridge) == len(caplog.records) == 1
    for j in (0, 1, 3, 4):
        assert np.array_equal(x[j], _cholesky_2d(a[j], b[j]))
    jitter = 1e-12 * np.trace(a[2]).real / 3
    assert np.array_equal(x[2], np.linalg.solve(a[2] + jitter * np.eye(3), b[2]))


def test_solve_hermitian_definite_stack_logs_nothing(caplog):
    a, b = _definite_stack(15, 6, 4)
    with caplog.at_level(logging.DEBUG, logger="scfsim.numerics"):
        x = solve_hermitian(a, b)
    assert not caplog.records
    for j in range(6):
        assert np.array_equal(x[j], _cholesky_2d(a[j], b[j]))


def test_bad_weighting_raises_before_any_solve(monkeypatch):
    _, _, _, _, _, ctx, cluster = small_system(seed=37)
    classes = build_ingredients(ctx, cluster)

    def no_solve(*args):
        raise AssertionError("solved before the weighting was checked")

    monkeypatch.setattr(lsfd, "solve_hermitian", no_solve)
    with pytest.raises(ConfigError, match="weighting"):
        se_from_moments(classes, "mr", 0.95)


def test_optimal_weights_maximality():
    _, _, q, powers, _, ctx, cluster = small_system(seed=33)
    m = oracles.ue_row(build_ingredients(ctx, cluster), 1)
    one_ad2 = (1 - q.rho_ad) ** 2
    signal, c_full = m.signal[0], m.c_full[0]

    def sinr(a):
        num = one_ad2 * m.p_ddot[0] * np.abs(np.vdot(a, signal)) ** 2
        return num / np.real(np.vdot(a, c_full @ a))

    best = sinr(lsfd_weights(m, "lsfd")[0])
    assert se_from_moments((m,), "lsfd", 1.0)[0] == pytest.approx(
        np.log2(1 + best), rel=1e-12)
    rng = substream(9, "rand-a")
    for _ in range(100):
        a = rng.standard_normal(len(signal)) + 1j * rng.standard_normal(len(signal))
        assert sinr(a) <= best * (1 + 1e-10)
    assert sinr(5.0 * lsfd_weights(m, "lsfd")[0]) == pytest.approx(best,
                                                                 rel=1e-12)


def test_plsfd_equals_lsfd_with_full_overlap():
    # full cluster plan: Q_k = {1..K}, M_k = {1..L}
    _, _, _, _, _, ctx, cluster = small_system(seed=34)
    for m in build_ingredients(ctx, cluster):
        assert np.allclose(lsfd_weights(m, "plsfd"), lsfd_weights(m, "lsfd"),
                           rtol=1e-10)
        assert np.allclose(m.c_partial, m.c_full, rtol=1e-12)


def test_l2_vector_and_se_ordering():
    _, _, _, _, _, ctx, cluster = small_system(seed=35)
    prelog = 0.95
    classes = build_ingredients(ctx, cluster)
    for m in classes:
        for k, ones in zip(m.ues, lsfd_weights(m, "l2")):
            assert np.array_equal(ones, np.ones(len(cluster.serving[k])))
    best = se_from_moments(classes, "lsfd", prelog)
    l2 = se_from_moments(classes, "l2", prelog)
    assert np.all(l2 <= best * (1 + 1e-12))


def test_single_ap_weight_scale_invariance():
    _, _, _, _, _, ctx, _ = small_system(L=1, K=3, N=2, tau=3, seed=36)
    from scfsim.scheduler import ClusterPlan
    cluster = ClusterPlan(np.ones((3, 1), dtype=bool),
                          np.zeros(3, dtype=int))
    classes = build_ingredients(ctx, cluster)
    prelog = 0.9
    best = se_from_moments(classes, "lsfd", prelog)
    one = se_from_moments(classes, "l2", prelog)
    assert one == pytest.approx(best, rel=1e-10)


# Moment-by-moment oracle: the Monte Carlo engine's own Moments against the
# closed-form bundle. Five independent MC seeds of ten stderr groups each give
# 50 group estimates per entry, so the z-scores follow Student's t with 49
# degrees of freedom; 6 group standard errors leaves a false alarm of about
# 2e-7 per entry, while a wrong or missing term sits far outside.
ORACLE_SEEDS = range(5)
ORACLE_TRIALS = 4000
ORACLE_Z = 6.0


@pytest.fixture(scope="module",
                params=[(f, p) for f in ("rician", "rayleigh")
                        for p in ("full", "algorithm1")],
                ids=lambda fp: f"{fp[0]}-{fp[1]}")
def mrc_moments(request):
    fading, plan = request.param
    cfg = SimConfig(L=6, K=9, N=2, tau=3, area_side=400.0, b_da=2, b_ad=3,
                    fading=fading)
    ctx, cluster, _ = build_system(cfg, 11)
    if plan == "full":
        cluster = full_cluster_plan(ctx.stats)
    else:
        assert any(len(q) < ctx.K for q in cluster.overlap)
    runs = [distributed_mc_sums(ctx, cluster, "mrc", ORACLE_TRIALS, seed)
            for seed in ORACLE_SEEDS]
    return ctx, cluster, runs


@pytest.mark.parametrize("field", ["signal", "c_full", "c_partial"])
def test_mc_moments_match_closed_form(mrc_moments, field):
    ctx, cluster, runs = mrc_moments
    closed = build_ingredients(ctx, cluster)
    pooled = [r.moments() for r in runs]
    grouped = [r.moments(slice(g, g + 1)) for r in runs for g in range(r.groups)]

    def ue_field(classes, k):
        return getattr(oracles.ue_row(classes, k), field)[0]

    worst = 0.0
    for k in range(ctx.K):
        want = ue_field(closed, k)
        got = np.mean([ue_field(m, k) for m in pooled], axis=0)
        per_group = np.array([ue_field(m, k) for m in grouped])
        floor = 1e-9 * np.max(np.abs(want))    # entries that are exactly zero
        for part in (np.real, np.imag):
            stderr = part(per_group).std(axis=0, ddof=1) / np.sqrt(len(per_group))
            z = np.abs(part(got) - part(want)) / np.maximum(stderr, floor)
            worst = max(worst, np.max(z))
    assert worst <= ORACLE_Z, f"{field}: max |z| {worst:.2f}"
