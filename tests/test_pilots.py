import numpy as np
import pytest

from scfsim.config import SimConfig
from scfsim.harness import build_system
from scfsim.numerics import hermitize
from scfsim.pilots import (block_diag_cov, build_estimation_context,
                           PilotPlan, psi_matrix, round_robin_pilots)
from scfsim.quantization import QuantizerConfig, received_noise_covariance
from scfsim.rng import substream
from scfsim.scheduler import equal_powers

from conftest import small_system, synthetic_stats
from oracles import (ap_local_noise, copilot_sets, estimate_local,
                     estimator_products, joint_batch, receive_noise)


def test_pilot_plan_membership():
    plan = round_robin_pilots(5, 2)
    for k in range(5):
        on_k = plan.users_on_pilot(plan.pilot_of[k])
        assert k in on_k and tuple(on_k.tolist()) == copilot_sets(plan.pilot_of)[k]
        for i in range(5):
            assert (i in on_k) == (plan.pilot_of[i] == plan.pilot_of[k])
    assert PilotPlan(2, [0, 1]).pilot_of.dtype == int
    with pytest.raises(ValueError):
        PilotPlan(2, [0, 3])


@pytest.mark.parametrize("pilot_of", (
    [0.5, 1.9, 2.99], np.array([0.0, 1.0, 2.0]), [True, 1, 2],
    np.array([True, False, True]), [[0, 1, 2]], np.zeros((3, 1), dtype=int),
    1, ["0", "1", "2"]), ids=("floats", "integral-floats", "bool-in-list",
                              "bool-array", "2-d-list", "2-d-array", "scalar",
                              "strings"))
def test_pilot_plan_rejects_malformed_pilots(pilot_of):
    """Non-integer pilots were floored ([0.5, 1.9, 2.99] read [0 1 2]), a bool
    read as pilot 1, and a 2-D pilot_of was accepted."""
    with pytest.raises(ValueError, match="pilot_of must be a 1-D array"):
        PilotPlan(3, pilot_of)


@pytest.mark.parametrize("tau, pilot_of", ((2.5, [0, 1, 2]), (True, [0, 0])),
                         ids=("float", "bool"))
def test_pilot_plan_refuses_a_non_integer_tau(tau, pilot_of):
    """A tau of 2.5 or True was accepted: the range check compared the
    pilots against it as a number."""
    with pytest.raises(ValueError, match=rf"^tau must be an integer >= 1, got {tau!r}"):
        PilotPlan(tau, pilot_of)


def test_round_robin_pilots_blames_a_float_tau():
    """round_robin_pilots(6, 3.0) failed on its float pilots, naming
    pilot_of, not the tau the caller passed."""
    with pytest.raises(ValueError, match=r"^tau must be an integer >= 1, got 3\.0"):
        round_robin_pilots(6, 3.0)


def test_pilot_plan_takes_any_integer_dtype():
    for dtype in (np.uint8, np.int32, np.int64):
        plan = PilotPlan(3, np.array([2, 0, 1], dtype=dtype))
        assert plan.pilot_of.dtype == int
        assert plan.pilot_of.tolist() == [2, 0, 1]


def test_pilot_plan_owns_read_only_pilots():
    """The plan kept the caller's pilot_of: editing it afterwards moved the
    plan's pilots past its range check. The plan now keeps a copy that
    cannot be written."""
    for dtype in (int, np.int32):
        pilot_of = np.array([2, 0, 1], dtype=dtype)
        plan = PilotPlan(3, pilot_of)
        pilot_of[:] = 7
        assert plan.pilot_of.tolist() == [2, 0, 1]
        with pytest.raises(ValueError, match="read-only"):
            plan.pilot_of[0] = 1
        assert plan.pilot_of.tolist() == [2, 0, 1]


def test_psi_single_user_ideal():
    _, stats, _, _, _, _, _ = small_system(L=1, K=1, N=2, tau=1, seed=6)
    q0 = QuantizerConfig()
    p = np.array([2.0])
    plan = round_robin_pilots(1, 1)
    sigma2 = 0.3
    c_n = received_noise_covariance(stats, p, q0, sigma2, [0], [0])
    psi = psi_matrix(0, stats, plan, p, q0, c_n)[0]
    expected = 2.0 * 1 * stats.R[0, 0] + sigma2 * np.eye(2)
    assert np.allclose(psi, expected, rtol=1e-12)


def test_psi_two_copilot_terms_and_psd_excess():
    _, stats, q, powers, plan, ctx, _ = small_system(L=2, K=4, N=2, tau=2)
    t, l = 0, 1
    users = plan.users_on_pilot(t)
    c_n = receive_noise(ctx)
    manual = np.array(c_n[l])
    for i in users:
        manual = manual + (1 - q.rho_ad) ** 2 * powers[i] * plan.tau * stats.R[i, l]
    psi = psi_matrix(t, stats, plan, powers, q, c_n)[l]
    assert np.allclose(psi, manual, rtol=1e-12)
    excess = hermitize(psi - c_n[l])
    assert np.min(np.linalg.eigvalsh(excess)) > -1e-12 * np.trace(excess).real


def _context(bits, fading, plan):
    """The estimation context of a 6-AP, 9-UE drop. The full plan is
    ``scfsim validate``'s (round-robin pilots, equal power); Algorithm 1
    picks the pilots and the powers."""
    cfg = SimConfig(L=6, K=9, N=3, tau=3, area_side=400.0, b_da=bits,
                    b_ad=bits, fading=fading)
    ctx, _, _ = build_system(cfg, 11)
    if plan == "full":
        ctx = build_estimation_context(
            ctx.stats, round_robin_pilots(cfg.K, cfg.tau),
            equal_powers(cfg.K, cfg.p_max_mw, ctx.q.rho_da), ctx.q,
            cfg.sigma2_mw)
    return ctx


@pytest.mark.parametrize("plan", ("full", "algorithm1"))
@pytest.mark.parametrize("fading", ("rician", "rayleigh"))
@pytest.mark.parametrize("bits", (1, 2))
def test_context_holds_the_estimator_gain_and_covariance(bits, fading, plan):
    """The two matrices both engines read, against Psi^{-1} R from the
    oracle's own solve: est_gain = (1-rho_ad) sqrt(p̈ tau) (Psi^{-1} R)^H and
    c_hhat = (1-rho_ad)^2 p̈ tau R Psi^{-1} R, each link to 1e-12 relative."""
    ctx = _context(bits, fading, plan)
    t_mat, s_mat = estimator_products(ctx)
    one_ad, p, tau = 1.0 - ctx.q.rho_ad, ctx.p_ddot, ctx.tau
    gain = (one_ad * np.sqrt(p * tau))[:, None, None, None] * np.conj(
        np.swapaxes(t_mat, -1, -2))
    cov = (one_ad**2 * p * tau)[:, None, None, None] * s_mat
    for got, want in ((ctx.est_gain, gain), (ctx.c_hhat, cov)):
        scale = np.max(np.abs(want), axis=(-2, -1))
        assert np.all(scale > 0)
        gap = np.max(np.abs(got - want), axis=(-2, -1))
        assert np.all(gap <= 1e-12 * scale)


@pytest.mark.parametrize("plan", ("full", "algorithm1"))
@pytest.mark.parametrize("fading", ("rician", "rayleigh"))
@pytest.mark.parametrize("bits", (None, 1, 4))
def test_context_holds_one_ap_local_noise_term(bits, fading, plan):
    """``nx``, thermal noise plus the ADC distortion of the ADC-input
    diagonal, is the former two-part formula (R's diagonal, then thermal
    noise plus the LOS powers) to 1e-14 relative: |h_bar_il,n|^2 is
    beta_los_il on a ULA."""
    ctx = _context(bits, fading, plan)
    want = ap_local_noise(ctx)
    assert ctx.nx.shape == (ctx.L, ctx.N) and ctx.nx.dtype == float
    assert np.all(np.abs(ctx.nx - want) <= 1e-14 * want)


def test_estimate_pure_los_link():
    beta = np.array([[0.5]])
    kappa = np.array([[1e9]])      # essentially no NLOS power
    stats = synthetic_stats(beta, kappa, np.zeros((1, 1)), 2)
    stats.R[0, 0][:] = 0.0         # exact pure-LOS link
    q = QuantizerConfig(b_da=1, b_ad=2)
    plan = round_robin_pilots(1, 1)
    ctx = build_estimation_context(stats, plan, np.array([1.0]), q, 1e-3)
    z = np.array([1 + 1j, -2.0])
    hhat = estimate_local(z, 0, 0, ctx)
    assert np.allclose(hhat, stats.h_bar[0, 0], atol=1e-12)


def test_estimate_covariance_and_error_orthogonality():
    _, stats, _, _, plan, ctx, _ = small_system(seed=9)
    trials = 60000
    h, hhat = joint_batch(ctx, substream(2, "est"), trials)
    k, l = 0, 1
    centered = hhat[:, k, l] - stats.h_bar[k, l]
    cov = np.einsum("bn,bm->nm", centered, np.conj(centered)) / trials
    scale = np.abs(ctx.c_hhat[k, l]).max()
    assert np.max(np.abs(cov - ctx.c_hhat[k, l])) < 3 * 3 * scale / np.sqrt(trials)
    err = h[:, k, l] - hhat[:, k, l]
    cross = np.einsum("bn,bm->nm", centered, np.conj(err)) / trials
    assert np.max(np.abs(cross)) < 4 * np.abs(stats.R[k, l]).max() / np.sqrt(trials)


def test_error_covariance_ordering():
    _, stats, _, _, _, ctx, _ = small_system(L=3, K=5, N=3, tau=2, seed=12)
    for k in range(stats.K):
        for l in range(stats.L):
            gap = hermitize(stats.R[k, l] - ctx.c_hhat[k, l])
            floor = -1e-10 * max(np.trace(stats.R[k, l]).real, 1e-300)
            assert np.min(np.linalg.eigvalsh(gap)) > floor


def test_joint_sampling_copilot_coupling_and_orthogonality():
    _, stats, q, powers, plan, ctx, _ = small_system(seed=10)
    trials = 120000
    h, hhat = joint_batch(ctx, substream(3, "joint"), trials)
    k, l = 0, 0
    copilot = [i for i in copilot_sets(plan.pilot_of)[k] if i != k][0]
    other = [i for i in range(stats.K) if i not in copilot_sets(plan.pilot_of)[k]][0]

    w_k = hhat[:, k, l] - stats.h_bar[k, l]
    w_i = hhat[:, copilot, l] - stats.h_bar[copilot, l]
    cross = np.mean(np.einsum("bn,bn->b", np.conj(w_k), w_i))
    one_ad2 = (1 - q.rho_ad) ** 2
    expected = one_ad2 * plan.tau * np.sqrt(
        powers[k] * powers[copilot]) * np.trace(
        stats.R[copilot, l] @ estimator_products(ctx)[0][k, l])

    def noise_floor(i):
        power = (np.trace(ctx.c_hhat[k, l]).real
                 * np.trace(ctx.c_hhat[i, l]).real)
        return np.sqrt(power / trials)

    assert abs(cross - expected) < max(4 * noise_floor(copilot),
                                       0.02 * abs(expected))

    w_o = hhat[:, other, l] - stats.h_bar[other, l]
    cross_o = np.mean(np.einsum("bn,bn->b", np.conj(w_k), w_o))
    assert abs(cross_o) < 4 * noise_floor(other)

    # E[||hhat||^2] = ||h_bar||^2 + tr(C_hhat)
    second = np.mean(np.einsum("bn,bn->b", np.conj(hhat[:, k, l]), hhat[:, k, l])).real
    target = (np.vdot(stats.h_bar[k, l], stats.h_bar[k, l]).real
              + np.trace(ctx.c_hhat[k, l]).real)
    assert abs(second - target) < 0.02 * target

    again_h, again = joint_batch(ctx, substream(3, "joint"), 16)
    base_h, base = joint_batch(ctx, substream(3, "joint"), 16)
    assert np.array_equal(again, base) and np.array_equal(again_h, base_h)


def test_ideal_rayleigh_estimation_reduction():
    _, stats, _, _, plan, _, _ = small_system(L=2, K=4, N=2, tau=2, seed=13,
                                              fading="rayleigh",
                                              b_da=None, b_ad=None)
    q0 = QuantizerConfig()
    p = np.full(4, 3.0)
    sigma2 = 1e-2
    ctx = build_estimation_context(stats, plan, p, q0, sigma2)
    k, l = 1, 0
    psi_manual = sigma2 * np.eye(2, dtype=complex)
    for i in plan.users_on_pilot(plan.pilot_of[k]):
        psi_manual += p[i] * plan.tau * stats.R[i, l]
    z = np.array([0.3 - 0.1j, 1.2j])
    expected = np.sqrt(p[k] * plan.tau) * stats.R[k, l] @ np.linalg.solve(psi_manual, z)
    assert np.allclose(estimate_local(z, k, l, ctx), expected, rtol=1e-10)


def test_stack_centralized_shapes_and_blocks():
    _, _, _, _, _, ctx1, _ = small_system(L=1, K=2, N=2, tau=2, seed=14)
    stacked = block_diag_cov(ctx1.c_hhat)
    assert np.allclose(stacked[0], ctx1.c_hhat[0, 0])

    _, _, _, _, _, ctx2, _ = small_system(L=2, K=2, N=2, tau=2, seed=14)
    blocks = block_diag_cov(ctx2.c_hhat)
    assert blocks.shape == (2, 4, 4)
    assert np.allclose(blocks[1][:2, :2], ctx2.c_hhat[1, 0])
    assert np.allclose(blocks[1][2:, 2:], ctx2.c_hhat[1, 1])
    assert np.all(blocks[1][:2, 2:] == 0)


def test_stacked_estimate_covariance_is_block_diagonal():
    _, stats, _, _, _, ctx, _ = small_system(L=2, K=3, N=2, tau=3, seed=15)
    trials = 80000
    _, hhat = joint_batch(ctx, substream(6, "stack"), trials)
    k = 0
    stacked = hhat[:, k].reshape(trials, -1) - stats.h_bar[k].reshape(-1)
    cov = np.einsum("bn,bm->nm", stacked, np.conj(stacked)) / trials
    expected = block_diag_cov(ctx.c_hhat[k][None, :])[0]
    scale = np.abs(expected).max()
    assert np.max(np.abs(cov - expected)) < 12 * scale / np.sqrt(trials)
