"""The batched Monte Carlo engine against explicit per-UE loops.

The oracles below are the MC loops written one UE at a time: a fancy-index
gather of every UE's channels on the serving APs, three-operand einsum
Grams, and static system-matrix parts summed one UE and one AP at a time,
with the receive-noise formula written out (``_noise_loop``). On Rician and
Rayleigh fading, under the full cluster plan and under the scheduled
(Algorithm 1) plan, the batched engine must draw the same trials and agree
with them to 1e-12 relative in SE and moments, 1e-10 in stderr, and 1e-13
in the system matrices.
"""

import math

import numpy as np
import pytest

from scfsim import detectors, se_mc
from scfsim.config import DETECTORS, SimConfig
from scfsim.detectors import (centralized_system_matrices, local_combiners,
                              local_statics)
from scfsim.harness import build_system
from scfsim.numerics import crandn, hermitize
from scfsim.quantization import received_noise_covariance
from scfsim.rng import substream
from scfsim.sampling import estimates_ue_last, sample_joint
from scfsim.scheduler import full_cluster_plan
from scfsim.se_mc import (STDERR_GROUPS, DistributedSums, batch_plan,
                          centralized_mc_report, distributed_mc_report,
                          distributed_mc_sums)

from oracles import (SUM_FIELDS, ap_local_noise, cluster_sets,
                     data_noise_batch, estimate_batch, group_of, joint_batch,
                     ue_row, zero_filled_local_combiners)

SE_REL = 1e-12
STDERR_REL = 1e-10
MATRIX_REL = 1e-13
TRIALS = 256          # four 64-trial batches, four stderr groups


def _assert_close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(got - want)) <= rel * scale


def _assert_per_ue_close(got, want, rel):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


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
        assert any(len(q) < ctx.K for q in cluster.overlap)
        assert any(len(m) > 1 for m in cluster.serving)
    return ctx, cluster, plan


# ---------------------------------------------------------------------------
# per-UE oracles
# ---------------------------------------------------------------------------

def _distributed_sums_loop(ctx, cluster, detector, trials, seed):
    """Every UE's moment sums, one fancy-index gather and einsum per UE."""
    sets = cluster_sets(cluster)
    serving = [np.asarray(m, dtype=int) for m in sets.serving]
    overlap = [np.asarray(q, dtype=int) for q in sets.overlap]
    batches = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    acc = DistributedSums(ctx, cluster,
                          np.zeros(min(STDERR_GROUPS, len(batches))))
    p, nx = ctx.p_ddot, ap_local_noise(ctx)
    for b_idx, (lo, hi) in enumerate(batches):
        rng = substream(seed, "mc-distributed", b_idx)
        h, hhat = joint_batch(ctx, rng, hi - lo)
        noise = data_noise_batch(ctx, h, rng)
        v = zero_filled_local_combiners(hhat, ctx, cluster, detector)
        g_idx = group_of(b_idx, len(batches))
        acc.count[g_idx] += hi - lo
        for k in range(ctx.K):
            row = ue_row(acc, k)
            m_idx = serving[k]
            v_k = v[:, k, m_idx, :]
            g = np.einsum("bmn,bimn->bim", np.conj(v_k), h[:, :, m_idx, :])
            row["g_sum"][g_idx] += g[:, k].sum(axis=0)
            row["w_full"][g_idx] += np.einsum("i,bim,bin->mn", p, g, np.conj(g))
            q_idx = overlap[k]
            row["w_overlap"][g_idx] += np.einsum(
                "i,bim,bin->mn", p[q_idx], g[:, q_idx], np.conj(g[:, q_idx]))
            f = np.einsum("bmn,bmn->bm", np.conj(v_k), noise[:, m_idx, :])
            row["f_outer"][g_idx] += np.einsum("bm,bn->mn", f, np.conj(f))
            v_abs2 = np.abs(v_k) ** 2
            row["d_local"][g_idx] += np.einsum("bmn,mn->m", v_abs2, nx[m_idx])
    return acc


def _block(per_ap, serving, n_ant):
    m = len(serving) * n_ant
    out = np.zeros((m, m), dtype=complex)
    for j, l in enumerate(serving):
        out[j * n_ant:(j + 1) * n_ant, j * n_ant:(j + 1) * n_ant] = per_ap[l]
    return out


def _noise_loop(ctx, ues, l):
    """Receive-noise covariance at AP l written out: the moment sum
    Sum_i p̈_i (h_bar h_bar^H + R) over ``ues``, one UE at a time, then the
    forwarded DAC distortion, the ADC distortion and the thermal noise."""
    q = ctx.q
    m = np.zeros((ctx.N, ctx.N), dtype=complex)
    for i in ues:
        h_bar = ctx.stats.h_bar[i, l]
        m += ctx.p_ddot[i] * (np.outer(h_bar, np.conj(h_bar)) + ctx.stats.R[i, l])
    one_ad = 1.0 - q.rho_ad
    return (one_ad**2 * q.rho_da / (1.0 - q.rho_da) * m
            + q.rho_ad * one_ad / (1.0 - q.rho_da) * np.diag(np.real(np.diag(m)))
            + one_ad * ctx.sigma2 * np.eye(ctx.N))


def _system_matrices_loop(ctx, cluster, method):
    """Per-UE static matrices, one UE and one serving AP at a time."""
    n_ant = ctx.N
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    sets = cluster_sets(cluster)
    out = {}
    for k in range(ctx.K):
        serving = sets.serving[k]
        m = len(serving) * n_ant
        if method == "mmse":
            noise_set = est_set = list(range(ctx.K))
            stat_set = []
        else:
            overlap = set(sets.overlap[k])
            primary_served = set(sets.served[cluster.primary[k]])
            noise_set = sorted(overlap)
            if method == "pmmse":
                est_set = sorted(overlap & primary_served)
                stat_set = sorted(overlap - primary_served)
            else:
                est_set, stat_set = sorted(overlap), []
        noise = {l: _noise_loop(ctx, noise_set, l) for l in serving}
        static = _block(noise, serving, n_ant)
        for i in est_set:
            static += one_ad2 * ctx.p_ddot[i] * _block(
                ctx.stats.R[i] - ctx.c_hhat[i], serving, n_ant)
        for i in stat_set:
            h_bar = ctx.stats.h_bar[i, serving].reshape(m)
            static += one_ad2 * ctx.p_ddot[i] * np.outer(h_bar, np.conj(h_bar))
            static += one_ad2 * ctx.p_ddot[i] * _block(ctx.stats.R[i], serving, n_ant)
        out[k] = (hermitize(static), np.asarray(est_set, dtype=int))
    return out


def _lpmmse_static(ctx, cluster, full=False):
    """Estimate-independent part of the LP-MMSE system matrix per AP, as the
    former ``detectors._lpmmse_static`` computed it, with the noise term by
    ``_noise_loop``.

    Statistics of secondary-served UEs (or none, when ``full``) stand in for
    their estimates; the hardware-noise terms run over the served set only.
    """
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    static = np.empty_like(ctx.w)
    sets = cluster_sets(cluster)
    for l in range(ctx.L):
        served = sets.served[l]
        est_set = served if full else sets.served_primary[l]
        stat_set = () if full else sets.served_secondary[l]
        acc = _noise_loop(ctx, served, l)
        for i in est_set:
            acc = acc + one_ad2 * ctx.p_ddot[i] * (ctx.stats.R[i, l] - ctx.c_hhat[i, l])
        for i in stat_set:
            h_bar = ctx.stats.h_bar[i, l]
            acc = acc + one_ad2 * ctx.p_ddot[i] * (
                np.outer(h_bar, np.conj(h_bar)) + ctx.stats.R[i, l])
        static[l] = hermitize(acc)
    return static


def _centralized_report_loop(ctx, cluster, detector, trials, seed, prelog):
    """Per-UE SE and stderr, gathering each UE's subspace from the batch."""
    w_full = ctx.w
    statics = (None if detector == "mrc"
               else _system_matrices_loop(ctx, cluster, detector))
    batches = batch_plan(trials, ctx.K, ctx.L, ctx.N)
    groups = min(STDERR_GROUPS, len(batches))
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    log_sum = np.zeros((groups, ctx.K))
    count = np.zeros(groups)
    serving_sets = cluster_sets(cluster).serving
    for b_idx, (lo, hi) in enumerate(batches):
        rng = substream(seed, "mc-centralized", b_idx)
        _, hhat = joint_batch(ctx, rng, hi - lo)
        g_idx = group_of(b_idx, len(batches))
        count[g_idx] += hi - lo
        for k, serving in enumerate(serving_sets):
            sub = hhat[:, :, serving, :].reshape(hhat.shape[0], ctx.K, -1)
            if detector == "mrc":
                v = sub[:, k]
            else:
                mat, est = statics[k]
                a = mat[None] + one_ad2 * np.einsum(
                    "i,bin,bim->bnm", p[est], sub[:, est], np.conj(sub[:, est]))
                v = np.linalg.solve(a, sub[:, k][..., None])[..., 0]
            cross = np.einsum("bm,bim->bi", np.conj(v), sub)
            num = one_ad2 * p[k] * np.abs(cross[:, k]) ** 2
            inter = one_ad2 * (np.einsum("i,bi->b", p, np.abs(cross) ** 2)
                               - p[k] * np.abs(cross[:, k]) ** 2)
            noise = np.real(np.einsum("bm,mn,bn->b", np.conj(v),
                                      _block(w_full, serving, ctx.N), v))
            log_sum[g_idx, k] += np.sum(np.log2(1.0 + num / (inter + noise)))
    se = prelog * log_sum.sum(axis=0) / count.sum()
    per_group = prelog * log_sum / count[:, None]
    stderr = np.std(per_group, axis=0, ddof=1) / math.sqrt(groups)
    return se, stderr


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("detector", DETECTORS["distributed"])
def test_distributed_sums_and_report_match_loop(system, detector, monkeypatch):
    ctx, cluster, _ = system
    got = distributed_mc_sums(ctx, cluster, detector, TRIALS, 5)
    want = _distributed_sums_loop(ctx, cluster, detector, TRIALS, 5)
    assert got.groups == want.groups >= 2
    assert np.array_equal(got.count, want.count)
    for field in SUM_FIELDS:
        for k in range(ctx.K):
            _assert_close(ue_row(got, k)[field], ue_row(want, k)[field], SE_REL)

    for weighting in ("lsfd", "plsfd"):
        report = distributed_mc_report(ctx, cluster, detector, weighting,
                                       TRIALS, 5, 0.95)
        with monkeypatch.context() as patch:
            patch.setattr(se_mc, "distributed_mc_sums", _distributed_sums_loop)
            oracle = distributed_mc_report(ctx, cluster, detector, weighting,
                                           TRIALS, 5, 0.95)
        _assert_per_ue_close(report.se, oracle.se, SE_REL)
        _assert_per_ue_close(report.stderr, oracle.stderr, STDERR_REL)


@pytest.mark.parametrize("detector", DETECTORS["distributed"])
def test_chunked_batches_match_one_chunk(system, detector, monkeypatch):
    # ten 200-trial batches, each consumed in one chunk, in three chunks of
    # 66-67 trials, and in three chunks whose UEs walk them again in
    # sub-chunks of a few trials: the same draws, summed in another order
    ctx, cluster, _ = system
    per_trial = ctx.K * ctx.L * ctx.N
    trials = 2000
    assert [hi - lo for lo, hi in batch_plan(trials, ctx.K, ctx.L, ctx.N)] \
        == [200] * 10
    runs = {}
    for name, elems in (("one", 1 << 40), ("many", 64 * per_trial),
                        ("sub", 20 * ctx.K)):
        monkeypatch.setattr(se_mc, "CHUNK_ELEMS", elems)
        runs[name] = distributed_mc_sums(ctx, cluster, detector, trials, 8)
        assert len(se_mc._chunks(200, per_trial)) == (name != "one") * 2 + 1
        sub_chunks = len(se_mc._ue_chunks(67, ctx.K))
        assert (sub_chunks > 1) == (name == "sub")
    one = runs["one"]
    for chunked in (runs["many"], runs["sub"]):
        assert np.array_equal(one.count, chunked.count)
        for g_sel in (slice(None), slice(0, 1)):
            got, want = chunked.moments(g_sel), one.moments(g_sel)
            for k in range(ctx.K):
                for field in ("signal", "c_full", "c_partial"):
                    _assert_close(getattr(ue_row(got, k), field),
                                  getattr(ue_row(want, k), field), SE_REL)


@pytest.mark.parametrize("n_trials, per_trial, sizes", [
    (64, 1 << 10, [64]),               # the whole batch fits
    (64, 1 << 11, [32, 32]),           # exactly CHUNK_ELEMS each
    (64, 2250, [21, 21, 22]),          # 15 APs x 150 UEs: 47,250 elements
    (5, 1 << 20, [1] * 5),             # one trial exceeds it: one each
])
def test_ue_chunks_are_the_fewest_within_the_budget(n_trials, per_trial,
                                                    sizes):
    got = se_mc._ue_chunks(n_trials, per_trial)
    assert [t.stop - t.start for t in got] == sizes
    assert got[0].start == 0 and got[-1].stop == n_trials
    assert all(a.stop == b.start for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("detector", DETECTORS["centralized"])
def test_centralized_ue_chunks_match_one_chunk(system, detector, monkeypatch):
    # four 64-trial batches, each UE's trials walked whole and in chunks of
    # at most 384 / (|M_k| N K) trials: 21-22 trials for a UE with one
    # serving AP, 3-4 when every AP serves it
    ctx, cluster, _ = system
    runs = {}
    for name, elems in (("one", 1 << 40), ("many", 384)):
        monkeypatch.setattr(se_mc, "CHUNK_ELEMS", elems)
        runs[name] = centralized_mc_report(ctx, cluster, detector, TRIALS, 6,
                                           0.95)
        counts = [len(se_mc._ue_chunks(64, m.size * ctx.N * ctx.K))
                  for m in cluster.serving]
        assert (min(counts) > 1) if name == "many" else (max(counts) == 1)
    _assert_per_ue_close(runs["many"].se, runs["one"].se, SE_REL)
    _assert_per_ue_close(runs["many"].stderr, runs["one"].stderr, SE_REL)


@pytest.mark.parametrize("detector", DETECTORS["centralized"])
def test_centralized_report_matches_loop(system, detector):
    ctx, cluster, _ = system
    report = centralized_mc_report(ctx, cluster, detector, TRIALS, 6, 0.95)
    se, stderr = _centralized_report_loop(ctx, cluster, detector, TRIALS, 6, 0.95)
    _assert_per_ue_close(report.se, se, SE_REL)
    _assert_per_ue_close(report.stderr, stderr, STDERR_REL)


@pytest.mark.parametrize("method", ("mmse", "pmmse", "pmmse-full"))
def test_system_matrices_match_per_ap_noise(system, method):
    ctx, cluster, _ = system
    got = centralized_system_matrices(ctx, cluster, method)
    want = _system_matrices_loop(ctx, cluster, method)
    for k in range(ctx.K):
        _assert_close(got[k][0], want[k][0], MATRIX_REL)
        assert np.array_equal(got[k][1], want[k][1])


@pytest.mark.parametrize("method", ("lmmse", "lpmmse", "lpmmse-full"))
def test_local_statics_match_former_lpmmse_static(system, method):
    ctx, cluster, _ = system
    if method == "lmmse":
        # L-MMSE is LP-MMSE-full on the plan where every AP serves every UE
        want = _lpmmse_static(ctx, full_cluster_plan(ctx.stats), full=True)
        est_sets = [range(ctx.K)] * ctx.L
    elif method == "lpmmse":
        want = _lpmmse_static(ctx, cluster)
        est_sets = cluster_sets(cluster).served_primary
    else:
        want = _lpmmse_static(ctx, cluster, full=True)
        est_sets = cluster_sets(cluster).served
    got = local_statics(ctx, cluster, method)
    assert len(got) == ctx.L
    for l in range(ctx.L):
        _assert_close(got[l][0], want[l], MATRIX_REL)
        assert np.array_equal(got[l][1], list(est_sets[l]))


def test_full_plan_overlap_gram_is_the_full_gram(system):
    ctx, cluster, plan = system
    sums = distributed_mc_sums(ctx, cluster, "mrc", TRIALS, 7)
    for k in range(ctx.K):
        full_overlap = len(cluster.overlap[k]) == ctx.K
        assert full_overlap or plan != "full"
        row = ue_row(sums, k)
        assert np.array_equal(row["w_overlap"], row["w_full"]) == full_overlap


# ---------------------------------------------------------------------------
# work done per report
# ---------------------------------------------------------------------------

def test_noise_covariance_calls_per_report(system, monkeypatch):
    """One receive-noise call per static index, however many batches."""
    ctx, cluster, _ = system
    calls = []

    def counting(stats, p_ddot, q, sigma2, ues, aps):
        calls.append(tuple(aps))
        return received_noise_covariance(stats, p_ddot, q, sigma2, ues, aps)

    monkeypatch.setattr(detectors, "received_noise_covariance", counting)
    assert (len(batch_plan(2 * TRIALS, ctx.K, ctx.L, ctx.N))
            > len(batch_plan(TRIALS, ctx.K, ctx.L, ctx.N)))
    for trials in (TRIALS, 2 * TRIALS):
        calls.clear()
        centralized_mc_report(ctx, cluster, "pmmse", trials, 1, 0.95)
        assert calls == list(cluster_sets(cluster).serving)   # K: one per UE
        calls.clear()
        distributed_mc_report(ctx, cluster, "lpmmse", "plsfd", trials, 1, 0.95)
        assert calls == [(l,) for l in range(ctx.L)]      # L: one per AP


def test_serving_subspace_is_a_view_under_the_full_plan(system):
    ctx, cluster, plan = system
    z = sample_joint(ctx, substream(4, "view"), 8)[1]
    hhat_t = estimates_ue_last(ctx, z)
    everyone = tuple(range(ctx.L))
    serving = cluster_sets(cluster).serving
    for k in range(ctx.K):
        sub = detectors.serving_subspace(hhat_t, cluster, k)
        gather = np.take(hhat_t, serving[k], axis=1)
        assert np.array_equal(sub, gather.reshape(8, -1, ctx.K))
        assert np.shares_memory(sub, hhat_t) == (serving[k] == everyone)
    if plan == "full":
        assert all(m == everyone for m in serving)
    else:
        assert any(m != everyone for m in serving)


@pytest.mark.parametrize("detector", DETECTORS["distributed"])
def test_served_pair_combiners_match_zero_filled(system, detector):
    """Combiners on the served pairs, UE-major, are the former zero-filled
    (n, K, L, N) combiners at those pairs, on the estimates formed from the
    same pilot batch."""
    ctx, cluster, _ = system
    z = sample_joint(ctx, substream(9, "pairs"), 16)[1]
    got = local_combiners(z, ctx, cluster,
                          local_statics(ctx, cluster, detector))
    served = np.nonzero(cluster.D)
    assert got.shape == (len(served[0]), ctx.N, 16)
    assert np.all(np.diff(served[0]) >= 0)            # UE-major
    want = zero_filled_local_combiners(estimate_batch(ctx, z), ctx, cluster,
                                       detector)
    _assert_close(np.moveaxis(got, -1, 0), want[(slice(None),) + served], SE_REL)


@pytest.mark.parametrize("detector", DETECTORS["distributed"])
def test_each_ap_combines_from_its_own_pilot_observations(system, detector):
    """AP l's combiners read AP l's pilot observations only: redrawing
    every other AP's leaves AP l's rows bit for bit as they were, and those
    rows are the zero-filled oracle's on the estimates formed from the
    redrawn batch."""
    ctx, cluster, _ = system
    statics = local_statics(ctx, cluster, detector)
    z = sample_joint(ctx, substream(10, "own"), 16)[1]
    v = local_combiners(z, ctx, cluster, statics)
    for l in range(ctx.L):
        other = sample_joint(ctx, substream(11, "own", l), 16)[1]
        other[:, l] = z[:, l]
        got = local_combiners(other, ctx, cluster, statics)
        ues = cluster.served[l]
        rows = cluster.pair_of[ues, l]
        assert np.array_equal(got[rows], v[rows])
        want = zero_filled_local_combiners(estimate_batch(ctx, other), ctx,
                                           cluster, detector)[:, ues, l]
        _assert_close(np.moveaxis(got[rows], -1, 0), want, SE_REL)


def test_plan_numbers_the_served_pairs(system):
    """D_l is column l of D, and ``pair_of`` numbers the served pairs in the
    order of ``np.nonzero(D)``, -1 off D: UE k's rows are the slice of the
    cumulative |M_k| sums, the plan's ``pair_rows[k]``, which the distributed
    engine reads as a view. The numbering cannot be written."""
    ctx, cluster, _ = system
    d, pair_of = cluster.D, cluster.pair_of
    for l in range(ctx.L):
        assert np.array_equal(cluster.served[l], np.flatnonzero(d[:, l]))
    assert np.array_equal(pair_of[np.nonzero(d)], np.arange(np.count_nonzero(d)))
    assert np.all(pair_of[~d] == -1)
    sizes = [m.size for m in cluster.serving]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    for k in range(ctx.K):
        assert np.array_equal(pair_of[k, cluster.serving[k]],
                              bounds[k] + np.arange(sizes[k]))
        assert cluster.pair_rows[k] == slice(bounds[k], bounds[k + 1])
    with pytest.raises(ValueError, match="read-only"):
        pair_of[0, 0] = 0


def test_crandn_draws_are_unchanged():
    var = np.linspace(0.5, 2.0, 3)
    got = crandn(substream(3, "crandn"), (64, 5, 3), var)
    rng = substream(3, "crandn")
    want = np.sqrt(var / 2.0) * (rng.standard_normal((64, 5, 3))
                                 + 1j * rng.standard_normal((64, 5, 3)))
    assert np.array_equal(got, want)
    assert got.dtype == complex and got.flags.c_contiguous
    # a 0-d shape, a bare int, empty shapes and a draw of two blocks
    for shape in ((), 5, (0,), (4, 0), (0, 4), (3000, 40)):
        got = crandn(substream(4, "crandn"), shape, 0.7)
        rng = substream(4, "crandn")
        want = np.sqrt(0.7 / 2.0) * (rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape))
        assert got.shape == np.shape(want) and got.dtype == complex
        assert np.array_equal(got, want)
