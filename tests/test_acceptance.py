"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here; the Monte Carlo oracles are independent
constructive samplers, never the closed forms they check.
"""

import time

import numpy as np
import pytest

from scfsim.channel import channel_statistics, generate_scenario
from scfsim.config import SimConfig
from scfsim.harness import (build_system, centralized_closed_report, delta_se,
                            distributed_closed_report, emit_results,
                            run_experiment)
from scfsim.lsfd import build_ingredients, se_from_moments
from scfsim.pilots import build_estimation_context
from scfsim.quantization import QuantizerConfig
from scfsim.rng import substream
from scfsim.scheduler import (algorithm1_complexity, cc_detector_ce,
                              cc_weighting, run_algorithm1)
from scfsim.se_closed import se_centralized_closed, theorem1_kernel
from scfsim.se_mc import centralized_mc_report, distributed_mc_report
from conftest import lmmse_at_ap, small_system
from oracles import cluster_sets, copilot_sets, joint_batch


def _report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} | {criterion} | {detail}"
    print(line)
    assert passed, line


def test_criterion_01_theorem1_kernels_vs_mc():
    """Four expectation kernels agree with a 1e6-trial joint sampler (3 sigma)."""
    start = time.time()
    _, stats, q, powers, plan, ctx, cluster = small_system(
        L=2, K=4, N=2, tau=2, b_da=1, b_ad=2, seed=7)
    assert np.all(stats.kappa > 0)
    copilot = [i for i in copilot_sets(plan.pilot_of)[0] if i != 0][0]
    other = [i for i in range(4) if i not in copilot_sets(plan.pilot_of)[0]][0]
    cases = {
        "copilot-same-ap": (0, copilot, 0, 0),
        "copilot-cross-ap": (0, copilot, 0, 1),
        "orthogonal-same-ap": (0, other, 0, 0),
        "orthogonal-cross-ap": (0, other, 0, 1),
    }
    trials, batch = 1_000_000, 25_000
    sums = {c: [] for c in cases}
    rng = substream(123, "kernel-acceptance")
    for _ in range(trials // batch):
        h, hhat = joint_batch(ctx, rng, batch)
        for name, (k, i, l1, l2) in cases.items():
            left = np.einsum("bn,bn->b", np.conj(hhat[:, k, l1]), h[:, i, l1])
            right = np.einsum("bn,bn->b", np.conj(h[:, i, l2]), hhat[:, k, l2])
            sums[name].append(np.mean(left * right))
    worst = 0.0
    for name, idx in cases.items():
        batches = np.array(sums[name])
        mc = batches.mean()
        closed = theorem1_kernel(*idx, ctx)
        # components that are zero up to float rounding (e.g. the imaginary
        # part of the same-AP cases) get a machine-precision stderr floor
        floor = 1e-12 * max(abs(closed), abs(mc))
        se_re = max(batches.real.std(ddof=1) / np.sqrt(len(batches)), floor)
        se_im = max(batches.imag.std(ddof=1) / np.sqrt(len(batches)), floor)
        z_re = abs(closed.real - mc.real) / se_re
        z_im = abs(closed.imag - mc.imag) / se_im
        worst = max(worst, z_re, z_im)
    elapsed = time.time() - start
    _report("criterion 1: Theorem-1 kernel oracle",
            worst <= 3.0 and elapsed < 120,
            f"max |z| = {worst:.2f} (<= 3), runtime {elapsed:.0f}s (< 120s)")


def test_criterion_02_theorem2_vs_mc():
    """Closed-form distributed SE within 2% of the Eq.-18 Monte Carlo."""
    start = time.time()
    cfg, stats, q, powers, plan, ctx, cluster = small_system(
        L=4, K=6, N=2, tau=3, b_da=1, b_ad=2, seed=3)
    prelog = cfg.prelog
    closed = distributed_closed_report(ctx, cluster, "lsfd", prelog).se
    mc = distributed_mc_report(ctx, cluster, "mrc", "lsfd", 100_000, 3, prelog)
    gaps = np.abs(closed - mc.se) / closed
    elapsed = time.time() - start
    _report("criterion 2: Theorem-2 closed form vs simulation",
            np.max(gaps) < 0.02 and elapsed < 300,
            f"max per-UE gap {np.max(gaps):.3%} (< 2%), runtime {elapsed:.0f}s (< 300s)")


def test_criterion_03_theorem3_approximation():
    """Centralized closed form within 5% of the exact MC bound."""
    cfg, stats, q, powers, plan, ctx, cluster = small_system(
        L=4, K=6, N=2, tau=3, b_da=1, b_ad=2, seed=3)
    prelog = cfg.prelog
    closed = se_centralized_closed(ctx, cluster, prelog).sum()
    mc = centralized_mc_report(ctx, cluster, "mrc", 50_000, 3, prelog)
    gap = abs(closed - mc.sum_se) / closed
    _report("criterion 3: Theorem-3 approximation quality",
            gap < 0.05, f"sum-SE gap {gap:.3%} (< 5%)")


def test_criterion_04_resolution_tail_off():
    """Sum-SE gains from extra ADC bits shrink: increment 4->5 < increment 1->2."""
    cfg = SimConfig(L=16, K=10, N=2, tau=5, b_da=1, b_ad=1)
    scenario = generate_scenario(cfg, 7)
    stats = channel_statistics(scenario, 7, cfg.asd_rad)
    sums = []
    for b_ad in (1, 2, 3, 4, 5):
        q = QuantizerConfig(b_da=1, b_ad=b_ad)
        cluster, plan, powers = run_algorithm1(stats, q, cfg.tau, cfg.p_max_mw,
                                               eta_db=cfg.eta_db, nu=cfg.nu)
        ctx = build_estimation_context(stats, plan, powers, q,
                                       cfg.sigma2_mw)
        sums.append(distributed_closed_report(ctx, cluster, "lsfd",
                                              cfg.prelog).sum_se)
    inc_12 = sums[1] - sums[0]
    inc_45 = sums[4] - sums[3]
    _report("criterion 4: hardware-resolution tail-off",
            inc_45 < inc_12,
            f"increment 1->2 = {inc_12:.3f}, 4->5 = {inc_45:.3f}")


def test_criterion_05_scheme_ordering_vs_fading():
    """Distributed wins under Rician, centralized under Rayleigh (>= 8/10)."""
    wins = {}
    for fading in ("rician", "rayleigh"):
        dist_wins = 0
        for s in range(10):
            cfg = SimConfig(L=16, K=10, N=2, tau=5, b_da=4, b_ad=1,
                            fading=fading)
            ctx, cluster, _ = build_system(cfg, seed=100 + s)
            d = distributed_closed_report(ctx, cluster, "lsfd", cfg.prelog).sum_se
            c = centralized_closed_report(ctx, cluster, cfg.prelog).sum_se
            dist_wins += d >= c
        wins[fading] = dist_wins
    _report("criterion 5: scheme ordering vs fading",
            wins["rician"] >= 8 and (10 - wins["rayleigh"]) >= 8,
            f"Rician distributed wins {wins['rician']}/10, "
            f"Rayleigh centralized wins {10 - wins['rayleigh']}/10")


def test_criterion_06_scalable_proximity():
    """Partial methods within 5% (median per-UE SE) of their full versions."""
    cfg = SimConfig(L=16, K=20, N=3, tau=5, b_da=4, b_ad=4)
    ctx, cluster, _ = build_system(cfg, seed=42)
    prelog = cfg.prelog
    lsfd = distributed_closed_report(ctx, cluster, "lsfd", prelog).se
    plsfd = distributed_closed_report(ctx, cluster, "plsfd", prelog).se
    gap_lsfd = abs(np.median(plsfd) - np.median(lsfd)) / np.median(lsfd)

    lp = distributed_mc_report(ctx, cluster, "lpmmse", "lsfd", 4000, 5, prelog).se
    lp_full = distributed_mc_report(ctx, cluster, "lpmmse-full", "lsfd", 4000,
                                    5, prelog).se
    gap_lp = abs(np.median(lp) - np.median(lp_full)) / np.median(lp_full)

    pm = centralized_mc_report(ctx, cluster, "pmmse", 4000, 5, prelog).se
    mm = centralized_mc_report(ctx, cluster, "mmse", 4000, 5, prelog).se
    gap_pm = abs(np.median(pm) - np.median(mm)) / np.median(mm)

    _report("criterion 6: scalable methods track unscalable ones",
            max(gap_lsfd, gap_lp, gap_pm) < 0.05,
            f"P-LSFD {gap_lsfd:.2%}, LP-MMSE {gap_lp:.2%}, P-MMSE {gap_pm:.2%} (all < 5%)")


def test_criterion_07_complexity_accounting():
    """Count formulas hold with exact integer equality on randomized plans."""
    start = time.time()
    rng = substream(77, "plans")
    checked = 0
    for trial in range(50):
        L = int(rng.integers(1, 9))
        K = int(rng.integers(1, 13))
        tau = int(rng.integers(1, min(K, 6) + 1))
        cfg = SimConfig(L=L, K=K, N=int(rng.integers(1, 4)), tau=tau)
        scenario = generate_scenario(cfg, int(rng.integers(0, 1000)))
        stats = channel_statistics(scenario, trial, cfg.asd_rad)
        q = QuantizerConfig(b_da=4, b_ad=4)
        cluster, plan, _ = run_algorithm1(stats, q, tau, 100.0)
        sets = cluster_sets(cluster)
        for k in range(K):
            m = len(cluster.serving[k])
            qk = len(cluster.overlap[k])
            pq = len(set(copilot_sets(plan.pilot_of)[k]) & set(cluster.overlap[k]))
            pk = len(copilot_sets(plan.pilot_of)[k])
            cube = (m**3 + 3 * m**2 - m) // 3
            assert cc_weighting(cluster, plan, k, "plsfd") == (
                m * (m + 1) * qk // 2 + m * (5 * m + 1) * pq // 2 + cube, m)
            assert cc_weighting(cluster, plan, k, "lsfd") == (
                m * (m + 1) * K // 2 + m * (5 * m + 1) * pk // 2 + cube, m)
            assert cc_weighting(cluster, plan, k, "l2") == (0, 0)
            n_ant = cfg.N
            prim_served = set(sets.served[cluster.primary[k]])
            assert cc_detector_ce(cluster, "pmmse", k, n_ant, tau) == \
                n_ant * (n_ant + tau) * len(set(cluster.overlap[k]) & prim_served) * m
            assert cc_detector_ce(cluster, "pmmse-full", k, n_ant, tau) == \
                n_ant * (n_ant + tau) * qk * m
        for l in range(L):
            n_ant = cfg.N
            assert cc_detector_ce(cluster, "lpmmse", l, n_ant, tau) == \
                n_ant * (n_ant + tau) * len(sets.served_primary[l])
            assert cc_detector_ce(cluster, "lpmmse-full", l, n_ant, tau) == \
                n_ant * (n_ant + tau) * len(sets.served[l])
        overlap_total = sum(len(cluster.overlap[i]) for i in range(K))
        assert algorithm1_complexity(cluster, K, tau, L) == \
            K * L + (K - tau + L + 1) * tau + overlap_total
        checked += 1
    elapsed = time.time() - start
    _report("criterion 7: complexity accounting",
            checked == 50 and elapsed < 60,
            f"{checked} randomized plans, exact equality, {elapsed:.1f}s")


def test_criterion_08_scheduler_invariants():
    """Algorithm output satisfies every plan invariant on 100 random scenarios."""
    rng = substream(88, "scenarios")
    failures = []
    for trial in range(100):
        L = int(rng.integers(1, 11))
        K = int(rng.integers(1, 15))
        tau = int(rng.integers(1, 7))
        nu = float(rng.uniform(0.0, 1.0))
        cfg = SimConfig(L=L, K=K, N=2, tau=tau)
        scenario = generate_scenario(cfg, trial)
        stats = channel_statistics(scenario, trial, cfg.asd_rad)
        q = QuantizerConfig(b_da=int(rng.integers(1, 6)),
                            b_ad=int(rng.integers(1, 6)))
        cluster, plan, powers = run_algorithm1(stats, q, tau, 100.0, nu=nu)
        budget = 100.0 * (1 - q.rho_da)
        try:
            for k in range(K):
                assert cluster.primary[k] in cluster.serving[k]
                assert k in cluster.overlap[k]
            for l in range(L):
                sec_pilots = [plan.pilot_of[i]
                              for i in cluster_sets(cluster).served_secondary[l]]
                assert len(sec_pilots) == len(set(sec_pilots))
            for k in range(K):
                for i in range(K):
                    assert ((i in cluster.overlap[k])
                            == (k in cluster.overlap[i]))
            assert np.max(powers) == budget
            gains = np.array([stats.beta[k, list(cluster.serving[k])].sum()
                              for k in range(K)])
            for k in range(K):
                if gains[k] == min(gains[i] for i in cluster.overlap[k]):
                    assert powers[k] == budget
            seen = set()
            for k in range(K):
                if k in seen:
                    continue
                component, frontier = set(), {k}
                while frontier:
                    node = frontier.pop()
                    component.add(node)
                    frontier |= set(cluster.overlap[node]) - component
                seen |= component
                assert any(powers[i] == budget for i in component)
            _, _, flat = run_algorithm1(stats, q, tau, 100.0, nu=0.0)
            assert np.all(flat == budget)
        except AssertionError:
            failures.append(trial)
    _report("criterion 8: scheduler invariants",
            not failures, f"100 randomized scenarios, failures: {failures}")


def test_criterion_09_degeneration_suite():
    """rho = 0, kappa = 0 reproduces the independent ideal-Rayleigh path (1e-8)."""
    from scfsim import rayleigh_ideal as ideal
    from scfsim.numerics import crandn
    from oracles import estimate_local, pilot_batch

    cfg, stats, _, powers, plan, _, cluster = small_system(
        L=4, K=6, N=2, tau=3, seed=64, fading="rayleigh", b_da=None, b_ad=None)
    q0 = QuantizerConfig()
    p = powers
    ctx = build_estimation_context(stats, plan, p, q0, cfg.sigma2_mw)
    worst = 0.0
    z = crandn(substream(0, "z"), (stats.N,), 1e-10)
    pilots, hhat = pilot_batch(ctx, substream(1, "h"), 1)
    hhat_l = hhat[0, :, 0]
    v_ap0 = lmmse_at_ap(pilots, 0, ctx, cluster)
    se = se_from_moments(build_ingredients(ctx, cluster), "lsfd", cfg.prelog)
    for k in range(stats.K):
        for l in range(stats.L):
            got = estimate_local(z, k, l, ctx)
            want = ideal.ideal_estimate(z, k, l, stats, plan, p, ctx.sigma2)
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        got_v = v_ap0[k]
        want_v = ideal.ideal_lmmse(k, 0, hhat_l, stats, plan, p, ctx.sigma2)
        worst = max(worst, np.max(np.abs(got_v - want_v)) / np.max(np.abs(want_v)))
        got_se = se[k]
        want_se = ideal.ideal_se_mrc_lsfd(k, stats, plan, p, ctx.sigma2,
                                          cfg.prelog)
        worst = max(worst, abs(got_se - want_se) / abs(want_se))
    _report("criterion 9: ideal-hardware Rayleigh degeneration",
            worst < 1e-8, f"max relative deviation {worst:.2e} (< 1e-8)")


def test_criterion_10_fairness_direction():
    """Fractional power control tightens the SE spread at bounded mean cost."""
    details = []
    ok = True
    for seed in (200, 202, 203):
        cfg = SimConfig(L=16, K=30, N=2, tau=5, b_da=4, b_ad=4,
                        fading="rayleigh", nu=0.8)
        ctx_f, cl_f, _ = build_system(cfg, seed)
        ctx_e, cl_e, _ = build_system(cfg.replace(nu=0.0), seed)
        frac = distributed_closed_report(ctx_f, cl_f, "plsfd", cfg.prelog)
        equal = distributed_closed_report(ctx_e, cl_e, "plsfd", cfg.prelog)
        tighter = delta_se(frac) < delta_se(equal)
        loss = (equal.se.mean() - frac.se.mean()) / equal.se.mean()
        ok &= tighter and loss <= 0.15
        details.append(f"seed {seed}: dSE {delta_se(frac):.2f}<{delta_se(equal):.2f}"
                       f" loss {loss:+.1%}")
    _report("criterion 10: fairness direction", ok, "; ".join(details))


def test_criterion_11_reproducibility(tmp_path):
    """Same seed and config give identical bytes for any worker count."""
    cfg = SimConfig(L=5, K=6, N=2, tau=3, trials=256, b_da=4, b_ad=4, seed=99)
    paths = []
    for workers in (1, 2, 4):
        table = run_experiment("sum-se-vs-bits", cfg, workers=workers)
        path = tmp_path / f"w{workers}.csv"
        emit_results(table, "csv", path)
        paths.append(path.read_bytes())
    cdf_a = run_experiment("cdf-algorithm", cfg, workers=1)
    cdf_b = run_experiment("cdf-algorithm", cfg, workers=3)
    _report("criterion 11: reproducibility across workers",
            paths[0] == paths[1] == paths[2] and cdf_a.rows == cdf_b.rows,
            "byte-identical sweep output for 1/2/4 workers; CDF rows equal for 1/3")
