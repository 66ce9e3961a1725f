"""Closed-form-versus-Monte-Carlo validation suite.

Cross-checks every closed form against a brute-force estimate on the
configured scenario and verifies the structural invariants (PSD orderings,
plan consistency). Used by the `validate` CLI subcommand and the
validate-closed-forms experiment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .harness import build_system, distributed_closed_report
from .numerics import hermitize
from .sampling import estimates, sample_joint
from .se_closed import se_centralized_closed, theorem1_kernel
from .se_mc import centralized_mc_report, distributed_mc_report, mc_batches


@dataclass(frozen=True)
class Check:
    name: str
    case: str
    closed: float
    monte_carlo: float
    rel_gap: float
    tolerance: float

    @property
    def passed(self):
        return math.isfinite(self.rel_gap) and self.rel_gap <= self.tolerance


def desk_validation_config(cfg):
    """The small reference scale all closed forms are validated at.

    The 2% SE tolerance needs ~1e5 trials to sit well above the Monte Carlo
    noise floor of the weakest UEs.
    """
    return cfg.replace(L=4, K=6, N=2, tau=3, b_da=1, b_ad=2,
                       trials=max(cfg.trials, 100000))


def _kernel_mc(ctx, pairs, trials, seed):
    """Monte Carlo estimates of E[hhat_k^H h_i h_i^H hhat_k] for given
    (k, i, l1, l2) tuples over the batches of ``mc_batches``, with only UE
    k's estimates at APs l1 and l2 formed."""
    sums = np.zeros(len(pairs), dtype=complex)
    batches, counts = mc_batches(ctx, trials, seed, "kernel-oracle")
    for _, n, rng in batches:
        h, z = sample_joint(ctx, rng, n)
        for j, (k, i, l1, l2) in enumerate(pairs):
            left = np.einsum("nb,nb->b", np.conj(estimates(ctx, z, [k], l1)[0]),
                             h[i, l1])
            right = np.einsum("nb,nb->b", np.conj(h[i, l2]),
                              estimates(ctx, z, [k], l2)[0])
            sums[j] += np.sum(left * right)
        del h, z
    return sums / counts.sum()


def theorem1_cases(plan):
    """One (k, i, l1, l2) tuple per Theorem-1 case, from the given plan, on
    APs 0 and 1."""
    k = 0
    same_pilot = plan.pilot_of == plan.pilot_of[k]
    same_pilot[k] = False
    copilot = int(np.flatnonzero(same_pilot)[0])
    other = int(np.flatnonzero(plan.pilot_of != plan.pilot_of[k])[0])
    return {
        "copilot-same-ap": (k, copilot, 0, 0),
        "copilot-cross-ap": (k, copilot, 0, 1),
        "orthogonal-same-ap": (k, other, 0, 0),
        "orthogonal-cross-ap": (k, other, 0, 1),
    }


def run_validation(cfg, seed):
    """All closed-form/MC agreement checks at the configured scale.

    The Theorem-1 cases need, under round-robin pilots, a UE sharing UE 0's
    pilot (K > tau), one on another pilot (tau >= 2) and two APs; a config
    without them raises ConfigError before any drop is drawn.
    """
    if cfg.K <= cfg.tau or cfg.tau < 2 or cfg.L < 2:
        raise ConfigError(
            f"validation needs K > tau, tau >= 2 and L >= 2 (a UE sharing "
            f"UE 0's pilot, one on another pilot, and two APs); got "
            f"K={cfg.K}, tau={cfg.tau}, L={cfg.L}")
    ctx, cluster, _ = build_system(cfg, seed, strategy="full")
    checks = []

    cases = theorem1_cases(ctx.plan)
    mc_vals = _kernel_mc(ctx, list(cases.values()), cfg.trials, seed)
    for (case, indices), mc in zip(cases.items(), mc_vals):
        closed = theorem1_kernel(*indices, ctx)
        scale = max(abs(closed), abs(mc), 1e-300)
        checks.append(Check("theorem1-kernel", case, float(abs(closed)),
                            float(abs(mc)), abs(closed - mc) / scale, 0.05))

    prelog = cfg.prelog
    closed_se = distributed_closed_report(ctx, cluster, "lsfd", prelog).se
    mc_report = distributed_mc_report(ctx, cluster, "mrc", "lsfd",
                                      cfg.trials, seed, prelog)
    for k in range(cfg.K):
        gap = abs(closed_se[k] - mc_report.se[k]) / max(closed_se[k], 1e-12)
        checks.append(Check("distributed-se", f"ue{k}", float(closed_se[k]),
                            float(mc_report.se[k]), gap, 0.02))

    closed_c = se_centralized_closed(ctx, cluster, prelog)
    mc_c = centralized_mc_report(ctx, cluster, "mrc", cfg.trials, seed, prelog)
    gap = abs(closed_c.sum() - mc_c.sum_se) / max(closed_c.sum(), 1e-12)
    checks.append(Check("centralized-se", "sum", float(closed_c.sum()),
                        float(mc_c.sum_se), gap, 0.05))
    return checks


def run_invariant_checks(cfg, seed):
    """Structural invariants on a scheduled scenario; returns (name, ok, detail)."""
    ctx, cluster, p_ddot = build_system(cfg, seed)
    stats, plan = ctx.stats, ctx.plan
    eig_floor = -1e-10 * np.max(stats.beta_nlos)
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    herm = np.max(np.abs(stats.R - np.conj(np.swapaxes(stats.R, -1, -2))))
    check("correlation-hermitian", herm < 1e-12, f"max asymmetry {herm:.2e}")
    min_eig = np.min(np.linalg.eigvalsh(hermitize(stats.R)))
    check("correlation-psd", min_eig > eig_floor, f"min eigenvalue {min_eig:.2e}")

    trace = np.trace(stats.R, axis1=-2, axis2=-1).real
    trace_gap = np.max(np.abs(trace - cfg.N * stats.beta_nlos)
                       / (cfg.N * stats.beta_nlos))
    check("correlation-trace", trace_gap < 1e-8, f"max rel gap {trace_gap:.2e}")

    psd_floor = min(0.0, np.min(np.linalg.eigvalsh(hermitize(stats.R - ctx.c_hhat))))
    check("estimate-covariance-ordering", psd_floor > eig_floor,
          f"min eigenvalue {psd_floor:.2e}")

    check("one-primary-per-ue",
          cluster.D[np.arange(cfg.K), cluster.primary].all())
    # at most one secondary UE per (AP, pilot)
    ues, aps = cluster.pairs
    key = (aps * plan.tau + plan.pilot_of[ues])[cluster.primary[ues] != aps]
    check("secondary-pilot-uniqueness", np.all(np.bincount(key) <= 1))
    mask = cluster.overlap_mask
    check("overlap-symmetry", np.array_equal(mask, mask.T))
    full = cfg.p_max_mw * (1.0 - ctx.q.rho_da)
    check("full-power-ue-exists", np.max(p_ddot) == full,
          f"max p̈ {np.max(p_ddot):.6g} vs budget {full:.6g}")
    return results
