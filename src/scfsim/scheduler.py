"""Joint AP cluster formation, pilot assignment, and uplink power control,
plus the complexity accounting for the weighting vectors and detectors.

The algorithm runs M passes. Pass 1 pins each UE to the primary AP with the
strongest large-scale gain. Every pass then (re)assigns pilots sequentially
(first tau UEs get orthogonal pilots, later UEs pick the pilot with the least
contamination power at their primary AP), lets each AP adopt at most one
additional UE per pilot as a secondary server subject to a gain threshold,
and finally rescales transmit powers fractionally so the weakest UE in every
overlap neighbourhood transmits at full power.
"""

import json
from dataclasses import dataclass

import numpy as np

from .detectors import detector_sets
from .numerics import linear_to_db
from .pilots import make_pilot_plan


@dataclass(frozen=True)
class ClusterPlan:
    D: np.ndarray              # (K, L) bool service indicators
    primary: np.ndarray        # (K,) primary AP per UE
    serving: tuple             # per UE: tuple of serving APs (sorted)
    served: tuple              # per AP: tuple of served UEs (sorted)
    served_primary: tuple      # per AP: UEs with that AP as primary
    served_secondary: tuple    # per AP: served UEs with another primary
    overlap: tuple             # per UE: UEs whose cluster intersects its own

    @property
    def K(self):
        return self.D.shape[0]

    @property
    def L(self):
        return self.D.shape[1]

    def to_json(self):
        return json.dumps({
            "primary": self.primary.tolist(),
            "serving": [list(m) for m in self.serving],
        })


@dataclass(frozen=True)
class PowerPlan:
    p_max: float               # power budget per UE (mW)
    nu: float                  # fractional power-control exponent
    p_ddot: np.ndarray         # (K,) effective powers, DAC gain included

    def to_json(self):
        return json.dumps({"p_max": self.p_max, "nu": self.nu,
                           "p_ddot": self.p_ddot.tolist()})


def cluster_plan_from_indicators(d_matrix, primary):
    d_matrix = np.asarray(d_matrix, dtype=bool)
    primary = np.asarray(primary, dtype=int)
    k_count, l_count = d_matrix.shape

    def indices(mask):
        return tuple(int(i) for i in np.flatnonzero(mask))

    serving = tuple(indices(d_matrix[k]) for k in range(k_count))
    served = tuple(indices(d_matrix[:, l]) for l in range(l_count))
    served_primary = tuple(
        tuple(k for k in served[l] if primary[k] == l) for l in range(l_count))
    served_secondary = tuple(
        tuple(k for k in served[l] if primary[k] != l) for l in range(l_count))
    overlap_mask = (d_matrix.astype(int) @ d_matrix.astype(int).T) > 0
    overlap = tuple(indices(overlap_mask[k]) for k in range(k_count))
    for k in range(k_count):
        if not d_matrix[k, primary[k]]:
            raise ValueError(f"primary AP of UE {k} does not serve it")
    return ClusterPlan(D=d_matrix, primary=primary, serving=serving,
                       served=served, served_primary=served_primary,
                       served_secondary=served_secondary, overlap=overlap)


def full_cluster_plan(stats):
    """Canonical unscaled system: every AP serves every UE."""
    d_matrix = np.ones((stats.K, stats.L), dtype=bool)
    primary = np.argmax(stats.beta, axis=1)
    return cluster_plan_from_indicators(d_matrix, primary)


def equal_power_plan(n_users, p_max, rho_da):
    return PowerPlan(p_max=p_max, nu=0.0,
                     p_ddot=np.full(n_users, p_max * (1.0 - rho_da)))


def fractional_powers(plan, beta, p_max, rho_da, nu):
    """Per-UE effective power: weakest UE in each overlap set gets the budget."""
    cluster_gain = np.array([beta[k, list(plan.serving[k])].sum()
                             for k in range(plan.K)])
    gain_pow = cluster_gain ** nu
    budget = p_max * (1.0 - rho_da)
    p_ddot = np.empty(plan.K)
    for k in range(plan.K):
        # ratio computed first so the neighbourhood minimum lands exactly on
        # the budget (min/own == 1.0 bitwise when k is its own minimum)
        ratio = min(gain_pow[q] for q in plan.overlap[k]) / gain_pow[k]
        p_ddot[k] = budget * ratio
    return PowerPlan(p_max=p_max, nu=nu, p_ddot=p_ddot)


def run_algorithm1(stats, q, tau, p_max, eta_db=-20.0, nu=0.8, d_bar=None,
                   iterations=2, pilot_override=None):
    """Joint cluster formation / pilot assignment / power control.

    Returns (ClusterPlan, PilotPlan, PowerPlan). Deterministic: ties in every
    argmax/argmin go to the lowest index. ``pilot_override`` replaces the
    contamination-minimizing pilot choice with a fixed assignment (comparison
    baselines); cluster formation and power control proceed unchanged.
    """
    if tau < 1 or iterations < 1:
        raise ValueError("tau and iterations must be >= 1")
    k_count, l_count = stats.K, stats.L
    beta_db = linear_to_db(stats.beta)
    if d_bar is None:
        d_bar = np.sqrt(2.0) * stats.scenario.area_side
    dist = np.hypot(*(stats.scenario.ue_positions[:, None, :]
                      - stats.scenario.ap_positions[None, :, :]).transpose(2, 0, 1))
    candidates = dist <= d_bar
    if not candidates.any(axis=1).all():
        missing = np.flatnonzero(~candidates.any(axis=1))
        raise ValueError(f"no candidate AP within d_bar for UEs {missing.tolist()}")

    primary = np.zeros(k_count, dtype=int)
    d_matrix = np.zeros((k_count, l_count), dtype=bool)
    pilot = np.full(k_count, -1, dtype=int)
    p_ddot = np.full(k_count, p_max * (1.0 - q.rho_da))

    for m in range(iterations):
        # pilot assignment (and primary-AP election on the first pass)
        for k in range(k_count):
            if m == 0:
                gains = np.where(candidates[k], stats.beta[k], -np.inf)
                primary[k] = int(np.argmax(gains))
                d_matrix[k, primary[k]] = True
            if pilot_override is not None:
                pilot[k] = int(pilot_override[k])
            elif k < tau:
                pilot[k] = k
            else:
                contamination = np.zeros(tau)
                for t in range(tau):
                    on_t = pilot[:k] == t
                    contamination[t] = tau * np.sum(
                        p_ddot[:k][on_t] * stats.beta_nlos[:k, primary[k]][on_t])
                pilot[k] = int(np.argmin(contamination))

        # secondary-AP assignment: one UE per (AP, pilot), threshold-gated
        for l in range(l_count):
            for t in range(tau):
                on_t = np.flatnonzero(pilot == t)
                if on_t.size == 0 or d_matrix[on_t, l].any():
                    continue
                best = on_t[int(np.argmax(p_ddot[on_t] * stats.beta[on_t, l]))]
                if beta_db[best, l] - beta_db[best, primary[best]] >= eta_db:
                    d_matrix[best, l] = True

        plan = cluster_plan_from_indicators(d_matrix, primary)
        p_ddot = fractional_powers(plan, stats.beta, p_max, q.rho_da, nu).p_ddot

        if m < iterations - 1:
            pilot[:] = -1
            d_matrix[:] = False
            d_matrix[np.arange(k_count), primary] = True

    cluster = cluster_plan_from_indicators(d_matrix, primary)
    return (cluster, make_pilot_plan(pilot, tau),
            PowerPlan(p_max=p_max, nu=nu, p_ddot=p_ddot))


# ---------------------------------------------------------------------------
# complexity accounting (exact integer counts)
# ---------------------------------------------------------------------------

def cc_plsfd(plan, pilot_plan, k):
    """(complex multiplications, complex divisions) to form the partial
    LSFD weights of UE k."""
    m = len(plan.serving[k])
    q_k = len(plan.overlap[k])
    pq = len(set(pilot_plan.copilot_sets[k]) & set(plan.overlap[k]))
    cm = (m * (m + 1) * q_k) // 2 + (m * (5 * m + 1) * pq) // 2 \
        + (m**3 + 3 * m**2 - m) // 3
    return cm, m


def cc_lsfd(plan, pilot_plan, k, n_users):
    """Counts for the unscaled LSFD weights (full-K interference sums)."""
    m = len(plan.serving[k])
    p_k = len(pilot_plan.copilot_sets[k])
    cm = (m * (m + 1) * n_users) // 2 + (m * (5 * m + 1) * p_k) // 2 \
        + (m**3 + 3 * m**2 - m) // 3
    return cm, m


def cc_l2_lsfd():
    """The all-ones weighting needs no computation."""
    return 0, 0


def cc_detector_ce(plan, detector, index, n_antennas, tau):
    """Channel-estimation complex multiplications behind one combining vector.

    Each estimate of the detector's estimate set (``detectors.detector_sets``)
    costs N*tau (pilot correlation) plus N^2 (estimator gain) at each of the
    detector's APs: one for the local detectors, |M_k| for the centralized.
    """
    aps, _, est_set, _ = detector_sets(plan, detector, index)
    return n_antennas * (n_antennas + tau) * est_set.size * aps.size


def algorithm1_complexity(plan, n_users, tau, n_candidates):
    """Operation count of one scheduling pass over the whole network."""
    overlap_total = sum(len(plan.overlap[k]) for k in range(plan.K))
    return n_users * n_candidates + (n_users - tau + plan.L + 1) * tau + overlap_total
