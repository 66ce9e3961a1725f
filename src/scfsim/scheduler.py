"""Joint AP cluster formation, pilot assignment, and uplink power control,
plus the exact complexity counts: ``cc_weighting`` for each weighting of
``config.WEIGHTINGS``, ``cc_detector_ce`` for each MMSE-family detector.

Each UE's primary AP is the strongest AP (largest large-scale gain) within
``d_bar`` of it, fixed once before the M passes. Every pass is a few array
steps: pilots are (re)assigned sequentially (the first tau UEs get orthogonal
pilots, each later UE picks the pilot with the least contamination power at
its primary AP); then, in one step per pilot over all APs at once, each AP
adopts at most one additional UE per pilot as a secondary server, subject to
a gain threshold; finally transmit powers are rescaled fractionally so the
weakest UE in every overlap neighbourhood transmits at full power.

The results are the decisions only: a ``ClusterPlan`` (the indicator matrix
D and each UE's primary AP), a ``pilots.PilotPlan`` (each UE's pilot) and
the (K,) array of effective powers p̈. Both plans check their decisions when
they are built and keep read-only copies of them, so a plan that exists is
well formed for its whole life: D is a (K, L) bool matrix and each UE's
primary AP is an index in [0, L) that serves it. The sets read from a
cluster plan are built once per plan, on first read, and are read-only:
M_k, D_l, Q_k, the (K, K) overlap mask, and the numbering of the served
pairs (``pair_of``) that both engines' per-pair arrays follow.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_weighting
from .detectors import detector_sets
from .numerics import _index_array, _is_integer, linear_to_db
from .pilots import PilotPlan


def _read_only(array):
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ClusterPlan:
    """Algorithm 1's service decisions, checked when the plan is built: a
    malformed D or primary, or a primary AP that does not serve its UE,
    raises ``ValueError``. The sets derived from them, M_k, D_l, Q_k, the
    overlap mask and the served-pair numbering, are built on first read and
    are read-only."""

    D: np.ndarray              # (K, L) bool service indicators
    primary: np.ndarray        # (K,) int: UE k's primary AP, which serves it

    def __post_init__(self):
        d_matrix = np.asarray(self.D)
        # an integer 0/1 array converts; any other value would be truncated
        if d_matrix.ndim != 2 or not (d_matrix.dtype == bool or (
                d_matrix.dtype.kind in "iu" and np.isin(d_matrix, (0, 1)).all())):
            raise ValueError(f"D must be a 2-D bool array of service "
                             f"indicators, got {self.D!r}")
        # owned copies, read-only once checked: the checks then hold for the
        # plan's whole life, and so do the sets cached from it
        d_matrix = d_matrix.astype(bool)
        d_matrix.setflags(write=False)
        k_count, l_count = d_matrix.shape
        primary = _index_array("primary", self.primary, l_count, k_count)
        unserved = np.flatnonzero(~d_matrix[np.arange(k_count), primary])
        if unserved.size:
            raise ValueError(f"primary AP of UE {unserved[0]} does not serve it")
        object.__setattr__(self, "D", d_matrix)
        object.__setattr__(self, "primary", primary)

    @property
    def K(self):
        return self.D.shape[0]

    @property
    def L(self):
        return self.D.shape[1]

    @functools.cached_property
    def serving(self):
        """Per UE, M_k: its serving APs as a sorted, read-only int array."""
        return tuple(_read_only(np.flatnonzero(row)) for row in self.D)

    @functools.cached_property
    def served(self):
        """Per AP, D_l: the UEs it serves as a sorted, read-only int array."""
        return tuple(_read_only(np.flatnonzero(col)) for col in self.D.T)

    @functools.cached_property
    def pair_of(self):
        """(K, L) int, read-only: each served pair's row in the UE-major
        order of ``np.nonzero(D)``, -1 off D. UE k's rows are consecutive,
        its serving APs in order, from the sum of |M_i| over i < k."""
        pair_of = np.full(self.D.shape, -1)
        pair_of[self.D] = np.arange(np.count_nonzero(self.D))
        return _read_only(pair_of)

    @functools.cached_property
    def overlap_mask(self):
        """(K, K) bool, read-only: the serving clusters of UEs k and i
        intersect."""
        d_int = self.D.astype(int)
        return _read_only((d_int @ d_int.T) > 0)

    @functools.cached_property
    def overlap(self):
        """Per UE, Q_k: the UEs whose clusters meet its own, as a sorted,
        read-only int array."""
        return tuple(_read_only(np.flatnonzero(row)) for row in self.overlap_mask)


def full_cluster_plan(stats):
    """Canonical unscaled system: every AP serves every UE."""
    d_matrix = np.ones((stats.K, stats.L), dtype=bool)
    primary = np.argmax(stats.beta, axis=1)
    return ClusterPlan(d_matrix, primary)


def equal_powers(n_users, p_max, rho_da):
    """(K,) effective powers p̈, DAC gain included: the full budget each."""
    return np.full(n_users, p_max * (1.0 - rho_da))


def fractional_powers(plan, beta, p_max, rho_da, nu):
    """(K,) effective powers p̈: the weakest UE in each overlap set gets the
    budget."""
    # each UE's gain summed over its own serving APs only: a zero-padded
    # row sum would group the additions differently
    cluster_gain = np.array([beta[k, row].sum() for k, row in enumerate(plan.D)])
    gain_pow = cluster_gain ** nu
    neighbourhood_min = np.where(plan.overlap_mask, gain_pow, np.inf).min(axis=1)
    budget = p_max * (1.0 - rho_da)
    # ratio computed first so the neighbourhood minimum lands exactly on
    # the budget (min/own == 1.0 bitwise when k is its own minimum)
    return budget * (neighbourhood_min / gain_pow)


def run_algorithm1(stats, q, tau, p_max, eta_db=-20.0, nu=0.8, d_bar=None,
                   iterations=2, pilot_override=None):
    """Joint cluster formation / pilot assignment / power control.

    Returns (ClusterPlan, PilotPlan, the (K,) p̈ array). Deterministic:
    ties in every argmax/argmin go to the lowest index. ``pilot_override``
    replaces the contamination-minimizing pilot choice with a fixed
    assignment (comparison baselines); cluster formation and power control
    proceed unchanged.
    Raises ``ConfigError`` if some UE has no AP within ``d_bar``.
    """
    for name, value in (("tau", tau), ("iterations", iterations)):
        if not (_is_integer(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    k_count, l_count = stats.K, stats.L
    if pilot_override is not None:
        pilot_override = PilotPlan(tau, pilot_override).pilot_of
        if len(pilot_override) != k_count:
            raise ValueError(f"pilot_override has {len(pilot_override)} "
                             f"pilots for {k_count} UEs")
    users, aps = np.arange(k_count), np.arange(l_count)
    if d_bar is None:
        d_bar = np.sqrt(2.0) * stats.scenario.area_side
    dist = np.hypot(*(stats.scenario.ue_positions[:, None, :]
                      - stats.scenario.ap_positions[None, :, :]).transpose(2, 0, 1))
    candidates = dist <= d_bar
    missing = np.flatnonzero(~candidates.any(axis=1))
    if missing.size:
        raise ConfigError(f"no candidate AP within d_bar={d_bar:g} m "
                          f"for UEs {missing.tolist()}")

    primary = np.argmax(np.where(candidates, stats.beta, -np.inf), axis=1)
    beta_db = linear_to_db(stats.beta)
    admissible = beta_db - beta_db[users, primary][:, None] >= eta_db
    nlos_at_primary = stats.beta_nlos[:, primary]   # [i, k]: UE i at k's primary
    p_ddot = np.full(k_count, p_max * (1.0 - q.rho_da))

    for _ in range(iterations):
        if pilot_override is not None:
            pilot = pilot_override.copy()
        else:
            pilot = users.copy()     # UEs k < tau keep pilot k
            for k in range(tau, k_count):
                contamination = tau * np.bincount(
                    pilot[:k], p_ddot[:k] * nlos_at_primary[:k, k], minlength=tau)
                pilot[k] = np.argmin(contamination)

        # secondary-AP assignment: one UE per (AP, pilot), threshold-gated;
        # an admission on pilot t changes no other pilot's rows
        d_matrix = np.zeros((k_count, l_count), dtype=bool)
        d_matrix[users, primary] = True
        for t in range(tau):
            on_t = np.flatnonzero(pilot == t)
            if on_t.size == 0:
                continue
            best = on_t[np.argmax(p_ddot[on_t, None] * stats.beta[on_t], axis=0)]
            admit = ~d_matrix[on_t].any(axis=0) & admissible[best, aps]
            d_matrix[best[admit], aps[admit]] = True

        cluster = ClusterPlan(d_matrix, primary)
        p_ddot = fractional_powers(cluster, stats.beta, p_max, q.rho_da, nu)

    return cluster, PilotPlan(tau, pilot), p_ddot


# ---------------------------------------------------------------------------
# complexity accounting (exact integer counts)
# ---------------------------------------------------------------------------

def cc_weighting(plan, pilot_plan, k, weighting):
    """(complex multiplications, complex divisions) to form UE k's weights
    under ``weighting``, one of ``config.WEIGHTINGS``.

    The interference sums run over the UE set S: Q_k for plsfd, every UE
    for lsfd. With m = |M_k| they cost m(m+1)|S|/2, the co-pilot terms of
    P_k ∩ S m(5m+1)/2 each, and the m x m solve (m^3 + 3m^2 - m)/3 plus m
    divisions. The all-ones l2 weighting costs nothing.
    """
    check_weighting(weighting)
    if weighting == "l2":
        return 0, 0
    m = int(np.count_nonzero(plan.D[k]))
    ues = plan.overlap_mask[k] if weighting == "plsfd" else np.ones(plan.K, bool)
    pilot_of = pilot_plan.pilot_of
    copilot = int(np.count_nonzero(ues & (pilot_of == pilot_of[k])))
    cm = (m * (m + 1) * int(np.count_nonzero(ues))) // 2 \
        + (m * (5 * m + 1) * copilot) // 2 + (m**3 + 3 * m**2 - m) // 3
    return cm, m


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
    overlap_total = int(np.count_nonzero(plan.overlap_mask))
    return n_users * n_candidates + (n_users - tau + plan.L + 1) * tau + overlap_total
