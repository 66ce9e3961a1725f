"""Pilot plan, pilot-domain covariances, and MMSE channel estimation.

The pilot plan holds the scheduler's decision only: tau and each UE's pilot.

The estimation context holds the (K, L, N, N) stacks both engines read: the
estimator gains G_kl = (1-rho_ad) sqrt(p̈_k tau) R_kl Psi^{-1}, with which
the Monte Carlo sampler forms estimates, and the estimate covariances
C_kl = (1-rho_ad)^2 p̈_k tau R_kl Psi^{-1} R_kl, which the detectors and the
closed forms read. Both come from one batched solve of every (k, l) system
against the covariance Psi of k's pilot at AP l (``psi_matrix``); Psi and
the solve's Psi^{-1} R are not kept. Built here too: the per-AP
error-plus-noise matrices W, which both centralized engines read, and the
diagonal AP-local noise ``nx``, thermal plus b_ad-bit ADC distortion, which
both distributed engines read.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import _index_array, _is_integer, hermitize
from .quantization import received_noise_covariance


@dataclass(frozen=True)
class PilotPlan:
    """Each UE's pilot. P_k, the UEs sharing UE k's pilot (k included), is
    ``pilot_of == pilot_of[k]``, formed where it is read."""

    tau: int
    pilot_of: np.ndarray       # (K,) int: UE k's pilot index, in [0, tau)

    def __post_init__(self):
        if not (_is_integer(self.tau) and self.tau >= 1):
            raise ValueError(f"tau must be an integer >= 1, got {self.tau!r}")
        # an owned, read-only copy, so the check holds for the plan's life
        object.__setattr__(self, "pilot_of", _index_array("pilot_of", self.pilot_of, self.tau))

    @property
    def K(self):
        return len(self.pilot_of)

    def users_on_pilot(self, t):
        return np.flatnonzero(self.pilot_of == t)


def round_robin_pilots(n_users, tau):
    return PilotPlan(tau, np.arange(n_users) % tau)


def psi_matrix(t, stats, plan, p_ddot, q, c_n):
    """(L, N, N) covariances of the LOS-stripped pilot-t observation at every
    AP, from the (L, N, N) receive-noise covariances ``c_n``."""
    users = plan.users_on_pilot(t)
    psi = np.array(c_n, dtype=complex)
    scale = (1.0 - q.rho_ad) ** 2 * plan.tau
    for i in users:
        psi += scale * p_ddot[i] * stats.R[i]
    return hermitize(psi)


@dataclass(frozen=True)
class EstimationContext:
    """Immutable bundle of channel statistics plus estimation-phase matrices."""

    stats: object
    plan: PilotPlan
    p_ddot: np.ndarray         # (K,) effective transmit powers (DAC gain applied)
    q: object                  # QuantizerConfig
    sigma2: float
    c_n_sqrt: np.ndarray       # (L, N, N) factor F of the receive noise C_n = F F^H
    w: np.ndarray              # (L, N, N) C_n + (1-rho_ad)^2 Sum_i p̈_i (R_il - C_il)
    est_gain: np.ndarray       # (K, L, N, N) estimator gains G_kl
    c_hhat: np.ndarray         # (K, L, N, N) estimate covariances C_kl
    adc_diag: np.ndarray       # (L, N): diag(E[x x^H]) at the ADC input
    nx: np.ndarray             # (L, N): diagonal of the AP-local noise E[n_x n_x^H]

    @property
    def K(self):
        return self.stats.K

    @property
    def L(self):
        return self.stats.L

    @property
    def N(self):
        return self.stats.N

    @property
    def tau(self):
        return self.plan.tau

    @property
    def p_full(self):
        """Raw transmit powers before the DAC gain."""
        return self.p_ddot / (1.0 - self.q.rho_da)


def build_estimation_context(stats, plan, p_ddot, q, sigma2):
    k_count, l_count = stats.K, stats.L
    tau = plan.tau
    p_ddot = np.asarray(p_ddot, dtype=float)
    one_ad = 1.0 - q.rho_ad

    c_n = received_noise_covariance(stats, p_ddot, q, sigma2,
                                    np.arange(k_count), np.arange(l_count))
    c_n_sqrt = np.linalg.cholesky(c_n)

    psi = np.stack([psi_matrix(t, stats, plan, p_ddot, q, c_n)
                    for t in range(tau)])

    # every (k, l) system in one batched solve against k's pilot covariance
    t_mat = np.linalg.solve(psi[plan.pilot_of], stats.R)
    s_mat = hermitize(stats.R @ t_mat)
    gain = one_ad * np.sqrt(p_ddot * tau)
    # left in the transposed layout of the swapaxes product: the sampler's
    # per-UE matmul hands either layout to BLAS and runs as fast on both
    est_gain = gain[:, None, None, None] * np.conj(np.swapaxes(t_mat, -1, -2))
    c_hhat = (one_ad**2 * p_ddot * tau)[:, None, None, None] * s_mat
    # W_l: every UE's estimation-error power plus receive noise at AP l; each
    # pair's p̈_i (R_il - C_il) is formed before the sum, so nothing cancels
    w = c_n + one_ad**2 * np.einsum("i,ilnm->lnm", p_ddot, stats.R - c_hhat)

    # diag of E[x x^H] at the ADC input: full-power channel moments plus thermal
    p_raw = p_ddot / (1.0 - q.rho_da)
    los_diag = np.einsum("i,ilm->lm", p_raw, np.abs(stats.h_bar) ** 2)
    nlos_diag = np.einsum("i,ilmm->lm", p_raw, stats.R).real
    adc_diag = los_diag + nlos_diag + sigma2

    # AP-local noise: thermal plus the ADC distortion of the received signal
    nx = one_ad * (q.rho_ad * adc_diag + one_ad * sigma2)
    return EstimationContext(stats=stats, plan=plan, p_ddot=p_ddot, q=q,
                             sigma2=sigma2, c_n_sqrt=c_n_sqrt, w=w,
                             est_gain=est_gain, c_hhat=c_hhat,
                             adc_diag=adc_diag, nx=nx)


def block_diag_cov(per_ap):
    """(K, L, N, N) per-AP covariances -> (K, LN, LN) exact block diagonals."""
    k_count, l_count, n_ant = per_ap.shape[0], per_ap.shape[1], per_ap.shape[2]
    out = np.zeros((k_count, l_count * n_ant, l_count * n_ant), dtype=complex)
    for l in range(l_count):
        sl = slice(l * n_ant, (l + 1) * n_ant)
        out[:, sl, sl] = per_ap[:, l]
    return out
