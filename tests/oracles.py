"""Per-UE and single-link reference implementations kept as test oracles.

The simulator evaluates both MRC closed forms for every UE at once
(``lsfd.build_ingredients``, ``se_closed.se_centralized_closed``) from the
estimation context's estimator gains G and estimate covariances C. The
oracles derive the receive noise C_n and the products Psi^{-1} R and
R Psi^{-1} R themselves (``receive_noise``, ``estimator_products``: the
pilot covariance of ``pilots.psi_matrix`` and one solve), so they do not
read the context under test for them. The builders below are the former
one-UE-at-a-time versions, with every Theorem-2 ingredient (lambda, b, c,
d) exposed and UE k's Moments as a one-UE size class; ``ue_row`` reads UE
k's row out of the simulator's size classes or Monte Carlo sums, and
``lsfd_weights`` / ``se_from_moments`` are the former per-UE weights and SE
(one 2-D solve, ``np.vdot``) that the batched ones are checked against.
Also the four-case Theorem-1 kernel formula that
``se_closed.theorem1_kernel`` now reads from the closed forms' per-AP kernel
table, and the former builder of the per-AP error-plus-noise matrices W that
the estimation context now holds, and the former two-part formula of the
AP-local noise the context now holds as ``nx`` (``ap_local_noise``).
``run_algorithm1`` and its two helpers are the former loop-based
scheduler, which ``scheduler.run_algorithm1`` runs as array steps;
``cluster_sets`` and ``copilot_sets`` are the former plans' eager sets,
which the plans now derive on first read or their readers form in place. The
Monte Carlo helpers give the stderr group of a batch (``group_of``) and a
batch in the full (n, K, L, N) layout the engines no longer build: every
pair's estimates, the UE-last copy, and the former zero-filled local
combiners. The single-link helpers (LOS steering
vector, PSD square root, one channel draw, one local MMSE estimate, the
DAC/ADC models applied to one signal) are the textbook forms the batched
code paths are checked against; ``toeplitz_psd`` is the former PSD assembly
of the correlation matrices, which ran ``eigh`` on every link.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from scfsim.config import check_weighting
from scfsim.detectors import local_combiners, local_pairs, local_statics
from scfsim.lsfd import Moments
from scfsim.numerics import (NotPositiveSemidefiniteError, crandn, hermitize,
                             linear_to_db, solve_hermitian)
from scfsim.pilots import PilotPlan, psi_matrix
from scfsim.quantization import received_noise_covariance
from scfsim.sampling import estimates, sample_data_noise, sample_joint
from scfsim.scheduler import ClusterPlan
from scfsim.se_mc import STDERR_GROUPS, DistributedSums

SUM_FIELDS = ("g_sum", "w_full", "w_overlap", "f_outer", "d_local")

# eigenvalues above -PSD_CLIP_FRACTION * trace are treated as rounding noise
PSD_CLIP_FRACTION = 1e-10


# ---------------------------------------------------------------------------
# single links
# ---------------------------------------------------------------------------

def los_steering(theta, n_antennas, beta_los):
    """Half-wavelength ULA steering vector scaled to power beta_los per antenna."""
    if n_antennas < 1 or beta_los < 0:
        raise ValueError("need n_antennas >= 1 and beta_los >= 0")
    phases = -1j * np.pi * np.arange(n_antennas) * np.sin(theta)
    return np.sqrt(beta_los) * np.exp(phases)


def hermitian_sqrt(r):
    """PSD square-root factor F with F @ F^H = R (eigh based, clip-tolerant)."""
    r = hermitize(r)
    w, v = np.linalg.eigh(r)
    floor = -PSD_CLIP_FRACTION * max(np.trace(r).real, np.finfo(float).tiny)
    if np.min(w) < floor:
        raise NotPositiveSemidefiniteError(
            f"min eigenvalue {np.min(w):.3e} below tolerance {floor:.3e}")
    return v * np.sqrt(np.clip(w, 0.0, None))


def toeplitz_psd(rows):
    """(J, N) generator rows -> (J, N, N) Hermitian PSD Toeplitz matrices,
    one ``eigh`` per matrix: eigenvalues inside the clip band are zeroed,
    anything more negative raises (the former ``channel._toeplitz_psd``)."""
    n_antennas = rows.shape[1]
    idx = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    full = np.where(idx[None] >= 0, rows[:, np.abs(idx)],
                    np.conj(rows[:, np.abs(idx)]))
    full = hermitize(full)
    w, v = np.linalg.eigh(full)
    trace = np.sum(w, axis=1)
    floor = -np.maximum(trace, np.finfo(float).tiny) * PSD_CLIP_FRACTION
    if np.any(w < floor[:, None]):
        raise NotPositiveSemidefiniteError("quadrature produced an indefinite matrix")
    if np.min(w) < 0.0:
        w = np.clip(w, 0.0, None)
        full = hermitize(np.einsum("jnm,jm,jpm->jnp", v, w, np.conj(v)))
    return full


def sample_channel(h_bar, r, rng):
    """One realization h = h_bar + R^{1/2} w, w standard complex Gaussian."""
    return h_bar + hermitian_sqrt(r) @ crandn(rng, r.shape[-1])


def estimate_local(z_pilot_w, k, l, ctx):
    """MMSE estimate from the LOS-stripped correlated pilot observation."""
    return ctx.stats.h_bar[k, l] + ctx.est_gain[k, l] @ z_pilot_w


def dac_apply(x, rho_da, cov_diag_x, rng):
    """Pass ``x`` through the DAC model; ``cov_diag_x`` is diag(E[x x^H])."""
    cov_diag_x = np.asarray(cov_diag_x, dtype=float)
    if np.any(cov_diag_x < 0):
        raise ValueError("covariance diagonal must be non-negative")
    if rho_da == 0.0:
        return np.asarray(x, dtype=complex)
    noise = crandn(rng, np.shape(x), rho_da * cov_diag_x)
    return np.sqrt(1.0 - rho_da) * x + noise


def adc_apply(x, rho_ad, cov_diag_x, rng):
    """Pass ``x`` through the ADC model; ``cov_diag_x`` is diag(E[x x^H])."""
    cov_diag_x = np.asarray(cov_diag_x, dtype=float)
    if np.any(cov_diag_x < 0):
        raise ValueError("covariance diagonal must be non-negative")
    if rho_ad == 0.0:
        return np.asarray(x, dtype=complex)
    noise = crandn(rng, np.shape(x), rho_ad * (1.0 - rho_ad) * cov_diag_x)
    return (1.0 - rho_ad) * x + noise


# ---------------------------------------------------------------------------
# Monte Carlo batches in the full (n, K, L, N) layout
# ---------------------------------------------------------------------------

def group_of(b_idx, n_batches):
    """Batch ``b_idx``'s stderr group of a ``n_batches``-batch plan,
    b G // B with G = min(STDERR_GROUPS, B): the rule written out, which
    ``se_mc.mc_batches`` owns and the loop oracles do not read."""
    return b_idx * min(STDERR_GROUPS, n_batches) // n_batches


def joint_batch(ctx, rng, n_trials):
    """(h, hhat), both (n, K, L, N): ``sample_joint``'s true channels and
    the estimates of every (UE, AP) pair, as views of trials-last arrays."""
    h, z = sample_joint(ctx, rng, n_trials)
    hhat = estimates(ctx, z, *np.nonzero(np.ones((ctx.K, ctx.L), dtype=bool)))
    hhat = hhat.reshape(ctx.K, ctx.L, ctx.N, n_trials)
    return np.moveaxis(h, -1, 0), np.moveaxis(hhat, -1, 0)


def data_noise_batch(ctx, h, rng):
    """``sample_data_noise`` for an (n, K, L, N) channel batch, (n, L, N)."""
    return np.moveaxis(sample_data_noise(ctx, np.moveaxis(h, 0, -1), rng), -1, 0)


def ue_last(hhat):
    """(n, L, N, K) copy of an (n, K, L, N) batch: the layout
    ``detectors.serving_subspace`` reads."""
    return np.ascontiguousarray(np.moveaxis(hhat, 1, -1))


def zero_filled_local_combiners(hhat, ctx, cluster, method):
    """Local combining vectors (n, K, L, N), zero where l ∉ M_k, as the
    former ``detectors.local_combiners`` built them from a full estimate
    batch: AP l's solve reads AP l's estimates only."""
    statics = local_statics(ctx, cluster, method)
    if method == "mrc":
        return hhat * cluster.D[None, :, :, None]
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    v = np.zeros_like(hhat)
    served_sets = cluster_sets(cluster).served
    for l, (static, est) in enumerate(statics):
        served = np.asarray(served_sets[l], dtype=int)
        if served.size == 0:
            continue
        a = static[None] + one_ad2 * np.einsum(
            "i,bin,bim->bnm", ctx.p_ddot[est], hhat[:, est, l],
            np.conj(hhat[:, est, l]))
        rhs = np.swapaxes(hhat[:, served, l], 1, 2)        # (n, N, |served|)
        sol = np.linalg.solve(a, rhs)
        v[:, served, l] = np.swapaxes(sol, 1, 2)
    return v


def local_combiners_full(hhat, ctx, cluster, method):
    """``detectors.local_combiners`` on an (n, K, L, N) estimate batch,
    scattered into a zero-filled (n, K, L, N) array."""
    est = np.moveaxis(hhat, 0, -1)[local_pairs(cluster, method)]
    v = np.zeros_like(hhat)
    v[(slice(None),) + np.nonzero(cluster.D)] = np.moveaxis(
        local_combiners(est, ctx, cluster, method,
                        local_statics(ctx, cluster, method)), -1, 0)
    return v


# ---------------------------------------------------------------------------
# estimation matrices
# ---------------------------------------------------------------------------

def receive_noise(ctx):
    """(L, N, N) receive-noise covariances C_n, by the call the estimation
    context's builder makes."""
    return received_noise_covariance(ctx.stats, ctx.p_ddot, ctx.q, ctx.sigma2,
                                     np.arange(ctx.K), np.arange(ctx.L))


def estimator_products(ctx):
    """(Psi^{-1} R_kl, R_kl Psi^{-1} R_kl), each (K, L, N, N), with Psi the
    covariance of k's pilot at AP l: one solve of every (k, l) system."""
    c_n = receive_noise(ctx)
    psi = np.stack([psi_matrix(t, ctx.stats, ctx.plan, ctx.p_ddot, ctx.q, c_n)
                    for t in range(ctx.tau)])
    t_mat = np.linalg.solve(psi[ctx.plan.pilot_of], ctx.stats.R)
    return t_mat, hermitize(ctx.stats.R @ t_mat)


# ---------------------------------------------------------------------------
# the distributed closed form, one UE at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LsfdIngredients:
    k: int
    serving: tuple             # M_k
    copilot: tuple             # P_k
    overlap: tuple             # Q_k (equals all UEs for unscaled plans)
    lam: np.ndarray            # (K, |M_k|) complex
    b: np.ndarray              # (K, |M_k|) real; rows meaningful for i in P_k
    c: np.ndarray              # (K, |M_k|) real
    d: np.ndarray              # (|M_k|,) real
    moments: Moments           # UE k's one-UE class; signal = lambda_k^k + b_k^k


def build_ingredients(k, ctx, cluster):
    """Assemble every Theorem-2 ingredient and the Moments of UE k under
    the given plan."""
    stats, plan = ctx.stats, ctx.plan
    sets = cluster_sets(cluster)
    serving = sets.serving[k]
    if len(serving) == 0:
        raise ValueError(f"UE {k} has an empty serving set")
    m_idx = np.asarray(serving, dtype=int)
    copilot = copilot_sets(plan.pilot_of)[k]
    overlap = sets.overlap[k]
    one_ad = 1.0 - ctx.q.rho_ad
    one_ad2 = one_ad ** 2
    tau = ctx.tau
    p = ctx.p_ddot

    h_bar_k = stats.h_bar[k, m_idx]                      # (|M|, N)
    lam = np.einsum("mn,imn->im", np.conj(h_bar_k), stats.h_bar[:, m_idx])

    # trace kernels against this UE's estimator sandwich S_kl = R Psi^{-1} R
    t_mat, s_mat = estimator_products(ctx)
    s_k = s_mat[k, m_idx]                                # (|M|, N, N)
    t_k = t_mat[k, m_idx]                                # (|M|, N, N) = Psi^{-1} R_kl
    r_all = stats.R[:, m_idx]                            # (K, |M|, N, N)

    b = np.zeros((ctx.K, len(serving)))
    tr_i_tk = np.einsum("imnp,mpn->im", r_all, t_k).real  # tr(R_il Psi^{-1} R_kl)
    cp_idx = np.asarray(copilot, dtype=int)
    b[cp_idx] = one_ad2 * tau * np.sqrt(p[k] * p[cp_idx])[:, None] * tr_i_tk[cp_idx]

    c = one_ad2 * tau * p[k] * np.einsum("imnp,mpn->im", r_all, s_k).real
    c += np.einsum("mn,imnp,mp->im", np.conj(h_bar_k), r_all, h_bar_k).real
    c += one_ad2 * tau * p[k] * np.einsum(
        "imn,mnp,imp->im", np.conj(stats.h_bar[:, m_idx]), s_k,
        stats.h_bar[:, m_idx]).real

    # AP-local noise kernel d_kl = tr(E[n_x n_x^H] E[hhat hhat^H])
    nlos_diag = np.einsum("i,imnn->mn", p, r_all).real            # (|M|, N)
    d = (ctx.q.rho_ad * one_ad / (1.0 - ctx.q.rho_da)) * np.einsum(
        "mn,mn->m", np.abs(h_bar_k) ** 2, nlos_diag)
    d += (ctx.q.rho_ad * one_ad**3 / (1.0 - ctx.q.rho_da)) * tau * p[k] * \
        np.einsum("mn,mnn->m", nlos_diag, s_k).real
    iso = one_ad * (ctx.sigma2 + (ctx.q.rho_ad / (1.0 - ctx.q.rho_da))
                    * np.einsum("i,im->m", p, stats.beta_los[:, m_idx]))
    d += iso * (np.einsum("mn,mn->m", np.conj(h_bar_k), h_bar_k).real
                + one_ad2 * tau * p[k] * np.einsum("mnn->m", s_k).real)

    signal = lam[k] + b[k]

    diag = np.arange(len(serving))

    def interference(sum_idx, copilot_idx):
        # Per-interferer terms p_i (lam_i lam_i^H + diag c_i) over the sum set,
        # then p_i (b_i b_i^T + b_i lam_i^H + lam_i b_i^T) over the co-pilot
        # set, stacked and summed along the stack in that order: the same
        # additions in the same order as accumulating one UE at a time
        # (cumsum, because sum turns pairwise when |M_k| = 1).
        lam_s, lam_c, b_c = lam[sum_idx], lam[copilot_idx], b[copilot_idx]
        los = lam_s[:, :, None] * np.conj(lam_s[:, None, :])
        los[:, diag, diag] += c[sum_idx]
        terms = np.concatenate((
            p[sum_idx, None, None] * los,
            p[copilot_idx, None, None] * (
                b_c[:, :, None] * b_c[:, None, :]
                + b_c[:, :, None] * np.conj(lam_c[:, None, :])
                + lam_c[:, :, None] * b_c[:, None, :])))
        acc = np.cumsum(terms, axis=0)[-1]
        acc *= one_ad2 / (1.0 - ctx.q.rho_da)
        acc -= one_ad2 * p[k] * np.outer(signal, np.conj(signal))
        acc += np.diag(d)
        return hermitize(acc)

    moments = Moments(
        ues=np.array([k]), signal=signal[None],
        c_full=interference(np.arange(ctx.K), cp_idx)[None],
        c_partial=interference(
            np.asarray(overlap, dtype=int),
            np.asarray(sorted(set(copilot) & set(overlap)), dtype=int))[None],
        p_ddot=p[[k]], one_ad2=one_ad2)
    return LsfdIngredients(
        k=k, serving=tuple(serving), copilot=tuple(copilot),
        overlap=tuple(overlap), lam=lam, b=b, c=c, d=d, moments=moments)


def ue_row(x, k):
    """UE k's row: of a tuple of size classes (``lsfd.build_ingredients``,
    ``DistributedSums.moments``), the one-UE class; of a
    ``DistributedSums``, the views (groups, m[, m]) of its five sums by
    name, which the loop oracles add to in place."""
    sums = isinstance(x, DistributedSums)
    ues = x.ues if sums else [m.ues for m in x]
    hits = [(c, j) for c, u in enumerate(ues) for j in np.flatnonzero(u == k)]
    assert len(hits) == 1, f"UE {k} sits in {len(hits)} class rows"
    c, j = hits[0]
    if sums:
        return {name: getattr(x, name)[c][:, j] for name in SUM_FIELDS}
    return dataclasses.replace(x[c], **{
        name: getattr(x[c], name)[j:j + 1]
        for name in ("ues", "signal", "c_full", "c_partial", "p_ddot")})


def lsfd_weights(moments, weighting):
    """The former per-UE second-stage weights of a one-UE class: one 2-D
    solve."""
    check_weighting(weighting)
    signal = moments.signal[0]
    if weighting == "l2":
        return np.ones(len(signal), dtype=complex)
    c = moments.c_full if weighting == "lsfd" else moments.c_partial
    return solve_hermitian(c[0], signal)


def se_from_moments(moments, weighting, prelog):
    """The former per-UE distributed SE of a one-UE class, in ``np.vdot``
    form."""
    a = lsfd_weights(moments, weighting)
    if not np.any(a):
        raise ValueError("all-zero weighting vector")
    num = moments.one_ad2 * moments.p_ddot[0] * np.abs(
        np.vdot(a, moments.signal[0])) ** 2
    den = np.real(np.vdot(a, moments.c_full[0] @ a))
    return prelog * np.log2(1.0 + num / den)


def theorem1_kernel(k, i, l1, l2, ctx):
    """E[hhat_{k,l1}^H h_{i,l1} h_{i,l2}^H hhat_{k,l2}] by the four-case
    formula of Theorem 1: pilot sharing (i co-pilot with k or not) times
    l1 == l2 or not."""
    stats = ctx.stats
    copilot = i in copilot_sets(ctx.plan.pilot_of)[k]
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot

    h_k1, h_i1 = stats.h_bar[k, l1], stats.h_bar[i, l1]
    h_k2, h_i2 = stats.h_bar[k, l2], stats.h_bar[i, l2]
    los_cross = np.vdot(h_k1, h_i1) * np.vdot(h_i2, h_k2)
    t_mat, s_mat = estimator_products(ctx)

    if l1 == l2:
        s_k = s_mat[k, l1]
        common = (np.vdot(h_k1, stats.R[i, l1] @ h_k1)
                  + one_ad2 * tau * p[k] * (
                      np.trace(stats.R[i, l1] @ s_k)
                      + np.vdot(h_i1, s_k @ h_i1)))
        value = los_cross + common
        if copilot:
            tr1 = np.trace(stats.R[i, l1] @ t_mat[k, l1])
            value += one_ad2**2 * tau**2 * p[k] * p[i] * np.abs(tr1) ** 2
            value += 2.0 * one_ad2 * tau * np.sqrt(p[i] * p[k]) * np.real(
                tr1 * np.vdot(h_i1, h_k1))
        return complex(value)

    if not copilot:
        return complex(los_cross)
    psi = psi_matrix(ctx.plan.pilot_of[k], stats, ctx.plan, p, ctx.q,
                     receive_noise(ctx))
    tr1 = np.trace(stats.R[i, l1] @ t_mat[k, l1])
    tr2 = np.trace(stats.R[k, l2] @ np.linalg.solve(psi[l2], stats.R[i, l2]))
    value = los_cross + one_ad2**2 * tau**2 * p[k] * p[i] * tr1 * tr2
    value += one_ad2 * tau * np.sqrt(p[k] * p[i]) * (
        np.vdot(h_i2, h_k2) * tr1 + np.vdot(h_k1, h_i1) * tr2)
    return complex(value)


# ---------------------------------------------------------------------------
# the centralized closed form, one UE at a time
# ---------------------------------------------------------------------------

def centralized_error_noise(ctx):
    """(L, N, N) per-AP W_l as the estimation context's former builder
    computed it: the MMSE static-part blocks on every AP, the receive noise
    rebuilt for every UE through fancy-index copies."""
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    every, aps = np.arange(ctx.K), np.arange(ctx.L)
    stats = ctx.stats
    est, stat = np.ix_(every, aps), np.ix_(every[:0], aps)
    return receive_noise(ctx) + one_ad2 * (
        np.einsum("i,ianm->anm", ctx.p_ddot[every], stats.R[est] - ctx.c_hhat[est])
        + np.einsum("i,ianm->anm", ctx.p_ddot[every[:0]], stats.R[stat]))


def ap_local_noise(ctx):
    """(L, N) diagonal AP-local noise as the estimation context's former
    builder computed it: a channel-independent diagonal part from R's
    diagonal and an isotropic part from thermal noise and the LOS powers,
    added together."""
    q, p = ctx.q, ctx.p_ddot
    one_ad = 1.0 - q.rho_ad
    nx_diag = (q.rho_ad * one_ad / (1.0 - q.rho_da)) * np.einsum(
        "i,ilmm->lm", p, ctx.stats.R).real
    nx_iso = one_ad * (ctx.sigma2 + (q.rho_ad / (1.0 - q.rho_da))
                       * np.einsum("i,il->l", p, ctx.stats.beta_los))
    return nx_diag + nx_iso[:, None]


def f_kernels(k, ctx, cluster):
    """Estimate-moment kernels (f^g, f^e) of UE k against every UE i at once.

    Returns two (K,) vectors indexed by the interferer i, each contracted
    over k's serving APs and their antennas; f^e is zero off k's pilot.
    """
    stats = ctx.stats
    m_idx = np.flatnonzero(cluster.D[k])
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    tau, p = ctx.tau, ctx.p_ddot
    h_bar_k = stats.h_bar[k, m_idx]                      # (|M|, N)
    h_bar = stats.h_bar[:, m_idx]                        # (K, |M|, N)
    t_mat, s_mat = estimator_products(ctx)
    s_all = s_mat[:, m_idx]                              # (K, |M|, N, N)
    s_k = s_mat[k, m_idx]
    los_cross = np.einsum("mn,imn->i", np.conj(h_bar_k), h_bar)

    tr_mix = np.einsum("imnp,mpn->i", s_all, s_k).real
    # h_bar_k^H S_il h_bar_k and h_bar_i^H S_kl h_bar_i, summed over serving APs
    quad_ki = np.einsum("mn,imnp,mp->i", np.conj(h_bar_k), s_all, h_bar_k).real
    quad_ik = np.einsum("imn,mnp,imp->i", np.conj(h_bar), s_k, h_bar).real
    # tr(R_il Psi_k^{-1} R_kl): the co-pilot coupling
    tr_cross = np.einsum("imnp,mpn->i", stats.R[:, m_idx],
                         t_mat[k, m_idx]).real

    f_g = np.abs(los_cross) ** 2
    f_g += one_ad2**2 * tau**2 * p[k] * p * tr_mix
    f_g += one_ad2 * tau * p * quad_ki
    f_g += one_ad2 * tau * p[k] * quad_ik

    f_e = one_ad2**2 * tau**2 * p[k] * p * tr_cross**2
    f_e += 2.0 * one_ad2 * tau * np.sqrt(p * p[k]) * tr_cross * los_cross.real
    f_e[ctx.plan.pilot_of != ctx.plan.pilot_of[k]] = 0.0
    return f_g, f_e


def se_centralized_closed(k, ctx, cluster, prelog):
    """Centralized MRC SE of UE k, hardening-style closed-form approximation."""
    one_ad2 = (1.0 - ctx.q.rho_ad) ** 2
    p = ctx.p_ddot
    f_g, f_e = f_kernels(k, ctx, cluster)
    num = one_ad2 * p[k] * (f_g[k] + f_e[k])

    others = np.ones(ctx.K, dtype=bool)
    others[k] = False
    interference = np.dot(p[others], f_g[others] + f_e[others])

    m_idx = np.flatnonzero(cluster.D[k])
    h_bar_k = ctx.stats.h_bar[k, m_idx]
    e_hh = (np.einsum("mn,mp->mnp", h_bar_k, np.conj(h_bar_k))
            + ctx.c_hhat[k, m_idx])
    noise = np.einsum("mnp,mpn->", ctx.w[m_idx], e_hh).real
    den = one_ad2 * interference + noise
    return prelog * np.log2(1.0 + num / den)


# ---------------------------------------------------------------------------
# Algorithm 1, one AP, pilot and UE at a time
# ---------------------------------------------------------------------------

def rows(mask):
    """Per row of a bool mask, the sorted tuple of its True columns."""
    return tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in mask)


@dataclass(frozen=True)
class ClusterSets:
    """The sets a cluster plan's decisions define, as sorted tuples."""
    serving: tuple             # per UE: M_k
    served: tuple              # per AP: D_l
    served_primary: tuple      # per AP: served UEs with that AP as primary
    served_secondary: tuple    # per AP: served UEs with another primary
    overlap: tuple             # per UE: Q_k, the UEs whose cluster meets M_k


def cluster_sets(cluster):
    """Every set of ``cluster``, from its D and primaries, one loop each."""
    d_matrix, primary = np.asarray(cluster.D, dtype=bool), cluster.primary
    serving, served = rows(d_matrix), rows(d_matrix.T)
    served_primary = tuple(tuple(k for k in ues if primary[k] == l)
                           for l, ues in enumerate(served))
    served_secondary = tuple(tuple(k for k in ues if primary[k] != l)
                             for l, ues in enumerate(served))
    aps = [set(m) for m in serving]
    overlap = tuple(tuple(i for i in range(len(aps)) if aps[i] & aps[k])
                    for k in range(len(aps)))
    return ClusterSets(serving, served, served_primary, served_secondary, overlap)


def copilot_sets(pilot_of):
    """Per UE, P_k: the sorted tuple of UEs on its pilot, itself included."""
    pilot_of = np.asarray(pilot_of)
    return tuple(tuple(int(i) for i in np.flatnonzero(pilot_of == pilot_of[k]))
                 for k in range(len(pilot_of)))


def cluster_plan_from_indicators(d_matrix, primary):
    d_matrix = np.asarray(d_matrix, dtype=bool)
    primary = np.asarray(primary, dtype=int)
    for k in range(d_matrix.shape[0]):
        if not d_matrix[k, primary[k]]:
            raise ValueError(f"primary AP of UE {k} does not serve it")
    return ClusterPlan(D=d_matrix, primary=primary)


def fractional_powers(plan, beta, p_max, rho_da, nu):
    """Per-UE effective power: weakest UE in each overlap set gets the budget."""
    sets = cluster_sets(plan)
    cluster_gain = np.array([beta[k, list(sets.serving[k])].sum()
                             for k in range(plan.K)])
    gain_pow = cluster_gain ** nu
    budget = p_max * (1.0 - rho_da)
    p_ddot = np.empty(plan.K)
    for k in range(plan.K):
        ratio = min(gain_pow[q] for q in sets.overlap[k]) / gain_pow[k]
        p_ddot[k] = budget * ratio
    return p_ddot


def run_algorithm1(stats, q, tau, p_max, eta_db=-20.0, nu=0.8, d_bar=None,
                   iterations=2, pilot_override=None):
    """Joint cluster formation / pilot assignment / power control, with a
    Python loop over every UE, pilot and (AP, pilot) pair. Returns
    (ClusterPlan, PilotPlan, p̈)."""
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

        for l in range(l_count):
            for t in range(tau):
                on_t = np.flatnonzero(pilot == t)
                if on_t.size == 0 or d_matrix[on_t, l].any():
                    continue
                best = on_t[int(np.argmax(p_ddot[on_t] * stats.beta[on_t, l]))]
                if beta_db[best, l] - beta_db[best, primary[best]] >= eta_db:
                    d_matrix[best, l] = True

        plan = cluster_plan_from_indicators(d_matrix, primary)
        p_ddot = fractional_powers(plan, stats.beta, p_max, q.rho_da, nu)

        if m < iterations - 1:
            pilot[:] = -1
            d_matrix[:] = False
            d_matrix[np.arange(k_count), primary] = True

    cluster = cluster_plan_from_indicators(d_matrix, primary)
    return cluster, PilotPlan(tau, pilot), p_ddot
