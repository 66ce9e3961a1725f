"""Network geometry and per-link channel statistics.

Each UE-AP link carries a large-scale gain split into a deterministic LOS ray
(steering vector of a half-wavelength ULA) and a correlated NLOS part whose
spatial correlation matrix follows a Gaussian local-scattering model evaluated
by adaptive Gauss-Legendre quadrature.

Two checks of that quadrature are skipped where a cheaper fact proves their
outcome, so R keeps every bit. A Gauss-Legendre error bound, which depends
on (ASD, N) only, certifies that 128 and 256 nodes agree to QUAD_RTOL, and
only the 256-node pass then runs (``_converged_rows``). A Cholesky
factorization of each chunk, shifted down by a trace-scaled margin, proves
that no eigenvalue needs clipping, and the ``eigh`` then does not run
(``_toeplitz_psd``). Where a proof fails, the full check runs.

``channel_statistics`` runs that quadrature on a thread pool, one
``CORRELATION_CHUNK`` of links per task: ``np.exp`` and the quadrature's
matrix-vector product release the GIL. The pool has min(chunks, CPUs this
process may run on) threads, and one inside a ``multiprocessing`` child (a
harness pool worker), so threads times processes stay within the cores.
Every link gets the same arithmetic as a serial build, so R is
bit-identical for any thread count.
"""

import functools
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numerics import (NotPositiveSemidefiniteError, _is_integer,
                       _usable_cpus, db_to_linear, hermitize)
from .rng import substream

PATHLOSS_INTERCEPT_DB = -30.5
PATHLOSS_SLOPE_DB = 36.7
SHADOW_STD_DB = 4.0
RICIAN_INTERCEPT_DB = 13.0
RICIAN_SLOPE_DB_PER_M = 0.03
MIN_DISTANCE_M = 1.0        # floor keeps the log-distance law finite at the AP
# The node doubling starts at 128: antenna 0's entry of every row is the sum
# of the Gaussian weights, which in x-units is the same for every angle and
# ASD (the interval is ±20 ASD, so the ASD cancels up to rounding). The 64-
# and 128-node sums differ by 3.38e-9 relative, 34× QUAD_RTOL, and that entry
# is each row's largest, so a 64-node pass could never pass the check. A
# QUAD_RTOL above that gap would let a 64-node pass converge, and the 128
# start would then skip it.
QUAD_RTOL = 1e-10
QUAD_MAX_NODES = 1 << 13    # leggauss's n x n companion matrix: 512 MiB
# Links per private sub-block of _correlation_rows. A row does not depend on
# how many rows share the matrix-vector product, so this only bounds the
# phase temporary (0.4 MB at N=3, 256 nodes): glibc keeps each worker
# thread's freed temporaries in that thread's arena, so chunk-sized ones
# (6.3 MB) would be held once per thread. 32 rather than 64 links took
# 1.4 MB off the paper-scale peak RSS at about 1% of the build's time.
_ROW_BLOCK = 32


class QuadratureError(RuntimeError):
    """Correlation integral failed to converge within the node budget."""


@dataclass(frozen=True)
class Scenario:
    area_side: float
    ap_positions: np.ndarray    # (L, 2) m
    ue_positions: np.ndarray    # (K, 2) m
    antennas_per_ap: int

    def __post_init__(self):
        if not (np.isfinite(self.area_side) and self.area_side > 0):
            raise ValueError(f"area_side must be finite and > 0, "
                             f"got {self.area_side!r}")
        if not (_is_integer(self.antennas_per_ap) and self.antennas_per_ap >= 1):
            raise ValueError(f"antennas_per_ap must be an integer >= 1, "
                             f"got {self.antennas_per_ap!r}")
        if self.ap_positions.ndim != 2 or self.ap_positions.shape[1] != 2:
            raise ValueError("ap_positions must be (L, 2)")
        if self.ue_positions.ndim != 2 or self.ue_positions.shape[1] != 2:
            raise ValueError("ue_positions must be (K, 2)")
        if len(self.ap_positions) < 1 or len(self.ue_positions) < 1:
            raise ValueError("need at least one AP and one UE")
        for pos in (self.ap_positions, self.ue_positions):
            if np.any(pos < 0) or np.any(pos > self.area_side):
                raise ValueError("positions must lie inside the deployment square")

    @property
    def L(self):
        return len(self.ap_positions)

    @property
    def K(self):
        return len(self.ue_positions)

    @property
    def N(self):
        return self.antennas_per_ap


@dataclass(frozen=True)
class ChannelStatistics:
    """All per-link statistics for one (scenario, shadow-fading) realization."""

    scenario: Scenario
    beta: np.ndarray        # (K, L)
    kappa: np.ndarray       # (K, L)
    theta: np.ndarray       # (K, L)
    beta_los: np.ndarray    # (K, L)
    beta_nlos: np.ndarray   # (K, L)
    h_bar: np.ndarray       # (K, L, N)
    R: np.ndarray           # (K, L, N, N)

    @property
    def K(self):
        return self.scenario.K

    @property
    def L(self):
        return self.scenario.L

    @property
    def N(self):
        return self.scenario.N

    @functools.cached_property
    def r_sqrt(self):
        """(K, L, N, N) factors F with F F^H = R, for the samplers; built on
        first use, since only Monte Carlo reads them."""
        w, v = np.linalg.eigh(hermitize(self.R))
        return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def generate_scenario(cfg, seed):
    """Drop L APs and K UEs uniformly at random over the deployment square."""
    rng = substream(seed, "scenario")
    ap = rng.uniform(0.0, cfg.area_side, size=(cfg.L, 2))
    ue = rng.uniform(0.0, cfg.area_side, size=(cfg.K, 2))
    return Scenario(area_side=cfg.area_side, ap_positions=ap, ue_positions=ue,
                    antennas_per_ap=cfg.N)


def large_scale_fading(distance_m, shadow_db=0.0):
    """Log-distance pathloss with shadow fading, returned as a linear gain."""
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("distance must be positive")
    gain_db = (PATHLOSS_INTERCEPT_DB
               - PATHLOSS_SLOPE_DB * np.log10(distance_m / 1.0)
               + shadow_db)
    return db_to_linear(gain_db)


def rician_factor(distance_m, rayleigh=False):
    """Distance-driven Rician factor (linear); 0 everywhere in Rayleigh mode."""
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("distance must be positive")
    if rayleigh:
        return np.zeros_like(distance_m)
    return db_to_linear(RICIAN_INTERCEPT_DB - RICIAN_SLOPE_DB_PER_M * distance_m)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]. The adaptive
    quadrature doubles from 128 nodes up to QUAD_MAX_NODES, so at most 7
    node counts ever occur."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _correlation_rows(thetas, asd, n_antennas, n_nodes):
    """Toeplitz generator rows of the local-scattering integral, one per
    nominal angle, at a fixed Gauss-Legendre node count."""
    half = 20.0 * asd
    x, w = _gauss_legendre(n_nodes)
    delta = half * x
    weight = half * w / (np.sqrt(2.0 * np.pi) * asd) * np.exp(-delta**2 / (2.0 * asd**2))
    thetas = np.asarray(thetas, dtype=float)
    jpi_m = (1j * np.pi * np.arange(1, n_antennas))[None, :, None]
    rows = np.empty((len(thetas), n_antennas), dtype=complex)
    for lo in range(0, len(thetas), _ROW_BLOCK):
        s = np.sin(thetas[lo:lo + _ROW_BLOCK, None] + delta[None, :])
        # row[j, m] = ∫ exp(jπ m sin(θ_j+δ)) N(δ; 0, asd²) dδ over ±20 asd.
        # Antenna 0's phase is 0 and its exp exactly 1, so only m >= 1 is
        # built and exponentiated. The phase is (jπm)·sin, in that order:
        # R's bits depend on it. The exp runs in place, which halves the
        # largest temporary of the statistics build.
        phase = np.empty((len(s), n_antennas, len(delta)), dtype=complex)
        phase[:, 0] = 1.0
        tail = np.multiply(jpi_m, s[:, None, :], out=phase[:, 1:])
        np.exp(tail, out=tail)
        rows[lo:lo + _ROW_BLOCK] = phase @ weight
    return rows


@functools.lru_cache(maxsize=64)
def _certified_gap(asd, n_antennas):
    """Upper bound on the largest gap between any row's 128- and 256-node
    evaluations, for every nominal angle.

    In x-units (delta = 20 asd x) the integrand is
    f(x) = 20/sqrt(2 pi) exp(-200 x^2) exp(j pi m sin(theta + 20 asd x)),
    analytic in x. On the Bernstein ellipse E_rho with semi-minor axis
    b = (rho - 1/rho)/2, |f| <= M = 20/sqrt(2 pi) exp(200 b^2
    + pi (N-1) sinh(20 asd b)) for every theta and m <= N-1. An n-node
    Gauss-Legendre rule, read conservatively as degree n-1, is then off by at
    most B(n) = 64 M rho^(-2(n-1)) / (15 (rho^2 - 1)) (Trefethen, ATAP
    Thm 19.3). Any rho gives a valid bound, so the smallest B(128) + B(256)
    on a fixed grid of b is taken, plus a rounding term for the two sums.
    Evaluated in log space; a sinh argument past 30 gives an infinite bound,
    which is still an upper bound and never certifies.
    """
    b = np.linspace(0.0, 2.0, 513)[1:]
    log_rho = np.arcsinh(b)
    arg = 20.0 * asd * b
    spread = np.pi * (n_antennas - 1) * np.sinh(np.minimum(arg, 30.0))
    log_m = (np.log(20.0 / np.sqrt(2.0 * np.pi)) + 200.0 * b * b
             + np.where(arg > 30.0, np.inf, spread))
    log_front = np.log(64.0 / 15.0) + log_m - np.log(np.expm1(2.0 * log_rho))
    log_gap = np.logaddexp(log_front - 254.0 * log_rho,
                           log_front - 510.0 * log_rho)
    eps = np.finfo(float).eps
    rounding = eps * (256 + np.pi * (n_antennas - 1) * (np.pi + 20.0 * asd + 1.0))
    return float(np.exp(np.min(log_gap))) + rounding


def _converged_rows(thetas, asd, n_antennas, max_nodes):
    """Node count doubled from 128 until successive evaluations agree to
    QUAD_RTOL.

    Each row's largest entry, antenna 0's, is the Gaussian weight sum, about
    1, so a gap bound of QUAD_RTOL/2 from ``_certified_gap`` proves that the
    128 -> 256 comparison passes, and only the 256-node rows it would return
    are computed. Where the bound is larger (wide ASD or many antennas) or
    the budget is below 256 nodes, the doubling runs in full.
    """
    if max_nodes >= 256 and _certified_gap(asd, n_antennas) <= QUAD_RTOL / 2:
        return _correlation_rows(thetas, asd, n_antennas, 256)
    rows, n_nodes = None, 128
    while n_nodes <= max_nodes:
        refined = _correlation_rows(thetas, asd, n_antennas, n_nodes)
        if rows is not None:
            scale = np.maximum(np.max(np.abs(refined), axis=1), 1e-300)
            if np.max(np.max(np.abs(refined - rows), axis=1) / scale) <= QUAD_RTOL:
                return refined
        rows, n_nodes = refined, 2 * n_nodes
    raise QuadratureError(f"correlation quadrature did not reach rtol={QUAD_RTOL} "
                          f"within {max_nodes} nodes at asd_deg="
                          f"{np.degrees(asd):g}, N={n_antennas}: lower asd_deg or N")


def _toeplitz_psd(rows):
    """(J, N) generator rows -> (J, N, N) Hermitian PSD Toeplitz matrices.

    Gauss-Legendre weights are positive, so the integrated matrix is PSD up
    to rounding; eigenvalues inside the clip band are zeroed, anything more
    negative raises.

    The ``eigh`` runs only where a clip or a raise could happen. If the
    Cholesky factorization of every full - s trace I succeeds, each matrix's
    smallest eigenvalue exceeds s trace less the factorization's backward
    error, about N(N+1)u times its norm (Higham, "Accuracy and Stability of
    Numerical Algorithms", Thm 10.5). s = max(1e-12, 4 N^2 eps) keeps that
    margin above the backward error of ``eigh`` too, so its eigenvalues
    would all be >= 0 and ``full`` would come back unchanged: it is returned
    as it is. A chunk with any matrix that fails (narrow ASD with many
    antennas: at ASD 0.5 deg and N = 8 most links clip) takes the ``eigh``
    path.
    """
    n_antennas = rows.shape[1]
    idx = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    full = np.where(idx[None] >= 0, rows[:, np.abs(idx)],
                    np.conj(rows[:, np.abs(idx)]))
    full = hermitize(full)
    shift = max(1e-12, 4 * n_antennas**2 * np.finfo(float).eps) \
        * np.trace(full, axis1=1, axis2=2).real
    try:
        np.linalg.cholesky(full - shift[:, None, None] * np.eye(n_antennas))
    except np.linalg.LinAlgError:
        pass
    else:
        return full
    w, v = np.linalg.eigh(full)
    trace = np.sum(w, axis=1)
    floor = -np.maximum(trace, np.finfo(float).tiny) * 1e-10
    if np.any(w < floor[:, None]):
        raise NotPositiveSemidefiniteError("quadrature produced an indefinite matrix")
    if np.min(w) < 0.0:
        w = np.clip(w, 0.0, None)
        full = hermitize(np.einsum("jnm,jm,jpm->jnp", v, w, np.conj(v)))
    return full


def _check_asd(asd):
    # The quadrature weights divide by asd and by 2 asd**2. NaN, 0 or inf,
    # or an asd whose square underflows below the smallest normal float,
    # makes them NaN (asd**2 == 0) or finite but wrong (a subnormal asd**2:
    # at 1e-160 degrees they sum to 1.33). NaN weights never converge, so
    # the node doubling would spend its whole budget before failing. Past
    # pi, outside the model, the rows take minutes to converge, if ever.
    if not (np.isfinite(asd) and 0 < asd <= np.pi):
        raise ValueError(f"angular standard deviation must be finite, > 0 "
                         f"and at most pi rad, got {asd}")
    if asd**2 < np.finfo(float).tiny:
        raise ValueError(f"angular standard deviation {asd} rad is too small: "
                         f"its square underflows")


def spatial_correlation(theta, asd, beta_nlos, n_antennas,
                        max_nodes=QUAD_MAX_NODES):
    """Spatial correlation matrix of the NLOS component for a ULA.

    The angular integral depends only on the antenna index difference, so a
    single Toeplitz generator row is integrated and the matrix assembled
    exactly Hermitian, then PSD-clipped against quadrature noise.
    """
    _check_asd(asd)
    rows = _converged_rows([theta], asd, n_antennas, max_nodes)
    return beta_nlos * _toeplitz_psd(rows)[0]


# Links per quadrature task. Fixed, not derived from the thread count: each
# chunk stops doubling its node count on the worst link in it, so moving a
# boundary can change a link's node count and with it the bits of R.
CORRELATION_CHUNK = 512


def _quadrature_threads(n_chunks):
    if multiprocessing.parent_process() is not None:
        return 1
    return min(n_chunks, _usable_cpus())


def channel_statistics(scenario, seed, asd_rad, rayleigh=False):
    """Build every link's statistics; shadow fading drawn from the seed.

    The correlation quadrature runs on min(chunks, usable CPUs) threads, one
    inside a ``multiprocessing`` child. The workers run only the private
    quadrature helpers and numpy; the PSD assembly, which calls public
    ``numerics`` functions, runs on the calling thread in chunk order.
    R is bit-identical for any thread count.
    """
    _check_asd(asd_rad)
    rng = substream(seed, "shadow")
    k_count, l_count, n_ant = scenario.K, scenario.L, scenario.N
    diff = scenario.ue_positions[:, None, :] - scenario.ap_positions[None, :, :]
    dist = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), MIN_DISTANCE_M)
    theta = np.arctan2(diff[..., 1], diff[..., 0])
    shadow = rng.normal(0.0, SHADOW_STD_DB, size=(k_count, l_count))
    beta = large_scale_fading(dist, shadow)
    kappa = rician_factor(dist, rayleigh=rayleigh)
    beta_los = beta * kappa / (kappa + 1.0)
    beta_nlos = beta / (kappa + 1.0)

    phases = np.exp(-1j * np.pi * np.arange(n_ant)[None, None, :]
                    * np.sin(theta)[..., None])
    h_bar = np.sqrt(beta_los)[..., None] * phases

    flat_theta = theta.reshape(-1)
    starts = range(0, len(flat_theta), CORRELATION_CHUNK)
    corr = np.empty((k_count * l_count, n_ant, n_ant), dtype=complex)
    with ThreadPoolExecutor(_quadrature_threads(len(starts))) as pool:
        chunks = pool.map(
            lambda lo: _converged_rows(flat_theta[lo:lo + CORRELATION_CHUNK],
                                       asd_rad, n_ant, QUAD_MAX_NODES),
            starts)
        for lo, rows in zip(starts, chunks):
            corr[lo:lo + CORRELATION_CHUNK] = _toeplitz_psd(rows)
    corr = corr.reshape(k_count, l_count, n_ant, n_ant) \
        * beta_nlos[..., None, None]
    return ChannelStatistics(scenario=scenario, beta=beta, kappa=kappa,
                             theta=theta, beta_los=beta_los,
                             beta_nlos=beta_nlos, h_bar=h_bar, R=corr)
