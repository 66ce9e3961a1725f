"""Network geometry and per-link channel statistics.

Each UE-AP link carries a large-scale gain split into a deterministic LOS ray
(steering vector of a half-wavelength ULA) and a correlated NLOS part whose
spatial correlation matrix follows a Gaussian local-scattering model evaluated
by adaptive Gauss-Legendre quadrature.

``channel_statistics`` runs that quadrature on a thread pool, one
``CORRELATION_CHUNK`` of links per task: ``np.exp`` and the quadrature's
matrix-vector product release the GIL. The pool has min(chunks, CPU count)
threads, and one inside a ``multiprocessing`` child (a harness pool worker),
so threads times processes stay within the cores. Every link gets the same
arithmetic as a serial build, so R is bit-identical for any thread count.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .numerics import (NotPositiveSemidefiniteError, crandn, db_to_linear,
                       hermitian_sqrt, hermitize)
from .rng import substream

PATHLOSS_INTERCEPT_DB = -30.5
PATHLOSS_SLOPE_DB = 36.7
SHADOW_STD_DB = 4.0
RICIAN_INTERCEPT_DB = 13.0
RICIAN_SLOPE_DB_PER_M = 0.03
MIN_DISTANCE_M = 1.0        # floor keeps the log-distance law finite at the AP
QUAD_RTOL = 1e-10
QUAD_MAX_NODES = 1 << 17
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
        if self.area_side <= 0 or self.antennas_per_ap < 1:
            raise ValueError("area_side and antennas_per_ap must be positive")
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
class LinkStatistics:
    beta: float            # total large-scale gain, linear
    kappa: float           # Rician factor, linear
    theta: float           # angle of arrival at the AP, rad
    beta_los: float        # beta * kappa / (kappa + 1)
    beta_nlos: float       # beta / (kappa + 1)
    h_bar: np.ndarray      # (N,) LOS mean vector
    R: np.ndarray          # (N, N) NLOS spatial correlation, Hermitian PSD


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
    _sqrt_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def K(self):
        return self.scenario.K

    @property
    def L(self):
        return self.scenario.L

    @property
    def N(self):
        return self.scenario.N

    def link(self, k, l):
        return LinkStatistics(
            beta=float(self.beta[k, l]), kappa=float(self.kappa[k, l]),
            theta=float(self.theta[k, l]), beta_los=float(self.beta_los[k, l]),
            beta_nlos=float(self.beta_nlos[k, l]), h_bar=self.h_bar[k, l],
            R=self.R[k, l])

    def r_sqrt(self):
        """(K, L, N, N) factors F with F F^H = R, cached for samplers."""
        if "F" not in self._sqrt_cache:
            w, v = np.linalg.eigh(hermitize(self.R))
            self._sqrt_cache["F"] = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
        return self._sqrt_cache["F"]


def generate_scenario(cfg, seed):
    """Drop L APs and K UEs uniformly at random over the deployment square."""
    if cfg.L < 1 or cfg.K < 1 or cfg.N < 1 or cfg.area_side <= 0:
        raise ValueError("scenario dimensions must be positive")
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


def los_steering(theta, n_antennas, beta_los):
    """Half-wavelength ULA steering vector scaled to power beta_los per antenna."""
    if n_antennas < 1 or beta_los < 0:
        raise ValueError("need n_antennas >= 1 and beta_los >= 0")
    phases = -1j * np.pi * np.arange(n_antennas) * np.sin(theta)
    return np.sqrt(beta_los) * np.exp(phases)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]. The adaptive
    quadrature doubles from 64 nodes up to QUAD_MAX_NODES, so at most 12
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
    m = np.arange(n_antennas)
    rows = np.empty((len(thetas), n_antennas), dtype=complex)
    for lo in range(0, len(thetas), _ROW_BLOCK):
        s = np.sin(thetas[lo:lo + _ROW_BLOCK, None] + delta[None, :])
        # row[j, m] = ∫ exp(jπ m sin(θ_j+δ)) N(δ; 0, asd²) dδ over ±20 asd;
        # exp in place halves the largest temporary of the statistics build
        phase = 1j * np.pi * m[None, :, None] * s[:, None, :]
        rows[lo:lo + _ROW_BLOCK] = np.exp(phase, out=phase) @ weight
    return rows


def _converged_rows(thetas, asd, n_antennas, rtol, max_nodes):
    """Node count doubled until successive evaluations agree to ``rtol``."""
    n_nodes = 64
    rows = _correlation_rows(thetas, asd, n_antennas, n_nodes)
    while True:
        n_nodes *= 2
        if n_nodes > max_nodes:
            raise QuadratureError(
                f"correlation quadrature did not reach rtol={rtol} "
                f"within {max_nodes} nodes")
        refined = _correlation_rows(thetas, asd, n_antennas, n_nodes)
        scale = np.maximum(np.max(np.abs(refined), axis=1), 1e-300)
        if np.max(np.max(np.abs(refined - rows), axis=1) / scale) <= rtol:
            return refined
        rows = refined


def _toeplitz_psd(rows):
    """(J, N) generator rows -> (J, N, N) Hermitian PSD Toeplitz matrices.

    Gauss-Legendre weights are positive, so the integrated matrix is PSD up
    to rounding; eigenvalues inside the clip band are zeroed, anything more
    negative raises.
    """
    n_antennas = rows.shape[1]
    idx = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    full = np.where(idx[None] >= 0, rows[:, np.abs(idx)],
                    np.conj(rows[:, np.abs(idx)]))
    full = hermitize(full)
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
    # NaN, 0 or inf would make every quadrature weight NaN, and the node
    # count would double to QUAD_MAX_NODES (a 3.2 GB phase array per chunk
    # at N=3) before QuadratureError.
    if not (np.isfinite(asd) and asd > 0):
        raise ValueError(f"angular standard deviation must be finite and > 0, "
                         f"got {asd}")


def spatial_correlation(theta, asd, beta_nlos, n_antennas,
                        rtol=QUAD_RTOL, max_nodes=QUAD_MAX_NODES):
    """Spatial correlation matrix of the NLOS component for a ULA.

    The angular integral depends only on the antenna index difference, so a
    single Toeplitz generator row is integrated and the matrix assembled
    exactly Hermitian, then PSD-clipped against quadrature noise.
    """
    _check_asd(asd)
    rows = _converged_rows([theta], asd, n_antennas, rtol, max_nodes)
    return beta_nlos * _toeplitz_psd(rows)[0]


# Links per quadrature task. Fixed, not derived from the thread count: each
# chunk stops doubling its node count on the worst link in it, so moving a
# boundary can change a link's node count and with it the bits of R.
CORRELATION_CHUNK = 512


def _quadrature_threads(n_chunks):
    if multiprocessing.parent_process() is not None:
        return 1
    return min(n_chunks, os.cpu_count() or 1)


def channel_statistics(scenario, seed, asd_rad, rayleigh=False):
    """Build every link's statistics; shadow fading drawn from the seed.

    The correlation quadrature runs on min(chunks, CPU count) threads, one
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
                                       asd_rad, n_ant, QUAD_RTOL, QUAD_MAX_NODES),
            starts)
        for lo, rows in zip(starts, chunks):
            corr[lo:lo + CORRELATION_CHUNK] = _toeplitz_psd(rows)
    corr = corr.reshape(k_count, l_count, n_ant, n_ant) \
        * beta_nlos[..., None, None]
    return ChannelStatistics(scenario=scenario, beta=beta, kappa=kappa,
                             theta=theta, beta_los=beta_los,
                             beta_nlos=beta_nlos, h_bar=h_bar, R=corr)


def sample_channel(link, rng):
    """One realization h = h_bar + R^{1/2} w, w standard complex Gaussian."""
    factor = hermitian_sqrt(link.R)
    return link.h_bar + factor @ crandn(rng, link.R.shape[-1])
