"""Additive finite-resolution DAC/ADC distortion model.

Quantization is modeled as a deterministic gain plus Gaussian noise whose
covariance is set by the ensemble second moment of the converter input:

    DAC:  f(x) = sqrt(1 - rho_da) x + n,  cov(n) = rho_da diag(E[x x^H])
    ADC:  f(x) = (1 - rho_ad) x + n,      cov(n) = rho_ad (1 - rho_ad) diag(E[x x^H])

The distortion factor rho comes from a fixed table for 1-5 bits and from the
exponential law sqrt(3) pi 2^(-2b-1) above that; "ideal" converters have rho=0.

``received_noise_covariance`` is the one receive-noise function: the
estimation context calls it for every UE on every AP, and each MMSE-family
detector's static part for its noise set on its APs.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .numerics import _is_integer, hermitize

DISTORTION_TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


def distortion_factor(bits):
    """Distortion factor for a b-bit converter; ``None`` or "ideal" gives 0."""
    if bits is None or bits == "ideal":
        return 0.0
    if not _is_integer(bits):
        raise ValueError(f"converter resolution must be an integer, got {bits!r}")
    bits = operator.index(bits)     # a numpy uint8 would overflow -2b-1
    if bits < 1:
        raise ValueError(f"converter resolution must be >= 1 bit, got {bits}")
    if bits in DISTORTION_TABLE:
        return DISTORTION_TABLE[bits]
    return math.sqrt(3.0) * math.pi * 2.0 ** (-2 * bits - 1)


@dataclass(frozen=True)
class QuantizerConfig:
    b_da: int | None = None
    b_ad: int | None = None
    rho_da: float = field(init=False)
    rho_ad: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho_da", distortion_factor(self.b_da))
        object.__setattr__(self, "rho_ad", distortion_factor(self.b_ad))

    @classmethod
    def ideal(cls):
        return cls(b_da=None, b_ad=None)


def received_noise_covariance(stats, p_ddot, q, sigma2, ues, aps):
    """(|aps|, N, N) covariances of the effective receive noise at ``aps``.

    Collects the UE-side DAC distortion forwarded through the channel, the
    AP-side ADC distortion, and thermal noise. The channel moment sums
    Sum_i p̈_i (h_bar h_bar^H + R) run over the UE set ``ues``: every UE for
    the estimation context, a detector's noise set for its system matrix.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    ues = np.asarray(ues, dtype=int)
    pairs = np.ix_(ues, np.asarray(aps, dtype=int))
    h = stats.h_bar[pairs]                            # (|ues|, |aps|, N)
    m = np.einsum("i,ianm->anm", p_ddot[ues],
                  h[..., :, None] * np.conj(h[..., None, :]) + stats.R[pairs])
    one_ad = 1.0 - q.rho_ad
    cov = (one_ad**2 * q.rho_da / (1.0 - q.rho_da)) * m
    diag = np.arange(m.shape[-1])
    cov[..., diag, diag] += (q.rho_ad * one_ad / (1.0 - q.rho_da)) * np.real(
        m[..., diag, diag])
    cov[..., diag, diag] += one_ad * sigma2
    return hermitize(cov)
