"""Small numeric helpers shared across the simulator: dB conversion,
complex Gaussian sampling, and Hermitian linear algebra."""

import logging

import numpy as np

log = logging.getLogger(__name__)


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix required to be PSD has genuinely negative spectrum."""


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


def crandn(rng, shape, var=1.0, out=None):
    """Circularly symmetric complex Gaussian samples, elementwise variance ``var``.

    ``var`` broadcasts to ``shape``; real and imaginary parts each carry
    half the variance. The parts are drawn real first, straight into one
    complex array: ``out`` if given (of ``shape``, any strides), else a new
    one.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return out


def hermitize(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def solve_hermitian(a, b):
    """Solve a @ x = b for Hermitian ``a``.

    Cholesky first; if the matrix is numerically indefinite (rank-one
    subtractions at extreme SNR can do this), retry with a tiny trace-scaled
    ridge and log the event.
    """
    a = np.asarray(a)
    try:
        c = np.linalg.cholesky(a)
        y = np.linalg.solve(c, b)
        return np.linalg.solve(np.conj(c.T), y)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(a).real / a.shape[-1]
        log.warning("hermitian solve fell back to ridge %.3e", jitter)
        return np.linalg.solve(a + jitter * np.eye(a.shape[-1]), b)
