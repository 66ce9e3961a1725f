"""Small numeric helpers shared across the simulator: integer and index
checks, dB conversion, complex Gaussian sampling, Hermitian linear algebra."""

import logging
import math
import operator

import numpy as np

log = logging.getLogger(__name__)

DRAW_BLOCK_ELEMS = 1 << 16   # float values per block of a drawn part


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix required to be PSD has genuinely negative spectrum."""


def _is_integer(value):
    """Whether ``operator.index`` takes ``value``, bools excluded: int()
    would floor 2.7 to 2, and read True as 1 and "3" as 3."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _index_array(name, values, bound, length=None):
    """``values`` as an owned, read-only 1-D int array of indices in
    [0, ``bound``), of ``length`` entries when that is given; anything else
    raises a ``ValueError`` whose message starts with ``name``."""
    indices = np.array(values)
    # a list mixing bools and ints converts to an int array: read its items
    if (indices.ndim != 1 or indices.dtype.kind not in "iu"
            or not all(map(_is_integer, values))):
        raise ValueError(f"{name} must be a 1-D array of integer indices, "
                         f"got {values!r}")
    if length is not None and len(indices) != length:
        raise ValueError(f"{name} has {len(indices)} entries, not {length}")
    if np.any(indices < 0) or np.any(indices >= bound):
        raise ValueError(f"{name} indices out of range [0, {bound})")
    indices = indices.astype(int, copy=False)
    indices.setflags(write=False)
    return indices


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


def crandn(rng, shape, var=1.0, out=None):
    """Circularly symmetric complex Gaussian samples, elementwise variance ``var``.

    ``var`` broadcasts to ``shape``; real and imaginary parts each carry
    half the variance. The draws fill ``out`` (of ``shape``, any strides,
    such as a trials-last array seen through an (n, ...) view), or a new
    C-ordered complex array when ``out`` is None: each part, real then
    imaginary, in blocks along the first axis through one reused float
    buffer. A block holds about DRAW_BLOCK_ELEMS values and at least 32
    rows, so each element's rows still fill whole cache lines of a
    trials-last array (2-row blocks made a paper-scale draw 2.2x slower).
    The values and their order are those of one whole-array
    ``rng.standard_normal`` draw per part, real part first.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    rows = np.atleast_1d(out)          # a view: a 0-d draw is one row
    n, row = len(rows), rows.shape[1:]
    block = max(32, DRAW_BLOCK_ELEMS // max(1, math.prod(row)))
    buf = np.empty((min(block, n),) + row)
    for part in (rows.real, rows.imag):
        for lo in range(0, n, block):
            drawn = rng.standard_normal(out=buf[:min(block, n - lo)])
            part[lo:lo + len(drawn)] = drawn
    out *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return out


def hermitize(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def solve_hermitian(a, b):
    """Solve a @ x = b for Hermitian ``a`` (..., m, m): one Cholesky over the
    stack; if it fails, per matrix, with a tiny trace-scaled ridge (logged)
    where rank-one subtractions at extreme SNR leave one indefinite."""
    a, b = np.asarray(a), np.asarray(b)
    try:
        c = np.linalg.cholesky(a)
        y = np.linalg.solve(c, b[..., None])
        return np.linalg.solve(np.conj(np.swapaxes(c, -1, -2)), y)[..., 0]
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            return np.stack([solve_hermitian(*pair) for pair in zip(a, b)])
        jitter = 1e-12 * np.trace(a).real / a.shape[-1]
        log.warning("hermitian solve fell back to ridge %.3e", jitter)
        return np.linalg.solve(a + jitter * np.eye(a.shape[-1]), b)
