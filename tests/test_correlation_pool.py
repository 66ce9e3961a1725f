"""The threaded correlation build of ``channel_statistics``.

The oracle is the serial build the pool replaced: whole-chunk phase arrays,
one chunk after another on the calling thread, the node doubling on every
chunk and an ``eigh`` on every link. R must match it bit for bit, for any
thread count.
"""

import functools
import inspect
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from scfsim import channel
from scfsim.channel import (QUAD_MAX_NODES, QUAD_RTOL, QuadratureError,
                            _gauss_legendre, channel_statistics,
                            generate_scenario)
from scfsim.config import SimConfig

from conftest import allow_cpus
from oracles import toeplitz_psd

# The serial build's chunk: each chunk stops refining on its worst link, so
# the chunk boundaries are part of R's bits.
CHUNK = 512
# 1150 links: two full chunks, then a 126-link chunk that ends on a partial
# sub-block.
K_UE, L_AP = 50, 23


def _serial_rows(thetas, asd, n_antennas, n_nodes):
    half = 20.0 * asd
    x, w = _gauss_legendre(n_nodes)
    delta = half * x
    weight = half * w / (np.sqrt(2.0 * np.pi) * asd) * np.exp(-delta**2 / (2.0 * asd**2))
    s = np.sin(np.asarray(thetas, dtype=float)[:, None] + delta[None, :])
    m = np.arange(n_antennas)
    phase = 1j * np.pi * m[None, :, None] * s[:, None, :]
    return np.exp(phase, out=phase) @ weight


def _serial_converged(thetas, asd, n_antennas, rtol, max_nodes):
    n_nodes = 64
    rows = _serial_rows(thetas, asd, n_antennas, n_nodes)
    while True:
        n_nodes *= 2
        assert n_nodes <= max_nodes
        refined = _serial_rows(thetas, asd, n_antennas, n_nodes)
        scale = np.maximum(np.max(np.abs(refined), axis=1), 1e-300)
        if np.max(np.max(np.abs(refined - rows), axis=1) / scale) <= rtol:
            return refined
        rows = refined


def _serial_correlation(stats, asd):
    flat_theta = stats.theta.reshape(-1)
    n_ant = stats.N
    corr = np.empty((len(flat_theta), n_ant, n_ant), dtype=complex)
    for lo in range(0, len(flat_theta), CHUNK):
        hi = min(lo + CHUNK, len(flat_theta))
        rows = _serial_converged(flat_theta[lo:hi], asd, n_ant,
                                 QUAD_RTOL, QUAD_MAX_NODES)
        corr[lo:hi] = toeplitz_psd(rows)
    return corr.reshape(stats.K, stats.L, n_ant, n_ant) \
        * stats.beta_nlos[..., None, None]


def _build(n_ant, asd, rayleigh=False, seed=3):
    cfg = SimConfig(L=L_AP, K=K_UE, N=n_ant)
    return channel_statistics(generate_scenario(cfg, seed), seed, asd,
                              rayleigh=rayleigh)


@pytest.mark.parametrize("asd_deg", (0.5, 5, 15, 30, 60))
@pytest.mark.parametrize("n_ant", (1, 2, 3, 8))
@pytest.mark.parametrize("rayleigh", (False, True))
def test_threaded_build_matches_serial_oracle(monkeypatch, rayleigh, n_ant,
                                              asd_deg):
    asd = np.radians(asd_deg)
    stats = _build(n_ant, asd, rayleigh)
    assert stats.K * stats.L == 1150
    oracle = _serial_correlation(stats, asd).view(float)
    assert np.array_equal(stats.R.view(float), oracle)
    for cpus in (1, 4):
        allow_cpus(monkeypatch, cpus)
        again = _build(n_ant, asd, rayleigh)
        assert np.array_equal(again.R.view(float), oracle)


def test_worker_quadrature_error_reaches_the_caller(monkeypatch):
    threads = set()
    converged = channel._converged_rows

    def recording(*args):
        threads.add(threading.get_ident())
        return converged(*args)

    monkeypatch.setattr(channel, "_converged_rows", recording)
    monkeypatch.setattr(channel, "QUAD_MAX_NODES", 64)
    allow_cpus(monkeypatch, 1)
    # an (ASD, N) the quadrature bound does not certify: the node doubling
    # runs, and finds no budget
    with pytest.raises(QuadratureError):
        _build(8, np.radians(30))
    assert threads and threading.get_ident() not in threads


def test_public_functions_stay_on_the_calling_thread(monkeypatch):
    """Tracers wrap every public scfsim function (``hermitize`` also where
    ``channel`` imports it) with a span stack that is not thread-safe."""
    calls = []

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    modules = [module for name, module in list(sys.modules.items())
               if name == "scfsim" or name.startswith("scfsim.")]
    wrappers = {id(obj): wrap(obj) for module in modules
                for attr, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_")}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(obj)])
    allow_cpus(monkeypatch, 4)
    _build(3, np.radians(15))
    names = {name for name, _ in calls}
    assert {"substream", "hermitize"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("in_child, cpus, expected",
                         [(False, 4, 3), (False, 1, 1), (True, 4, 1)])
def test_pool_size(monkeypatch, in_child, cpus, expected):
    sizes = []

    class Recording(channel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(channel, "ThreadPoolExecutor", Recording)
    allow_cpus(monkeypatch, cpus)
    if in_child:
        monkeypatch.setattr(multiprocessing, "parent_process",
                            multiprocessing.current_process)
    _build(2, np.radians(15))
    assert sizes == [expected]
