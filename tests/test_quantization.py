import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfsim.numerics import hermitize
from scfsim.quantization import (QuantizerConfig, distortion_factor,
                                 received_noise_covariance)
from scfsim.rng import substream

from conftest import small_system, synthetic_stats
from oracles import adc_apply, dac_apply

TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


@pytest.mark.parametrize("bits,rho", sorted(TABLE.items()))
def test_table_values(bits, rho):
    assert distortion_factor(bits) == rho


def test_formula_beyond_table():
    assert distortion_factor(6) == pytest.approx(math.sqrt(3) * math.pi * 2**-13,
                                                 rel=1e-15)
    assert distortion_factor(None) == 0.0
    with pytest.raises(ValueError):
        distortion_factor(0)
    # the one ideal form is None: the string "ideal" is no resolution
    with pytest.raises(ValueError, match="must be an integer"):
        distortion_factor("ideal")
    # -2b-1 past the float range: refused, naming the law
    with pytest.raises(ValueError, match=re.escape("sqrt(3) pi 2^(-2b-1)")):
        distortion_factor(10**400)
    assert distortion_factor(10**4) == 0.0      # 2^(-20001) underflows to 0


@pytest.mark.parametrize("bits", (2.7, 2.0, 0.5, True, False, np.bool_(True),
                                  "3", "ideal ", [2]),
                         ids=("2.7", "2.0", "0.5", "True", "False", "np-True",
                              "string", "padded-ideal", "list"))
def test_non_integer_resolution_is_refused(bits):
    """2.7 read as the 2-bit factor, True as 1 bit and "3" as 3 bits; 0.5
    was refused as "got 0"."""
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bits!r}")):
        distortion_factor(bits)
    with pytest.raises(ValueError, match="must be an integer"):
        QuantizerConfig(b_da=4, b_ad=bits)


@pytest.mark.parametrize("dtype", (np.int8, np.uint8, np.int64))
def test_numpy_integer_resolution_is_read(dtype):
    assert distortion_factor(dtype(3)) == TABLE[3]
    assert QuantizerConfig(b_da=dtype(2), b_ad=dtype(6)).rho_ad == \
        distortion_factor(6)


@given(st.integers(min_value=1, max_value=24))
def test_monotone_decreasing(bits):
    assert distortion_factor(bits) > distortion_factor(bits + 1)


def test_table_formula_boundary_jump_is_bounded():
    formula_5 = math.sqrt(3) * math.pi * 2**-11
    jump = abs(TABLE[5] - formula_5) / formula_5
    assert jump < 0.12


def test_quantizer_config_fields():
    q = QuantizerConfig(b_da=1, b_ad=3)
    assert q.rho_da == TABLE[1] and q.rho_ad == TABLE[3]
    assert QuantizerConfig().rho_da == QuantizerConfig().rho_ad == 0.0


def test_dac_identity_when_ideal():
    x = np.array([1 + 2j, -0.5j, 3.0])
    out = dac_apply(x, 0.0, np.ones(3), substream(0, "q"))
    assert np.array_equal(out, x)
    out = adc_apply(x, 0.0, np.ones(3), substream(0, "q"))
    assert np.array_equal(out, x)


def test_dac_power_preserving():
    rho = TABLE[1]
    rng = substream(3, "dac")
    var = np.array([2.0, 0.5])
    trials = 100000
    x = (rng.standard_normal((trials, 2)) + 1j * rng.standard_normal((trials, 2)))
    x *= np.sqrt(var / 2)
    y = dac_apply(x, rho, var, rng)
    in_power = np.mean(np.abs(x) ** 2, axis=0)
    out_power = np.mean(np.abs(y) ** 2, axis=0)
    stderr = 3 * var / np.sqrt(trials)
    assert np.all(np.abs(out_power - in_power) < 2 * stderr)
    # mean scales by sqrt(1 - rho)
    mean_in = x.mean(axis=0)
    assert np.max(np.abs(y.mean(axis=0) - np.sqrt(1 - rho) * mean_in)) < 0.05


def test_adc_second_moment_scaling():
    rho = TABLE[2]
    rng = substream(4, "adc")
    var = np.array([1.5])
    trials = 100000
    x = (rng.standard_normal((trials, 1)) + 1j * rng.standard_normal((trials, 1)))
    x *= np.sqrt(var / 2)
    y = adc_apply(x, rho, var, rng)
    out_power = np.mean(np.abs(y) ** 2)
    # (1-rho)^2 + rho(1-rho) = (1-rho)
    assert abs(out_power - (1 - rho) * var[0]) < 3 * var[0] / np.sqrt(trials) * 2


def test_quantization_noise_uncorrelated_with_input():
    rho = TABLE[1]
    rng = substream(5, "xcorr")
    trials = 200000
    x = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2)
    y = adc_apply(x, rho, np.ones(trials), rng)
    noise = y - (1 - rho) * x
    xcorr = np.mean(noise * np.conj(x))
    assert abs(xcorr) < 4 / np.sqrt(trials)


def test_received_noise_ideal_hardware_reduces_to_thermal():
    _, stats, _, powers, _, _, _ = small_system(seed=1)
    q0 = QuantizerConfig()
    sigma2 = 0.123
    c = received_noise_covariance(stats, powers, q0, sigma2,
                                  np.arange(stats.K), np.arange(stats.L))
    assert np.allclose(c, sigma2 * np.eye(stats.N), atol=1e-15)


def test_received_noise_scalar_oracle():
    # K=1, N=1, kappa=0: hand evaluation of the three-term covariance
    beta = np.array([[0.4]])
    stats = synthetic_stats(beta, np.zeros((1, 1)), np.zeros((1, 1)), 1)
    q = QuantizerConfig(b_da=2, b_ad=3)
    p_ddot = np.array([5.0])
    sigma2 = 0.01
    one_ad = 1 - q.rho_ad
    moment = p_ddot[0] * beta[0, 0]   # h_bar = 0, diag(R) = beta
    expected = (one_ad**2 * q.rho_da / (1 - q.rho_da) * moment
                + q.rho_ad * one_ad / (1 - q.rho_da) * moment
                + one_ad * sigma2)
    got = received_noise_covariance(stats, p_ddot, q, sigma2, [0], [0])
    assert got.shape == (1, 1, 1)
    assert got[0, 0, 0].real == pytest.approx(expected, rel=1e-8)
    assert abs(got[0, 0, 0].imag) < 1e-18
    # an empty UE set leaves the thermal term alone
    empty = received_noise_covariance(stats, p_ddot, q, sigma2, [], [0])
    assert empty[0, 0, 0] == one_ad * sigma2


def test_received_noise_hermitian_psd():
    _, stats, q, powers, _, _, _ = small_system(L=3, K=5, N=3, tau=2, seed=8)
    every = np.arange(stats.K)
    for l in range(stats.L):
        c = received_noise_covariance(stats, powers, q, 1e-9,
                                      every, [l])[0]
        assert np.max(np.abs(c - c.conj().T)) < 1e-25
        assert np.min(np.linalg.eigvalsh(hermitize(c))) > 0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.0, max_value=0.99))
def test_apply_rejects_negative_variances(rho_da, rho_ad):
    rng = substream(0, "neg")
    with pytest.raises(ValueError):
        dac_apply(np.ones(2), rho_da, np.array([1.0, -0.1]), rng)
    with pytest.raises(ValueError):
        adc_apply(np.ones(2), rho_ad, np.array([-1.0, 0.1]), rng)
